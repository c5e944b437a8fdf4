"""The package namespace exports exactly what it declares."""

import jackb2


def test_every_exported_name_resolves():
    missing = [name for name in jackb2.__all__ if not hasattr(jackb2, name)]
    assert not missing, missing
