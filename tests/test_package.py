"""The package namespace exports exactly what it declares."""

import importlib
import pkgutil

import jackb2


def test_every_exported_name_resolves():
    missing = [name for name in jackb2.__all__ if not hasattr(jackb2, name)]
    assert not missing, missing


def test_every_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(jackb2.__path__):
        module = importlib.import_module(f"jackb2.{info.name}")
        for name, value in vars(module).items():
            params = getattr(value, "cache_parameters", None)
            if callable(params) and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = params()["maxsize"]
    assert len(caches) >= 5, caches
    assert all(size is not None for size in caches.values()), caches
