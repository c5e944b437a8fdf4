"""The package namespace exports exactly what it declares."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def _fresh_interpreter_modules(code, package):
    """Modules of package loaded after code runs in a fresh interpreter."""
    code += f"; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jackb2.__file__)))
    proc = subprocess.run([sys.executable, "-c", "import sys; " + code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows it.
    assert _fresh_interpreter_modules("import jackb2, jackb2.cli", "scipy") == "[]"


def test_exact_path_loads_no_numpy():
    # Only the float paths import numpy, when first called.
    code = "import jackb2; from fractions import Fraction; jackb2.jack_p((3, 1), Fraction(1, 2), 3)"
    assert _fresh_interpreter_modules(code, "numpy") == "[]"
