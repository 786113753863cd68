"""Package-wide checks: every module imports and exports what it names."""

import importlib
import pkgutil

import emdenlab


def test_every_exported_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(emdenlab.__path__) if m.name != "__main__"]
    assert "exprlang" in names and "timefn" in names
    for name in names:
        module = importlib.import_module(f"emdenlab.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"emdenlab.{name}.__all__ names {missing}"
