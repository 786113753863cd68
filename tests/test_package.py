"""Package-wide checks: every module imports and exports what it names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import emdenlab


def test_every_exported_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(emdenlab.__path__) if m.name != "__main__"]
    assert "exprlang" in names and "timefn" in names
    for name in names:
        module = importlib.import_module(f"emdenlab.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], f"emdenlab.{name}.__all__ names {missing}"


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(Path(emdenlab.__file__).parent.rglob("*.py"))
    assert len(paths) >= 12
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}

