"""Package-wide checks: every module imports and exports what it names."""

import ast
import importlib
import inspect
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


def _package_imports(source: str) -> list:
    """The emdenlab modules a source imports, relative ones with their dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "emdenlab"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] == "emdenlab"]
    return found


def test_the_scheme_algebra_imports_nothing_from_the_package():
    # vfields is exact only, so scheme-check loads it and nothing else
    package = Path(emdenlab.__file__).parent
    assert ".vfields" in _package_imports((package / "cli.py").read_text(encoding="utf-8"))
    assert _package_imports((package / "vfields.py").read_text(encoding="utf-8")) == []


def _module_level_imports(source: str) -> set:
    """The modules a source imports outside any function, relative ones
    with their dots."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
    return found


def test_only_what_integrates_or_needs_dataclasses_imports_them_at_load():
    # compiling the integrator and the dataclasses machinery is start-up
    # cost, so a module imports them where it runs them; the invariants and
    # the canonical form integrate in nearly every function, and keep the
    # dataclasses that perfbench/test_perfbench.py copies
    heavy = {".numerics", "dataclasses"}
    importers = {path.stem for path in Path(emdenlab.__file__).parent.glob("*.py")
                 if _module_level_imports(path.read_text(encoding="utf-8")) & heavy}
    assert importers == {"canonical", "invariants"}


def test_checks_set_their_own_grids_and_tolerances():
    # a grid, tolerance or integrator setting on a check is a parameter only
    # where some caller sets it; every other check runs at its fixed values
    knobs = {"config", "samples", "grid", "grid_points", "rel_tol", "tol", "threshold",
             "level_tol"}
    functions = {}
    for name in ("gauge", "canonical", "invariants", "solutions"):
        module = importlib.import_module(f"emdenlab.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions[attr] = obj
            elif inspect.isclass(obj):
                functions.update((f"{attr}.{m}", fn) for m, fn in vars(obj).items()
                                 if not m.startswith("_") and inspect.isfunction(fn))
    assert "CatalogEntry.residual_report" in functions and "kummer_liouville" in functions
    found = {f"{label}.{p}" for label, fn in functions.items()
             for p in inspect.signature(fn).parameters if p in knobs}
    assert found == {"drift.samples", "canonical_residual.grid_points",
                     "verify_solution.threshold", "verify_solution.samples",
                     "reduce_via_particular_solution.tol", "mixing_constant.level_tol"}


def _builtin_calls(source: str, names: set) -> list:
    """(name, enclosing function) for each call of a name in names by its
    bare name; ``re.compile`` is an attribute call and does not count."""
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id in names):
                calls.append((child.func.id, where))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return calls


def test_generated_code_becomes_a_function_in_one_place():
    # exprlang._define execs every generated text, and only it reaches the
    # compile behind its cache, exprlang._code
    calls = sorted((path.name, *call)
                   for path in sorted(Path(emdenlab.__file__).parent.rglob("*.py"))
                   for call in _builtin_calls(path.read_text(encoding="utf-8"),
                                              {"compile", "exec", "_code"}))
    assert calls == [("exprlang.py", "_code", "_define"), ("exprlang.py", "compile", "_code"),
                     ("exprlang.py", "exec", "_define")]


def test_one_function_writes_files():
    # numerics.write_csv writes every table, to a path or a stream; the one
    # other open reads a problem file
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(Path(emdenlab.__file__).parent.rglob("*.py"))}
    opens = sorted((name, *call) for name, source in sources.items()
                   for call in _builtin_calls(source, {"open"}))
    assert opens == [("numerics.py", "open", "write_csv"), ("problemfile.py", "open", "load_spec")]
    modes = [node.args[1].value for node in ast.walk(ast.parse(sources["problemfile.py"]))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"]
    assert modes == ["r"]


def test_the_invariants_load_gauge_only_for_the_particular_solution():
    # the conditioned invariants need only time integrals; the reduction
    # behind the particular-solution invariant is imported where it runs
    source = (Path(emdenlab.__file__).parent / "invariants.py").read_text(encoding="utf-8")
    top_level = [node for node in ast.parse(source).body
                 if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert ".gauge" not in _package_imports(ast.unparse(ast.Module(top_level, [])))
    assert ".gauge" in _package_imports(source)
    # the checkers' integrator settings live in numerics, which both read
    from emdenlab import canonical, numerics

    assert canonical._CHECK_CONFIG is numerics._CHECK_CONFIG
