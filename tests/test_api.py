"""The package exports every name the benchmark imports from it or
patches in it, and the library computes with no floats."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LIBRARY = Path(__file__).resolve().parent.parent / "src" / "hncodes"


def test_bench_imports_exist():
    # trimming an export must not silently break the benchmark, whose
    # files are only imported when it runs
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "hncodes"):
                imported += [(path.name, node.module, a.name)
                             for a in node.names]
    assert {f for f, _, _ in imported} >= {"workloads.py", "fields.py",
                                           "stages.py"}
    missing = [x for x in imported
               if not hasattr(importlib.import_module(x[1]), x[2])]
    assert not missing


def test_bench_trace_targets_exist():
    # `bench/run.py --trace 1` rebinds each (module, class, attribute) that
    # tracing.py lists; a renamed target would stop it with a KeyError
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(m, c, a) for _, m, c, a, _ in tracing.LAYERS
               + tracing.CLI_LAYERS]
    # the footprint targets are a literal list inside Tracer.install
    (footprints,) = [
        ast.literal_eval(node.value)
        for node in ast.walk(ast.parse((BENCH / "tracing.py").read_text()))
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["footprints"]]
    targets += footprints
    assert len(footprints) == 3 and len(targets) > 50
    missing, functions = [], {}
    for modname, clsname, attr in targets:
        owner = importlib.import_module(modname)
        if clsname:
            owner = owner.__dict__.get(clsname)
        if owner is None or attr not in owner.__dict__:
            missing.append((modname, clsname, attr))
        else:
            functions[modname, clsname, attr] = owner.__dict__[attr]
    assert not missing
    # tracing.py rebinds by identity, so two targets that are one function
    # (an alias) would be wrapped twice and bill their time to one layer;
    # a target listed twice (a span and a footprint) is one target
    ids = {id(fn) for fn in functions.values()}
    assert len(ids) == len(functions)


def test_bench_matroid_methods_exist():
    # the products workload calls methods on the matroids it builds; those
    # are names the benchmark reads without importing them, and the
    # tracer wraps some of them by name
    from hncodes.matroid import Matroid
    tree = ast.parse((BENCH / "workloads.py").read_text())
    called = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        built = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Call)
                 and getattr(node.value.func, "id", "").startswith("matroid_")
                 for t in node.targets if isinstance(t, ast.Name)}
        called |= {node.func.attr for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and getattr(node.func.value, "id", None) in built}
    assert called >= {"profile", "hierarchy", "polygon", "graded"}
    assert [m for m in sorted(called) if not callable(
        getattr(Matroid, m, None))] == []


def test_library_has_no_floats():
    # every computed value is exact: no module but the CLI (its SVG
    # coordinates and its stderr timing) names `float` or writes a float
    # literal
    paths = [p for p in sorted(LIBRARY.glob("*.py")) if p.name != "cli.py"]
    assert len(paths) >= 10
    hits = [(path.name, node.lineno) for path in paths
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Name) and node.id == "float"
            or isinstance(node, ast.Constant)
            and isinstance(node.value, float)]
    assert hits == []


def test_library_imports_no_private_helpers():
    # an underscore name is its module's own: no library module imports
    # one from another, except the cap's one refusal, `algebra._check_cap`
    allowed = {("algebra", "_check_cap")}
    hits = [(path.name, node.module, a.name)
            for path in sorted(LIBRARY.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names
            if a.name.startswith("_") and not a.name.endswith("__")
            and (node.module, a.name) not in allowed]
    assert hits == []


def test_one_stepping_loop_calls_the_reduction_step():
    # every row reduction of the library is one loop over the one step:
    # `algebra._rref_step` is named by exactly one function, the stepping
    # loop `algebra._stepped`, and by no other function or module
    users = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, (where[0], getattr(child, "name", "lambda")))
                continue
            if (isinstance(child, ast.Name) and child.id == "_rref_step"
                    or isinstance(child, ast.Attribute)
                    and child.attr == "_rref_step"):
                users.add(where)
            visit(child, where)
    for path in sorted(LIBRARY.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), (path.name, None))
    assert users == {("algebra.py", "_stepped")}


def test_library_calls_no_private_methods_across_modules():
    # an underscore method is its class's own module's: no library module
    # calls one that only another module defines, except the subset
    # engine's hook for graded pieces, `X._minor` (hn.subset_graded)
    def private(name):
        return name.startswith("_") and not name.endswith("__")
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(LIBRARY.glob("*.py"))}
    methods = {name: {f.name for c in ast.walk(tree)
                      if isinstance(c, ast.ClassDef) for f in c.body
                      if isinstance(f, ast.FunctionDef) and private(f.name)}
               for name, tree in trees.items()}
    foreign = set().union(*methods.values())
    allowed = {("hn.py", "_minor")}
    hits = sorted({(name, node.func.attr)
                   for name, tree in trees.items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in foreign - methods[name]
                   and (name, node.func.attr) not in allowed})
    assert hits == []
