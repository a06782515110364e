"""The package exports every name the benchmark imports from it."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
