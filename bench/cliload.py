"""The `cli` workload: cold `python -m hncodes` invocations, one at a time.

Children get an absolute `<root>/src` on PYTHONPATH and run in `<root>/
tests`, so the checked-in `data/...` paths resolve and the goldens, which
record those relative paths, can be compared byte for byte.  Generated
inputs are written per seed under the benchmark's output directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import direct_sum_rows, op_rng, partition_bases, random_rows

# (argv, golden file or None); "{gen}" is the generated-input directory
CLI_CASES = [
    (["weights", "data/binary_9_7.code"], "weights_9_7.json"),
    (["weights", "{gen}/gf256.code"], None),
    (["polygon", "data/binary_9_7.code", "--side", "subset"], None),
    (["semistable", "data/binary_9_7.code"], "semistable_9_7.json"),
    (["filtration", "{gen}/multi.code"], None),
    (["dual", "data/binary_5_2.code"], None),
    (["semistable", "data/binary_5_2.code"], "semistable_5_2.json"),
    (["weights", "{gen}/b16.code"], None),
    (["rr", "data/binary_5_2.code", "--all"], None),
    (["tensor", "data/binary_3_2_2.code", "data/binary_5_2.code"], None),
    (["semistable", "{gen}/gf256.code"], None),
    (["matroid", "data/u24.matroid"], None),
    (["semistable", "data/binary_5_2_square.code"],
     "semistable_5_2_square.json"),
    (["polygon", "{gen}/b16.code"], None),
    (["matroid", "data/from_code_9_7.matroid"], None),
    (["weights", "data/binary_3_2_2.code"], "weights_3_2_2.json"),
    (["dual", "{gen}/g3.code"], None),
    (["weights", "data/gf4_4_2.code", "--format", "csv"], None),
    (["rr", "{gen}/b16.code", "--J", "{mask}"], None),
    (["filtration", "data/binary_9_7.code"], None),
    (["polygon", "{gen}/multi.code", "--side", "subset"], None),
    (["tensor", "{gen}/ta.code", "{gen}/tb.code"], None),
    (["matroid", "{gen}/part.matroid"], None),
    (["matroid", "{gen}/g3.matroid"], None),
    (["selftest"], None),
]


def _code_text(field, rows) -> str:
    sep = "" if field.q <= 10 else " "
    head = f"field {field.p} {field.m}"
    if field.m > 1:
        head += f" {field.modulus}"
    body = [sep.join(str(x) for x in r) for r in rows]
    return "\n".join([head, f"code {len(rows[0])} {len(rows)}", *body]) + "\n"


def write_inputs(gen_dir, seed: int, fields) -> dict:
    """Write the seed's generated files; returns the argv substitutions."""
    rng = op_rng("cli", seed, 0)
    f2, f3, f256 = fields["2"], fields["3"], fields["256"]
    files = {
        "gf256.code": _code_text(f256, random_rows(rng, f256, 12, 6)),
        "b16.code": _code_text(f2, random_rows(rng, f2, 16, 8)),
        "multi.code": _code_text(f2, direct_sum_rows(rng, f2,
                                                     ((4, 3), (8, 3)))),
        "g3.code": _code_text(f3, random_rows(rng, f3, 10, 5)),
        "ta.code": _code_text(f2, random_rows(rng, f2, 4, 2, True)),
        "tb.code": _code_text(f2, random_rows(rng, f2, 4, 2, True)),
        "g3.matroid": "from-code g3.code\n",
    }
    sizes = [2, 3, 2, 3]
    rng.shuffle(sizes)
    files["part.matroid"] = "\n".join(
        [f"matroid {sum(sizes)} {len(sizes)}"]
        + [str(b) for b in partition_bases(sizes)]) + "\n"
    os.makedirs(gen_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(gen_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return {"gen": str(gen_dir), "mask": str(rng.randrange(1 << 16))}


def make_cli(index: int, subst: dict) -> dict:
    argv, golden = CLI_CASES[index % len(CLI_CASES)]
    return {"argv": [a.format(**subst) for a in argv], "golden": golden}


def spawn(argv, cwd, env, out_path, err_path):
    """Run one child to completion; returns (exit code, peak RSS in KiB).

    Output goes to files so the parent can reap the child with wait4 and
    read that child's own resource usage."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def command(op, bench_dir, trace_file=None) -> list:
    if trace_file is None:
        return [sys.executable, "-m", "hncodes", *op["argv"]]
    return [sys.executable, str(bench_dir / "cli_child.py"), str(trace_file),
            *op["argv"]]


def _false_flags(obj, path=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            if val is False and (key == "ok" or key.endswith("_ok")):
                yield f"{path}.{key}"
            yield from _false_flags(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _false_flags(val, f"{path}[{i}]")


def check_cli(op, code: int, stdout: bytes, goldens_dir, first_seen: dict
              ) -> list:
    """Exit 0, byte-identical to the golden where one exists, identical to
    the first run of the same argv, and no verified identity reported
    false."""
    bad = []
    if code != 0:
        return [f"exit code {code}"]
    if op["golden"] is not None:
        if stdout != (goldens_dir / op["golden"]).read_bytes():
            bad.append(f"stdout differs from golden {op['golden']}")
    key = tuple(op["argv"])
    if first_seen.setdefault(key, stdout) != stdout:
        bad.append("stdout differs from an earlier run of the same argv")
    if "csv" not in op["argv"]:
        report = json.loads(stdout)
        for flag in _false_flags(report["results"]):
            bad.append(f"identity reported false at {flag}")
    return bad
