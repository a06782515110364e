#!/usr/bin/env python3
"""Benchmark for hncodes: seeded closed-loop workloads, one op in flight.

    python3 bench/run.py --workload {deep,sweep,products,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the library is imported from
`<root>/src` and the oracles from `<root>/tests`.  Standard library only.

Each workload has a fixed, seeded list of ops (OPS), run one at a time.
--trace 0 runs the list in a fixed number of whole passes (PASSES; S
seconds caps a run on a slow machine), keeps each op's fastest pass and
reports the end-to-end metrics.  --trace 1 runs the list once with the
wrappers of tracing.py installed, without checking answers, and once
without them, checking every answer; it reports per-layer self time and
call counts plus the tracing overhead (traced minus untraced time of the
same ops).  Times are scaled to a reference machine speed by speed.py.
The last line of stdout is the result object; the line before it holds
the machine and run information.  Full records go to
`<root>/.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"
PYCACHE = OUT / "pycache"

WORKLOAD_NAMES = ("deep", "sweep", "products", "cli")
# Ops per pass: whole cycles of each workload's input shapes, so every seed
# runs the same mix.
OPS = {"deep": 39, "sweep": 150, "products": 60, "cli": 50}
# Passes per run, fixed so that every commit takes each op's minimum over
# the same number of samples.  Sized to fill about 20 s on the reference
# machine (README); --seconds only caps a run on a much slower one.
PASSES = {"deep": 4, "sweep": 4, "products": 4, "cli": 3}
# A run stops after the pass that ends past CAP x --seconds.
CAP = 1.5
# The highest of 50/75/90 with at least ten ops beyond it.  Fixed, not
# derived from a run's op count, so that a speed-up cannot move it.  The
# cycles (13, 15, 15 and 25 shapes) are odd and their shapes chosen so that
# neither this percentile nor the median falls between two shapes of very
# different cost.
TAIL_PERCENTILE = {"deep": 75, "sweep": 90, "products": 75, "cli": 75}
SETUP_SAMPLES = 9


# -- run information ----------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        head = _read(ROOT / ".git" / ref)
        if not head:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    head = line.split()[0]
    return head or "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hncodes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_info(args) -> dict:
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": _read(Path("/proc/loadavg")),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# -- set-up -------------------------------------------------------------------

def probe_setup(workload: str) -> tuple:
    """Seconds from just before `import hncodes` until the workload's
    fields are built, in a fresh interpreter: (raw, at reference speed)."""
    before = speed.warm_kernel()
    t0 = time.perf_counter()
    import hncodes  # noqa: F401
    from fields import build_fields
    build_fields(workload)
    elapsed = time.perf_counter() - t0
    return elapsed, elapsed * 2 * speed.REF_SECONDS / (before
                                                        + speed.kernel())


def child_env() -> dict:
    """The library on PYTHONPATH, and bytecode cached under PYCACHE even
    where the environment turns caching off, so that every child after
    the first imports compiled modules, as from an installed package."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_samples(workload: str) -> list:
    """SETUP_SAMPLES (raw, scaled) probes after one unrecorded probe that
    fills the bytecode cache."""
    out = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--probe-setup",
             "--workload", workload], env=child_env(),
            capture_output=True, text=True, check=True, timeout=60)
        out.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return out[1:]


# -- the closed loop ----------------------------------------------------------

def passes(step, count: int, npasses: int, cap_seconds=None) -> tuple:
    """Run ops 0..count-1 in order, one at a time, as `npasses` whole
    passes, or fewer if a pass ends after `cap_seconds`.  Each op keeps its
    fastest pass, in reference-speed seconds (speed.py).

    Passes are seconds apart, so an op reads slow only if the machine was
    busy in every pass.  Only the first pass checks answers; later passes
    must reproduce its answer digest."""
    probe = speed.Probe()
    start = time.perf_counter()
    runs = []
    while len(runs) < npasses:
        run = []
        for i in range(count):
            probe.maybe_sample()
            at = time.perf_counter()
            run.append(dict(step(i, not runs), at=at))
        runs.append(run)
        if cap_seconds is not None \
                and time.perf_counter() - start > cap_seconds:
            break
    probe.sample()
    records = []
    for first, *rest in zip(*runs):
        problems = list(first["problems"])
        if any(r["digest"] != first["digest"] for r in rest):
            problems.append("answer changed between passes")
        every = (first, *rest)
        records.append({
            "s": min(r["s"] * probe.scale(r["at"]) for r in every),
            "raw_s": min(r["s"] for r in every),
            "digest": first["digest"], "problems": problems})
    return records, len(runs)


def inprocess_step(workload, seed, fields, expected, tracer=None):
    from workloads import WORKLOADS, digest
    make, run, summarize, check = WORKLOADS[workload]

    ops = {}

    def step(i, check_answer=True):
        if i not in ops:
            ops[i] = make(seed, i, fields)
        op = ops[i]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            r = run(op, fields)
        except Exception as e:
            return {"s": time.perf_counter() - t0, "digest": None,
                    "problems": [f"op {i} raised {e!r}"]}
        dt = time.perf_counter() - t0
        try:
            problems = check(op, r, expected) if check_answer else []
            return {"s": dt, "digest": digest(summarize(r)),
                    "problems": [f"op {i}: {p}" for p in problems]}
        except Exception as e:
            return {"s": dt, "digest": None,
                    "problems": [f"op {i}: check raised {e!r}"]}
    return step


def cli_step(subst, first_seen, rss_kib, trace_dir=None):
    import cliload

    env = child_env()
    out, err = OUT / "cli.stdout", OUT / "cli.stderr"

    def step(i, check_answer=True):
        op = cliload.make_cli(i, subst)
        trace_file = None if trace_dir is None else trace_dir / f"op{i}.json"
        argv = cliload.command(op, BENCH, trace_file)
        t0 = time.perf_counter()
        code, maxrss = cliload.spawn(argv, TESTS, env, out, err)
        dt = time.perf_counter() - t0
        rss_kib.append(maxrss)
        stdout = out.read_bytes()
        try:
            problems = cliload.check_cli(op, code, stdout, TESTS / "golden",
                                         first_seen)
        except (ValueError, KeyError) as e:
            problems = [f"unreadable report: {e!r}"]
        return {"s": dt, "digest": hashlib.sha256(stdout).hexdigest(),
                "problems": [f"op {i} ({' '.join(op['argv'])}): {p}"
                             for p in problems]}
    return step


def load_expected(workload: str) -> dict:
    path = BENCH / f"expected_{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


# -- metrics ------------------------------------------------------------------

def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(times, setup, rss_kib, workload) -> dict:
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (percentile(times, TAIL_PERCENTILE[workload]) * 1e3,
                       "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def per_layer(totals: dict, counts: dict, footprint: dict, overhead_s,
              traced_ops) -> dict:
    from tracing import COUNT_NAMES, SPAN_NAMES
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.s"] = (self_s, "s")
        out[f"{name}.calls"] = (calls, "count")
    for name in COUNT_NAMES:
        out[f"{name}.calls"] = (counts.get(name, 0), "count")
    calls, hits = footprint["rank_table_memo"]
    out["code.rank_table.hit_ratio"] = (hits / calls if calls else 0.0,
                                        "ratio")
    out["algebra.rank_table.bytes"] = (footprint["rank_table_bytes"],
                                       "bytes")
    out["hn.lattice_build.elements"] = (footprint["lattice_elements"],
                                        "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.ops"] = (traced_ops, "count")
    return out


def merge_totals(into: dict, totals: dict):
    for name, (calls, self_s) in totals.items():
        acc = into.setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s


# -- modes --------------------------------------------------------------------

def run_untraced(args, info):
    setup = setup_samples(args.workload)
    t0 = time.perf_counter()
    import hncodes  # noqa: F401
    from fields import build_fields
    fields = build_fields(args.workload)
    info["worker_setup_s"] = time.perf_counter() - t0
    info["raw_setup_samples_s"] = [raw for raw, _ in setup]
    info["setup_samples_s"] = setup = [scaled for _, scaled in setup]
    if args.workload == "cli":
        import cliload
        subst = cliload.write_inputs(OUT / f"cli-{args.seed}", args.seed,
                                     fields)
        rss = []
        step = cli_step(subst, {}, rss)
    else:
        step = inprocess_step(args.workload, args.seed, fields,
                              load_expected(args.workload))
    info["passes_planned"] = PASSES[args.workload]
    records, info["passes"] = passes(step, OPS[args.workload],
                                     PASSES[args.workload],
                                     CAP * args.seconds)
    if args.workload == "cli":
        peak = max(rss)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = [r["s"] for r in records]
    metrics = end_to_end(times, setup, peak, args.workload)
    p = TAIL_PERCENTILE[args.workload]
    raw = [r["raw_s"] for r in records]
    info["raw_ops_per_s"] = len(raw) / sum(raw)
    info["raw_op_p50_ms"] = statistics.median(raw) * 1e3
    info["raw_op_tail_ms"] = percentile(raw, p) * 1e3
    info["raw_setup_s"] = statistics.median(info["raw_setup_samples_s"])
    info["tail_percentile"] = p
    info["ops_beyond_tail"] = sum(t > percentile(times, p) for t in times)
    return records, metrics


def run_traced(args, info):
    import cliload  # noqa: F401  (imported before any wrapper exists)
    import workloads  # noqa: F401
    from fields import build_fields
    from tracing import Tracer, layer_totals
    if args.workload == "cli":
        import cliload
        fields = build_fields(args.workload)
        subst = cliload.write_inputs(OUT / f"cli-{args.seed}", args.seed,
                                     fields)
        trace_dir = OUT / f"trace-cli-{args.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        first_seen = {}
        traced, _ = passes(cli_step(subst, first_seen, [], trace_dir),
                           OPS[args.workload], 1)
        replay, _ = passes(cli_step(subst, first_seen, []),
                           OPS[args.workload], 1)
        totals, counts = {}, {}
        footprint = {"rank_table_memo": [0, 0], "rank_table_bytes": 0,
                     "lattice_elements": 0}
        for i in range(len(traced)):
            data = json.loads((trace_dir / f"op{i}.json").read_text())
            merge_totals(totals, layer_totals(
                [tuple(s) for s in data["spans"]]))
            for name, n in data["counts"].items():
                counts[name] = counts.get(name, 0) + n
            for j in (0, 1):
                footprint["rank_table_memo"][j] += data["rank_table_memo"][j]
            footprint["rank_table_bytes"] += data["rank_table_bytes"]
            footprint["lattice_elements"] += data["lattice_elements"]
        span_count = None
    else:
        tracer = Tracer()
        tracer.install()
        try:
            fields = build_fields(args.workload)
            expected = load_expected(args.workload)
            # No answer checks here: they call the library too and would
            # count in its layers.  The replay pass checks every answer.
            step = inprocess_step(args.workload, args.seed, fields,
                                  expected, tracer)
            traced, _ = passes(lambda i, _: step(i, False),
                               OPS[args.workload], 1)
        finally:
            tracer.uninstall()
        replay, _ = passes(
            inprocess_step(args.workload, args.seed, fields, expected),
            OPS[args.workload], 1)
        totals = layer_totals(tracer.spans)
        counts = tracer.counts
        footprint = {"rank_table_memo": tracer.rank_table_memo,
                     "rank_table_bytes": tracer.rank_table_bytes,
                     "lattice_elements": tracer.lattice_elements}
        span_count = len(tracer.spans)
        with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    for a, b in zip(traced, replay):
        b["problems"] = b["problems"] + a["problems"]
        if a["digest"] != b["digest"]:
            b["problems"].append("traced and untraced answers differ")
    overhead = sum(r["s"] for r in traced) - sum(r["s"] for r in replay)
    info["traced_wall_s"] = sum(r["s"] for r in traced)
    info["untraced_wall_s"] = sum(r["s"] for r in replay)
    info["spans"] = span_count
    return replay, per_layer(totals, counts, footprint, overhead,
                             len(traced))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not ((SRC / "hncodes" / "__init__.py").is_file()
            and (TESTS / "oracles.py").is_file()):
        print(f"error: no hncodes source tree at {ROOT} (need src/hncodes "
              "and tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    if args.probe_setup:
        print(*(repr(x) for x in probe_setup(args.workload)))
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    info = machine_info(args)
    if args.trace:
        records, metrics = run_traced(args, info)
    else:
        records, metrics = run_untraced(args, info)
    problems = [p for r in records for p in r["problems"]]
    failed = sum(bool(r["problems"]) for r in records)
    info["ops"] = len(records)
    info["fail_frac"] = failed / len(records)
    for p in problems[:10]:
        print(f"FAIL {p}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result, "problems": problems,
                   "op_seconds": [r["s"] for r in records]}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
