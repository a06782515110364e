"""Re-measure the single-call baselines of ROADMAP aim 1 under the tracer.

    python3 bench/stages.py

Each case runs once on a seeded input with the wrappers of tracing.py
installed, and prints the case's wall time next to the self time and call
count of the layer that the case exercises.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import hncodes  # noqa: E402
from hncodes import LinearCode, canonical_filtration  # noqa: E402
from hncodes.algebra import (column_rank_table,  # noqa: E402
                             min_column_rank_by_size)

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    rng = random.Random("stages")
    f2, f3 = hncodes.FieldSpec(2), hncodes.FieldSpec(3)
    b20 = LinearCode.from_rows(f2, workloads.random_rows(rng, f2, 20, 10))
    g16 = LinearCode.from_rows(f3, workloads.random_rows(rng, f3, 16, 8))
    multi = LinearCode.from_rows(f2, workloads.direct_sum_rows(
        rng, f2, ((4, 3), (6, 4), (8, 4))))
    cases = [
        ("FieldSpec(2, 8, 285)", "algebra.field_build",
         lambda: hncodes.FieldSpec(2, 8, 285)),
        ("column_rank_table, GF(2), n=20", "algebra.rank_table",
         lambda: column_rank_table(b20.gen)),
        ("column_rank_table, GF(3), n=16", "algebra.rank_table",
         lambda: column_rank_table(g16.gen)),
        ("min_column_rank_by_size, GF(2), n=20", "algebra.min_rank",
         lambda: min_column_rank_by_size(b20.gen)),
        ("canonical_filtration, GF(3), n=16", "hn.filtration",
         lambda: canonical_filtration(LinearCode(g16.gen))),
        ("canonical_filtration, multi-slope binary [18,11]", "hn.filtration",
         lambda: canonical_filtration(LinearCode(multi.gen))),
    ]
    print("| case | wall s | layer | calls | self s |")
    print("|---|---|---|---|---|")
    for label, layer, fn in cases:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            fn()
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        calls, self_s = tracing.layer_totals(tracer.spans).get(layer, (0, 0))
        print(f"| {label} | {wall:.3f} | `{layer}` | {calls} | {self_s:.3f} |")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "hncodes", "weights",
                    "data/binary_3_2_2.code"], cwd=ROOT / "tests",
                   env={"PYTHONPATH": str(ROOT / "src")},
                   capture_output=True, check=True)
    print(f"| CLI cold start (`weights`, [3,2] code) | "
          f"{time.perf_counter() - t0:.3f} | | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
