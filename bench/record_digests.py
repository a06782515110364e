"""Record the deep workload's answer digests at the current commit.

    python3 bench/record_digests.py

Runs one pass of the deep op list for each seed in SEEDS (0..31) and
writes bench/expected_deep.json, mapping each op's input digest to its
answer digest.  The deep check compares later answers against it,
so record only at a commit whose answers are trusted; an op that fails
the deep identity checks stops the recording.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from fields import build_fields  # noqa: E402

SEEDS = range(32)


def main() -> int:
    fields = build_fields("deep")
    out = {}
    for seed in SEEDS:
        for i in range(run.OPS["deep"]):
            op = workloads.make_deep(seed, i, fields)
            r = workloads.run_deep(op, fields)
            problems = workloads.check_deep(op, r, {})
            if problems:
                print(f"seed {seed} op {i}: {problems}", file=sys.stderr)
                return 1
            answer = workloads.summarize_deep(r)
            key = workloads.digest({"field": op["field"], "rows": op["rows"]})
            out[key] = workloads.digest(answer)
        print(f"seed {seed}: {len(out)} digests", file=sys.stderr)
    path = BENCH / "expected_deep.json"
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
