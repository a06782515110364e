"""Traced stand-in for `python -m hncodes`, used by the `cli` traced run.

Usage: python3 cli_child.py SPAN_FILE ARGS...

Times `import hncodes.cli`, installs the tracer on the library and CLI
layers, runs `hncodes.cli.main(ARGS)`, writes the spans and counters to
SPAN_FILE as JSON and exits with main's exit code.
"""

import json
import sys
import time

from tracing import CLI_LAYERS, LAYERS, Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import hncodes.cli
    t1 = time.perf_counter()
    tracer = Tracer(LAYERS + CLI_LAYERS)
    tracer.op = 0
    tracer.spans.append(("cli.import", t0, t1, -1, 0))
    tracer.install()
    try:
        code = hncodes.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "rank_table_bytes": tracer.rank_table_bytes,
                       "rank_table_memo": tracer.rank_table_memo,
                       "lattice_elements": tracer.lattice_elements}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
