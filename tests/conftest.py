"""Shared helpers and the acceptance-criteria summary lines.

The acceptance tests record one entry per criterion; a terminal-summary
hook prints them as a single PASS/FAIL line each at the end of the run.

`run_cli` starts `python -m hncodes` as a child process from inside
`tests/`, with the checkout's absolute `src` first on `PYTHONPATH`, so the
child runs the library from this checkout whatever the caller's working
directory, its (possibly relative) `PYTHONPATH`, or any installed copy.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

RESULTS = {}  # criterion number -> (passed, seconds, detail)


def record(num: int, passed: bool, seconds: float, detail: str = ""):
    RESULTS[num] = (passed, seconds, detail)


def run_python(*args, timeout=None, max_memory=None):
    """Run `python *args` with `cwd=tests/` and the checkout's absolute
    `src` put first on `PYTHONPATH`; any existing entries are kept after it.
    `max_memory` caps the child's address space in bytes (RLIMIT_AS), and
    `timeout` (seconds) kills a child that runs longer."""
    env = dict(os.environ)
    paths = [str(SRC)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))

    return subprocess.run([sys.executable, *args], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=limit_memory if max_memory else None)


def run_cli(*args, **limits):
    """Run `python -m hncodes *args` the same way as `run_python`."""
    return run_python("-m", "hncodes", *args, **limits)


def run_criterion(num: int, budget, body):
    """Run one criterion body, record its line, enforce the time budget."""
    t0 = time.perf_counter()
    try:
        detail = body() or ""
    except BaseException:
        record(num, False, time.perf_counter() - t0, "raised")
        raise
    dt = time.perf_counter() - t0
    within = budget is None or dt < budget
    record(num, within, dt, detail)
    assert within, f"criterion {num} took {dt:.1f}s, budget {budget}s"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        passed, seconds, detail = RESULTS[num]
        word = "PASS" if passed else "FAIL"
        tail = f"  {detail}" if detail else ""
        terminalreporter.write_line(
            f"[criterion {num:02d}] {word}  ({seconds:.2f}s){tail}")
