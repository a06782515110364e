"""Machine-speed probe: timings scaled to a fixed reference speed.

On a shared virtual machine the speed of pure-Python code drifts by up to
2x over minutes with the load of other tenants.  The benchmark therefore
reports a time t as t * REF_SECONDS / (kernel time around t): the time the
op would take on a machine where `kernel()` takes REF_SECONDS, not its
wall time.  Wall times are recorded too; README.md compares the
run-to-run spread of both on the same runs.
"""

import bisect
import time

REF_SECONDS = 0.005
EVERY = 0.2
WINDOW = 0.5
_COLUMNS = (0x1B, 0x2E, 0x35, 0x4C, 0x53, 0x6A, 0x71, 0x8F, 0x96, 0xAD,
            0xB4, 0xCB, 0xD2)


def kernel() -> float:
    """Seconds for a fixed depth-first walk over all subsets of 13 packed
    binary columns, filling a rank table as it goes: the recursion, tuple
    and bytearray traffic of the library's inner loops, in code of its
    own so that changes to the library leave it alone."""
    t0 = time.perf_counter()
    n = len(_COLUMNS)
    table = bytearray(1 << n)

    def rec(start, mask, rk, basis):
        table[mask] = rk
        for j in range(start, n):
            v = _COLUMNS[j]
            for b in basis:
                w = v ^ b
                if w < v:
                    v = w
            if v:
                rec(j + 1, mask | (1 << j), rk + 1, basis + (v,))
            else:
                rec(j + 1, mask | (1 << j), rk, basis)

    rec(0, 0, 0, ())
    return time.perf_counter() - t0


def warm_kernel() -> float:
    """kernel() after one unmeasured run, so that a core that was idle,
    as the parent of the `cli` workload is while it waits for a child, is
    at full clock when measured."""
    kernel()
    return kernel()


class Probe:
    """Kernel samples along a run, at most one per EVERY seconds."""

    def __init__(self):
        self.times: list = []
        self.values: list = []

    def sample(self):
        self.times.append(time.perf_counter())
        self.values.append(warm_kernel())

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY:
            self.sample()

    def scale(self, at: float) -> float:
        """REF_SECONDS over the mean kernel time of the samples within
        WINDOW seconds of time `at` (at least the nearest one on each
        side)."""
        lo = bisect.bisect_left(self.times, at - WINDOW)
        hi = bisect.bisect_right(self.times, at + WINDOW)
        i = bisect.bisect_right(self.times, at)
        lo, hi = min(lo, max(i - 1, 0)), max(hi, i + 1)
        near = self.values[lo:hi]
        return REF_SECONDS * len(near) / sum(near)
