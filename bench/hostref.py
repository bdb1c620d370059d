"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same op on the same graph can run 1.4 times slower
from one minute to the next, and both CPUs slow down together.  The
benchmark runs this kernel right before and right after every timed
interval (each op, each set-up, each import probe) and scales the interval
to the speed at which the kernel takes ``NOMINAL_S``.  Host drift then
cancels and the program's own speed remains.

The kernel is pure Python, like the package's hot loops (bitmask DP, list
and integer work), and shares no code with the package, so a change to
``ndlham`` cannot move it.
"""

import statistics
import time

N = 14
# circulant graph on N vertices, each joined to the vertices at these offsets
_NEIGHBOURS = [[(v + k) % N for k in (1, 2, 5, N - 5, N - 2, N - 1)] for v in range(N)]
EXPECTED = 323274  # Hamilton paths from vertex 0, as the DP below counts them
REPS = 5
# the kernel's time on the reference host (2-CPU Xeon VM, Python 3.11) in
# its faster phases: nominal seconds are seconds on that host at that speed
NOMINAL_S = 0.030


def kernel():
    """Hamilton paths from vertex 0 of the circulant graph, by bitmask DP."""
    full = 1 << N
    dp = [[0] * N for _ in range(full)]
    dp[1][0] = 1
    for mask in range(1, full, 2):
        row = dp[mask]
        for v in range(N):
            c = row[v]
            if c:
                for w in _NEIGHBOURS[v]:
                    bit = 1 << w
                    if not mask & bit:
                        dp[mask | bit][w] += c
    return sum(dp[full - 1])


def seconds():
    """Median wall time of REPS kernel runs."""
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        paths = kernel()
        times.append(time.perf_counter() - t)
        if paths != EXPECTED:
            raise RuntimeError(f"reference kernel counted {paths} paths, not {EXPECTED}")
    return statistics.median(times)


class HostClock:
    """Scales timed intervals to nominal host speed.

    Call ``scale`` right after each interval ends, with nothing untimed in
    between: the kernel time measured then serves as the "after" of this
    interval and the "before" of the next one."""

    def __init__(self):
        self.refs = [seconds()]

    def scale(self, wall_s):
        self.refs.append(seconds())
        return wall_s * NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)
