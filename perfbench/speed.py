"""The speed of the machine, measured inside a run.

A shared VM runs all Python code 30-80 % slower in phases that last from
seconds to many minutes, and within a phase the speed still changes from
one second to the next.  So the benchmark runs two reference kernels of
its own, which use nothing of hasseforms, between operations, for a
fixed share of the run's time, and reports the run's times scaled to the
reference speed:

    scaled = seconds * sqrt(REFERENCE_S["compute"] / mean compute run
                            * REFERENCE_S["memory"] / mean memory run)

with the means over every kernel run of the run.  The mean pass time and
the pooled kernel time average over the same stretch of the machine's
speed.  A change to hasseforms cannot move the kernels; a slow phase of
the machine moves them and the operations alike.

The compute kernel is small-int modular arithmetic, list tables and dict
lookups on small data, as in the Hasse kernel and the suites.  The memory
kernel makes dependent reads scattered over some 20 MB, as a census does
in its rank tables.  The two get equal weight: the compute kernel alone
tracks the suites but not the memory-bound census over extension fields.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

# Each kernel's least time on a calm 2-vCPU Intel Xeon VM (Python 3.11.7).
# They only set the scale of the reported times: seconds at this speed.
REFERENCE_S = {"compute": 0.0025, "memory": 0.0034}
SAMPLE_EVERY_S = 0.25      # take a sample before an operation at most this often
DUTY = 0.05                # kernel time per sample, as a share of the time since the last
MIN_ROUNDS = 2             # runs of each kernel in a sample, at least

_CHASE_LEN = 1 << 19       # 512 Ki slots (4 MB) pointing at 16 MB of int objects


def chase_table() -> list[int]:
    """A cycle through all _CHASE_LEN slots in a scattered order.

    Slot k holds (5 k + 1) mod _CHASE_LEN, a full-period step, so the table
    is filled in place with no temporary list.
    """
    table = [0] * _CHASE_LEN
    for k in range(_CHASE_LEN):
        table[k] = (5 * k + 1) % _CHASE_LEN
    return table


def compute_kernel() -> int:
    """About 2.5 ms of small-int modular arithmetic and dict work on small data."""
    p = 211
    rows = [[(i * j + 1) % p for j in range(p)] for i in range(24)]
    a = [(3 * i + 1) % p for i in range(24)]
    for _ in range(16):
        c = [0] * 48
        for i, x in enumerate(a):
            row = rows[x % 24]
            for j, y in enumerate(a):
                c[i + j] = (c[i + j] + row[y] * y) % p
        a = c[:24]
    seen = {}
    for i in range(4000):
        seen[(i * 7) % p, i % 13] = seen.get(((i * 5) % p, i % 11), 0) + 1
    return sum(a) + len(seen)


class Speedometer:
    """Kernel runs between operations, pooled into the speed of a whole run.

    Each sample runs the kernels, in turn, for DUTY of the time since the
    previous sample (at least MIN_ROUNDS rounds), so the pooled kernel runs
    sample the machine evenly over the run.  Make one per process, and call
    ``start`` at the start of each run.
    """

    def __init__(self) -> None:
        # The resident memory the chase table adds is kept, so that the peak
        # resident set can be reported without it.  The table is frozen out
        # of the garbage collector, or every collection (one before each
        # operation) would walk its half a million slots.
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._chase = chase_table()
        self.table_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
        gc.collect()
        gc.freeze()
        self._position = 0
        self._kernels = {"compute": compute_kernel, "memory": self._memory_kernel}
        for run in self._kernels.values():
            run()
        self.start()

    def _memory_kernel(self) -> int:
        """About 3.4 ms of dependent reads scattered over the chase table."""
        chase, k = self._chase, self._position
        for _ in range(10000):
            k = chase[k]
        self._position = k    # go on from here next time, so the path is never cached
        return k

    def start(self) -> None:
        """Forget every sample: a new run begins."""
        # Per kernel, the mean wall and CPU time of a run in each sample ...
        self.walls: dict[str, list[float]] = {name: [] for name in self._kernels}
        self.cpus: dict[str, list[float]] = {name: [] for name in self._kernels}
        # ... and the totals over all samples: wall seconds, CPU seconds, runs.
        self._totals = {name: [0.0, 0.0, 0] for name in self._kernels}
        self._last: float | None = None

    def sample(self) -> None:
        now = time.perf_counter()
        budget = 0.0 if self._last is None else DUTY * (now - self._last)
        runs = {name: [0.0, 0.0, 0] for name in self._kernels}
        spent, rounds = 0.0, 0
        while rounds < MIN_ROUNDS or spent < budget:
            for name, run in self._kernels.items():
                c0, t0 = time.process_time(), time.perf_counter()
                run()
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                tally = runs[name]
                tally[0] += wall
                tally[1] += cpu
                tally[2] += 1
                spent += wall
            rounds += 1
        for name, (wall, cpu, n) in runs.items():
            self.walls[name].append(wall / n)
            self.cpus[name].append(cpu / n)
            total = self._totals[name]
            total[0] += wall
            total[1] += cpu
            total[2] += n
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample if the previous sample is older than SAMPLE_EVERY_S."""
        if self._last is None or time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, cpu: bool = False) -> float:
        """The scale factor of the samples since ``start``: the geometric mean
        over the kernels of reference time / mean time of one kernel run."""
        return math.exp(statistics.fmean(
            math.log(REFERENCE_S[name] * n / (cpu_s if cpu else wall_s))
            for name, (wall_s, cpu_s, n) in self._totals.items()))
