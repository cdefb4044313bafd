"""Host-speed calibration for timings on a shared, noisy host.

On a shared 2-core virtual machine (Intel Xeon, 2.0 GHz), the same
metersim rounds took 4.4 s of CPU time in one run and 11 s in another a
few minutes later, and the speed also changed from one second to the
next. Two things cause it:

* CPU steal: the hypervisor runs another guest while this process waits.
  It shows in /proc/stat and inflates elapsed time, but not the process's
  CPU time.
* Contention while the process does run: the same instructions take more
  CPU time.

Process CPU time leaves out steal but not contention. So a section is
timed in process CPU time and scaled by the speed of a basket of three
fixed reference kernels, each timed in process CPU time as well:

* `objects`, a walk over small Python objects that misses the caches
* `graph`, a breadth-first search over a graph that fits in them
* `arith`, integer arithmetic that touches almost no memory

No one kernel slows the way every workload does: a memory-bound kernel
over-corrects a cache-resident search, an arithmetic one under-corrects a
large model. So a workload is scaled by the geometric mean of the kernels
that tracked it (KERNELS in run.py).

Each kernel runs WARM + NEAR times right before and right after a section
and WARM + 1 times every INTERVAL_S seconds inside it, from a SIGALRM
timer in the same thread. The WARM runs are thrown away, because the
section has pushed the kernel's data out of the cache. A section's
calibrated time is

    (CPU seconds - CPU seconds of the samples inside it) * scale
    scale = geometric mean over the kernels of REFERENCE_S / median sample

That is, seconds at the speed where each kernel's sample takes its
REFERENCE_S. A slower metersim still reads slower. A slower host slows
the kernels as well, and the two cancel.
"""

from __future__ import annotations

import itertools
import math
import random
import signal
import statistics
from collections import deque
from time import perf_counter, process_time

# CPU seconds per sample of each kernel in a quiet period of the host the
# reference figures in README.md come from; they set the unit of the
# calibrated seconds
REFERENCE_S = {"objects": 0.0008, "graph": 0.00113, "arith": 0.0005}
OBJECTS = 100_000
WALK = 2_000
NODES = 5_000
STEPS = 10_000
INTERVAL_S = 0.2  # between samples inside a section
WARM = 1  # runs of each kernel thrown away before it is timed
NEAR = 5  # samples of each kernel kept right before and right after a section


class _Cell:
    __slots__ = ("count", "flags")

    def __init__(self) -> None:
        self.count = 0
        self.flags = [False] * 7


def _objects(rng: random.Random):
    """Walk WALK of OBJECTS small objects in shuffled order, like the
    engine's per-agent loop. Each sample walks the next WALK cells, so
    successive samples sweep all OBJECTS and miss the caches as a large
    model does.  A sample touches about 350 KB, and it allocates nothing,
    since small ints and bools are shared: so it disturbs neither the
    caches nor the heap of the section it runs in by much."""
    cells = [_Cell() for _ in range(OBJECTS)]
    order = list(range(OBJECTS))
    rng.shuffle(order)
    walks = itertools.cycle([order[i:i + WALK] for i in range(0, OBJECTS, WALK)])

    def work() -> None:
        for i in next(walks):
            cell = cells[i]
            cell.count = (cell.count + 1) & 255
            flags = cell.flags
            flags[i % 7] = not flags[i % 7]

    return work


def _graph(rng: random.Random):
    """One breadth-first search over a fixed small-world graph of NODES
    nodes, like the sampled path-length analysis.  The graph is built in
    place, with no large temporaries, so that the memory it leaves behind
    is the graph itself."""
    adjacency: list[list[int]] = [[] for _ in range(NODES)]
    for i in range(NODES):
        for j in (i + 1, i + 2, rng.randrange(NODES)):
            j %= NODES
            if j != i and j not in adjacency[i]:
                adjacency[i].append(j)
                adjacency[j].append(i)
    sources = itertools.cycle(rng.sample(range(NODES), 64))

    def work() -> None:
        dist = [-1] * NODES
        source = next(sources)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    queue.append(v)

    return work


def _arith(rng: random.Random):
    """STEPS steps of an integer recurrence: the host's speed at pure
    computation."""
    start = rng.randrange(1 << 16)

    def work() -> None:
        x = start
        for i in range(STEPS):
            x = (x * 31 + i) & 0xFFFF

    return work


KERNELS = {"objects": _objects, "graph": _graph, "arith": _arith}


class HostSpeed:
    def __init__(self, kernels: tuple[str, ...]) -> None:
        self._kernels = {name: KERNELS[name](random.Random(12345)) for name in kernels}
        self.samples: dict[str, list[float]] = {name: [] for name in kernels}  # kept, all sections
        self.spent = 0.0  # CPU seconds of all samples taken inside sections
        self.scale = 1.0  # calibrated seconds per CPU second of the last section
        self._kept: dict[str, list[float]] = {}

    def _batch(self, keep: int) -> float:
        """WARM runs of each kernel that are thrown away, then `keep` that
        are kept; returns the CPU seconds of all of them."""
        started = process_time()
        for name, work in self._kernels.items():
            for i in range(WARM + keep):
                cpu = process_time()
                work()
                if i >= WARM:
                    self._kept[name].append(process_time() - cpu)
        return process_time() - started

    def _inside(self, *_signal_args) -> None:
        self.spent += self._batch(1)

    def timed(self, fn, *args):
        """Run fn(*args) as a section; return (calibrated s, elapsed s,
        CPU s, result)."""
        self._kept = {name: [] for name in self._kernels}
        self._batch(NEAR)
        spent = self.spent
        previous = signal.signal(signal.SIGALRM, self._inside)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started, cpu = perf_counter(), process_time()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            cpu = process_time() - cpu - (self.spent - spent)
            elapsed = perf_counter() - started
            signal.signal(signal.SIGALRM, previous)
        self._batch(NEAR)
        for name, kept in self._kept.items():
            self.samples[name] += kept
        self.scale = math.prod(REFERENCE_S[name] / statistics.median(kept)
                               for name, kept in self._kept.items()) ** (1 / len(self._kept))
        return cpu * self.scale, elapsed, cpu, result
