"""Small world contact network between households.

Watts-Strogatz construction: a ring lattice where every node links to its
K nearest neighbours (K/2 each side), then each lattice edge is rewired
with probability beta to a uniformly drawn new endpoint.  Rewiring keeps
the edge count at n*K/2, never creates self loops or duplicate edges, and
leaves a node alone once it is connected to everyone else.

The graph is held in CSR form, two integer arrays and no per-node Python
object: node i's neighbours are indices[indptr[i]:indptr[i + 1]],
ascending.  The build never writes the lattice out: nodes at ring distance
at most K/2 are linked unless rewiring removed that lattice edge, and
rewiring keeps only the removed lattice edges and the added pairs.

The rewiring reads its PCG64 stream as a scalar loop would: one
rng.random() coin per lattice edge in lattice edge order (ring offset
outer, node inner), then rng.integers(0, n) for each new endpoint until one
fits.  It draws the raw outputs in blocks and visits only the edges whose
coin lands, so the graph and the generator's final state are the scalar
loop's.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# node ids are int32 in Network.indices
MAX_NODES = 2**31 - 1


class BadDegreeError(ValueError):
    """K is odd, too small, or not below the node count."""


@dataclass(frozen=True, eq=False, slots=True)
class Network:
    """Undirected simple graph on nodes 0..node_count-1 in CSR form.

    indptr (int64, node_count + 1 entries) holds row offsets into indices
    (int32, two entries per edge): node i's neighbours are
    indices[indptr[i]:indptr[i + 1]], ascending.  Two networks are equal
    when they hold the same rows.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> Network:
        """The network whose node i has the ascending neighbour ids rows[i]."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int32,
                              count=int(indptr[-1]))
        return cls(len(rows), indptr, indices)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each node's neighbours as a tuple, built from the arrays on
        every read."""
        ids, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))


def generate_small_world(
    n: int, mean_degree_k: int, rewire_beta: float, rng: np.random.Generator,
) -> Network:
    """Build a Watts-Strogatz graph on nodes 0..n-1."""
    if mean_degree_k < 2 or mean_degree_k % 2 != 0:
        raise BadDegreeError(f"mean degree must be even and >= 2, got {mean_degree_k}")
    if mean_degree_k >= n:
        raise BadDegreeError(f"mean degree {mean_degree_k} must be below node count {n}")
    if n > MAX_NODES:
        raise ValueError(f"node count must be at most {MAX_NODES}, got {n}")
    if not 0.0 <= rewire_beta <= 1.0:
        raise ValueError(f"rewire probability must be in [0, 1], got {rewire_beta}")
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError(f"the network stream must be PCG64, "
                        f"got {type(rng.bit_generator).__name__}")

    half = mean_degree_k // 2
    removed: set[int] = set()
    added: set[int] = set()
    if rewire_beta > 0.0:
        removed, added = _rewire(n, half, rewire_beta, rng)
    keep = np.ones(n * half, dtype=bool)
    keep[np.fromiter(removed, dtype=np.int64, count=len(removed))] = False
    # lattice edge e joins i and i + offset + 1 (mod n), e = offset*n + i
    offset, i = np.divmod(np.flatnonzero(keep), n)
    j = i + offset + 1
    j[j >= n] -= n
    pairs = np.fromiter(added, dtype=np.int64, count=len(added))
    i = np.concatenate((i, pairs // n))
    j = np.concatenate((j, pairs % n))
    # both directions of every edge as row*n + col, sorted: the rows in
    # order, each ascending
    keys = np.concatenate((i * n + j, j * n + i))
    keys.sort()
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Network(n, indptr, cols.astype(np.int32))


_MASK32 = 0xFFFFFFFF


class _Outputs:
    """The outputs of a PCG64 generator from its current state on, drawn
    ahead in blocks with random_raw and read as numpy's Generator reads them.

    raw[pos] is the next unread output; words is raw as a memoryview, whose
    items read as Python ints about three times faster.  has_half and half
    mirror PCG64's cached upper 32 bits of an output whose lower half a
    32-bit draw used; half keeps its value once used, as PCG64's uinteger
    does.
    """

    __slots__ = ("bitgen", "start", "raw", "words", "pos", "has_half", "half")

    def __init__(self, bitgen: np.random.PCG64, count: int):
        self.bitgen = bitgen
        self.start = bitgen.state
        self.has_half = bool(self.start["has_uint32"])
        self.half = self.start["uinteger"]
        self.raw = bitgen.random_raw(count)
        self.words = memoryview(self.raw)
        self.pos = 0

    def extend(self, count: int) -> None:
        """Draw count more outputs onto the end of raw."""
        self.raw = np.concatenate((self.raw, self.bitgen.random_raw(count)))
        self.words = memoryview(self.raw)

    def next64(self) -> int:
        if self.pos == len(self.words):
            self.extend(64)
        value = self.words[self.pos]
        self.pos += 1
        return value

    def next32(self) -> int:
        """The cached half if there is one, else the lower half of the next
        output, caching its upper half."""
        if self.has_half:
            self.has_half = False
            return self.half
        value = self.next64()
        self.has_half, self.half = True, value >> 32
        return value & _MASK32

    def integer(self, n: int) -> int:
        """Generator.integers(0, n) for 2 <= n < 2**32: Lemire's rejection
        on 32-bit draws."""
        m = self.next32() * n
        if m & _MASK32 < n:
            threshold = (2**32 - n) % n
            while m & _MASK32 < threshold:
                m = self.next32() * n
        return m >> 32

    def leave(self) -> None:
        """Put the generator where reading the first pos outputs leaves it,
        whatever more was drawn ahead."""
        bitgen = self.bitgen
        bitgen.state = self.start
        bitgen.advance(self.pos)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = int(self.has_half), self.half
        bitgen.state = state


def _highest_landing(beta: float) -> np.uint64:
    """The largest output whose rng.random() coin, (output >> 11) * 2**-53,
    is below beta (0 < beta <= 1): output >> 11 < beta * 2**53 exactly when
    output >> 11 < ceil(beta * 2**53)."""
    return np.uint64((math.ceil(beta * 2**53) << 11) - 1)


def _rewire(n: int, half: int, beta: float, rng: np.random.Generator,
            ) -> tuple[set[int], set[int]]:
    """Rewire the ring lattice on n nodes, half edges a side, in lattice
    edge order; return the indices of the lattice edges removed and the
    lo*n + hi keys (lo < hi) of the pairs added.

    Edge e's coin is output e + shift, where shift counts the outputs the
    endpoint draws of earlier edges took, so the walk goes from one landed
    coin to the next and maps each back to its edge.  Outputs an endpoint
    draw took are not coins, and the block grows once the shift pushes the
    last coins past its end.  Only the edge being visited is ever removed,
    so each lattice edge is still in place when its coin is read.
    """
    edges = n * half
    degree = [2 * half] * n
    removed: set[int] = set()
    added: set[int] = set()

    def linked(i: int, j: int) -> bool:
        if (i * n + j if i < j else j * n + i) in added:
            return True
        hop = (j - i) % n
        if hop <= half:
            return (hop - 1) * n + i not in removed
        return n - hop <= half and (n - hop - 1) * n + j not in removed

    out = _Outputs(rng.bit_generator, edges)
    highest = _highest_landing(beta)
    shift = 0
    scanned = 0  # outputs whose coins the walk has looked at
    while scanned < edges + shift:  # one past the last edge's coin
        if len(out.raw) < edges + shift:
            out.extend(edges + shift - len(out.raw) + 64)
        first, scanned = scanned, len(out.raw)
        for p in (np.flatnonzero(out.raw[first:] <= highest) + first).tolist():
            if p < out.pos:
                continue  # an endpoint draw took this output
            edge = p - shift
            if edge >= edges:
                break
            out.pos = p + 1
            offset, i = divmod(edge, n)
            if degree[i] >= n - 1:
                continue  # already connected to everyone
            target = out.integer(n)
            while target == i or linked(i, target):
                target = out.integer(n)
            j = (i + offset + 1) % n
            removed.add(edge)
            added.add(i * n + target if i < target else target * n + i)
            degree[j] -= 1
            degree[target] += 1
            shift = out.pos - edge - 1
    out.pos = edges + shift
    out.leave()
    return removed, added


def clustering_coefficient(net: Network) -> float:
    """Mean local clustering: closed neighbour pairs over possible pairs.

    Nodes with degree below 2 contribute 0.
    """
    if net.node_count == 0:
        return 0.0
    adjacency = net.adjacency
    sets = [set(nbrs) for nbrs in adjacency]
    total = 0.0
    for nbrs in adjacency:
        d = len(nbrs)
        if d < 2:
            continue
        closed = 0
        for a in range(d):
            na = sets[nbrs[a]]
            for b in range(a + 1, d):
                if nbrs[b] in na:
                    closed += 1
        total += closed / (d * (d - 1) / 2)
    return total / net.node_count


def mean_path_length_sampled(
    net: Network, rng: np.random.Generator, max_pairs: int = 1000,
) -> float:
    """Mean shortest path length over node pairs.

    Exact over all pairs when the graph has at most max_pairs of them;
    otherwise estimated from max_pairs pairs drawn from rng.  Each pair is
    one bidirectional BFS.  Unreachable pairs are skipped; returns nan
    when no pair is reachable.
    """
    n = net.node_count
    if n < 2:
        return float("nan")

    if n * (n - 1) // 2 <= max_pairs:
        pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    else:
        sources = rng.integers(0, n, size=max_pairs)
        targets = rng.integers(0, n - 1, size=max_pairs)
        # shift to avoid self pairs
        targets = np.where(targets >= sources, targets + 1, targets)
        pairs = zip(sources.tolist(), targets.tolist())

    adjacency = net.adjacency
    total = 0.0
    counted = 0
    for s, t in pairs:
        d = _pair_distance(adjacency, s, t)
        if d >= 0:
            total += d
            counted += 1
    return total / counted if counted else float("nan")


def _pair_distance(adjacency: tuple[tuple[int, ...], ...], s: int, t: int) -> int:
    """Hop count from s to t (s != t), -1 when t is unreachable.

    Bidirectional BFS: each step expands the smaller frontier by one whole
    level.  With the s side at depth a and the t side at depth b and no
    meeting yet, the distance is at least a + b + 1, so the first node the
    expansion finds already reached from the other side gives it exactly.
    """
    near, far = {s: 0}, {t: 0}
    near_front, far_front = [s], [t]
    near_depth = far_depth = 0
    while near_front and far_front:
        if len(near_front) > len(far_front):
            near, far = far, near
            near_front, far_front = far_front, near_front
            near_depth, far_depth = far_depth, near_depth
        near_depth += 1
        grown = []
        for u in near_front:
            for v in adjacency[u]:
                if v not in near:
                    if v in far:
                        return near_depth + far[v]
                    near[v] = near_depth
                    grown.append(v)
        near_front = grown
    return -1
