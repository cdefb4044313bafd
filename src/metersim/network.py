"""Small world contact network between households.

Watts-Strogatz construction: a ring lattice where every node links to its
K nearest neighbours (K/2 each side), then each lattice edge is rewired
with probability beta to a uniformly drawn new endpoint.  Rewiring keeps
the edge count at n*K/2, never creates self loops or duplicate edges, and
leaves a node alone once it is connected to everyone else.

The rewiring reads its PCG64 stream as a scalar loop would: one
rng.random() coin per lattice edge in lattice edge order (ring offset
outer, node inner), then rng.integers(0, n) for each new endpoint until one
fits.  It draws the raw outputs in blocks and visits only the edges whose
coin lands, so the graph and the generator's final state are the scalar
loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class BadDegreeError(ValueError):
    """K is odd, too small, or not below the node count."""


@dataclass(frozen=True, slots=True)
class Network:
    """Undirected graph as sorted per node adjacency tuples."""

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


def generate_small_world(
    n: int, mean_degree_k: int, rewire_beta: float, rng: np.random.Generator,
) -> Network:
    """Build a Watts-Strogatz graph on nodes 0..n-1."""
    if mean_degree_k < 2 or mean_degree_k % 2 != 0:
        raise BadDegreeError(f"mean degree must be even and >= 2, got {mean_degree_k}")
    if mean_degree_k >= n:
        raise BadDegreeError(f"mean degree {mean_degree_k} must be below node count {n}")
    if not 0.0 <= rewire_beta <= 1.0:
        raise ValueError(f"rewire probability must be in [0, 1], got {rewire_beta}")
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError(f"the network stream must be PCG64, "
                        f"got {type(rng.bit_generator).__name__}")

    adj: list[set[int]] = [set() for _ in range(n)]
    half = mean_degree_k // 2
    for offset in range(1, half + 1):
        for i in range(n):
            j = (i + offset) % n
            adj[i].add(j)
            adj[j].add(i)

    if rewire_beta > 0.0:
        _rewire(adj, half, rewire_beta, rng)

    return Network(
        node_count=n,
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
    )


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


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
        """Generator.integers(0, n) for 2 <= n <= 2**63: Lemire's rejection
        on 32-bit draws below 2**32, one 32-bit draw at 2**32, Lemire's on
        whole outputs above."""
        if n < 2**32:
            m = self.next32() * n
            if m & _MASK32 < n:
                threshold = (2**32 - n) % n
                while m & _MASK32 < threshold:
                    m = self.next32() * n
            return m >> 32
        if n == 2**32:
            return self.next32()
        m = self.next64() * n
        if m & _MASK64 < n:
            threshold = (2**64 - n) % n
            while m & _MASK64 < threshold:
                m = self.next64() * n
        return m >> 64

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


def _rewire(adj: list[set[int]], half: int, beta: float, rng: np.random.Generator) -> None:
    """Rewire the lattice edges of adj in place, in lattice edge order.

    Edge e's coin is output e + shift, where shift counts the outputs the
    endpoint draws of earlier edges took, so the walk goes from one landed
    coin to the next and maps each back to its edge.  Outputs an endpoint
    draw took are not coins, and the block grows once the shift pushes the
    last coins past its end.
    """
    n = len(adj)
    edges = n * half
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
            nbrs = adj[i]
            if len(nbrs) >= n - 1:
                continue  # already connected to everyone
            j = (i + offset + 1) % n
            if j not in nbrs:
                continue  # that lattice edge was already rewired away
            target = out.integer(n)
            while target == i or target in nbrs:
                target = out.integer(n)
            nbrs.discard(j)
            adj[j].discard(i)
            nbrs.add(target)
            adj[target].add(i)
            shift = out.pos - edge - 1
    out.pos = edges + shift
    out.leave()


def clustering_coefficient(net: Network) -> float:
    """Mean local clustering: closed neighbour pairs over possible pairs.

    Nodes with degree below 2 contribute 0.
    """
    if net.node_count == 0:
        return 0.0
    sets = [set(nbrs) for nbrs in net.adjacency]
    total = 0.0
    for nbrs in net.adjacency:
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

    total = 0.0
    counted = 0
    for s, t in pairs:
        d = _pair_distance(net.adjacency, s, t)
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
