"""Small world contact network between households.

Watts-Strogatz construction: a ring lattice where every node links to its
K nearest neighbours (K/2 each side), then each lattice edge is rewired
with probability beta to a uniformly drawn new endpoint.  Rewiring keeps
the edge count at n*K/2, never creates self loops or duplicate edges, and
leaves a node alone once it is connected to everyone else.
"""

from __future__ import annotations

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

    adj: list[set[int]] = [set() for _ in range(n)]
    half = mean_degree_k // 2
    for offset in range(1, half + 1):
        for i in range(n):
            j = (i + offset) % n
            adj[i].add(j)
            adj[j].add(i)

    # rewire pass, lattice edge order: ring offset outer, node inner
    if rewire_beta > 0.0:
        for offset in range(1, half + 1):
            for i in range(n):
                if rng.random() >= rewire_beta:
                    continue
                if len(adj[i]) >= n - 1:
                    continue  # already connected to everyone
                j = (i + offset) % n
                if j not in adj[i]:
                    continue  # that lattice edge was already rewired away
                target = int(rng.integers(0, n))
                while target == i or target in adj[i]:
                    target = int(rng.integers(0, n))
                adj[i].discard(j)
                adj[j].discard(i)
                adj[i].add(target)
                adj[target].add(i)

    return Network(
        node_count=n,
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
    )


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
