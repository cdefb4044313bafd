"""Scalar references for the network module.

reference_small_world is the rewiring pass metersim ran before it drew the
coins as one block of raw PCG64 outputs: one rng.random() coin per lattice
edge, in lattice edge order (ring offset outer, node inner), and
rng.integers(0, n) for each new endpoint.  network.generate_small_world
must build the same graph from the same generator and leave the generator
in the same state.

reference_clustering and reference_path_length are the analysis as it ran
before it read the CSR arrays with numpy: a loop over Python sets, and one
bidirectional BFS per pair.  network.clustering_coefficient and
network.mean_path_length_sampled must return the same floats.
"""

from __future__ import annotations

import numpy as np

from metersim.network import Network


def reference_small_world(
    n: int, mean_degree_k: int, rewire_beta: float, rng: np.random.Generator,
) -> Network:
    adj: list[set[int]] = [set() for _ in range(n)]
    half = mean_degree_k // 2
    for offset in range(1, half + 1):
        for i in range(n):
            j = (i + offset) % n
            adj[i].add(j)
            adj[j].add(i)

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

    return Network.from_rows([sorted(nbrs) for nbrs in adj])


def rows_of(net: Network) -> list[tuple[int, ...]]:
    """Each node's neighbours as a tuple, read from the CSR arrays."""
    ids, bounds = net.indices.tolist(), net.indptr.tolist()
    return [tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:])]


def reference_clustering(net: Network) -> float:
    if net.node_count == 0:
        return 0.0
    adjacency = rows_of(net)
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


def reference_path_length(net: Network, rng: np.random.Generator, max_pairs: int = 1000) -> float:
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

    adjacency = rows_of(net)
    total = 0.0
    counted = 0
    for s, t in pairs:
        d = pair_distance(adjacency, s, t)
        if d >= 0:
            total += d
            counted += 1
    return total / counted if counted else float("nan")


def pair_distance(adjacency: list[tuple[int, ...]], s: int, t: int) -> int:
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
