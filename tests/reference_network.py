"""Scalar reference Watts-Strogatz build: one generator call per draw.

This is the rewiring pass metersim ran before it drew the coins as one
block of raw PCG64 outputs: one rng.random() coin per lattice edge, in
lattice edge order (ring offset outer, node inner), and rng.integers(0, n)
for each new endpoint.  network.generate_small_world must build the same
graph from the same generator and leave the generator in the same state.
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
