import gc
import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metersim.engine import STREAM_NETWORK, substream
from metersim.network import (
    BadDegreeError,
    clustering_coefficient,
    generate_small_world,
    mean_path_length_sampled,
    Network,
    _highest_landing,
    _Outputs,
)
from reference_network import reference_clustering, reference_path_length, reference_small_world


def rng(seed=0):
    return np.random.default_rng(seed)


def test_ring_lattice_neighbors_k2():
    net = generate_small_world(6, 2, 0.0, rng())
    assert net.adjacency[0] == (1, 5)


def test_ring_lattice_neighbors_k4():
    net = generate_small_world(6, 4, 0.0, rng())
    assert net.adjacency[3] == (1, 2, 4, 5)


def test_neighbor_lists_sorted_and_symmetric():
    adjacency = generate_small_world(200, 6, 0.4, rng(3)).adjacency
    for i, nbrs in enumerate(adjacency):
        assert list(nbrs) == sorted(nbrs)
        assert i not in nbrs
        assert len(set(nbrs)) == len(nbrs)
        for j in nbrs:
            assert i in adjacency[j]


def test_edge_count_preserved_by_rewiring():
    for beta in (0.0, 0.1, 0.5, 1.0):
        net = generate_small_world(1000, 4, beta, rng(7))
        assert net.edge_count == 2000


def test_degree_errors():
    with pytest.raises(BadDegreeError):
        generate_small_world(5, 6, 0.0, rng())
    with pytest.raises(BadDegreeError):
        generate_small_world(10, 3, 0.0, rng())
    with pytest.raises(BadDegreeError):
        generate_small_world(10, 0, 0.0, rng())


def test_clustering_triangle_is_one():
    net = Network.from_rows(((1, 2), (0, 2), (0, 1)))
    assert clustering_coefficient(net) == 1.0


def test_clustering_path_is_zero():
    net = Network.from_rows(((1,), (0, 2), (1,)))
    assert clustering_coefficient(net) == 0.0


def test_clustering_ring_k4_exact():
    # K=4 ring lattice: 3 closed pairs of the 6 neighbour pairs per node
    net = generate_small_world(10, 4, 0.0, rng())
    assert clustering_coefficient(net) == 0.5


def test_rewired_graph_keeps_much_clustering():
    values = []
    for seed in range(20):
        net = generate_small_world(1000, 4, 0.1, rng(seed))
        values.append(clustering_coefficient(net))
    assert all(v > 0.3 for v in values)


def test_deterministic_for_same_stream():
    a = generate_small_world(300, 4, 0.3, substream(99, STREAM_NETWORK))
    b = generate_small_world(300, 4, 0.3, substream(99, STREAM_NETWORK))
    assert a == b
    c = generate_small_world(300, 4, 0.3, substream(100, STREAM_NETWORK))
    assert a != c
    assert a != (a.indptr, a.indices)  # not a Network


def test_full_rewire_leaves_lattice_behind():
    # beta=1 rewires every lattice edge that is still in place when visited
    net = generate_small_world(400, 4, 1.0, rng(5))
    assert net.edge_count == 800
    adjacency = net.adjacency
    lattice_edges = sum(
        1 for i in range(400) for off in (1, 2) if (i + off) % 400 in adjacency[i]
    )
    assert lattice_edges < 800


def adjacency_digest(net):
    text = "\n".join(",".join(map(str, nbrs)) for nbrs in net.adjacency)
    return hashlib.sha256(text.encode()).hexdigest()


# recorded from the scalar rewiring loop (K 4, beta 0.1)
@pytest.mark.parametrize("n,seed,digest", [
    (1000, 42, "6cdfda8bcb81355a4794c621d4fea2a2563833d3cf7975840ecc2e8d9662f6f1"),
    (1000, 6001, "ccec1d6f925b7410164711b5a011a359e9423f8104d1486ce38ff389fdc51573"),
    (5000, 7, "27f4ad39013ea5dddcd48d9c19548c3150763bc5be5481afedaff34b8eed6918"),
    (10000, 7, "9f1c0ecfe057e2d909887c165b11018ebec343f613364bad469da7ad18c3a0eb"),
])
def test_network_stream_gives_the_recorded_graph(n, seed, digest):
    net = generate_small_world(n, 4, 0.1, substream(seed, STREAM_NETWORK))
    assert adjacency_digest(net) == digest


def pcg64(seed, cached_half):
    """A generator at seed, holding cached_half as PCG64's spare 32 bits
    unless it is None."""
    gen = np.random.Generator(np.random.PCG64(seed))
    if cached_half is not None:
        state = gen.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, cached_half
        gen.bit_generator.state = state
    return gen


def sparse_graphs():
    return st.integers(3, 2000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, min(n - 1, 10) // 2).map(lambda h: 2 * h)))


def dense_graphs():
    # every even K below n, the complete graph K = n - 1 included; where
    # few nodes are free, an endpoint takes about n draws, so n stays small
    return st.integers(3, 60).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, (n - 1) // 2).map(lambda h: 2 * h)))


def small_graphs():
    # up to K = 40, so some nodes reach everyone once rewiring adds to them
    return st.integers(1, 20).flatmap(
        lambda h: st.tuples(st.integers(2 * h + 1, 300), st.just(2 * h)))


def assert_csr_rows(net, n, k):
    """Ascending rows without self loops, each edge in both rows, held in
    int64 offsets and int32 ids."""
    assert net.indptr.dtype == np.int64 and net.indices.dtype == np.int32
    assert len(net.indptr) == n + 1 and net.indptr[0] == 0
    assert len(net.indices) == net.indptr[-1] == n * k
    rows = np.repeat(np.arange(n), np.diff(net.indptr))
    cols = net.indices
    assert not (rows == cols).any()
    within = rows[1:] == rows[:-1]
    assert (cols[1:][within] > cols[:-1][within]).all()
    there = np.lexsort((rows, cols))
    assert np.array_equal(cols[there], rows) and np.array_equal(rows[there], cols)


@settings(max_examples=250, deadline=None)
@given(
    graph=sparse_graphs() | dense_graphs() | small_graphs(),
    beta=st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    cached_half=st.none() | st.integers(0, 2**32 - 1),
)
def test_bulk_build_is_the_scalar_loop(graph, beta, seed, cached_half):
    """Same graph, and the generator left in the same state, spare half
    included."""
    n, k = graph
    bulk, scalar = pcg64(seed, cached_half), pcg64(seed, cached_half)
    net = generate_small_world(n, k, beta, bulk)
    assert net == reference_small_world(n, k, beta, scalar)
    assert bulk.bit_generator.state == scalar.bit_generator.state
    assert_csr_rows(net, n, k)


def test_the_build_makes_no_object_per_node():
    # with the collector off, no tuple is untracked while the build runs
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        net = generate_small_world(10_000, 4, 0.1, substream(42, STREAM_NETWORK))
        made = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert made < 100
    assert net.edge_count == 20_000


def test_node_ids_must_fit_int32():
    with pytest.raises(ValueError):
        generate_small_world(2**31, 4, 0.1, rng())


@pytest.mark.parametrize("beta", [-0.1, 1.1, math.nan])
def test_rewire_probability_must_be_in_the_unit_interval(beta):
    with pytest.raises(ValueError, match="rewire probability"):
        generate_small_world(10, 4, beta, rng())


@pytest.mark.parametrize("n", [2, 3, 5000, 2**31 + 1, 2**32 - 1])
@pytest.mark.parametrize("cached_half", [None, 2**32 - 1])
def test_bounded_draw_is_numpy_integers(n, cached_half):
    """_Outputs.integer(n) reads the outputs as Generator.integers(0, n)
    does, and whole outputs as Generator.random() does, in any order."""
    gen = pcg64(5, cached_half)
    out = _Outputs(pcg64(5, cached_half).bit_generator, 3)
    ops = np.random.default_rng(n).integers(0, 3, size=400)
    for op in ops:
        if op:
            assert out.integer(n) == gen.integers(0, n)
        else:
            assert (out.next64() >> 11) * 2.0**-53 == gen.random()
    out.leave()
    assert out.bitgen.state == gen.bit_generator.state


def coin(output):
    return (output >> 11) * 2.0**-53


@settings(max_examples=500, deadline=None)
@given(beta=st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([5e-324, 2.0**-53, 1e-3, 0.1, 0.5, 1.0]))
def test_an_output_lands_exactly_when_its_random_coin_is_below_beta(beta):
    highest = int(_highest_landing(beta))
    assert coin(highest) < beta
    assert highest == 2**64 - 1 or coin(highest + 1) >= beta
    assert coin(0) < beta


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM])
def test_network_stream_must_be_pcg64(bit_generator):
    with pytest.raises(TypeError):
        generate_small_world(10, 2, 0.1, np.random.Generator(bit_generator(1)))


def test_mean_path_length_ring_is_exact_for_small_graphs():
    # 6 node ring: distances from any node are 1,1,2,2,3 -> mean 1.8
    net = generate_small_world(6, 2, 0.0, rng())
    value = mean_path_length_sampled(net, rng(1), max_pairs=1000)
    assert value == pytest.approx(1.8, abs=1e-12)


def test_mean_path_length_sampled_branch():
    # 30 node ring has true mean 225/29 ~ 7.76; a capped sample should land
    # in the neighbourhood
    net = generate_small_world(30, 2, 0.0, rng())
    value = mean_path_length_sampled(net, rng(1), max_pairs=100)
    assert value == pytest.approx(225 / 29, abs=1.5)


def all_pairs_mean(net):
    """Mean over reachable pairs s < t, one complete BFS per source."""
    adjacency = net.adjacency
    total, counted = 0.0, 0
    for s in range(net.node_count):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for t, d in dist.items():
            if t > s:
                total += d
                counted += 1
    return total / counted if counted else float("nan")


def test_exact_path_length_skips_unreachable_pairs():
    # two triangles: the 6 pairs inside them are at distance 1, the other
    # 9 are unreachable
    net = Network.from_rows(((1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4)))
    assert mean_path_length_sampled(net, rng(1)) == 1.0


def test_exact_path_length_nan_without_reachable_pairs():
    net = Network.from_rows(((), ()))
    assert math.isnan(mean_path_length_sampled(net, rng(1)))


@pytest.mark.parametrize("n", [0, 1])
def test_path_length_nan_below_two_nodes(n):
    net = Network.from_rows(((),) * n)
    assert math.isnan(mean_path_length_sampled(net, rng(1)))


@pytest.mark.parametrize("n, k", [(5, 2), (12, 4), (30, 2), (45, 4), (45, 6)])
@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
def test_exact_path_length_equals_all_pairs_search(n, k, beta):
    assert n * (n - 1) // 2 <= 1000  # the exact branch
    for seed in (1, 2, 3):
        net = generate_small_world(n, k, beta, rng(seed))
        assert mean_path_length_sampled(net, rng(seed)) == all_pairs_mean(net)


def full_bfs_mean(net, gen, max_pairs):
    """mean_path_length_sampled's estimate with a complete BFS per source."""
    n = net.node_count
    sources = gen.integers(0, n, size=max_pairs)
    targets = gen.integers(0, n - 1, size=max_pairs)
    targets = np.where(targets >= sources, targets + 1, targets)
    by_source = {}
    for s, t in zip(sources.tolist(), targets.tolist()):
        by_source.setdefault(s, []).append(t)
    adjacency = net.adjacency
    total, counted = 0.0, 0
    for s, ts in by_source.items():
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for t in ts:
            if t in dist:
                total += dist[t]
                counted += 1
    return total / counted if counted else float("nan")


@pytest.mark.parametrize("n, k", [(300, 2), (400, 4), (250, 6)])
@pytest.mark.parametrize("beta", [0.0, 0.05, 0.3, 1.0])
def test_sampled_path_length_equals_full_search(n, k, beta):
    """Stopping each search once its targets are reached leaves the
    estimate bit-identical, unreachable pairs included."""
    for seed in (1, 2, 3):
        net = generate_small_world(n, k, beta, rng(seed))
        got = mean_path_length_sampled(net, rng(100 + seed), max_pairs=200)
        want = full_bfs_mean(net, rng(100 + seed), max_pairs=200)
        assert got == want or (math.isnan(got) and math.isnan(want))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(5, 120),
    st.sampled_from([2, 4, 6]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_generation_invariants(n, k, beta, seed):
    if k >= n:
        with pytest.raises(BadDegreeError):
            generate_small_world(n, k, beta, rng(seed))
        return
    net = generate_small_world(n, k, beta, rng(seed))
    assert net.node_count == n
    assert net.edge_count == n * k // 2
    adjacency = net.adjacency
    for i, nbrs in enumerate(adjacency):
        assert i not in nbrs
        assert len(set(nbrs)) == len(nbrs)
        for j in nbrs:
            assert i in adjacency[j]


@st.composite
def simple_graphs(draw):
    """Random simple graphs on 0-80 nodes, from empty to complete, with
    some nodes cut off from all others."""
    n = draw(st.integers(0, 80))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 1.0]) | st.floats(0.0, 1.0))
    alone = draw(st.sampled_from([0.0, 0.2]))
    gen = rng(draw(st.integers(0, 2**32 - 1)))
    linked = np.triu(gen.random((n, n)) < density, 1)
    linked[gen.random(n) < alone] = False
    linked |= linked.T
    return Network.from_rows([np.flatnonzero(row).tolist() for row in linked])


@st.composite
def small_worlds(draw):
    n = draw(st.integers(3, 300))
    k = 2 * draw(st.integers(1, min(n - 1, 20) // 2))
    beta = draw(st.sampled_from([0.0, 0.1, 1.0]) | st.floats(0.0, 1.0))
    return generate_small_world(n, k, beta, rng(draw(st.integers(0, 2**32 - 1))))


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300, deadline=None)
@given(
    net=simple_graphs() | small_worlds(),
    max_pairs=st.sampled_from([1, 63, 64, 65, 511, 512, 513, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_analysis_is_the_scalar_reference(net, max_pairs, seed):
    """The same floats as a loop over Python sets and one bidirectional BFS
    per pair, on both branches, through partial blocks and word edges, and
    the analysis stream left where the reference leaves it."""
    assert clustering_coefficient(net) == reference_clustering(net)
    gen, ref = rng(seed), rng(seed)
    got = mean_path_length_sampled(net, gen, max_pairs)
    assert same_float(got, reference_path_length(net, ref, max_pairs))
    assert gen.bit_generator.state == ref.bit_generator.state


def test_clustering_keys_hold_ids_past_int32_products():
    # a*n + b passes 2**31 here, and would wrap if taken in int32 ids
    n = 70_000
    rows = [()] * (n - 3) + [(n - 2, n - 1), (n - 3, n - 1), (n - 3, n - 2)]
    net = Network.from_rows(rows)
    assert clustering_coefficient(net) == reference_clustering(net) == 3 / n


class NoAdjacency(Network):
    __slots__ = ()

    @property
    def adjacency(self):
        raise AssertionError("the analysis read Network.adjacency")


@pytest.mark.parametrize("max_pairs", [100, 1000])
def test_analysis_reads_only_the_arrays(max_pairs):
    net = generate_small_world(40, 4, 0.2, rng(8))
    blind = NoAdjacency(net.node_count, net.indptr, net.indices)
    assert clustering_coefficient(blind) == reference_clustering(net)
    got = mean_path_length_sampled(blind, rng(9), max_pairs)
    assert got == reference_path_length(net, rng(9), max_pairs)


def test_the_analysis_makes_no_object_per_node():
    net = generate_small_world(10_000, 4, 0.1, substream(42, STREAM_NETWORK))
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        clustering_coefficient(net)
        mean_path_length_sampled(net, rng(1))
        made = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert made < 100
