"""The agent streams' vectorised seeding against numpy's own SeedSequence.

engine.agent_seed_words reimplements numpy's SeedSequence hash for every id
of a group at once; these tests hold it to numpy word for word, and the
generators built from it to substream state for state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metersim import engine
from metersim.domain import load_scenario
from metersim.engine import (
    STREAM_AGENT,
    Simulation,
    _Seeded,
    agent_seed_words,
    agent_streams,
    substream,
)

# one day's row of a sample household: 2 + 48 ticks * (25 slots + 2) draws
BLOCK = 1298


def numpy_words(seed, agent_id):
    return np.random.SeedSequence(seed, spawn_key=(STREAM_AGENT, agent_id)).generate_state(
        4, np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 7101, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_words_equal_seed_sequence_for_the_first_5000_ids(seed):
    words = agent_seed_words(seed, np.arange(5000, dtype=np.uint64))
    assert words.dtype == np.uint64
    assert words.shape == (5000, 4)
    expected = np.array([numpy_words(seed, i) for i in range(5000)])
    np.testing.assert_array_equal(words, expected)


@pytest.mark.parametrize("ids", [[2**32], [0, 2**32 - 1, 2**40 + 5], [2**64 - 1]])
def test_ids_with_a_high_word_are_refused(ids):
    with pytest.raises(ValueError):
        agent_seed_words(7101, np.array(ids, dtype=np.uint64))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), agent_id=st.integers(0, 2**32 - 1))
def test_words_equal_seed_sequence_for_any_seed_and_id(seed, agent_id):
    words = agent_seed_words(seed, np.array([agent_id, 3], dtype=np.uint64))
    np.testing.assert_array_equal(words[0], numpy_words(seed, agent_id))
    np.testing.assert_array_equal(words[1], numpy_words(seed, 3))


def test_no_ids_give_no_words():
    assert agent_seed_words(5, np.arange(0, dtype=np.uint64)).shape == (0, 4)


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        agent_seed_words(-1, np.arange(3, dtype=np.uint64))


@pytest.mark.parametrize("seed,first,count", [
    (7101, 0, 30), (2**64 - 1, 995, 10), (2**32, 2**32 - 6, 6),
])
def test_streams_equal_substream_state_for_state(seed, first, count):
    gens = agent_streams(seed, first, count)
    assert len(gens) == count
    for k, gen in enumerate(gens):
        reference = substream(seed, STREAM_AGENT, first + k)
        assert gen.bit_generator.state == reference.bit_generator.state
        np.testing.assert_array_equal(gen.random(BLOCK), reference.random(BLOCK))
        assert gen.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("n_words,dtype", [
    (4, np.uint32), (4, np.int64), (2, np.uint64), (8, np.uint64), (8, np.uint32),
])
def test_seeded_hands_out_only_four_uint64_words(n_words, dtype):
    """Each request for four uint64 words takes the next row; any other
    request is refused and takes none."""
    seeded = _Seeded(agent_seed_words(0, np.arange(2, dtype=np.uint64)))
    with pytest.raises(ValueError):
        seeded.generate_state(n_words, dtype)
    assert seeded.generate_state(4, np.uint64).tolist() == numpy_words(0, 0).tolist()
    with pytest.raises(ValueError):
        seeded.generate_state(n_words, dtype)
    assert seeded.generate_state(4, np.uint64).tolist() == numpy_words(0, 1).tolist()


def test_a_group_shares_one_seed_source(monkeypatch):
    made = []

    class Counted(_Seeded):
        def __init__(self, words):
            made.append(len(words))
            super().__init__(words)

    monkeypatch.setattr(engine, "_Seeded", Counted)
    assert len(agent_streams(7101, 0, 3)) == 3
    assert made == [3]


@pytest.mark.parametrize("population", [50, 5000])
def test_set_up_builds_no_stream_per_agent(sample_path, monkeypatch, population):
    """Set-up calls substream twice, for the population and the network,
    whatever the population: the agent streams come from agent_streams."""
    calls = []
    original = engine.substream

    def counted(seed, *key):
        calls.append(key)
        return original(seed, *key)

    monkeypatch.setattr(engine, "substream", counted)
    sim = Simulation(load_scenario(sample_path, {"population": population}))
    assert len(sim.agents) == population
    assert sorted(calls) == [(engine.STREAM_POPULATION,), (engine.STREAM_NETWORK,)]
