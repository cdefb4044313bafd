import math
import mmap
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metersim.behavior import (
    BECAME_EXPERIENCED,
    INFLUENCED,
    INTERACTED,
    LEFT_HOME,
    RETURNED_HOME,
    SWITCHED_OFF,
    SWITCHED_ON,
)
from metersim import engine
from metersim.domain import TimeOfDay, load_scenario, validate_scenario
from metersim.engine import (
    STREAM_AGENT,
    Simulation,
    apportion,
    run,
    substream,
)
from metersim.learning import LearningState, trials_to_threshold

from conftest import daily_times, tiny_doc


def micro_doc():
    """Fully hand-traceable run: 3 identical agents on a triangle.

    Degenerate leave/return windows, awareness 0 (no interactions), one
    100 W lamp with switch-on propensity 1 in buckets 0-5 and 36-39 and a
    30 min mean on time at 30 min ticks, so it flips every tick while the
    profile is hot.  learning_rate 5 crosses the 0.85 threshold at the
    first trial.  Every event and load sample below is enumerated by hand.
    """
    profile = [0.0] * 48
    for i in (0, 1, 2, 3, 4, 5, 36, 37, 38, 39):
        profile[i] = 1.0
    return {
        "scenario": {
            "population": 3,
            "archetype_mix": {"fixture": 1.0},
            "network_mean_degree_K": 2,
            "network_rewire_beta": 0.0,
            "p_threshold": 0.85,
            "intervention_start_day": 0,
            "initial_experienced_fraction": 0.0,
            "horizon_days": 1,
            "tick_minutes": 30,
            "base_interaction_rate": 0.0,
            "seed": 7,
        },
        "archetypes": [{
            "id": "fixture",
            "label": "fixture household",
            "leave_window": ["09:00", "09:00"],
            "return_window": ["15:00", "15:00"],
            "awareness": 0.0,
            "learning_rate_k": 5.0,
            "max_attainable_M": 1.0,
            "appliances": {"lamp": 1},
        }],
        "appliances": [{
            "id": "lamp",
            "label": "lamp",
            "power_watts": 100.0,
            "usage_profile": profile,
            "deferrable": False,
            "mean_on_minutes": 30,
        }],
    }


# (tick, agent, kind, detail), in exact emission order
MICRO_EVENTS = [
    # day boundary bookkeeping: intervention, then the first daily trial
    (0, 0, INFLUENCED, ""),
    (0, 0, BECAME_EXPERIENCED, ""),
    (0, 1, INFLUENCED, ""),
    (0, 1, BECAME_EXPERIENCED, ""),
    (0, 2, INFLUENCED, ""),
    (0, 2, BECAME_EXPERIENCED, ""),
    # hot profile, p_off 1: lamps flip on even ticks, off odd ticks
    (0, 0, SWITCHED_ON, "lamp#0"),
    (0, 1, SWITCHED_ON, "lamp#0"),
    (0, 2, SWITCHED_ON, "lamp#0"),
    (1, 0, SWITCHED_OFF, "lamp#0"),
    (1, 1, SWITCHED_OFF, "lamp#0"),
    (1, 2, SWITCHED_OFF, "lamp#0"),
    (2, 0, SWITCHED_ON, "lamp#0"),
    (2, 1, SWITCHED_ON, "lamp#0"),
    (2, 2, SWITCHED_ON, "lamp#0"),
    (3, 0, SWITCHED_OFF, "lamp#0"),
    (3, 1, SWITCHED_OFF, "lamp#0"),
    (3, 2, SWITCHED_OFF, "lamp#0"),
    (4, 0, SWITCHED_ON, "lamp#0"),
    (4, 1, SWITCHED_ON, "lamp#0"),
    (4, 2, SWITCHED_ON, "lamp#0"),
    (5, 0, SWITCHED_OFF, "lamp#0"),
    (5, 1, SWITCHED_OFF, "lamp#0"),
    (5, 2, SWITCHED_OFF, "lamp#0"),
    # cold profile until the 09:00 departure (tick 18 is minute 540)
    (18, 0, LEFT_HOME, ""),
    (18, 1, LEFT_HOME, ""),
    (18, 2, LEFT_HOME, ""),
    # back at 15:00 (tick 30 is minute 900)
    (30, 0, RETURNED_HOME, ""),
    (30, 1, RETURNED_HOME, ""),
    (30, 2, RETURNED_HOME, ""),
    # evening hot stretch falls inside the 17:00-20:00 peak window; the
    # lamp is not deferrable, so the experienced agents behave identically
    (36, 0, SWITCHED_ON, "lamp#0"),
    (36, 1, SWITCHED_ON, "lamp#0"),
    (36, 2, SWITCHED_ON, "lamp#0"),
    (37, 0, SWITCHED_OFF, "lamp#0"),
    (37, 1, SWITCHED_OFF, "lamp#0"),
    (37, 2, SWITCHED_OFF, "lamp#0"),
    (38, 0, SWITCHED_ON, "lamp#0"),
    (38, 1, SWITCHED_ON, "lamp#0"),
    (38, 2, SWITCHED_ON, "lamp#0"),
    (39, 0, SWITCHED_OFF, "lamp#0"),
    (39, 1, SWITCHED_OFF, "lamp#0"),
    (39, 2, SWITCHED_OFF, "lamp#0"),
]

MICRO_LOAD = [
    300.0, 0.0, 300.0, 0.0, 300.0, 0.0,   # ticks 0-5
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0,          # 6-11, profile cold
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0,          # 12-17
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0,          # 18-23, everyone out
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0,          # 24-29
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0,          # 30-35, home but cold
    300.0, 0.0, 300.0, 0.0,                # 36-39, evening stretch
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,  # 40-47
]


def test_micro_scenario_event_log_matches_hand_trace():
    output = run(validate_scenario(micro_doc()), record_events=True)
    got = [(e.tick, e.agent_id, e.kind, e.detail) for e in output.events]
    assert got == MICRO_EVENTS


def test_micro_scenario_load_series_matches_hand_trace():
    output = run(validate_scenario(micro_doc()))
    assert output.load_series.tolist() == MICRO_LOAD
    assert output.adoption_series == ((0, 0, 3),)


def test_always_on_appliance_gives_flat_series():
    # profile 1 everywhere, mean_on_minutes null: switches on at the first
    # tick and never off, and stays on while the agent is out
    doc = micro_doc()
    doc["appliances"][0]["usage_profile"] = [1.0] * 48
    doc["appliances"][0]["mean_on_minutes"] = None
    output = run(validate_scenario(doc))
    assert output.load_series.tolist() == [300.0] * 48


def test_cold_profile_gives_zero_series():
    doc = micro_doc()
    doc["appliances"][0]["usage_profile"] = [0.0] * 48
    output = run(validate_scenario(doc))
    assert output.load_series.tolist() == [0.0] * 48


def replayed_load(scenario, events):
    """Per tick fsum of the powers that are on after replaying that
    tick's switch events from scratch."""
    watts = {a.id: a.power_watts for a in scenario.appliances}
    on: list[dict] = [dict() for _ in range(scenario.config.population)]
    by_tick = defaultdict(list)
    for e in events:
        by_tick[e.tick].append(e)
    total_ticks = scenario.config.horizon_days * scenario.config.ticks_per_day
    loads = []
    for t in range(total_ticks):
        for e in by_tick.get(t, ()):
            if e.kind == SWITCHED_ON:
                assert e.detail not in on[e.agent_id]
                on[e.agent_id][e.detail] = watts[e.detail.split("#")[0]]
            elif e.kind == SWITCHED_OFF:
                del on[e.agent_id][e.detail]
        loads.append(math.fsum(w for d in on for w in d.values()))
    return loads


def test_load_series_matches_event_replay():
    """The load sample must agree with a from-scratch replay of the switch
    events at every tick."""
    scenario = validate_scenario(tiny_doc(
        population=10, degree=4, beta=0.3, horizon=3, tick=15,
        rate=0.3, k=0.8, seed=5, intervention=1,
    ))
    output = run(scenario, record_events=True)
    expected = replayed_load(scenario, output.events)
    assert len(output.load_series) == len(expected)
    for sample, exact in zip(output.load_series.tolist(), expected):
        assert sample == pytest.approx(exact, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    powers=st.tuples(st.floats(0.01, 3000.0), st.floats(0.01, 3000.0)),
    on_minutes=st.sampled_from([10, 30, 120]),
    tick=st.sampled_from([10, 15, 30]),
    exp_frac=st.sampled_from([0.0, 0.5]),
)
def test_load_samples_are_the_exact_sum_of_on_powers(seed, powers, on_minutes, tick, exp_frac):
    """With fractional wattages every sample is >= 0 and equals the exactly
    rounded sum of the powers that are on."""
    doc = tiny_doc(population=12, degree=4, beta=0.2, horizon=2, tick=tick,
                   rate=0.3, seed=seed, exp_frac=exp_frac)
    for appliance, watts in zip(doc["appliances"], powers):
        appliance["power_watts"] = watts
        appliance["mean_on_minutes"] = on_minutes
        appliance["usage_profile"] = [0.5] * 24 + [0.05] * 24
    scenario = validate_scenario(doc)
    output = run(scenario, record_events=True)
    expected = replayed_load(scenario, output.events)
    assert len(output.load_series) == len(expected)
    for sample, exact in zip(output.load_series.tolist(), expected):
        assert sample >= 0.0
        assert sample == exact


def test_same_seed_reproduces_everything():
    doc = tiny_doc(population=8, degree=4, beta=0.2, horizon=2, rate=0.3, seed=21)
    a = run(validate_scenario(doc), record_events=True)
    b = run(validate_scenario(doc), record_events=True)
    assert np.array_equal(a.load_series, b.load_series)
    assert a.events == b.events
    assert a.adoption_series == b.adoption_series


def test_event_sink_gets_each_tick_s_events_as_the_tick_ends():
    """One sink call per tick with that tick's events, and nothing left
    pending between ticks, so a run never holds more than a tick's events."""
    doc = tiny_doc(population=16, degree=4, beta=0.3, horizon=2, rate=1.0, exp_frac=0.5, seed=8)
    scenario = validate_scenario(doc)
    batches = []
    sim = Simulation(scenario, event_sink=batches.append)
    total = scenario.config.horizon_days * scenario.config.ticks_per_day
    for tick in range(total):
        sim.tick()
        assert len(batches) == tick + 1
        assert sim.tick_events == []
        assert {e.tick for e in batches[-1]} <= {tick}
    output = sim.run_all()
    assert output.events is None
    recorded = run(scenario, record_events=True).events
    assert [e for batch in batches for e in batch] == list(recorded)
    assert {e.kind for e in recorded} >= {INFLUENCED, INTERACTED, SWITCHED_ON}


def test_record_events_and_event_sink_are_exclusive():
    with pytest.raises(ValueError, match="exclusive"):
        Simulation(validate_scenario(tiny_doc()), record_events=True, event_sink=print)


def test_different_seed_changes_the_run():
    a = run(validate_scenario(tiny_doc(seed=1)))
    b = run(validate_scenario(tiny_doc(seed=2)))
    assert not np.array_equal(a.load_series, b.load_series)


def test_adoption_series_partitions_and_moves_one_way():
    scenario = validate_scenario(tiny_doc(
        population=9, degree=2, horizon=6, k=0.5, rate=0.2, seed=3,
    ))
    output = run(scenario)
    rows = output.adoption_series
    assert len(rows) == 6
    for u, i, e in rows:
        assert u + i + e == 9
    for (u0, _, e0), (u1, _, e1) in zip(rows, rows[1:]):
        assert u1 <= u0
        assert e1 >= e0
    # k = 0.5 crosses 0.85 at the fourth trial, which lands on day 3
    assert rows[0] == (0, 9, 0)
    assert rows[2] == (0, 9, 0)
    assert rows[3] == (0, 0, 9)


def test_intervention_day_delays_influence():
    scenario = validate_scenario(tiny_doc(population=6, horizon=3, intervention=1))
    output = run(scenario, record_events=True)
    assert output.adoption_series[0] == (6, 0, 0)
    assert output.adoption_series[1][0] == 0
    first_influence = min(e.tick for e in output.events if e.kind == INFLUENCED)
    assert first_influence == scenario.config.ticks_per_day


def test_intervention_past_horizon_means_nobody_is_touched():
    scenario = validate_scenario(tiny_doc(population=6, horizon=2, intervention=5))
    output = run(scenario, record_events=True)
    assert all(row == (6, 0, 0) for row in output.adoption_series)
    assert not any(e.kind == INFLUENCED for e in output.events)
    assert float(output.load_series.sum()) > 0.0


@pytest.mark.parametrize("total,weights,expected", [
    (1000, (("a", 0.6), ("b", 0.4)), [600, 400]),
    (10, (("a", 1 / 3), ("b", 1 / 3), ("c", 1 / 3)), [4, 3, 3]),
    (7, (("a", 0.5), ("b", 0.5)), [4, 3]),
    (5, (("a", 1.0),), [5]),
    (1, (("a", 0.1), ("b", 0.9)), [0, 1]),
])
def test_apportion(total, weights, expected):
    counts = apportion(total, weights)
    assert counts == expected
    assert sum(counts) == total


def test_preseeded_agents_are_experienced_at_threshold(monkeypatch):
    """The threshold is worked out once per archetype group, seeded or not,
    and the group's pre-seeded agents share one frozen state at it."""
    thresholds = []
    monkeypatch.setattr(engine, "trials_to_threshold",
                        lambda params: thresholds.append(params) or trials_to_threshold(params))
    doc = tiny_doc(population=10, mix={"resident": 0.6, "loner": 0.4}, exp_frac=0.9,
                   k=0.5, seed=13)
    doc["archetypes"].append(dict(doc["archetypes"][0], id="loner", learning_rate_k=0.25))
    sim = Simulation(validate_scenario(doc))
    agents = sim.agents
    assert sim.network.node_count == 10
    assert len(thresholds) == 2
    seeded = [a for a in agents if a.learning is not None]
    assert len(seeded) == 9
    # threshold trial count for M=1, threshold 0.85: 4 at k=0.5, 8 at k=0.25
    expected = {"resident": LearningState(trials_t=4, experienced=True),
                "loner": LearningState(trials_t=8, experienced=True)}
    assert [group.rt.spec.id for group in sim._groups] == list(expected)
    assert [group.threshold for group in sim._groups] == [4, 8]
    for group in sim._groups:
        picked = [k for k, a in enumerate(group.agents) if a.learning is not None]
        for k in picked:
            assert group.agents[k].learning == expected[group.rt.spec.id]
            assert group.home[k]
        assert len({id(group.agents[k].learning) for k in picked}) == 1
        # the group's flags are set with the agents, at set-up
        flags = [a.learning is not None for a in group.agents]
        assert group.influenced.tolist() == group.experienced.tolist() == flags

    doc["scenario"]["initial_experienced_fraction"] = 0.0
    Simulation(validate_scenario(doc)).run_all()
    assert len(thresholds) == 4


@pytest.mark.parametrize("pop,frac,expected", [
    (10, 0.0, 0),
    (10, 1.0, 10),
    (6, 0.25, 2),    # 1.5 rounds half up
    (9, 0.05, 0),    # 0.45 rounds down
    (1000, 0.9, 900),
])
def test_preseed_count_rounds_half_up(pop, frac, expected):
    scenario = validate_scenario(tiny_doc(population=pop, degree=2, exp_frac=frac))
    agents = Simulation(scenario).agents
    assert sum(1 for a in agents if a.learning is not None) == expected


def test_population_starts_at_home_inside_windows():
    scenario = validate_scenario(tiny_doc(population=20, degree=4, seed=77))
    sim = Simulation(scenario)
    agents = sim.agents
    assert len(agents) == 20
    assert sim.network.edge_count == 40
    times = daily_times(sim)
    for group in sim._groups:
        assert group.home.tolist() == [True] * len(group.agents)
    for a in agents:
        assert a.learning is None
        assert a.appliance_on == [False, False]
        leave, ret = times[a.agent_id]
        assert 600 <= leave <= 660
        assert 840 <= ret <= 900


def test_scenario_variants_stay_draw_aligned():
    """Pre-seeding changes behaviour, not the random stream: the two runs
    must see identical daily presence and an identical network."""
    base_doc = tiny_doc(population=12, degree=4, beta=0.2, horizon=3, rate=0.2, seed=31)
    seeded_doc = tiny_doc(population=12, degree=4, beta=0.2, horizon=3, rate=0.2,
                          seed=31, exp_frac=0.5)
    a = run(validate_scenario(base_doc), record_events=True)
    b = run(validate_scenario(seeded_doc), record_events=True)

    def presence(events):
        return [(e.tick, e.agent_id, e.kind) for e in events
                if e.kind in (LEFT_HOME, RETURNED_HOME)]

    assert presence(a.events) == presence(b.events)
    net_a = Simulation(validate_scenario(base_doc)).network
    net_b = Simulation(validate_scenario(seeded_doc)).network
    assert net_a.adjacency == net_b.adjacency


def test_day_blocks_follow_the_agent_stream():
    """Agent i's day-d leave and return times come from values d*block_len
    and d*block_len + 1 of its own substream, block_len being 2 plus
    slots+2 per tick for the agent's archetype."""
    doc = tiny_doc(population=5, mix={"resident": 0.6, "loner": 0.4}, horizon=3, seed=19)
    doc["archetypes"].append(dict(
        doc["archetypes"][0], id="loner", leave_window=["07:00", "08:30"],
        return_window=["16:00", "19:00"], appliances={"heater": 3}))
    scenario = validate_scenario(doc)
    ticks_per_day = scenario.config.ticks_per_day
    # resident: two slots, window starts 600/840; loner: three slots, 420/960
    layout = {"resident": (2, 600, 61, 840, 61), "loner": (3, 420, 91, 960, 181)}
    sim = Simulation(scenario)
    for t in range(3 * ticks_per_day):
        sim.tick()
        if t % ticks_per_day:
            continue
        day = t // ticks_per_day
        times = daily_times(sim)
        for group in sim._groups:
            slots, leave_lo, leave_span, return_lo, return_span = layout[group.rt.spec.id]
            block_len = 2 + ticks_per_day * (slots + 2)
            for agent in group.agents:
                u = substream(19, STREAM_AGENT, agent.agent_id).random(3 * block_len)
                leave, ret = times[agent.agent_id]
                assert leave == leave_lo + int(u[day * block_len] * leave_span)
                assert ret == return_lo + int(u[day * block_len + 1] * return_span)
    members = [(group.rt.spec.id, a.agent_id) for group in sim._groups for a in group.agents]
    assert members == [("resident", 0), ("resident", 1), ("resident", 2), ("loner", 3), ("loner", 4)]
    assert [id(a) for a in sim.agents] == [id(a) for group in sim._groups for a in group.agents]


def test_tick_draws_follow_the_agent_stream_across_refills():
    """Each tick's draws, the agent's column of its group's tick draws, are
    values d*block_len + 2 + t*stride onwards of the agent's own substream,
    stride being slots+2, on the first tick of every chunk and through a
    short last chunk as on any other tick."""
    doc = tiny_doc(population=5, mix={"resident": 0.6, "loner": 0.4}, horizon=2,
                   tick=5, seed=23)
    doc["archetypes"].append(dict(doc["archetypes"][0], id="loner", appliances={"heater": 3}))
    scenario = validate_scenario(doc)
    ticks_per_day = scenario.config.ticks_per_day
    sim = Simulation(scenario)
    streams = {}
    for group in sim._groups:
        stride = group.rt.n_slots + 2
        assert group.draws.shape[1] == 2 + group.chunk * stride <= 2 + engine.DRAWS_PER_REFILL
        block_len = 2 + ticks_per_day * stride
        for agent in group.agents:
            streams[agent.agent_id] = (
                substream(23, STREAM_AGENT, agent.agent_id).random(2 * block_len), stride, block_len)
    chunks = {g.rt.n_slots: g.chunk for g in sim._groups}
    # the day splits into several chunks; the two-slot one ends short
    assert chunks[2] < ticks_per_day and ticks_per_day % chunks[2]
    assert chunks[3] < ticks_per_day
    for tick_index in range(2 * ticks_per_day):
        sim.tick()
        day, t = divmod(tick_index, ticks_per_day)
        for group in sim._groups:
            for k, agent in enumerate(group.agents):
                u, stride, block_len = streams[agent.agent_id]
                start = day * block_len + 2 + t * stride
                assert group.tick_draws[:, k].tolist() == u[start:start + stride].tolist()


def set_up_peak(scenario):
    """A Simulation of scenario and the peak memory its set-up took:
    tracemalloc's peak plus the draw matrices, which have pages of their
    own that tracemalloc does not see."""
    tracemalloc.start()
    try:
        sim = Simulation(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return sim, peak + sum(group.draws.nbytes for group in sim._groups)


def test_simulation_set_up_memory_at_2000_agents(sample_path):
    """One float64 draw row per agent keeps the set-up of 2000 sample
    households under 40 MB (a list of boxed floats per agent took 84 MB)."""
    sim, peak = set_up_peak(load_scenario(sample_path, {"population": 2000}))
    assert len(sim.agents) == 2000
    assert peak < 40 * 2**20


@pytest.mark.parametrize("tick", [10, 1])
def test_set_up_memory_does_not_grow_with_the_day(sample_path, tick):
    """The draw rows hold one chunk of ticks, not the whole day, so the
    set-up of 2000 sample households stays under 12 MB at 144 ticks a day
    and at 1440 (holding the whole day took 23 and 201 MB)."""
    sim, peak = set_up_peak(
        load_scenario(sample_path, {"population": 2000, "tick_minutes": tick}))
    assert len(sim.agents) == 2000
    assert peak < 12 * 2**20


def test_set_up_without_map_populate_gives_the_same_run(sample_path, monkeypatch):
    """Where mmap has no MAP_POPULATE (macOS, Windows), the draw matrices
    take plain anonymous pages, and the run is the same as with it."""
    scenario = load_scenario(sample_path, {"population": 50, "horizon_days": 1})
    expected = run(scenario).load_series.tolist()
    flags = []
    plain = mmap.mmap

    def mapping(*args, **kwargs):
        flags.append(kwargs.get("flags"))
        return plain(*args, **kwargs)

    monkeypatch.delattr(mmap, "MAP_POPULATE", raising=False)
    monkeypatch.setattr(mmap, "mmap", mapping)
    assert run(scenario).load_series.tolist() == expected
    # every draw matrix was mapped, and without flags
    assert flags and flags == [None] * len(flags)


def test_substreams_are_stable_and_distinct():
    assert substream(7, STREAM_AGENT, 0).random() == substream(7, STREAM_AGENT, 0).random()
    assert substream(7, STREAM_AGENT, 0).random() != substream(7, STREAM_AGENT, 1).random()


def test_default_peak_window():
    scenario = validate_scenario(tiny_doc())
    assert scenario.config.peak_window == (TimeOfDay(1020), TimeOfDay(1200))
    assert scenario.config.peak_suppression == 0.5
