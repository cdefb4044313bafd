import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metersim.behavior import (
    BECAME_EXPERIENCED,
    INFLUENCED,
    LEFT_HOME,
    RETURNED_HOME,
    SWITCHED_OFF,
    SWITCHED_ON,
)
from metersim.domain import TimeOfDay, load_scenario, validate_scenario
from metersim.engine import (
    STREAM_AGENT,
    Simulation,
    apportion,
    run,
    substream,
)

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
        assert abs(sample - exact) <= 1e-9


def test_same_seed_reproduces_everything():
    doc = tiny_doc(population=8, degree=4, beta=0.2, horizon=2, rate=0.3, seed=21)
    a = run(validate_scenario(doc), record_events=True)
    b = run(validate_scenario(doc), record_events=True)
    assert np.array_equal(a.load_series, b.load_series)
    assert a.events == b.events
    assert a.adoption_series == b.adoption_series


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


def test_preseeded_agents_are_experienced_at_threshold():
    scenario = validate_scenario(tiny_doc(population=10, exp_frac=0.9, k=0.5, seed=13))
    sim = Simulation(scenario)
    agents = sim.agents
    assert sim.network.node_count == 10
    seeded = [a for a in agents if a.learning is not None]
    assert len(seeded) == 9
    for a in seeded:
        # threshold trial count for k=0.5, M=1, threshold 0.85
        assert a.learning == type(a.learning)(trials_t=4, experienced=True)
        assert a.at_home


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
    for a in agents:
        assert a.at_home
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
        for agent in sim.agents:
            slots, leave_lo, leave_span, return_lo, return_span = layout[agent.archetype_id]
            block_len = 2 + ticks_per_day * (slots + 2)
            u = substream(19, STREAM_AGENT, agent.agent_id).random(3 * block_len)
            leave, ret = times[agent.agent_id]
            assert leave == leave_lo + int(u[day * block_len] * leave_span)
            assert ret == return_lo + int(u[day * block_len + 1] * return_span)
    assert [a.archetype_id for a in sim.agents] == ["resident"] * 3 + ["loner"] * 2


def test_simulation_set_up_memory_at_2000_agents(sample_path):
    """One float64 draw row per agent keeps the set-up of 2000 sample
    households under 40 MB (a list of boxed floats per agent took 84 MB)."""
    scenario = load_scenario(sample_path, {"population": 2000})
    tracemalloc.start()
    try:
        sim = Simulation(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sim.agents) == 2000
    assert peak < 40 * 2**20


def test_substreams_are_stable_and_distinct():
    assert substream(7, STREAM_AGENT, 0).random() == substream(7, STREAM_AGENT, 0).random()
    assert substream(7, STREAM_AGENT, 0).random() != substream(7, STREAM_AGENT, 1).random()


def test_default_peak_window():
    scenario = validate_scenario(tiny_doc())
    assert scenario.config.peak_window == (TimeOfDay(1020), TimeOfDay(1200))
    assert scenario.config.peak_suppression == 0.5
