"""Differential test: the masked engine against the scalar reference loop.

tests/reference_engine.py visits every agent on every tick and applies each
rule to it in scalar form.  Over generated small scenarios the engine must
give the same load series (compared with ==), the same adoption series and
the same event tuple, and after every tick its group arrays must agree with
the agents' own fields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metersim.domain import validate_scenario
from metersim.engine import Simulation

from conftest import tiny_doc
from reference_engine import reference_run

MIXES = {1: [(1.0,)], 2: [(0.5, 0.5), (0.3, 0.7)], 3: [(0.2, 0.3, 0.5)]}
PEAK_WINDOWS = [
    None,                  # the 17:00-20:00 default
    ["00:00", "23:59"],    # covers every tick of the day
    ["17:05", "17:09"],    # falls between ticks, so no tick is in the peak
]


@st.composite
def scenario_docs(draw):
    appliances = []
    for i in range(draw(st.integers(1, 3))):
        profile_rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        scale = draw(st.sampled_from([0.0, 0.05, 0.4, 1.0]))
        appliances.append({
            "id": f"app{i}",
            "label": f"appliance {i}",
            "power_watts": draw(st.floats(0.01, 3000.0)),
            "deferrable": draw(st.booleans()),
            "mean_on_minutes": draw(st.sampled_from([None, 10, 30, 120])),
            "usage_profile": (profile_rng.random(48) * scale).tolist(),
        })
    n_arch = draw(st.integers(1, 3))
    archetypes = []
    for i in range(n_arch):
        leave_h = draw(st.integers(5, 10))
        leave_m = draw(st.sampled_from([0, 45]))
        return_h = draw(st.integers(12, 22))
        bundle = {a["id"]: draw(st.integers(1, 2)) for a in appliances
                  if draw(st.booleans()) or a is appliances[i % len(appliances)]}
        archetypes.append({
            "id": f"arch{i}",
            "label": f"archetype {i}",
            "leave_window": [f"{leave_h:02d}:00", f"{leave_h:02d}:{leave_m:02d}"],
            "return_window": [f"{return_h:02d}:00", f"{return_h + 1:02d}:30"],
            "awareness": draw(st.sampled_from([0.0, 0.5, 1.0])),
            "learning_rate_k": draw(st.sampled_from([0.3, 1.0, 5.0])),
            "max_attainable_M": draw(st.sampled_from([0.9, 1.0])),
            "appliances": bundle,
        })
    mix = draw(st.sampled_from(MIXES[n_arch]))
    degree = draw(st.sampled_from([2, 4]))
    scenario = {
        "population": draw(st.integers(degree + 1, 30)),
        "archetype_mix": {a["id"]: f for a, f in zip(archetypes, mix)},
        "network_mean_degree_K": degree,
        "network_rewire_beta": draw(st.sampled_from([0.0, 0.3])),
        "p_threshold": 0.85,
        "intervention_start_day": draw(st.integers(0, 4)),
        "initial_experienced_fraction": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "horizon_days": draw(st.integers(1, 3)),
        "tick_minutes": draw(st.sampled_from([10, 15, 30, 60])),
        "base_interaction_rate": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "peak_suppression": draw(st.sampled_from([0.0, 0.5, 1.0])),
    }
    window = draw(st.sampled_from(PEAK_WINDOWS))
    if window is not None:
        scenario["peak_window"] = window
    return {"scenario": scenario, "archetypes": archetypes, "appliances": appliances}


def assert_groups_mirror_agents(sim):
    for group in sim._groups:
        agents = group.agents
        assert group.home.tolist() == [a.at_home for a in agents]
        assert group.on.T.tolist() == [a.appliance_on for a in agents]
        assert group.influenced.tolist() == [a.learning is not None for a in agents]
        assert group.experienced.tolist() == [
            a.learning is not None and a.learning.experienced for a in agents]
        assert group.on_count == [sum(slot) for slot in group.on.tolist()]
    assert sim._snapshot == [a.learning for a in sim.agents]


def assert_engine_matches_reference(doc):
    scenario = validate_scenario(doc)
    sim = Simulation(scenario, record_events=True)
    for _ in range(scenario.config.horizon_days * scenario.config.ticks_per_day):
        sim.tick()
        assert_groups_mirror_agents(sim)
    output = sim.run_all()
    load, adoption, events = reference_run(scenario)
    assert output.load_series.tolist() == load
    assert output.adoption_series == adoption
    assert output.events == events


@settings(max_examples=100, deadline=None)
@given(scenario_docs())
def test_engine_matches_the_scalar_reference(doc):
    assert_engine_matches_reference(doc)


@pytest.mark.parametrize("doc", [
    # every at-home agent chats every tick, so chats tip agents over the
    # threshold mid-day and donors learn within the tick they are read
    tiny_doc(population=16, degree=4, beta=0.3, horizon=3, tick=15, rate=1.0,
             k=0.5, exp_frac=0.5, seed=8),
    tiny_doc(population=16, degree=4, beta=0.3, horizon=4, tick=30, rate=1.0,
             k=0.5, exp_frac=0.5, seed=9, intervention=1),
], ids=["chats-from-day-0", "chats-from-day-1"])
def test_engine_matches_the_scalar_reference_when_everyone_chats(doc):
    assert_engine_matches_reference(doc)


def test_engine_matches_the_scalar_reference_with_an_archetype_without_appliances():
    doc = tiny_doc(population=9, mix={"resident": 0.5, "bare": 0.5}, horizon=2,
                   rate=0.5, exp_frac=0.5, seed=4)
    doc["archetypes"].append(dict(doc["archetypes"][0], id="bare", appliances={}))
    assert_engine_matches_reference(doc)
