"""The engine calls its per-agent functions only for agents that act, and
every name the benchmark's tracer wraps (perfbench/tracing.py) is still
there and still called."""

import importlib.util
import json
import os

import pytest

import metersim.engine as engine
from metersim import cli
from metersim.domain import load_scenario, validate_scenario

from conftest import SAMPLE_PATH, tiny_doc

TRACING = os.path.join(os.path.dirname(SAMPLE_PATH), "..", "perfbench", "tracing.py")


def two_day_sample(fraction):
    return load_scenario(SAMPLE_PATH, {"horizon_days": 2,
                                       "initial_experienced_fraction": fraction})


@pytest.mark.parametrize("fraction", [0.0, 0.9])
def test_every_per_agent_call_acts(monkeypatch, fraction):
    calls = {"step_presence": 0, "appliance_tick": 0, "maybe_interact": 0}
    step_presence = engine.step_presence
    appliance_tick = engine.appliance_tick
    maybe_interact = engine.maybe_interact

    side = {}  # each agent's last move; everyone starts at home

    def counted_step_presence(agent, home, tick, events):
        assert home != side.get(agent.agent_id, True)
        side[agent.agent_id] = home
        first = len(events)
        step_presence(agent, home, tick, events)
        kind = "ReturnedHome" if home else "LeftHome"
        assert events[first:] == [(tick, agent.agent_id, kind, "")]
        calls["step_presence"] += 1

    def counted_appliance_tick(agent, *args):
        before = agent.appliance_on[:]
        appliance_tick(agent, *args)
        assert agent.appliance_on != before
        calls["appliance_tick"] += 1

    def counted_maybe_interact(agent, neighbor_ids, snapshot, threshold, u_partner, tick,
                               events):
        group, k = member[agent.agent_id]
        assert group.home[k] and group.influenced[k] and agent.learning is not None
        slots = group.rt.n_slots
        assert group.tick_draws[slots, k] < group.rt.p_interact  # the coin landed
        assert u_partner == group.tick_draws[slots + 1, k]
        assert threshold == group.threshold
        maybe_interact(agent, neighbor_ids, snapshot, threshold, u_partner, tick, events)
        calls["maybe_interact"] += 1

    monkeypatch.setattr(engine, "step_presence", counted_step_presence)
    monkeypatch.setattr(engine, "appliance_tick", counted_appliance_tick)
    monkeypatch.setattr(engine, "maybe_interact", counted_maybe_interact)
    scenario = two_day_sample(fraction)
    sim = engine.Simulation(scenario, record_events=True)
    member = {a.agent_id: (group, k) for group in sim._groups for k, a in enumerate(group.agents)}
    output = sim.run_all()

    kinds = [e.kind for e in output.events]
    # one presence call per presence event, and at least one call per
    # agent-tick with a switch, far fewer than one per agent-tick
    assert calls["step_presence"] == kinds.count("LeftHome") + kinds.count("ReturnedHome")
    switches = kinds.count("SwitchedOn") + kinds.count("SwitchedOff")
    assert 0 < calls["appliance_tick"] <= switches
    agent_ticks = scenario.config.population * 2 * scenario.config.ticks_per_day
    assert calls["appliance_tick"] < agent_ticks / 4
    assert kinds.count("Interacted") <= calls["maybe_interact"]
    assert calls["maybe_interact"] > 0


def test_every_traced_name_is_still_called(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    doc = json.loads(open(SAMPLE_PATH).read())
    doc["scenario"]["horizon_days"] = 2
    config = tmp_path / "two_days.json"
    config.write_text(json.dumps(doc))
    base, seeded = tmp_path / "base", tmp_path / "seeded"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for argv in (
            ["run", "--config", str(config), "--out", str(base), "--events"],
            ["run", "--config", str(config), "--out", str(seeded), "--events",
             "--experienced-fraction", "0.9"],
            ["compare", str(base / "loadcurve.csv"), str(seeded / "loadcurve.csv")],
            ["network-stats", "--config", str(config)],
        ):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()

    spans = ("domain.load", "metrics.aggregate", "metrics.compare", "network.generate",
             "network.clustering", "network.path_length", "cli.run", "engine.init",
             "engine.day_start_tick", "engine.tick", "engine.output", "learning",
             "behavior.step_presence", "behavior.appliance_tick", "behavior.maybe_interact")
    assert {name: tracer.calls[name] > 0 for name in spans} == dict.fromkeys(spans, True)
    ticks_per_run = 2 * 144
    assert tracer.calls["engine.day_start_tick"] == 2 * 2
    assert tracer.calls["engine.tick"] == 2 * (ticks_per_run - 2)
    assert tracer.counts["engine.agent_ticks"] == 2 * 1000 * ticks_per_run
    for count in ("behavior.switch_events", "behavior.interactions",
                  "learning.record_trial_calls", "learning.absorb_interaction_calls"):
        assert tracer.counts[count] > 0
    # a switch per appliance_tick call at least: no call leaves the agent unchanged
    assert tracer.counts["behavior.switch_events"] >= tracer.calls["behavior.appliance_tick"]


def late_return_doc():
    """Returns from 23:40 at 30-minute ticks: an agent back after 23:30 is
    still out at the next day boundary and misses that day's trial."""
    doc = tiny_doc(population=24, horizon=4, tick=30, exp_frac=0.25, intervention=1, seed=5)
    doc["archetypes"][0]["return_window"] = ["23:40", "23:59"]
    return doc


@pytest.mark.parametrize("make_scenario, all_home_at_midnight", [
    (lambda: two_day_sample(0.0), True),
    (lambda: two_day_sample(0.9), True),
    (lambda: validate_scenario(late_return_doc()), False),
], ids=["sample-0.0", "sample-0.9", "late-return"])
def test_day_boundary_calls_each_learning_step_once_per_agent_it_changes(
        monkeypatch, make_scenario, all_home_at_midnight):
    """At each day boundary apply_intervention runs once for every
    uninfluenced agent, once the intervention is due, and
    record_daily_trial once for every influenced agent at home, in
    ascending id order with the intervention first.  Presence and
    influence are replayed from the event log."""
    calls = []
    apply_intervention = engine.apply_intervention
    record_daily_trial = engine.record_daily_trial

    def counted_apply_intervention(agent, tick, events):
        calls.append((tick, agent.agent_id, "intervention"))
        apply_intervention(agent, tick, events)

    def counted_record_daily_trial(agent, threshold, tick, events):
        calls.append((tick, agent.agent_id, "trial"))
        record_daily_trial(agent, threshold, tick, events)

    monkeypatch.setattr(engine, "apply_intervention", counted_apply_intervention)
    monkeypatch.setattr(engine, "record_daily_trial", counted_record_daily_trial)
    scenario = make_scenario()
    config = scenario.config
    sim = engine.Simulation(scenario, record_events=True)
    influenced = [a.learning is not None for a in sim.agents]
    seeded = sum(influenced)
    output = sim.run_all()

    population = config.population
    home = [True] * population
    expected = []
    events = iter(output.events)
    event = next(events, None)
    for day in range(config.horizon_days):
        tick = day * config.ticks_per_day
        # moves up to the last tick of the day before
        while event is not None and event.tick < tick:
            if event.kind in ("LeftHome", "ReturnedHome"):
                home[event.agent_id] = event.kind == "ReturnedHome"
            event = next(events, None)
        for i in range(population):
            if day >= config.intervention_start_day and not influenced[i]:
                expected.append((tick, i, "intervention"))
                influenced[i] = True
            if influenced[i] and home[i]:
                expected.append((tick, i, "trial"))
    assert calls == expected
    kinds = [e.kind for e in output.events]
    assert sum(c[2] == "intervention" for c in calls) == kinds.count("Influenced") > 0
    trials = sum(c[2] == "trial" for c in calls)
    start = config.intervention_start_day
    influenced_days = seeded * start + population * (config.horizon_days - start)
    if all_home_at_midnight:
        assert trials == influenced_days
    else:
        assert 0 < trials < influenced_days
