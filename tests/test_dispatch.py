"""The engine calls its per-agent functions only for agents that act, and
every name the benchmark's tracer wraps (perfbench/tracing.py) is still
there and still called."""

import importlib.util
import json
import os

import pytest

import metersim.engine as engine
from metersim import cli
from metersim.domain import load_scenario

from conftest import SAMPLE_PATH

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

    def counted_step_presence(agent, *args):
        before = agent.at_home
        step_presence(agent, *args)
        assert agent.at_home != before
        calls["step_presence"] += 1

    def counted_appliance_tick(agent, *args):
        before = agent.appliance_on[:]
        appliance_tick(agent, *args)
        assert agent.appliance_on != before
        calls["appliance_tick"] += 1

    def counted_maybe_interact(agent, neighbor_ids, snapshot, rt, row, tick, events):
        assert agent.at_home and agent.learning is not None
        assert row[rt.n_slots] < rt.p_interact  # the coin landed
        maybe_interact(agent, neighbor_ids, snapshot, rt, row, tick, events)
        calls["maybe_interact"] += 1

    monkeypatch.setattr(engine, "step_presence", counted_step_presence)
    monkeypatch.setattr(engine, "appliance_tick", counted_appliance_tick)
    monkeypatch.setattr(engine, "maybe_interact", counted_maybe_interact)
    scenario = two_day_sample(fraction)
    output = engine.run(scenario, record_events=True)

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
