"""Scalar reference engine: every agent is visited on every tick.

This is the tick loop metersim ran before its engine decided presence,
switching and chat coins with per-group masks.  It keeps the same streams,
the same per-day block layout and the same per-agent order, so the engine
must reproduce its load series, adoption series and event log exactly.
Only the learning curve, the runtime tables, the network and the stream
helpers come from metersim; each per-agent rule is written out here once
more in its scalar form.  Crossings are decided the way they were before
the engine counted trials against trials_to_threshold: by evaluating
P(t) >= p_threshold on every trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from metersim.behavior import (
    BECAME_EXPERIENCED,
    INFLUENCED,
    INTERACTED,
    LEFT_HOME,
    RETURNED_HOME,
    SWITCHED_OFF,
    SWITCHED_ON,
    AgentEvent,
    ArchetypeRuntime,
)
from metersim.domain import Scenario
from metersim.engine import STREAM_AGENT, STREAM_NETWORK, STREAM_POPULATION, apportion, substream
from metersim.learning import LearningState, adoption_probability, trials_to_threshold
from metersim.network import generate_small_world


@dataclass
class RefAgent:
    agent_id: int
    rt: ArchetypeRuntime
    at_home: bool
    learning: LearningState | None
    appliance_on: list[bool]
    today_leave: int = 0
    today_return: int = 0
    bonus_trial_today: bool = False


def sample_daily_times(arch, u_leave: float, u_return: float) -> tuple[int, int]:
    leave_lo = arch.leave_window[0].minutes
    leave_span = arch.leave_window[1].minutes - leave_lo + 1
    return_lo = arch.return_window[0].minutes
    return_span = arch.return_window[1].minutes - return_lo + 1
    return leave_lo + int(u_leave * leave_span), return_lo + int(u_return * return_span)


def step_presence(agent: RefAgent, now: int, tick: int, events: list) -> None:
    away = agent.today_leave <= now < agent.today_return
    if agent.at_home:
        if away:
            agent.at_home = False
            events.append(AgentEvent(tick, agent.agent_id, LEFT_HOME))
    elif not away:
        agent.at_home = True
        events.append(AgentEvent(tick, agent.agent_id, RETURNED_HOME))


def record_trial(state: LearningState, params) -> LearningState:
    t = state.trials_t + 1
    return LearningState(t, state.experienced
                         or adoption_probability(params, t) >= params.p_threshold)


def record_daily_trial(agent: RefAgent, tick: int, events: list) -> None:
    before = agent.learning
    after = record_trial(before, agent.rt.learn_params)
    agent.learning = after
    if after.experienced and not before.experienced:
        events.append(AgentEvent(tick, agent.agent_id, BECAME_EXPERIENCED))


def appliance_tick(agent: RefAgent, bucket: int, in_peak: bool, row: list[float],
                   on_count: list[int], tick: int, events: list) -> None:
    rt = agent.rt
    if in_peak and agent.learning is not None and agent.learning.experienced:
        p_on_row, p_off_row = rt.on_suppressed[bucket], rt.off_suppressed
    else:
        p_on_row, p_off_row = rt.on_normal[bucket], rt.off_normal
    on = agent.appliance_on
    for j in range(rt.n_slots):
        if on[j]:
            if row[j] < p_off_row[j]:
                on[j] = False
                on_count[j] -= 1
                events.append(AgentEvent(tick, agent.agent_id, SWITCHED_OFF, rt.slot_labels[j]))
        elif row[j] < p_on_row[j]:
            on[j] = True
            on_count[j] += 1
            events.append(AgentEvent(tick, agent.agent_id, SWITCHED_ON, rt.slot_labels[j]))


def maybe_interact(agent: RefAgent, neighbor_ids, snapshot: list, row: list[float],
                   tick: int, events: list) -> None:
    rt = agent.rt
    if row[rt.n_slots] >= rt.p_interact:
        return
    donors = [j for j in neighbor_ids if snapshot[j] is not None]
    if not donors:
        return
    peer = donors[int(row[rt.n_slots + 1] * len(donors))]
    events.append(AgentEvent(tick, agent.agent_id, INTERACTED, str(peer)))
    if agent.bonus_trial_today:
        return
    before = agent.learning
    if snapshot[peer].trials_t > before.trials_t:
        after = record_trial(before, rt.learn_params)
        agent.learning = after
        agent.bonus_trial_today = True
        if after.experienced and not before.experienced:
            events.append(AgentEvent(tick, agent.agent_id, BECAME_EXPERIENCED))


def reference_run(scenario: Scenario):
    """(load_series, adoption_series, events) of a run with events on."""
    cfg = scenario.config
    ticks_per_day = cfg.ticks_per_day
    catalog = {a.id: a for a in scenario.appliances}
    arch_by_id = {a.id: a for a in scenario.archetypes}
    runtimes = [ArchetypeRuntime.build(arch_by_id[arch_id], catalog, cfg)
                for arch_id, _ in cfg.archetype_mix]
    counts = apportion(cfg.population, cfg.archetype_mix)

    agents: list[RefAgent] = []
    gens = []
    groups = []  # (runtime, first id, count, on_count, slot powers from the catalog)
    for rt, count in zip(runtimes, counts):
        powers = [catalog[app_id].power_watts
                  for app_id, n in rt.spec.appliances for _ in range(n)]
        groups.append((rt, len(agents), count, [0] * rt.n_slots, powers))
        for _ in range(count):
            gens.append(substream(cfg.seed, STREAM_AGENT, len(agents)))
            agents.append(RefAgent(len(agents), rt, True, None, [False] * rt.n_slots))

    perm = substream(cfg.seed, STREAM_POPULATION).permutation(cfg.population)
    n_seeded = int(math.floor(cfg.initial_experienced_fraction * cfg.population + 0.5))
    for idx in perm[:n_seeded].tolist():
        agent = agents[idx]
        agent.learning = LearningState(trials_to_threshold(agent.rt.learn_params), True)
    adjacency = generate_small_world(
        cfg.population, cfg.network_mean_degree_K, cfg.network_rewire_beta,
        substream(cfg.seed, STREAM_NETWORK)).adjacency

    events: list[AgentEvent] = []
    load_series: list[float] = []
    adoption: list[tuple[int, int, int]] = []
    blocks: list[list[float]] = []
    for tick in range(cfg.horizon_days * ticks_per_day):
        day, tick_in_day = divmod(tick, ticks_per_day)
        now = tick_in_day * cfg.tick_minutes
        bucket = now // 30
        in_peak = cfg.peak_window[0].minutes <= now < cfg.peak_window[1].minutes
        if tick_in_day == 0:
            blocks = [gen.random(2 + ticks_per_day * (a.rt.n_slots + 2)).tolist()
                      for gen, a in zip(gens, agents)]
            for agent, block in zip(agents, blocks):
                agent.today_leave, agent.today_return = sample_daily_times(
                    agent.rt.spec, block[0], block[1])
                agent.bonus_trial_today = False
                if day >= cfg.intervention_start_day and agent.learning is None:
                    agent.learning = LearningState(0, False)
                    events.append(AgentEvent(tick, agent.agent_id, INFLUENCED))
                if agent.learning is not None and agent.at_home:
                    record_daily_trial(agent, tick, events)
        snapshot = [a.learning for a in agents]
        load = Fraction(0)
        for rt, first, count, on_count, powers in groups:
            stride = rt.n_slots + 2
            off = 2 + tick_in_day * stride
            for agent in agents[first:first + count]:
                row = blocks[agent.agent_id][off:off + stride]
                step_presence(agent, now, tick, events)
                if agent.at_home:
                    appliance_tick(agent, bucket, in_peak, row, on_count, tick, events)
                    if agent.learning is not None:
                        maybe_interact(agent, adjacency[agent.agent_id], snapshot, row,
                                       tick, events)
            load += sum(Fraction(p) * c for p, c in zip(powers, on_count))
        load_series.append(float(load))
        if tick_in_day == ticks_per_day - 1:
            uninfluenced = sum(a.learning is None for a in agents)
            experienced = sum(a.learning is not None and a.learning.experienced for a in agents)
            adoption.append((uninfluenced, len(agents) - uninfluenced - experienced, experienced))
    return load_series, tuple(adoption), tuple(events)
