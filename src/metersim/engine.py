"""Deterministic tick engine over the agent population.

Randomness discipline: one master seed feeds named PCG64 substreams via
SeedSequence spawn keys, one for population assembly, one for the contact
network, and one per agent for behaviour.  Each agent burns a fixed size
block of uniforms per simulated day (2 for the daily leave/return draw plus
slots+2 per tick), so runs at the same seed stay draw-aligned between
scenario variants and nothing an agent does can shift another agent's
stream.  Ticks process agents in ascending id order; peer interactions read
donor learning states from a start-of-tick snapshot, so outcomes do not
depend on that order.

A tick advances the clock by tick_minutes.  On the first tick of each day
the engine does the day bookkeeping per agent (fresh draw block, resample
leave/return times, apply the intervention once due, book the daily
reinforced trial for influenced agents that are at home); every tick then
runs presence, appliance switching for at-home agents and possible peer
interaction, and finally appends the population load sample in watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import (
    AgentEvent,
    ArchetypeRuntime,
    apply_intervention,
    appliance_tick,
    maybe_interact,
    record_daily_trial,
    sample_daily_times,
    step_presence,
)
from .domain import AgentState, LearningState, Scenario
from .learning import trials_to_threshold
from .network import generate_small_world

# substream spawn keys under the master seed
STREAM_POPULATION = 0
STREAM_NETWORK = 1
STREAM_AGENT = 2
STREAM_ANALYSIS = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a named part of the run."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def apportion(total: int, weights: tuple[tuple[str, float], ...]) -> list[int]:
    """Largest remainder apportionment of total across weights.

    Ties go to the earlier entry.  Sums to total exactly.
    """
    quotas = [total * w for _, w in weights]
    counts = [math.floor(q) for q in quotas]
    leftover = total - sum(counts)
    order = sorted(range(len(quotas)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


class _BlockRng:
    """Cursor over an agent's per day uniform block.

    Exposes random() like a Generator; skipping unused slots keeps the
    per tick layout fixed whether or not the agent acted.
    """

    __slots__ = ("buf", "i")

    def __init__(self) -> None:
        self.buf: list[float] = []
        self.i = 0

    def random(self) -> float:
        i = self.i
        self.i = i + 1
        return self.buf[i]


@dataclass(frozen=True)
class SimOutput:
    """Everything a finished run produced.

    load_series has one population demand sample (watts) per tick.
    adoption_series has one (uninfluenced, inexperienced, experienced)
    count triple per day, taken after the day's last tick.  events is None
    unless the run recorded them.
    """

    load_series: np.ndarray
    adoption_series: tuple[tuple[int, int, int], ...]
    events: tuple[AgentEvent, ...] | None
    scenario: Scenario
    seed: int


class Simulation:
    """One single-use run of a validated scenario."""

    def __init__(self, scenario: Scenario, *, record_events: bool = False):
        cfg = scenario.config
        self.scenario = scenario
        self.cfg = cfg
        self.ticks_per_day = cfg.ticks_per_day
        self.events: list[AgentEvent] | None = [] if record_events else None

        catalog = {a.id: a for a in scenario.appliances}
        arch_by_id = {a.id: a for a in scenario.archetypes}
        runtimes = [
            ArchetypeRuntime.build(arch_by_id[arch_id], catalog, cfg)
            for arch_id, _frac in cfg.archetype_mix
        ]
        counts = apportion(cfg.population, cfg.archetype_mix)

        self.agents: list[AgentState] = []
        self._rt: list[ArchetypeRuntime] = []
        self._gens: list[np.random.Generator] = []
        self._rngs: list[_BlockRng] = []
        self._block_len: list[int] = []
        for rt, count in zip(runtimes, counts):
            block_len = 2 + self.ticks_per_day * (rt.n_slots + 2)
            for _ in range(count):
                agent_id = len(self.agents)
                gen = substream(cfg.seed, STREAM_AGENT, agent_id)
                rng = _BlockRng()
                rng.buf = gen.random(block_len).tolist()
                leave, ret = sample_daily_times(rt.spec, rng)
                self.agents.append(AgentState(
                    agent_id=agent_id,
                    archetype_id=rt.spec.id,
                    at_home=True,
                    learning=None,
                    appliance_on=[False] * rt.n_slots,
                    today_leave=leave,
                    today_return=ret,
                ))
                self._rt.append(rt)
                self._gens.append(gen)
                self._rngs.append(rng)
                self._block_len.append(block_len)

        pop_rng = substream(cfg.seed, STREAM_POPULATION)
        perm = pop_rng.permutation(cfg.population)
        n_seeded = int(math.floor(cfg.initial_experienced_fraction * cfg.population + 0.5))
        for idx in perm[:n_seeded].tolist():
            t_min = trials_to_threshold(self._rt[idx].learn_params)
            # validation rejects scenarios where this is unreachable
            self.agents[idx].learning = LearningState(trials_t=t_min, experienced=True)

        net_rng = substream(cfg.seed, STREAM_NETWORK)
        self.network = generate_small_world(
            cfg.population, cfg.network_mean_degree_K, cfg.network_rewire_beta, net_rng,
        )

        self._load_watts = 0.0
        self.load_series: list[float] = []
        self.adoption_series: list[tuple[int, int, int]] = []
        self._tick_index = 0

    def _day_boundary(self, day: int, tick_index: int) -> None:
        cfg = self.cfg
        events = self.events
        intervention_due = day >= cfg.intervention_start_day
        for idx, agent in enumerate(self.agents):
            rt = self._rt[idx]
            rng = self._rngs[idx]
            if day > 0:
                rng.buf = self._gens[idx].random(self._block_len[idx]).tolist()
                rng.i = 0
                leave, ret = sample_daily_times(rt.spec, rng)
                agent.today_leave = leave
                agent.today_return = ret
            agent.bonus_trial_today = False
            if intervention_due and agent.learning is None:
                apply_intervention(agent, tick_index, events)
            if agent.learning is not None and agent.at_home:
                record_daily_trial(agent, rt.learn_params, tick_index, events)

    def tick(self) -> None:
        """Advance the world by one tick."""
        cfg = self.cfg
        tick_index = self._tick_index
        day, tick_in_day = divmod(tick_index, self.ticks_per_day)
        now = tick_in_day * cfg.tick_minutes
        bucket = now // 30
        in_peak = cfg.peak_window[0].minutes <= now < cfg.peak_window[1].minutes
        events = self.events

        if tick_in_day == 0:
            self._day_boundary(day, tick_index)

        agents = self.agents
        adjacency = self.network.adjacency
        learning_prev = [a.learning for a in agents]
        load = self._load_watts
        for idx, agent in enumerate(agents):
            rt = self._rt[idx]
            rng = self._rngs[idx]
            step_presence(agent, now, tick_index, events)
            if agent.at_home:
                load += appliance_tick(agent, bucket, in_peak, rt, rng, tick_index, events)
                if agent.learning is not None:
                    maybe_interact(agent, adjacency[idx], learning_prev, rt, rng, tick_index, events)
                else:
                    rng.i += 2
            else:
                rng.i += rt.n_slots + 2
        self._load_watts = load
        self.load_series.append(load)

        if tick_in_day == self.ticks_per_day - 1:
            uninfluenced = 0
            experienced = 0
            for a in agents:
                if a.learning is None:
                    uninfluenced += 1
                elif a.learning.experienced:
                    experienced += 1
            inexperienced = len(agents) - uninfluenced - experienced
            self.adoption_series.append((uninfluenced, inexperienced, experienced))

        self._tick_index = tick_index + 1

    def run_all(self) -> SimOutput:
        total = self.cfg.horizon_days * self.ticks_per_day
        while self._tick_index < total:
            self.tick()
        return SimOutput(
            load_series=np.asarray(self.load_series, dtype=np.float64),
            adoption_series=tuple(self.adoption_series),
            events=tuple(self.events) if self.events is not None else None,
            scenario=self.scenario,
            seed=self.cfg.seed,
        )


def run(scenario: Scenario, *, record_events: bool = False) -> SimOutput:
    """Run a validated scenario to its horizon.

    Output is fully determined by the scenario (including its seed); a
    rerun yields identical series, events and adoption counts.
    """
    return Simulation(scenario, record_events=record_events).run_all()
