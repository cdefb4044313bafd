"""Deterministic tick engine over the agent population.

Randomness discipline: one master seed feeds named PCG64 substreams via
SeedSequence spawn keys, one for population assembly, one for the contact
network, and one per agent for behaviour.  Each agent draws one fixed size
block of uniforms from its stream per simulated day, kept as that agent's
row of its archetype group's float64 matrix (agents of one mix entry have
contiguous ids and share a matrix).  The row's layout does not depend on
what the agent does:

    column 0, 1                    leave and return time
    2 + t*(slots+2) + j            switching draw of slot j at tick t
    2 + t*(slots+2) + slots        interaction coin at tick t
    2 + t*(slots+2) + slots + 1    interaction partner pick at tick t

Draws an agent does not need (away, uninfluenced, coin failed) are left
unread, so runs at the same seed stay draw-aligned between scenario
variants and nothing an agent does can shift another agent's stream.
Ticks process agents in ascending id order; peer interactions read donor
learning states from a start-of-tick snapshot, so outcomes do not depend
on that order.

A tick advances the clock by tick_minutes.  On the first tick of each day
the engine does the day bookkeeping per agent (fresh matrix row, resample
leave/return times, apply the intervention once due, book the daily
reinforced trial for influenced agents that are at home); every tick then
runs presence, appliance switching for at-home agents and possible peer
interaction, and finally appends the population load sample in watts.
The sample is the exactly rounded sum of power times the number of agents
with the slot on, over every group's slots, so it is never negative and
does not depend on the order in which agents switched.
"""

from __future__ import annotations

import math
import operator
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


@dataclass(slots=True)
class _Group:
    """The agents of one archetype mix entry, which have contiguous ids.

    draws holds today's uniforms, row k for the group's k-th agent, refilled
    from that agent's generator gens[k] each day.  on_count counts the group's agents
    that have each appliance slot on.
    """

    rt: ArchetypeRuntime
    agents: list[AgentState]
    gens: list[np.random.Generator]
    draws: np.ndarray
    on_count: list[int]

    def start_day(self) -> None:
        """Fill every row with the agent's next block and draw today's
        leave and return times from columns 0 and 1."""
        draws = self.draws
        for gen, row in zip(self.gens, draws):
            gen.random(out=row)
        spec = self.rt.spec
        for agent, u_leave, u_return in zip(
            self.agents, draws[:, 0].tolist(), draws[:, 1].tolist(),
        ):
            agent.today_leave, agent.today_return = sample_daily_times(spec, u_leave, u_return)


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
        self._groups: list[_Group] = []
        for rt, count in zip(runtimes, counts):
            first = len(self.agents)
            agents = [
                AgentState(
                    agent_id=first + k,
                    archetype_id=rt.spec.id,
                    at_home=True,
                    learning=None,
                    appliance_on=[False] * rt.n_slots,
                    today_leave=0,
                    today_return=0,
                )
                for k in range(count)
            ]
            group = _Group(
                rt=rt,
                agents=agents,
                gens=[substream(cfg.seed, STREAM_AGENT, first + k) for k in range(count)],
                draws=np.empty((count, 2 + self.ticks_per_day * (rt.n_slots + 2))),
                on_count=[0] * rt.n_slots,
            )
            group.start_day()
            self.agents.extend(agents)
            self._groups.append(group)
        learn_params = {group.rt.spec.id: group.rt.learn_params for group in self._groups}

        pop_rng = substream(cfg.seed, STREAM_POPULATION)
        perm = pop_rng.permutation(cfg.population)
        n_seeded = int(math.floor(cfg.initial_experienced_fraction * cfg.population + 0.5))
        for idx in perm[:n_seeded].tolist():
            agent = self.agents[idx]
            t_min = trials_to_threshold(learn_params[agent.archetype_id])
            # validation rejects scenarios where this is unreachable
            agent.learning = LearningState(trials_t=t_min, experienced=True)

        net_rng = substream(cfg.seed, STREAM_NETWORK)
        self.network = generate_small_world(
            cfg.population, cfg.network_mean_degree_K, cfg.network_rewire_beta, net_rng,
        )

        self.load_series: list[float] = []
        self.adoption_series: list[tuple[int, int, int]] = []
        self._tick_index = 0

    def _day_boundary(self, day: int, tick_index: int) -> None:
        cfg = self.cfg
        events = self.events
        intervention_due = day >= cfg.intervention_start_day
        for group in self._groups:
            if day > 0:
                group.start_day()
            learn_params = group.rt.learn_params
            for agent in group.agents:
                agent.bonus_trial_today = False
                if intervention_due and agent.learning is None:
                    apply_intervention(agent, tick_index, events)
                if agent.learning is not None and agent.at_home:
                    record_daily_trial(agent, learn_params, tick_index, events)

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
        load_terms = []
        for group in self._groups:
            rt = group.rt
            stride = rt.n_slots + 2
            off = 2 + tick_in_day * stride
            rows = group.draws[:, off:off + stride].tolist()
            on_count = group.on_count
            for agent, row in zip(group.agents, rows):
                step_presence(agent, now, tick_index, events)
                if agent.at_home:
                    appliance_tick(agent, bucket, in_peak, rt, row, on_count, tick_index, events)
                    if agent.learning is not None:
                        maybe_interact(agent, adjacency[agent.agent_id], learning_prev, rt, row,
                                       tick_index, events)
            load_terms.extend(map(operator.mul, rt.slot_powers, on_count))
        self.load_series.append(math.fsum(load_terms))

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
