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

A tick advances the clock by tick_minutes.  On the first tick of each day
the engine does the day bookkeeping per agent (fresh matrix row, leave and
return times for the whole group from columns 0 and 1, the intervention
once due, the daily reinforced trial for influenced agents that are at
home).  Every tick then decides, once per group and with numpy over the
group's arrays (see behavior):

    flip    presence_mask: whose home flag changes at this clock time
    switch  switch_mask: which appliance slots of at-home agents switch
    coin    chat_coins: which influenced at-home agents chat

and visits only the agents with a flip, a switch or a landed coin, in
ascending id order.  For each visited agent it calls step_presence,
appliance_tick and maybe_interact, each only where its mask is set and in
that order, so the events come out in the order of a loop over every agent.
The group arrays (leave/return times, home, on, influenced, experienced)
stay in step with the agents' own fields.  Peer interactions read donor
learning states from a snapshot that is rebuilt at each day boundary and
updated after each tick for the agents whose learning a chat changed, so
outcomes do not depend on the visit order.  Finally the tick appends the
population load sample in watts: the exactly rounded sum of power times the
number of agents with the slot on, over every group's slots, so it is never
negative and does not depend on the order in which agents switched.
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
    chat_coins,
    maybe_interact,
    presence_mask,
    record_daily_trial,
    sample_daily_times,
    step_presence,
    switch_mask,
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


class _Group:
    """The agents of one archetype mix entry, which have contiguous ids.

    draws holds today's uniforms, row k for the group's k-th agent, refilled
    from that agent's generator gens[k] each day; tick_draws receives the
    current tick's columns of it.  on_count counts the group's agents that
    have each appliance slot on.  The arrays below run over the group's
    agents in id order and mirror their state:

        leave_at, return_at   today's leave and return minute
        home                  AgentState.at_home
        on                    AgentState.appliance_on, slot-major (slots x agents)
        influenced            learning is not None
        experienced           learning is experienced

    flip, switch (slot-major) and coin are the current tick's masks; the
    spare arrays are scratch space, so a tick allocates no array of the
    group's size.
    """

    __slots__ = (
        "rt", "agents", "gens", "draws", "tick_draws", "on_count", "leave_at",
        "return_at", "home", "on", "influenced", "experienced", "flip", "switch",
        "coin", "spare", "spare_slots",
    )

    def __init__(self, rt: ArchetypeRuntime, agents: list[AgentState],
                 gens: list[np.random.Generator], ticks_per_day: int):
        count, slots = len(agents), rt.n_slots
        self.rt = rt
        self.agents = agents
        self.gens = gens
        self.draws = np.empty((count, 2 + ticks_per_day * (slots + 2)))
        self.tick_draws = np.empty((count, slots + 2))
        self.on_count = [0] * slots
        self.home = np.ones(count, dtype=bool)
        self.on = np.zeros((slots, count), dtype=bool)
        self.influenced = np.zeros(count, dtype=bool)
        self.experienced = np.zeros(count, dtype=bool)
        self.flip = np.zeros(count, dtype=bool)
        self.coin = np.zeros(count, dtype=bool)
        self.spare = np.zeros(count, dtype=bool)
        self.switch = np.zeros((slots, count), dtype=bool)
        self.spare_slots = (np.zeros((slots, count), dtype=bool),
                            np.zeros((slots, count), dtype=bool))
        self.start_day()

    def start_day(self) -> None:
        """Fill every row with the agent's next block and draw today's
        leave and return times from columns 0 and 1."""
        draws = self.draws
        for gen, row in zip(self.gens, draws):
            gen.random(out=row)
        self.leave_at, self.return_at = sample_daily_times(
            self.rt.spec, draws[:, 0], draws[:, 1])

    def sync_learning(self) -> None:
        """Rebuild influenced and experienced from the agents."""
        learning = [a.learning for a in self.agents]
        self.influenced[:] = [s is not None for s in learning]
        self.experienced[:] = [s is not None and s.experienced for s in learning]

    def decide(self, tick_in_day: int, now: int, bucket: int, in_peak: bool) -> np.ndarray:
        """Fill the tick's draws and masks and return the indices of the
        agents that act, ascending."""
        rt = self.rt
        stride = rt.n_slots + 2
        off = 2 + tick_in_day * stride
        u = self.tick_draws
        np.copyto(u, self.draws[:, off:off + stride])
        presence_mask(self.leave_at, self.return_at, now, self.home, self.flip, self.spare)
        switch_mask(rt, bucket, in_peak, u, self.on, self.home, self.experienced,
                    self.switch, self.spare_slots)
        chat_coins(rt, u, self.home, self.influenced, self.coin)
        self.on ^= self.switch
        acts = self.spare
        np.logical_or.reduce(self.switch, axis=0, out=acts)
        acts |= self.flip
        acts |= self.coin
        return np.flatnonzero(acts)


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
                )
                for k in range(count)
            ]
            gens = [substream(cfg.seed, STREAM_AGENT, first + k) for k in range(count)]
            self.agents.extend(agents)
            self._groups.append(_Group(rt, agents, gens, self.ticks_per_day))
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
        # donor learning states as of the start of the current tick
        self._snapshot: list[LearningState | None] = []

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
            group.sync_learning()
        self._snapshot = [a.learning for a in self.agents]

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

        adjacency = self.network.adjacency
        snapshot = self._snapshot
        learned: list[AgentState] = []  # agents whose learning a chat changed
        load_terms = []
        for group in self._groups:
            rt = group.rt
            visit = group.decide(tick_in_day, now, bucket, in_peak)
            agents = group.agents
            on_count = group.on_count
            experienced = group.experienced
            tick_draws = group.tick_draws
            for k, flip, home, switches, coin in zip(
                visit.tolist(), group.flip[visit].tolist(), group.home[visit].tolist(),
                group.switch[:, visit].T.tolist(), group.coin[visit].tolist(),
            ):
                agent = agents[k]
                if flip:
                    step_presence(agent, home, tick_index, events)
                if True in switches:
                    appliance_tick(agent, rt, switches, on_count, tick_index, events)
                if coin:
                    before = agent.learning
                    maybe_interact(agent, adjacency[agent.agent_id], snapshot, rt,
                                   tick_draws[k].tolist(), tick_index, events)
                    if agent.learning is not before:
                        learned.append(agent)
                        experienced[k] = agent.learning.experienced
            load_terms.extend(map(operator.mul, rt.slot_powers, on_count))
        self.load_series.append(math.fsum(load_terms))
        for agent in learned:
            snapshot[agent.agent_id] = agent.learning

        if tick_in_day == self.ticks_per_day - 1:
            influenced = sum(int(np.count_nonzero(g.influenced)) for g in self._groups)
            experienced_total = sum(int(np.count_nonzero(g.experienced)) for g in self._groups)
            self.adoption_series.append(
                (len(self.agents) - influenced, influenced - experienced_total, experienced_total))

        self._tick_index = tick_index + 1

    def run_all(self) -> SimOutput:
        total = self.cfg.horizon_days * self.ticks_per_day
        while self._tick_index < total:
            self.tick()
        for group in self._groups:
            group.draws = None  # dead once the last tick has run
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
