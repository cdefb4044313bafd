"""Deterministic tick engine over the agent population.

Randomness discipline: one master seed feeds named PCG64 substreams via
SeedSequence spawn keys, one for population assembly, one for the contact
network, and one per agent for behaviour.  The agent streams' seed words
come from one vectorised hash over a group's ids (agent_seed_words) that
equals numpy's SeedSequence for the same spawn keys, so every agent's
generator is the one substream would build.  Each agent draws one fixed size
block of uniforms from its stream per simulated day, with a layout that
does not depend on what the agent does (positions within the day's block):

    0, 1                           leave and return time
    2 + t*(slots+2) + j            switching draw of slot j at tick t
    2 + t*(slots+2) + slots        interaction coin at tick t
    2 + t*(slots+2) + slots + 1    interaction partner pick at tick t

Draws an agent does not need (away, uninfluenced, coin failed) are left
unread, so runs at the same seed stay draw-aligned between scenario
variants and nothing an agent does can shift another agent's stream.

Each archetype mix entry is one group, whose agents have contiguous ids; the
group builds its agents, their generators and its learning start itself, so
set-up is one group per entry.  A group holds the block one chunk of ticks
at a time, in the agent's row of the group's float64 matrix, and one loop
fills the rows: the day's first fill (day 0's at set-up) takes the two
times and the first chunk, and each later chunk is drawn into the same
columns when the day reaches it.  Successive fills continue the stream, so
every draw is the one the whole block would hold at that position.  Each
tick copies its columns of the rows into the group's tick draws, one column
per agent, so the masks read each slot's draws as one contiguous row.

A tick advances the clock by tick_minutes.  A day starts with its first
fill, which also takes leave and return times for the whole group from
columns 0 and 1 (day 0's at set-up, each later day's on its first tick).
On every day's first tick the engine then visits in id order only the
agents whose learning changes: the uninfluenced once the intervention is
due, and the influenced at home for their daily reinforced trial.  The
first tick of each later chunk fills the rows again.  Every tick then
decides, once per group and with numpy over the group's arrays (see
behavior):

    flip    presence_mask: whose home flag changes at this clock time
    switch  switch_mask: which appliance slots of at-home agents switch
    coin    chat_coins: which influenced at-home agents chat

and visits only the agents with a flip, a switch or a landed coin, in
ascending id order; the masks live only for that tick.  For each visited
agent it calls step_presence, appliance_tick (with the agent's switched
slots) and maybe_interact, each only where its mask is set and in that
order, so the events come out in the order of a loop over every agent.
Peer interactions read donor learning states from a snapshot that is
updated where learning changes, at the day boundary and after each tick,
so outcomes do not depend on the visit order.  The tick then appends the
population load sample in watts: the exactly rounded sum of power times
the number of agents with the slot on, over every group's slots, so it is
never negative and does not depend on the order in which agents switched.
Finally it hands the tick's events, in order, to the run's event sink in
one call, so a run holds at most one tick's events.
"""

from __future__ import annotations

import math
import mmap
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
from .domain import BUCKET_MINUTES, AgentState, Scenario
from .learning import LearningState, trials_to_threshold
from .network import generate_small_world

# substream spawn keys under the master seed
STREAM_POPULATION = 0
STREAM_NETWORK = 1
STREAM_AGENT = 2
STREAM_ANALYSIS = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a named part of the run."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a 4-word pool
# of uint32, mixed with constants that do not depend on the data
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_WORDS = 4  # uint64 words PCG64 asks its seed source for


def _hashmix(value: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """hashmix of every word of value, and the next hash constant."""
    next_const = hash_const * mult & _MASK32
    value = (value ^ np.uint32(hash_const)) * np.uint32(next_const)
    return value ^ value >> np.uint32(16), next_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> np.uint32(16)


def agent_seed_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """Row k is SeedSequence(seed, spawn_key=(STREAM_AGENT, ids[k]))
    .generate_state(4, np.uint64), the words PCG64 seeds itself from,
    computed for all ids at once.

    The entropy is the seed's little-endian uint32 words, zero-padded to the
    pool, then the spawn key's words: STREAM_AGENT and the id, which must be
    below 2**32 and so is one word.  Arrays of one element hold the words
    every id shares and broadcast against the id column.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    ids = np.asarray(ids, dtype=np.uint64)
    if ids.size and ids.max() > _MASK32:
        raise ValueError(f"agent ids must be below 2**32, got {int(ids.max())}")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words)) + [STREAM_AGENT]
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(ids.astype(np.uint32))

    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    hash_const = _INIT_B
    state = []
    for i in range(2 * _PCG64_WORDS):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(value.astype(np.uint64))
    # uint64 word k is uint32 words 2k (low) and 2k+1 (high), as numpy
    # defines it on every host
    return np.stack([state[2 * k] | state[2 * k + 1] << np.uint64(32)
                     for k in range(_PCG64_WORDS)], axis=1)


class _Seeded(ISeedSequence):
    """A seed source that hands each PCG64 seeded from it the next row of
    state words computed beforehand, so a group's generators share one."""

    def __init__(self, words: np.ndarray):
        self.rows = iter(words)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _PCG64_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only rows of {_PCG64_WORDS} uint64 words are held, "
                             f"not {n_words} of {np.dtype(dtype)}")
        return next(self.rows)


def agent_streams(seed: int, first: int, count: int) -> list[np.random.Generator]:
    """substream(seed, STREAM_AGENT, i) for ids first .. first+count-1:
    the same states, from one hash over all the ids."""
    seeded = _Seeded(agent_seed_words(seed, np.arange(first, first + count, dtype=np.uint64)))
    return [np.random.Generator(np.random.PCG64(seeded)) for _ in range(count)]


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


# Most tick draws an agent's row holds at once.  A fill costs about 1.5 us a
# call plus 7 ns a value (2-core x86-64 VM), so at 256 values the fixed cost
# of the extra refills no longer dominates, while 10 000 households of the
# sample hold 17 MB of draws instead of the whole day's 104 MB.
DRAWS_PER_REFILL = 256


def chunk_ticks(ticks_per_day: int, stride: int) -> int:
    """Ticks per chunk: the day cut into the fewest equal chunks whose tick
    columns (stride per tick) hold at most DRAWS_PER_REFILL values, the
    last chunk cut short where they do not divide the day."""
    most = max(1, DRAWS_PER_REFILL // stride)
    chunks = -(-ticks_per_day // most)
    return -(-ticks_per_day // chunks)


class _Group:
    """The agents of one archetype mix entry, which have contiguous ids
    from first on, and everything they need, built in one place.

    The group builds its agents (AgentState first + k), their generators
    (gens[k], agent_streams from the run's seed) and its threshold, the
    group's trials_to_threshold, worked out once; its seeded agents start
    there, sharing one frozen LearningState.  draws holds the current chunk
    of today's block, row k for the group's k-th agent: columns 0 and 1 are
    the day's two times and column 2 + c*(slots+2) starts the draws of the
    chunk's tick c.  A chunk is chunk ticks long, the day's last one
    possibly shorter.  fill is the one loop that draws into it, at the start
    of a day (the first already at set-up) and on each later chunk's first
    tick.  tick_draws receives the current tick's draws with one column per
    agent (slots+2 rows, as behavior reads them).  Beside them the group
    holds only agent state, in arrays that run over its agents in id order
    (home and the times have no other copy; the rest are set wherever the
    engine changes an agent):

        leave_at, return_at   today's leave and return minute
        home                  whether the agent is at home
        on                    AgentState.appliance_on, slot-major (slots x agents);
                              each tick's load counts the on slots here
        influenced            learning is not None
        experienced           learning is experienced

    The tick's masks are not kept: decide hands them back.
    """

    __slots__ = (
        "rt", "agents", "gens", "threshold", "chunk", "ticks_per_day", "draws", "tick_draws",
        "leave_at", "return_at", "home", "on", "influenced", "experienced",
    )

    def __init__(self, rt: ArchetypeRuntime, seed: int, first: int, ticks_per_day: int,
                 seeded: np.ndarray):
        count, slots = len(seeded), rt.n_slots
        self.rt = rt
        self.threshold = trials_to_threshold(rt.learn_params)
        # validation rejects a seeded group whose threshold is unreachable
        start = LearningState(self.threshold, True) if seeded.any() else None
        self.agents = [AgentState(first + k, start if s else None, [False] * slots)
                       for k, s in enumerate(seeded.tolist())]
        self.gens = agent_streams(seed, first, count)
        self.chunk = chunk_ticks(ticks_per_day, slots + 2)
        self.ticks_per_day = ticks_per_day
        width = 2 + self.chunk * (slots + 2)
        # pages of its own, unmapped when it is freed: malloc would put it in
        # the heap once one matrix has been freed, and later allocations split
        # the hole it leaves there, so the next one no longer fits.  The
        # first fill writes every page, so they are faulted in at once where
        # the platform can (Windows mmap takes no flags)
        size = 8 * max(1, count * width)
        if hasattr(mmap, "MAP_POPULATE"):
            pages = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_POPULATE)
        else:
            pages = mmap.mmap(-1, size)
        self.draws = np.frombuffer(pages, np.float64, count * width).reshape(count, width)
        self.tick_draws = np.empty((slots + 2, count))
        self.home = np.ones(count, dtype=bool)
        self.on = np.zeros((slots, count), dtype=bool)
        self.influenced = seeded.copy()
        self.experienced = seeded.copy()
        self.start_day()

    def fill(self, rows: np.ndarray) -> None:
        """Draw the next values of agent k's stream into rows[k], for every
        agent; each row must be contiguous, as gen.random requires of out."""
        for gen, row in zip(self.gens, rows):
            gen.random(out=row)

    def start_day(self) -> None:
        """Fill every row with the start of the agent's next block and draw
        today's leave and return times from columns 0 and 1."""
        draws = self.draws
        self.fill(draws)
        self.leave_at, self.return_at = sample_daily_times(
            self.rt.spec, draws[:, 0], draws[:, 1])

    def decide(self, tick_in_day: int, now: int, bucket: int, in_peak: bool,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fill the tick's draws, move home and flip the switched slots of
        on; return the indices of the agents that act, ascending, and the
        tick's masks flip, switch (slot-major) and coin."""
        rt = self.rt
        stride = rt.n_slots + 2
        chunk_tick = tick_in_day % self.chunk
        if tick_in_day and not chunk_tick:
            ticks = min(self.chunk, self.ticks_per_day - tick_in_day)
            self.fill(self.draws[:, 2:2 + ticks * stride])
        off = 2 + chunk_tick * stride
        u = self.tick_draws
        np.copyto(u, self.draws[:, off:off + stride].T)
        home = presence_mask(self.leave_at, self.return_at, now)
        flip = home != self.home
        self.home = home
        switch = switch_mask(rt, bucket, in_peak, u, self.on, home, self.experienced)
        coin = chat_coins(rt, u, home, self.influenced)
        self.on ^= switch
        acts = np.logical_or.reduce(switch, axis=0) | flip | coin
        return np.flatnonzero(acts), flip, switch, coin


@dataclass(frozen=True)
class SimOutput:
    """Everything a finished run produced.

    load_series has one population demand sample (watts) per tick.
    adoption_series has one (uninfluenced, inexperienced, experienced)
    count triple per day, taken after the day's last tick.  events is None
    unless the run was built with record_events.
    """

    load_series: np.ndarray
    adoption_series: tuple[tuple[int, int, int], ...]
    events: tuple[AgentEvent, ...] | None
    scenario: Scenario


class Simulation:
    """One single-use run of a validated scenario.

    Each tick ends by passing the list of that tick's events to one sink
    call, in the order they happened (an empty list for a quiet tick); the
    list is the sink's to keep.  With record_events the sink is the run's
    own list, which becomes SimOutput.events; event_sink names another sink,
    such as one that writes the rows to a file, and leaves SimOutput.events
    None.  With neither, no events are made.
    """

    def __init__(self, scenario: Scenario, *, record_events: bool = False,
                 event_sink: Callable[[list[AgentEvent]], object] | None = None):
        if record_events and event_sink is not None:
            raise ValueError("record_events and event_sink are exclusive")
        cfg = scenario.config
        self.scenario = scenario
        self.cfg = cfg
        self.ticks_per_day = cfg.ticks_per_day
        self._recorded: list[AgentEvent] | None = [] if record_events else None
        self._event_sink = self._recorded.extend if record_events else event_sink
        # the current tick's events, handed to the sink as the tick ends
        self.tick_events: list[AgentEvent] | None = (
            None if self._event_sink is None else [])

        catalog = {a.id: a for a in scenario.appliances}
        arch_by_id = {a.id: a for a in scenario.archetypes}
        counts = apportion(cfg.population, cfg.archetype_mix)

        pop_rng = substream(cfg.seed, STREAM_POPULATION)
        perm = pop_rng.permutation(cfg.population)
        n_seeded = int(math.floor(cfg.initial_experienced_fraction * cfg.population + 0.5))
        seeded = np.zeros(cfg.population, dtype=bool)
        seeded[perm[:n_seeded]] = True

        self.agents: list[AgentState] = []
        self._groups: list[_Group] = []
        for (arch_id, _frac), count in zip(cfg.archetype_mix, counts):
            rt = ArchetypeRuntime.build(arch_by_id[arch_id], catalog, cfg)
            first = len(self.agents)
            group = _Group(rt, cfg.seed, first, self.ticks_per_day, seeded[first:first + count])
            self._groups.append(group)
            self.agents += group.agents

        net_rng = substream(cfg.seed, STREAM_NETWORK)
        self.network = generate_small_world(
            cfg.population, cfg.network_mean_degree_K, cfg.network_rewire_beta, net_rng,
        )
        # agent a's neighbours are indices[indptr[a]:indptr[a + 1]]; the
        # views' items read as Python ints
        self._indptr = memoryview(self.network.indptr)
        self._indices = memoryview(self.network.indices)

        self.load_series: list[float] = []
        self.adoption_series: list[tuple[int, int, int]] = []
        self._tick_index = 0
        # donor learning states as of the start of the current tick
        self._snapshot: list[LearningState | None] = [a.learning for a in self.agents]
        # today's agents whose learning a chat changed: they took the bonus
        self._bonus_taken: list[AgentState] = []

    def _day_boundary(self, day: int, tick_index: int) -> None:
        events = self.tick_events
        intervention_due = day >= self.cfg.intervention_start_day
        for agent in self._bonus_taken:
            agent.bonus_trial_today = False
        self._bonus_taken.clear()
        for group in self._groups:
            if day > 0:
                group.start_day()
            home, influenced = group.home, group.influenced
            visit = np.flatnonzero(home | ~influenced if intervention_due else home & influenced)
            influenced[visit] = True
            for k, at_home in zip(visit.tolist(), home[visit].tolist()):
                agent = group.agents[k]
                if agent.learning is None:
                    apply_intervention(agent, tick_index, events)
                if at_home:
                    record_daily_trial(agent, group.threshold, tick_index, events)
                    group.experienced[k] = agent.learning.experienced
                self._snapshot[agent.agent_id] = agent.learning

    def tick(self) -> None:
        """Advance the world by one tick."""
        cfg = self.cfg
        tick_index = self._tick_index
        day, tick_in_day = divmod(tick_index, self.ticks_per_day)
        now = tick_in_day * cfg.tick_minutes
        bucket = now // BUCKET_MINUTES
        in_peak = cfg.peak_window[0].minutes <= now < cfg.peak_window[1].minutes
        events = self.tick_events

        if tick_in_day == 0:
            self._day_boundary(day, tick_index)

        indptr, indices = self._indptr, self._indices
        snapshot = self._snapshot
        learned: list[AgentState] = []  # agents whose learning a chat changed
        load = 0  # watts times the catalog's power denominator, exactly
        for group in self._groups:
            rt = group.rt
            visit, flip, switch, coin = group.decide(tick_in_day, now, bucket, in_peak)
            agents = group.agents
            experienced = group.experienced
            partner = group.tick_draws[rt.n_slots + 1]
            # the switched slots of every visited agent in (agent, slot)
            # order, and how many belong to each agent
            switch = switch[:, visit]
            switched = np.nonzero(switch.T)[1].tolist()
            first = 0
            for k, moved, home, n_switched, chats in zip(
                visit.tolist(), flip[visit].tolist(), group.home[visit].tolist(),
                switch.sum(axis=0).tolist(), coin[visit].tolist(),
            ):
                agent = agents[k]
                if moved:
                    step_presence(agent, home, tick_index, events)
                if n_switched:
                    last = first + n_switched
                    appliance_tick(agent, rt, switched[first:last], tick_index, events)
                    first = last
                if chats:
                    before = agent.learning
                    a = agent.agent_id
                    maybe_interact(agent, indices[indptr[a]:indptr[a + 1]], snapshot,
                                   group.threshold, partner.item(k), tick_index, events)
                    if agent.learning is not before:
                        learned.append(agent)
                        experienced[k] = agent.learning.experienced
            load += sum(map(operator.mul, rt.power_numerators, group.on.sum(axis=1).tolist()))
        # int / int is correctly rounded
        self.load_series.append(load / rt.power_denominator)
        for agent in learned:
            snapshot[agent.agent_id] = agent.learning
        self._bonus_taken += learned

        if tick_in_day == self.ticks_per_day - 1:
            influenced = sum(int(g.influenced.sum()) for g in self._groups)
            experienced_total = sum(int(g.experienced.sum()) for g in self._groups)
            self.adoption_series.append(
                (len(self.agents) - influenced, influenced - experienced_total, experienced_total))

        if events is not None:
            self._event_sink(events)
            self.tick_events = []
        self._tick_index = tick_index + 1

    def run_all(self) -> SimOutput:
        total = self.cfg.horizon_days * self.ticks_per_day
        while self._tick_index < total:
            self.tick()
        return SimOutput(
            load_series=np.asarray(self.load_series, dtype=np.float64),
            adoption_series=tuple(self.adoption_series),
            events=tuple(self._recorded) if self._recorded is not None else None,
            scenario=self.scenario,
        )


def run(scenario: Scenario, *, record_events: bool = False) -> SimOutput:
    """Run a validated scenario to its horizon.

    Output is fully determined by the scenario (including its seed); a
    rerun yields identical series, events and adoption counts.
    """
    return Simulation(scenario, record_events=record_events).run_all()
