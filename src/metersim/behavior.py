"""Per agent behaviour: presence, appliance switching, peer interaction.

All randomness comes in as uniforms in [0, 1) at fixed positions, so agent
streams stay aligned between scenario variants run at the same seed.  A
group's tick draws hold one column per agent and slots+2 rows:

    sample_daily_times   its two arguments (the day's first two draws)
    switch_mask          rows 0..slots-1, one per owned appliance instance
    chat_coins           row slots (the chat coin)
    maybe_interact       row slots+1 (the partner pick), one float per chat

Each rule is decided once, for a whole archetype group, by a numpy mask:
presence_mask says who is home, switch_mask which slots switch and
chat_coins whose coin lands.  The per-agent functions step_presence,
appliance_tick and maybe_interact then apply those decisions to one agent
and record its events; the engine calls them only for agents that act.
Every event they record is an AgentEvent, made by _new_event straight from
its four fields.

Experienced households shift deferrable load: inside the configured peak
window their deferrable switch-on propensities are multiplied by the
peak_suppression factor and their deferrable switch-off propensities are
doubled.  Non deferrable appliances are never touched.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import PROFILE_BUCKETS, AgentState, ApplianceSpec, ArchetypeSpec, ScenarioConfig
from .learning import LearningParams, LearningState, absorb_interaction, record_trial

LEFT_HOME = "LeftHome"
RETURNED_HOME = "ReturnedHome"
INFLUENCED = "Influenced"
BECAME_EXPERIENCED = "BecameExperienced"
SWITCHED_ON = "SwitchedOn"
SWITCHED_OFF = "SwitchedOff"
INTERACTED = "Interacted"


class AgentEvent(NamedTuple):
    """One observable agent transition, a row of events.csv as it stands.
    detail names the appliance instance for switch events and the peer
    agent id for interactions."""

    tick: int
    agent_id: int
    kind: str
    detail: str = ""


_tuple_new = tuple.__new__


def _new_event(tick: int, agent_id: int, kind: str, detail: str = "") -> AgentEvent:
    """AgentEvent(tick, agent_id, kind, detail), built without the named
    tuple's Python-level __new__, which costs more than the rest of making
    an event."""
    return _tuple_new(AgentEvent, (tick, agent_id, kind, detail))


@dataclass(frozen=True, slots=True)
class ArchetypeRuntime:
    """Probability tables for one archetype, folded out of the specs once.

    on_normal/on_suppressed are float64 arrays with one row per half hour
    bucket and one switch-on probability per appliance slot; off_normal and
    off_suppressed hold one switch-off probability per slot.  The
    suppressed variants apply only while an experienced agent is inside the
    peak window.  Slot j draws power_numerators[j] / power_denominator
    watts, exactly.  The denominator is the largest among the catalog's
    powers, a power of two, so every runtime built from one catalog shares
    it and a sum of counts times numerators is exact.
    """

    spec: ArchetypeSpec
    learn_params: LearningParams
    p_interact: float
    n_slots: int
    slot_labels: tuple[str, ...]
    power_numerators: tuple[int, ...]
    power_denominator: int
    on_normal: np.ndarray
    on_suppressed: np.ndarray
    off_normal: np.ndarray
    off_suppressed: np.ndarray

    @classmethod
    def build(
        cls,
        arch: ArchetypeSpec,
        catalog: dict[str, ApplianceSpec],
        config: ScenarioConfig,
    ) -> "ArchetypeRuntime":
        slots: list[ApplianceSpec] = []
        labels: list[str] = []
        for app_id, count in arch.appliances:
            spec = catalog[app_id]
            for occurrence in range(count):
                slots.append(spec)
                labels.append(f"{app_id}#{occurrence}")

        deferrable = np.array([spec.deferrable for spec in slots], dtype=bool)
        mean_on = np.array([np.inf if spec.mean_on_minutes is None else spec.mean_on_minutes
                            for spec in slots], dtype=np.float64)
        with np.errstate(over="ignore"):  # a mean on time near 0 gives 1.0, as min() did
            off_normal = np.minimum(1.0, config.tick_minutes / mean_on)
        denominator = max(spec.power_watts.as_integer_ratio()[1] for spec in catalog.values())
        profiles = np.array([spec.usage_profile for spec in slots], dtype=np.float64)
        on_normal = profiles.reshape(len(slots), PROFILE_BUCKETS).T  # (buckets, 0) with no slots

        return cls(
            spec=arch,
            learn_params=LearningParams(
                max_attainable_M=arch.max_attainable_M,
                learning_rate_k=arch.learning_rate_k,
                p_threshold=config.p_threshold,
            ),
            p_interact=arch.awareness * config.base_interaction_rate,
            n_slots=len(slots),
            slot_labels=tuple(labels),
            power_numerators=tuple(num * (denominator // den) for num, den in
                                   (spec.power_watts.as_integer_ratio() for spec in slots)),
            power_denominator=denominator,
            on_normal=on_normal,
            on_suppressed=np.where(deferrable, on_normal * config.peak_suppression, on_normal),
            off_normal=off_normal,
            off_suppressed=np.where(deferrable, np.minimum(1.0, 2.0 * off_normal), off_normal),
        )


def sample_daily_times(
    arch: ArchetypeSpec, u_leave: np.ndarray, u_return: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Today's leave and return minutes, one per draw, uniform over each window.

    Windows are inclusive on both ends; a degenerate window always yields
    its single value.  The cast truncates like int(u * span) does.
    """
    leave_lo = arch.leave_window[0].minutes
    leave_span = arch.leave_window[1].minutes - leave_lo + 1
    return_lo = arch.return_window[0].minutes
    return_span = arch.return_window[1].minutes - return_lo + 1
    return (leave_lo + (u_leave * leave_span).astype(np.int64),
            return_lo + (u_return * return_span).astype(np.int64))


def presence_mask(leave_at: np.ndarray, return_at: np.ndarray, now: int) -> np.ndarray:
    """A group's home mask at clock time now.

    An agent is out exactly while leave_at <= now < return_at, so a return
    time that fell past the final tick of a day resolves at the first tick
    of the next one.
    """
    return (leave_at > now) | (return_at <= now)


def switch_mask(
    rt: ArchetypeRuntime, bucket: int, in_peak: bool,
    u: np.ndarray, on: np.ndarray, home: np.ndarray, experienced: np.ndarray,
) -> np.ndarray:
    """The appliance slots that switch this tick, slot-major (slots x agents)
    like on.

    u holds the tick's draws of a group, one column per agent, and slot j
    reads row j.  An off slot switches on when its draw is below the
    bucket's propensity, an on slot switches off when its draw is below its
    base off rate.  Experienced agents inside the peak window use the
    suppressed tables.  Agents that are out switch nothing.
    """
    u = u[:rt.n_slots]
    switch = _switches(u, rt.on_normal[bucket], rt.off_normal, on)
    if in_peak:
        # where(experienced, suppressed, switch) as xor: np.where is 10x slower
        switch ^= experienced & (switch ^ _switches(u, rt.on_suppressed[bucket],
                                                     rt.off_suppressed, on))
    switch &= home
    return switch


def _switches(u, p_on, p_off, on) -> np.ndarray:
    """u < (p_off where on, else p_on), per slot row."""
    switch = u < p_on[:, None]
    switch ^= on & (switch ^ (u < p_off[:, None]))
    return switch


def chat_coins(
    rt: ArchetypeRuntime, u: np.ndarray, home: np.ndarray, influenced: np.ndarray,
) -> np.ndarray:
    """The agents whose chat coin lands this tick.

    An influenced at-home agent chats with probability p_interact; its coin
    is row slots of the tick's draws u, one column per agent.
    """
    return (u[rt.n_slots] < rt.p_interact) & home & influenced


def step_presence(
    agent: AgentState, home: bool, tick: int, events: list[AgentEvent] | None,
) -> None:
    """Record the agent's move home (home true) or out, which presence_mask
    decided and applied to its group's home mask; the engine calls it only
    for agents whose flip is set.  Influence and learning are untouched.
    """
    if events is not None:
        events.append(_new_event(tick, agent.agent_id, RETURNED_HOME if home else LEFT_HOME))


def apply_intervention(
    agent: AgentState, tick: int, events: list[AgentEvent] | None,
) -> None:
    """Force the technology on an uninfluenced agent; idempotent."""
    if agent.learning is not None:
        return
    agent.learning = LearningState(trials_t=0, experienced=False)
    if events is not None:
        events.append(_new_event(tick, agent.agent_id, INFLUENCED))


def record_daily_trial(
    agent: AgentState,
    threshold: int | None,
    tick: int,
    events: list[AgentEvent] | None,
) -> None:
    """Book the day's reinforced trial for an influenced agent."""
    before = agent.learning
    after = record_trial(before, threshold)
    agent.learning = after
    if after.experienced and not before.experienced and events is not None:
        events.append(_new_event(tick, agent.agent_id, BECAME_EXPERIENCED))


def appliance_tick(
    agent: AgentState,
    rt: ArchetypeRuntime,
    slots: list[int],
    tick: int,
    events: list[AgentEvent] | None,
) -> None:
    """Apply the agent's row of switch_mask.

    slots lists the slots marked in the row, ascending.  Each slot j flips:
    an off slot switches on, an on slot switches off.  The engine's group
    has already flipped the same slots in its on array, from which it
    counts the load.
    """
    on = agent.appliance_on
    for j in slots:
        if on[j]:
            on[j] = False
            kind = SWITCHED_OFF
        else:
            on[j] = True
            kind = SWITCHED_ON
        if events is not None:
            events.append(_new_event(tick, agent.agent_id, kind, rt.slot_labels[j]))


def maybe_interact(
    agent: AgentState,
    neighbor_ids: Sequence[int],
    learning_snapshot: list,
    threshold: int | None,
    u_partner: float,
    tick: int,
    events: list[AgentEvent] | None,
) -> None:
    """Chat with a random influenced neighbour about the meter, if any.

    Caller guarantees the agent is influenced and at home and that its
    chat coin landed (chat_coins).  u_partner, row slots+1 of the tick's
    draws, picks the partner.  The donor's learning state comes from the
    start-of-tick snapshot so outcomes do not depend on agent processing
    order.  A successful exchange gives the recipient at most one bonus
    trial per day, counted against threshold.
    """
    donors = [j for j in neighbor_ids if learning_snapshot[j] is not None]
    if not donors:
        return
    peer = donors[int(u_partner * len(donors))]
    if events is not None:
        events.append(_new_event(tick, agent.agent_id, INTERACTED, str(peer)))
    if agent.bonus_trial_today:
        return
    before = agent.learning
    after = absorb_interaction(before, learning_snapshot[peer], threshold)
    if after is not before:
        agent.learning = after
        agent.bonus_trial_today = True
        if after.experienced and not before.experienced and events is not None:
            events.append(_new_event(tick, agent.agent_id, BECAME_EXPERIENCED))
