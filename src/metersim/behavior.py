"""Per agent behaviour: presence, appliance switching, peer interaction.

All randomness comes in as uniforms in [0, 1) at fixed positions, so agent
streams stay aligned between scenario variants run at the same seed.  A
tick's row holds slots+2 draws for one agent:

    sample_daily_times   its two arguments (the day's first two draws)
    appliance_tick       row[0:slots], one per owned appliance instance
    maybe_interact       row[slots] (coin) and row[slots+1] (partner pick)

Experienced households shift deferrable load: inside the configured peak
window their deferrable switch-on propensities are multiplied by the
peak_suppression factor and their deferrable switch-off propensities are
doubled.  Non deferrable appliances are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import AgentState, ApplianceSpec, ArchetypeSpec, LearningState, ScenarioConfig
from .learning import LearningParams, absorb_interaction, record_trial

LEFT_HOME = "LeftHome"
RETURNED_HOME = "ReturnedHome"
INFLUENCED = "Influenced"
BECAME_EXPERIENCED = "BecameExperienced"
SWITCHED_ON = "SwitchedOn"
SWITCHED_OFF = "SwitchedOff"
INTERACTED = "Interacted"


@dataclass(frozen=True, slots=True)
class AgentEvent:
    """One observable agent transition. detail names the appliance instance
    for switch events and the peer agent id for interactions."""

    tick: int
    agent_id: int
    kind: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class ArchetypeRuntime:
    """Probability tables for one archetype, folded out of the specs once.

    on_normal/on_suppressed have one row per half hour bucket with one
    switch-on probability per appliance slot; the suppressed variants apply
    only while an experienced agent is inside the peak window.
    """

    spec: ArchetypeSpec
    learn_params: LearningParams
    p_interact: float
    n_slots: int
    slot_labels: tuple[str, ...]
    slot_powers: tuple[float, ...]
    on_normal: tuple[tuple[float, ...], ...]
    on_suppressed: tuple[tuple[float, ...], ...]
    off_normal: tuple[float, ...]
    off_suppressed: tuple[float, ...]

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

        tick = config.tick_minutes
        off_normal = []
        off_suppressed = []
        for spec in slots:
            if spec.mean_on_minutes is None:
                base = 0.0
            else:
                base = min(1.0, tick / spec.mean_on_minutes)
            off_normal.append(base)
            off_suppressed.append(min(1.0, 2.0 * base) if spec.deferrable else base)

        on_normal = []
        on_suppressed = []
        for bucket in range(len(slots[0].usage_profile) if slots else 48):
            row = tuple(spec.usage_profile[bucket] for spec in slots)
            on_normal.append(row)
            on_suppressed.append(tuple(
                p * config.peak_suppression if spec.deferrable else p
                for p, spec in zip(row, slots)
            ))

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
            slot_powers=tuple(spec.power_watts for spec in slots),
            on_normal=tuple(on_normal),
            on_suppressed=tuple(on_suppressed),
            off_normal=tuple(off_normal),
            off_suppressed=tuple(off_suppressed),
        )


def sample_daily_times(arch: ArchetypeSpec, u_leave: float, u_return: float) -> tuple[int, int]:
    """Today's leave and return minute, uniform over each window.

    Windows are inclusive on both ends; a degenerate window always yields
    its single value.
    """
    leave_lo = arch.leave_window[0].minutes
    leave_span = arch.leave_window[1].minutes - leave_lo + 1
    return_lo = arch.return_window[0].minutes
    return_span = arch.return_window[1].minutes - return_lo + 1
    return leave_lo + int(u_leave * leave_span), return_lo + int(u_return * return_span)


def step_presence(
    agent: AgentState, now: int, tick: int, events: list[AgentEvent] | None,
) -> None:
    """Advance the atHome/out machine to clock time now.

    The agent is out exactly while today_leave <= now < today_return, so a
    return time that fell past the final tick of a day resolves at the
    first tick of the next one.  Influence and learning are untouched.
    """
    away = agent.today_leave <= now < agent.today_return
    if agent.at_home:
        if away:
            agent.at_home = False
            if events is not None:
                events.append(AgentEvent(tick, agent.agent_id, LEFT_HOME))
    elif not away:
        agent.at_home = True
        if events is not None:
            events.append(AgentEvent(tick, agent.agent_id, RETURNED_HOME))


def apply_intervention(
    agent: AgentState, tick: int, events: list[AgentEvent] | None,
) -> None:
    """Force the technology on an uninfluenced agent; idempotent."""
    if agent.learning is not None:
        return
    agent.learning = LearningState(trials_t=0, experienced=False)
    if events is not None:
        events.append(AgentEvent(tick, agent.agent_id, INFLUENCED))


def record_daily_trial(
    agent: AgentState,
    params: LearningParams,
    tick: int,
    events: list[AgentEvent] | None,
) -> None:
    """Book the day's reinforced trial for an influenced agent."""
    before = agent.learning
    after = record_trial(before, params)
    agent.learning = after
    if after.experienced and not before.experienced and events is not None:
        events.append(AgentEvent(tick, agent.agent_id, BECAME_EXPERIENCED))


def appliance_tick(
    agent: AgentState,
    bucket: int,
    in_peak: bool,
    rt: ArchetypeRuntime,
    row: list[float],
    on_count: list[int],
    tick: int,
    events: list[AgentEvent] | None,
) -> None:
    """One switching round for an at-home agent.

    Off instances switch on with the bucket's propensity, on instances
    switch off with the per appliance base rate; experienced agents inside
    the peak window use the suppressed tables for deferrable slots.  Slot j
    reads row[j] and, when it switches, moves on_count[j] (the group's
    number of agents with the slot on) by one.
    """
    learning = agent.learning
    if in_peak and learning is not None and learning.experienced:
        p_on_row = rt.on_suppressed[bucket]
        p_off_row = rt.off_suppressed
    else:
        p_on_row = rt.on_normal[bucket]
        p_off_row = rt.off_normal
    on = agent.appliance_on
    for j in range(rt.n_slots):
        if on[j]:
            if row[j] < p_off_row[j]:
                on[j] = False
                on_count[j] -= 1
                if events is not None:
                    events.append(AgentEvent(tick, agent.agent_id, SWITCHED_OFF, rt.slot_labels[j]))
        elif row[j] < p_on_row[j]:
            on[j] = True
            on_count[j] += 1
            if events is not None:
                events.append(AgentEvent(tick, agent.agent_id, SWITCHED_ON, rt.slot_labels[j]))


def maybe_interact(
    agent: AgentState,
    neighbor_ids: tuple[int, ...],
    learning_snapshot: list,
    rt: ArchetypeRuntime,
    row: list[float],
    tick: int,
    events: list[AgentEvent] | None,
) -> None:
    """Possibly chat with a random influenced neighbour about the meter.

    Caller guarantees the agent is influenced and at home.  The donor's
    learning state comes from the start-of-tick snapshot so outcomes do not
    depend on agent processing order.  A successful exchange gives the
    recipient at most one bonus trial per day.  The coin is row[slots] and
    the partner pick row[slots+1].
    """
    if row[rt.n_slots] >= rt.p_interact:
        return
    donors = [j for j in neighbor_ids if learning_snapshot[j] is not None]
    if not donors:
        return
    peer = donors[int(row[rt.n_slots + 1] * len(donors))]
    if events is not None:
        events.append(AgentEvent(tick, agent.agent_id, INTERACTED, str(peer)))
    if agent.bonus_trial_today:
        return
    before = agent.learning
    after = absorb_interaction(before, learning_snapshot[peer], rt.learn_params)
    if after is not before:
        agent.learning = after
        agent.bonus_trial_today = True
        if after.experienced and not before.experienced and events is not None:
            events.append(AgentEvent(tick, agent.agent_id, BECAME_EXPERIENCED))
