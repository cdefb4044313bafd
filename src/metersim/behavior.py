"""Per agent behaviour: presence, appliance switching, peer interaction.

All randomness comes in as uniforms in [0, 1) at fixed positions, so agent
streams stay aligned between scenario variants run at the same seed.  A
tick's draws hold slots+2 columns per agent:

    sample_daily_times   its two arguments (the day's first two draws)
    switch_mask          columns 0..slots-1, one per owned appliance instance
    chat_coins           column slots (the chat coin)
    maybe_interact       row[slots+1] (the partner pick)

Each rule is decided once, for a whole archetype group, by a numpy mask:
presence_mask says who is home, switch_mask which slots switch and
chat_coins whose coin lands.  The per-agent functions step_presence,
appliance_tick and maybe_interact then apply those decisions to one agent
and record its events; the engine calls them only for agents that act.

Experienced households shift deferrable load: inside the configured peak
window their deferrable switch-on propensities are multiplied by the
peak_suppression factor and their deferrable switch-off propensities are
doubled.  Non deferrable appliances are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    on_normal/on_suppressed are float64 arrays with one row per half hour
    bucket and one switch-on probability per appliance slot; off_normal and
    off_suppressed hold one switch-off probability per slot.  The
    suppressed variants apply only while an experienced agent is inside the
    peak window.
    """

    spec: ArchetypeSpec
    learn_params: LearningParams
    p_interact: float
    n_slots: int
    slot_labels: tuple[str, ...]
    slot_powers: tuple[float, ...]
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
            on_normal=np.array(on_normal, dtype=np.float64),
            on_suppressed=np.array(on_suppressed, dtype=np.float64),
            off_normal=np.array(off_normal, dtype=np.float64),
            off_suppressed=np.array(off_suppressed, dtype=np.float64),
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


def presence_mask(
    leave_at: np.ndarray, return_at: np.ndarray, now: int,
    home: np.ndarray, flip: np.ndarray, spare: np.ndarray,
) -> None:
    """Move a group's home mask to clock time now; flip marks who moved.

    An agent is out exactly while leave_at <= now < return_at, so a return
    time that fell past the final tick of a day resolves at the first tick
    of the next one.  spare is scratch space of home's shape.
    """
    np.greater(leave_at, now, out=spare)
    np.less_equal(return_at, now, out=flip)
    spare |= flip
    np.not_equal(spare, home, out=flip)
    home[:] = spare


def switch_mask(
    rt: ArchetypeRuntime,
    bucket: int,
    in_peak: bool,
    u: np.ndarray,
    on: np.ndarray,
    home: np.ndarray,
    experienced: np.ndarray,
    out: np.ndarray,
    spare: tuple[np.ndarray, np.ndarray],
) -> None:
    """Mark in out the appliance slots that switch this tick.

    u holds the tick's draws of a group, one row per agent, and slot j
    reads column j.  on, out and the two spare arrays are slot-major
    (slots x agents).  An off slot switches on when its draw is below the
    bucket's propensity, an on slot switches off when its draw is below
    its base off rate.  Experienced agents inside the peak window use the
    suppressed tables.  Agents that are out switch nothing.
    """
    u = u[:, :rt.n_slots].T
    _switches(u, rt.on_normal[bucket], rt.off_normal, on, out, spare[0])
    if in_peak:
        _switches(u, rt.on_suppressed[bucket], rt.off_suppressed, on, spare[0], spare[1])
        _select(out, spare[0], experienced)
    out &= home


def _switches(u, p_on, p_off, on, out, spare) -> None:
    """out = u < (p_off where on, else p_on), per slot row."""
    np.less(u, p_on[:, None], out=out)
    np.less(u, p_off[:, None], out=spare)
    _select(out, spare, on)


def _select(out, alt, mask) -> None:
    """out = where(mask, alt, out) for bool arrays; alt is overwritten."""
    alt ^= out
    alt &= mask
    out ^= alt


def chat_coins(
    rt: ArchetypeRuntime, u: np.ndarray, home: np.ndarray, influenced: np.ndarray,
    out: np.ndarray,
) -> None:
    """Mark in out the agents whose chat coin lands this tick.

    An influenced at-home agent chats with probability p_interact; its coin
    is column slots of the tick's draws u.
    """
    np.less(u[:, rt.n_slots], rt.p_interact, out=out)
    out &= home
    out &= influenced


def step_presence(
    agent: AgentState, home: bool, tick: int, events: list[AgentEvent] | None,
) -> None:
    """Move the agent home or out, as presence_mask decided.

    Influence and learning are untouched; an agent already where home puts
    it records nothing.
    """
    if agent.at_home == home:
        return
    agent.at_home = home
    if events is not None:
        events.append(AgentEvent(tick, agent.agent_id, RETURNED_HOME if home else LEFT_HOME))


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
    rt: ArchetypeRuntime,
    switches: list[bool],
    on_count: list[int],
    tick: int,
    events: list[AgentEvent] | None,
) -> None:
    """Apply the agent's row of switch_mask.

    Every slot j marked in switches flips: an off slot switches on, an on
    slot switches off, and on_count[j] (the group's number of agents with
    the slot on) moves by one.
    """
    on = agent.appliance_on
    for j, switch in enumerate(switches):
        if not switch:
            continue
        if on[j]:
            on[j] = False
            on_count[j] -= 1
            kind = SWITCHED_OFF
        else:
            on[j] = True
            on_count[j] += 1
            kind = SWITCHED_ON
        if events is not None:
            events.append(AgentEvent(tick, agent.agent_id, kind, rt.slot_labels[j]))


def maybe_interact(
    agent: AgentState,
    neighbor_ids: tuple[int, ...],
    learning_snapshot: list,
    rt: ArchetypeRuntime,
    row: list[float],
    tick: int,
    events: list[AgentEvent] | None,
) -> None:
    """Chat with a random influenced neighbour about the meter, if any.

    Caller guarantees the agent is influenced and at home and that its
    chat coin landed (chat_coins).  The partner pick is row[slots+1].  The
    donor's learning state comes from the start-of-tick snapshot so
    outcomes do not depend on agent processing order.  A successful
    exchange gives the recipient at most one bonus trial per day.
    """
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
