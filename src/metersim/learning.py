"""Behavioural learning curve and state transitions.

Adoption propensity after t reinforced trials follows a saturating
exponential P(t) = M * (1 - exp(-k * t)).  M is the highest propensity the
household can reach, k the learning speed.  trials_to_threshold turns the
curve and the adoption threshold into one trial count T, or None when no
finite count reaches it.  A household is experienced from its T-th trial
on, for good: record_trial and absorb_interaction count against T alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class LearningState:
    """Per agent learning progress once influenced.

    trials_t counts reinforced trials; experienced flips (and stays) true
    once trials_t reaches the trial count trials_to_threshold gives.
    """

    trials_t: int
    experienced: bool

    def __post_init__(self) -> None:
        if self.trials_t < 0:
            raise ValueError("trials_t must be non-negative")


@dataclass(frozen=True, slots=True)
class LearningParams:
    max_attainable_M: float
    learning_rate_k: float
    p_threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.max_attainable_M <= 1.0:
            raise ValueError(f"max_attainable_M must be in (0, 1], got {self.max_attainable_M}")
        if self.learning_rate_k <= 0.0:
            raise ValueError(f"learning_rate_k must be positive, got {self.learning_rate_k}")
        if not 0.0 < self.p_threshold <= 1.0:
            raise ValueError(f"p_threshold must be in (0, 1], got {self.p_threshold}")


def adoption_probability(params: LearningParams, trials_t: int) -> float:
    """P(t) = M * (1 - exp(-k t)).  Zero at t = 0, asymptote M."""
    if trials_t < 0:
        raise ValueError("trials_t must be non-negative")
    # expm1 keeps precision when k * t is tiny
    return params.max_attainable_M * -math.expm1(-params.learning_rate_k * trials_t)


# past 2**53 a float no longer tells one trial count from the next
MAX_TRIALS = 2**53


def trials_to_threshold(params: LearningParams) -> int | None:
    """Smallest t >= 1 with P(t) >= p_threshold, or None if unreachable.

    The asymptote M is never attained at finite t, so a threshold at or
    above M can never be crossed; nor, in float terms, one past MAX_TRIALS.
    """
    if params.p_threshold >= params.max_attainable_M:
        return None
    # closed form, then nudge to the exact integer crossing in float terms
    estimate = -math.log1p(-params.p_threshold / params.max_attainable_M) / params.learning_rate_k
    if estimate > MAX_TRIALS:
        return None
    t = max(1, math.ceil(estimate))
    while t > 1 and adoption_probability(params, t - 1) >= params.p_threshold:
        t -= 1
    while adoption_probability(params, t) < params.p_threshold:
        t += 1
    return t


def record_trial(state: LearningState, threshold: int | None) -> LearningState:
    """One more reinforced trial; experienced from the threshold-th trial
    on (trials_to_threshold's T, never when None) and absorbing."""
    t = state.trials_t + 1
    experienced = state.experienced or (threshold is not None and t >= threshold)
    return LearningState(trials_t=t, experienced=experienced)


def absorb_interaction(
    recipient: LearningState, donor: LearningState, threshold: int | None,
) -> LearningState:
    """Knowledge flows downhill: a recipient behind the donor gains a trial.

    Returns the recipient's new state; the donor never changes.  Equal or
    ahead recipients are returned unchanged.
    """
    if donor.trials_t > recipient.trials_t:
        return record_trial(recipient, threshold)
    return recipient
