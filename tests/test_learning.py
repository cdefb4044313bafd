import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from metersim.learning import (
    MAX_TRIALS,
    LearningParams,
    LearningState,
    absorb_interaction,
    adoption_probability,
    record_trial,
    trials_to_threshold,
)


def brute_force_threshold(params, cap=1_000_000):
    """Independent scan for the first trial count at or above threshold.

    P(t) < M holds for every finite t, so a threshold at or above the
    asymptote is unreachable; the guard keeps float saturation (exp
    underflowing to 0) from faking a crossing.
    """
    if params.p_threshold >= params.max_attainable_M:
        return None
    for t in range(1, cap):
        p = params.max_attainable_M * (1.0 - math.exp(-params.learning_rate_k * t))
        if p >= params.p_threshold:
            return t
    return None


def test_curve_starts_at_zero():
    params = LearningParams(1.0, 0.1, 0.85)
    assert adoption_probability(params, 0) == 0.0


def test_curve_value_at_crossing_trial():
    # frozen: 1 - exp(-0.1 * 19) = 0.8504313...
    params = LearningParams(1.0, 0.1, 0.85)
    assert math.isclose(adoption_probability(params, 19), 0.850431, abs_tol=1e-6)


def test_curve_saturates_at_M():
    params = LearningParams(0.8, 5.0, 0.5)
    assert math.isclose(adoption_probability(params, 100), 0.8, abs_tol=1e-12)


def test_negative_trials_rejected():
    params = LearningParams(1.0, 0.1, 0.85)
    with pytest.raises(ValueError):
        adoption_probability(params, -1)
    with pytest.raises(ValueError, match="trials_t must be non-negative"):
        LearningState(-1, False)


@pytest.mark.parametrize(
    "M, k, p_th, expected",
    [
        (1.0, 0.1, 0.85, 19),
        (1.0, 2.0, 0.85, 1),
        (0.8, 0.5, 0.85, None),  # threshold above the asymptote
        (0.85, 0.5, 0.85, None),  # threshold equal to the asymptote
        (1.0, 0.01, 0.99, 461),
        # the closed form gives exactly 81.0, but P(81) falls just short of
        # the threshold, so the crossing is one trial later
        (0.47338509052526456, 0.006500026766827606, 0.19377194240169374, 82),
    ],
)
def test_trials_to_threshold_known_values(M, k, p_th, expected):
    params = LearningParams(M, k, p_th)
    assert trials_to_threshold(params) == expected
    assert brute_force_threshold(params, cap=10_000) == expected


@pytest.mark.parametrize("M, k, p_th", [
    (1.0, 1e-320, 0.85),  # the closed form overflows to infinity
    (1.0, 1e-300, 0.85),  # finite, but far past what a float counts
    (1.0, 5e-324, 1e-300),  # a tiny threshold over a tiny rate
])
def test_trials_to_threshold_is_none_past_what_a_float_counts(M, k, p_th):
    assert trials_to_threshold(LearningParams(M, k, p_th)) is None


def test_trials_to_threshold_finds_counts_up_to_the_float_limit():
    params = LearningParams(1.0, 1e-15, 0.85)
    t = trials_to_threshold(params)
    assert t <= MAX_TRIALS
    assert adoption_probability(params, t) >= 0.85 > adoption_probability(params, t - 1)


def test_record_trial_increments_and_is_absorbing():
    threshold = trials_to_threshold(LearningParams(1.0, 2.0, 0.85))
    state = LearningState(0, False)
    state = record_trial(state, threshold)
    assert state == LearningState(1, True)
    # more trials never clear the flag
    state = record_trial(state, threshold)
    assert state.trials_t == 2 and state.experienced
    # nor does a threshold the state has not reached, or none at all
    assert record_trial(LearningState(2, True), 9) == LearningState(3, True)
    assert record_trial(LearningState(2, True), None) == LearningState(3, True)


def test_record_trial_crosses_exactly_at_threshold():
    threshold = trials_to_threshold(LearningParams(1.0, 0.1, 0.85))
    assert threshold == 19
    state = LearningState(0, False)
    for t in range(1, 25):
        state = record_trial(state, threshold)
        assert state.trials_t == t
        assert state.experienced == (t >= 19)


def test_absorb_only_from_ahead_donor():
    behind = LearningState(2, False)
    ahead = LearningState(7, False)
    gained = absorb_interaction(behind, ahead, 19)
    assert gained == LearningState(3, False)
    # donor state is a value, unchanged by construction
    assert ahead.trials_t == 7
    # no flow when equal or when the recipient is ahead
    assert absorb_interaction(ahead, behind, 19) is ahead
    assert absorb_interaction(behind, LearningState(2, False), 19) is behind
    # the gained trial crosses as record_trial's does
    assert absorb_interaction(behind, ahead, 3) == LearningState(3, True)
    assert absorb_interaction(behind, ahead, None) == LearningState(3, False)


def test_params_validated():
    with pytest.raises(ValueError):
        LearningParams(0.0, 0.1, 0.85)
    with pytest.raises(ValueError):
        LearningParams(1.0, 0.0, 0.85)
    with pytest.raises(ValueError):
        LearningParams(1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        LearningParams(1.2, 0.1, 0.85)


params_strategy = st.builds(
    LearningParams,
    st.floats(0.05, 1.0),
    st.floats(0.01, 5.0),
    st.floats(0.01, 1.0),
)


@settings(max_examples=100)
@given(params_strategy, st.integers(0, 500))
def test_curve_monotone_and_bounded(params, t):
    p0 = adoption_probability(params, t)
    p1 = adoption_probability(params, t + 1)
    assert 0.0 <= p0 <= params.max_attainable_M
    assert p1 >= p0
    assert (p0 == 0.0) == (t == 0)
    if params.learning_rate_k * t <= 25:
        # away from float saturation the asymptote is strictly unattained
        assert p0 < params.max_attainable_M


@settings(max_examples=100)
@given(params_strategy)
def test_threshold_is_first_crossing(params):
    target = trials_to_threshold(params)
    if params.p_threshold >= params.max_attainable_M:
        assert target is None
        return
    assert target is not None and target >= 1
    assert adoption_probability(params, target) >= params.p_threshold
    if target > 1:
        assert adoption_probability(params, target - 1) < params.p_threshold


@settings(max_examples=60)
@given(params_strategy, st.integers(0, 60), st.integers(0, 60))
def test_absorption_never_regresses(params, t_recipient, t_donor):
    recipient = LearningState(
        t_recipient,
        adoption_probability(params, t_recipient) >= params.p_threshold,
    )
    donor = LearningState(
        t_donor,
        adoption_probability(params, t_donor) >= params.p_threshold,
    )
    after = absorb_interaction(recipient, donor, trials_to_threshold(params))
    assert after.trials_t >= recipient.trials_t
    assert after.trials_t <= recipient.trials_t + 1
    if recipient.experienced:
        assert after.experienced


@st.composite
def validator_params(draw):
    """M, k and p anywhere in the ranges the validator accepts, p = M
    included, with k log-uniform over seven decades."""
    m = draw(st.floats(0.0, 1.0, exclude_min=True))
    p = draw(st.floats(0.0, 1.0, exclude_min=True) | st.just(m))
    return LearningParams(m, 10.0 ** draw(st.floats(-4.0, 3.0)), p)


# past this trial count exp(-k t) < 2**-54, so P(t) rounds to M exactly
SATURATION_KT = 40.0


@settings(max_examples=150, deadline=None)
@given(validator_params())
@example(LearningParams(0.9, 1.0, 0.9))
@example(LearningParams(1.0, 0.1, 0.85))
def test_experienced_exactly_from_the_threshold_count(params):
    """A chain of record_trial calls from LearningState(0, False) is
    experienced exactly when t >= T = trials_to_threshold, for every t up
    to T + 2.  Where T is None no chain crosses, not even past the count
    where P(t) rounds up to M and so reaches a threshold p = M."""
    threshold = trials_to_threshold(params)
    if threshold is None:
        last = math.ceil(SATURATION_KT / params.learning_rate_k) + 2
    else:
        last = threshold + 2
    assume(last <= 10**5 + 2)
    if params.p_threshold == params.max_attainable_M:
        assert adoption_probability(params, last) >= params.p_threshold
    state = LearningState(0, False)
    for t in range(1, last + 1):
        state = record_trial(state, threshold)
        assert state.trials_t == t
        assert state.experienced == (threshold is not None and t >= threshold)
