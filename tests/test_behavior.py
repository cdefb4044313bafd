import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    apply_intervention,
    appliance_tick,
    chat_coins,
    maybe_interact,
    presence_mask,
    sample_daily_times,
    step_presence,
    switch_mask,
)
from metersim.domain import AgentState, validate_scenario
from metersim.learning import LearningState, trials_to_threshold
from metersim.engine import STREAM_AGENT, Simulation, run, substream

from conftest import daily_times, tiny_doc


class RowLog(np.ndarray):
    """A group's tick draws, one column per agent, that remember which rows
    were read."""

    def __new__(cls, rows):
        log = np.asarray(rows, dtype=np.float64).view(cls)
        log.read = set()
        return log

    def __array_finalize__(self, obj):
        self.read = None  # views do not log; their parent did

    def __getitem__(self, key):
        if self.read is not None:
            rows = key[0] if isinstance(key, tuple) else key
            picked = range(self.shape[0])[rows]
            self.read.update([picked] if isinstance(picked, int) else picked)
        return super().__getitem__(key)


def column(row):
    """A group of one's tick draws: the agent's row as its one column."""
    return np.array(row, dtype=np.float64)[:, None]


def masks_of_one(agent, rt):
    """The group arrays of a group whose only member is agent, at home."""
    learning = agent.learning
    return (
        np.array(agent.appliance_on, dtype=bool).reshape(rt.n_slots, 1),
        np.ones(1, dtype=bool),
        np.array([learning is not None]),
        np.array([learning is not None and learning.experienced]),
    )


def switch_row(agent, bucket, in_peak, rt, draws):
    """The agent's row of switch_mask over a group of one, whose tick
    draws are the one column draws."""
    on, home, _, experienced = masks_of_one(agent, rt)
    return switch_mask(rt, bucket, in_peak, draws, on, home, experienced)[:, 0].tolist()


def switch_round(agent, bucket, in_peak, rt, row, tick, events):
    """One switching round for one agent, as the engine runs it: the group
    mask decides and flips the group's on array, appliance_tick applies the
    agent's row.  Returns the group's on count per slot."""
    on = masks_of_one(agent, rt)[0]
    switches = switch_row(agent, bucket, in_peak, rt, column(row))
    on[:, 0] ^= switches
    slots = [j for j, switch in enumerate(switches) if switch]
    appliance_tick(agent, rt, slots, tick, events)
    assert agent.appliance_on == on[:, 0].tolist()
    return np.count_nonzero(on, axis=1).tolist()


def coin_lands(agent, rt, draws):
    """chat_coins over a group of one, whose tick draws are the one
    column draws."""
    _, home, influenced, _ = masks_of_one(agent, rt)
    return bool(chat_coins(rt, draws, home, influenced)[0])


def chat_round(agent, neighbor_ids, snapshot, rt, row, tick, events):
    """One chat round for one agent, as the engine runs it: if its coin
    lands, maybe_interact runs with the group's threshold and the pick."""
    if coin_lands(agent, rt, column(row)):
        maybe_interact(agent, neighbor_ids, snapshot, trials_to_threshold(rt.learn_params),
                       row[rt.n_slots + 1], tick, events)


def presence_round(agent, home, leave, ret, now, tick, events):
    """One presence round for a group of one, as the engine runs it:
    presence_mask gives the new home mask, which replaces home, and
    step_presence records the move where it differs.  Returns whether it
    did."""
    moved = presence_mask(np.array([leave]), np.array([ret]), now)
    flip = bool(moved[0] != home[0])
    home[:] = moved
    if flip:
        step_presence(agent, bool(home[0]), tick, events)
    return flip


def chat_row(rt, coin, pick):
    """A tick's row with switching draws that never switch anything."""
    return [0.999] * rt.n_slots + [coin, pick]


def watts(rt, scenario, on_count):
    """The load of on_count, with each slot's power from the scenario's catalog."""
    catalog = {a.id: a.power_watts for a in scenario.appliances}
    powers = [catalog[label.split("#")[0]] for label in rt.slot_labels]
    return math.fsum(p * c for p, c in zip(powers, on_count))


def build_runtime(**kwargs):
    scenario = validate_scenario(tiny_doc(**kwargs))
    arch = scenario.archetypes[0]
    catalog = {a.id: a for a in scenario.appliances}
    return ArchetypeRuntime.build(arch, catalog, scenario.config), scenario


def make_agent(learning=None, on=None):
    return AgentState(
        agent_id=0,
        learning=learning,
        appliance_on=list(on or [False, False]),
    )


def test_runtime_tables():
    rt, _ = build_runtime(tick=30)
    assert rt.slot_labels == ("heater#0", "shifter#0")
    assert [n / rt.power_denominator for n in rt.power_numerators] == [100.0, 200.0]
    # heater: flat 0.5 profile, 60 min mean on at 30 min ticks
    assert rt.on_normal[10].tolist() == [0.5, 0.3]
    assert rt.off_normal.tolist() == [0.5, 0.5]
    # suppression touches only the deferrable slot
    assert rt.on_suppressed[10].tolist() == [0.5, 0.15]
    assert rt.off_suppressed.tolist() == [0.5, 1.0]
    assert rt.on_normal.dtype == rt.off_normal.dtype == np.float64


def test_runtime_tables_at_the_edges():
    """A null mean on time never switches off, one near 0 always does, with
    no overflow warning on stderr, and an archetype without appliances gets
    empty tables.  Divisions round as Python's do."""
    doc = tiny_doc(tick=10)
    doc["appliances"][1]["mean_on_minutes"] = None
    doc["appliances"].append(dict(doc["appliances"][1], id="flash", mean_on_minutes=5e-324))
    doc["archetypes"][0]["appliances"]["flash"] = 1
    doc["archetypes"].append(dict(doc["archetypes"][0], id="bare", appliances={}))
    scenario = validate_scenario(doc)
    catalog = {a.id: a for a in scenario.appliances}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rt, bare = (ArchetypeRuntime.build(arch, catalog, scenario.config)
                    for arch in scenario.archetypes)
    assert rt.slot_labels == ("heater#0", "shifter#0", "flash#0")
    assert rt.off_normal.tolist() == [10 / 60.0, 0.0, 1.0]
    assert rt.off_suppressed.tolist() == [10 / 60.0, 0.0, 1.0]
    assert rt.on_suppressed[0].tolist() == [0.5, 0.3 * 0.5, 0.3 * 0.5]
    assert bare.n_slots == 0
    assert bare.on_normal.shape == bare.on_suppressed.shape == (48, 0)
    assert bare.off_normal.shape == bare.off_suppressed.shape == (0,)


LAST_BELOW_ONE = 1.0 - 2.0**-53


def daily_times_of(arch, u_leave, u_return):
    leave, ret = sample_daily_times(arch, np.array(u_leave), np.array(u_return))
    assert leave.dtype == ret.dtype == np.int64
    return leave.tolist(), ret.tolist()


def test_sample_daily_times_within_windows():
    rt, _ = build_runtime()
    arch = rt.spec
    pairs = [(0.0, 0.0), (0.999, 0.999), (0.5, 0.25), (LAST_BELOW_ONE, LAST_BELOW_ONE)]
    leaves, rets = daily_times_of(arch, [p[0] for p in pairs], [p[1] for p in pairs])
    for leave, ret in zip(leaves, rets):
        assert 600 <= leave <= 660
        assert 840 <= ret <= 900
    assert (leaves[0], rets[0]) == (600, 840)
    assert daily_times_of(arch, [0.999999], [0.999999]) == ([660], [900])
    assert (leaves[3], rets[3]) == (660, 900)
    # the cast truncates exactly like int(u * span), draw for draw
    u = np.random.default_rng(5).random(10_000)
    u[:2] = (0.0, LAST_BELOW_ONE)
    leaves, rets = daily_times_of(arch, u, u[::-1])
    assert leaves == [600 + int(x * 61) for x in u.tolist()]
    assert rets == [840 + int(x * 61) for x in u[::-1].tolist()]


def test_sample_daily_times_degenerate_window():
    doc = tiny_doc()
    doc["archetypes"][0]["leave_window"] = ["09:15", "09:15"]
    doc["archetypes"][0]["return_window"] = ["17:45", "17:45"]
    scenario = validate_scenario(doc)
    arch = scenario.archetypes[0]
    u = [0.0, 0.5, 0.999, LAST_BELOW_ONE]
    assert daily_times_of(arch, u, u) == ([555] * 4, [1065] * 4)


def test_step_presence_morning_noop():
    agent = make_agent()
    home = np.ones(1, dtype=bool)
    events = []
    assert not presence_round(agent, home, 525, 1080, 180, tick=6, events=events)
    assert home[0] and events == []


def test_step_presence_leaves_at_first_tick_past_leave_time():
    agent = make_agent()
    home = np.ones(1, dtype=bool)
    events = []
    assert presence_round(agent, home, 525, 1080, 530, tick=10, events=events)
    assert not home[0]
    assert events == [AgentEvent(10, 0, LEFT_HOME)]
    # still out before the return time
    assert not presence_round(agent, home, 525, 1080, 1070, tick=20, events=events)
    assert not home[0] and len(events) == 1
    assert presence_round(agent, home, 525, 1080, 1080, tick=21, events=events)
    assert home[0]
    assert events == [AgentEvent(10, 0, LEFT_HOME), AgentEvent(21, 0, RETURNED_HOME)]


def test_step_presence_records_one_move_to_the_side_given():
    agent = make_agent()
    events = []
    step_presence(agent, False, tick=4, events=events)
    step_presence(agent, True, tick=9, events=events)
    assert events == [AgentEvent(4, 0, LEFT_HOME), AgentEvent(9, 0, RETURNED_HOME)]
    step_presence(agent, False, tick=10, events=None)
    assert len(events) == 2


def test_step_presence_keeps_learning():
    state = LearningState(3, False)
    agent = make_agent(learning=state)
    home = np.ones(1, dtype=bool)
    assert presence_round(agent, home, 525, 1080, 530, tick=1, events=None)
    assert presence_round(agent, home, 525, 1080, 1080, tick=2, events=None)
    assert agent.learning is state


def test_agent_event_is_an_immutable_csv_row():
    event = AgentEvent(3, 7, SWITCHED_ON, "heater#0")
    assert isinstance(event, tuple)
    assert AgentEvent._fields == ("tick", "agent_id", "kind", "detail")
    assert tuple(event) == (3, 7, SWITCHED_ON, "heater#0")
    assert AgentEvent(3, 7, LEFT_HOME).detail == ""
    with pytest.raises(AttributeError):
        event.kind = SWITCHED_OFF


def test_apply_intervention_once():
    agent = make_agent()
    events = []
    apply_intervention(agent, tick=0, events=events)
    assert agent.learning == LearningState(0, False)
    apply_intervention(agent, tick=5, events=events)
    assert [e.kind for e in events] == [INFLUENCED]
    assert agent.learning == LearningState(0, False)


def test_appliance_tick_switches_on_by_profile():
    rt, scenario = build_runtime(tick=30)
    agent = make_agent()
    events = []
    on_count = switch_round(agent, bucket=10, in_peak=False, rt=rt,
                            row=[0.49, 0.29], tick=3, events=events)
    assert agent.appliance_on == [True, True]
    assert on_count == [1, 1] and watts(rt, scenario, on_count) == 300.0
    assert [(e.kind, e.detail) for e in events] == [
        (SWITCHED_ON, "heater#0"), (SWITCHED_ON, "shifter#0"),
    ]

    # draws at or above the propensities do nothing
    agent2 = make_agent()
    on_count2 = switch_round(agent2, bucket=10, in_peak=False, rt=rt,
                             row=[0.5, 0.3], tick=3, events=None)
    assert agent2.appliance_on == [False, False] and on_count2 == [0, 0]


def test_appliance_tick_peak_suppression_for_experienced():
    rt, scenario = build_runtime(tick=30)
    experienced = LearningState(30, True)
    agent = make_agent(learning=experienced)
    # shifter propensity drops 0.3 -> 0.15 inside the peak, heater untouched
    on_count = switch_round(agent, bucket=35, in_peak=True, rt=rt,
                            row=[0.49, 0.29], tick=0, events=None)
    assert agent.appliance_on == [True, False]
    assert watts(rt, scenario, on_count) == 100.0

    # inexperienced agents see no suppression
    naive = make_agent(learning=LearningState(1, False))
    switch_round(naive, bucket=35, in_peak=True, rt=rt,
                 row=[0.49, 0.29], tick=0, events=None)
    assert naive.appliance_on == [True, True]

    # outside the window the experienced agent behaves normally
    agent3 = make_agent(learning=experienced)
    switch_round(agent3, bucket=10, in_peak=False, rt=rt,
                 row=[0.49, 0.29], tick=0, events=None)
    assert agent3.appliance_on == [True, True]


def test_appliance_tick_doubles_deferrable_switch_off_in_peak():
    rt, scenario = build_runtime(tick=30)
    agent = make_agent(learning=LearningState(30, True), on=[True, True])
    events = []
    on_count = switch_round(agent, bucket=35, in_peak=True, rt=rt,
                            row=[0.6, 0.9], tick=0, events=events)
    # heater keeps its 0.5 off rate (0.6 misses), shifter is pushed to 1.0
    assert agent.appliance_on == [True, False]
    assert on_count == [1, 0] and watts(rt, scenario, on_count) == 300.0 - 200.0
    assert [(e.kind, e.detail) for e in events] == [(SWITCHED_OFF, "shifter#0")]


def test_maybe_interact_exchange_and_daily_cap():
    rt, _ = build_runtime(rate=0.5)
    assert rt.p_interact == 0.5
    snapshot = [None, LearningState(5, False), LearningState(9, False)]
    agent = make_agent(learning=LearningState(2, False))
    events = []
    chat_round(agent, (1, 2), snapshot, rt, chat_row(rt, 0.49, 0.9), 7, events)
    assert [(e.kind, e.detail) for e in events] == [(INTERACTED, "2")]
    assert agent.learning.trials_t == 3
    assert agent.bonus_trial_today

    # a second exchange the same day still emits but cannot add a trial
    chat_round(agent, (1, 2), snapshot, rt, chat_row(rt, 0.49, 0.0), 8, events)
    assert [e.kind for e in events] == [INTERACTED, INTERACTED]
    assert agent.learning.trials_t == 3


def test_each_operation_reads_only_its_row_positions():
    """The draw layout is fixed: switching reads rows 0..slots-1 of the
    group's tick draws, the chat coin row slots and a chat the pick at
    slots+1 of the agent's column, whatever happens; maybe_interact is
    handed the pick alone."""
    rt, _ = build_runtime(rate=0.5, tick=30)
    slots = set(range(rt.n_slots))
    for on in ([False, False], [True, True], [True, False]):
        for u in (0.0, 0.4, 0.999):
            agent = make_agent(learning=LearningState(30, True), on=on)
            draws = RowLog(column([u, u, 0.0, 0.0]))
            switch_row(agent, 35, True, rt, draws)
            assert draws.read == slots

    donor = LearningState(9, False)
    for coin, snapshot in [
        (0.51, [None, donor]),   # coin fails
        (0.49, [None, None]),    # nobody to chat with
        (0.49, [None, donor]),   # chat with a bonus trial
    ]:
        agent = make_agent(learning=LearningState(2, False))
        draws = RowLog(column([0.0, 0.0, coin, 0.2]))
        landed = coin_lands(agent, rt, draws)
        assert draws.read == {rt.n_slots}
        assert landed == (coin < 0.5)
        if landed:
            maybe_interact(agent, (1,), snapshot, trials_to_threshold(rt.learn_params),
                           float(draws[rt.n_slots + 1, 0]), 0, [])
            assert draws.read == {rt.n_slots, rt.n_slots + 1}
        assert agent.learning.trials_t == (3 if coin < 0.5 and snapshot[1] else 2)


def test_appliance_tick_flips_exactly_the_marked_slots():
    rt, _ = build_runtime(tick=30)
    agent = make_agent(on=[True, False])
    events = []
    appliance_tick(agent, rt, [0, 1], 4, events)
    assert agent.appliance_on == [False, True]
    assert [(e.tick, e.kind, e.detail) for e in events] == [
        (4, SWITCHED_OFF, "heater#0"), (4, SWITCHED_ON, "shifter#0"),
    ]
    appliance_tick(agent, rt, [1], 5, None)
    assert agent.appliance_on == [False, False]


def test_masks_match_a_scalar_reading_of_the_rules():
    """Over a group of agents in every state, presence_mask, switch_mask and
    chat_coins agree with the rules read one agent and one slot at a time,
    and leave every array they read as it was."""
    rt, _ = build_runtime(rate=0.5, tick=30)
    rng = np.random.default_rng(3)
    n = 400
    leave_at = rng.integers(0, 1440, n)
    return_at = leave_at + rng.integers(0, 720, n)
    u = rng.random((rt.n_slots + 2, n))
    on = rng.random((rt.n_slots, n)) < 0.5
    home = rng.random(n) < 0.7
    influenced = rng.random(n) < 0.6
    experienced = influenced & (rng.random(n) < 0.5)
    inputs = (leave_at, return_at, u, on, home, influenced, experienced)
    kept = [a.copy() for a in inputs]
    for a in inputs:
        a.setflags(write=False)
    for now in (0, 600, 1439):
        at_home = presence_mask(leave_at, return_at, now)
        assert at_home.tolist() == [not (lo <= now < hi)
                                    for lo, hi in zip(leave_at.tolist(), return_at.tolist())]
    for bucket, in_peak in [(10, False), (35, True)]:
        switch = switch_mask(rt, bucket, in_peak, u, on, home, experienced)
        coin = chat_coins(rt, u, home, influenced)
        assert switch.shape == on.shape and coin.shape == home.shape
        for k in range(n):
            suppressed = in_peak and experienced[k]
            p_on = (rt.on_suppressed if suppressed else rt.on_normal)[bucket].tolist()
            p_off = (rt.off_suppressed if suppressed else rt.off_normal).tolist()
            for j in range(rt.n_slots):
                p = p_off[j] if on[j, k] else p_on[j]
                assert switch[j, k] == (bool(home[k]) and float(u[j, k]) < p)
            assert coin[k] == (bool(home[k] and influenced[k]) and float(u[2, k]) < rt.p_interact)
    for a, copy in zip(inputs, kept):
        assert np.array_equal(a, copy)


def test_maybe_interact_no_influenced_neighbor():
    rt, _ = build_runtime(rate=1.0)
    agent = make_agent(learning=LearningState(2, False))
    events = []
    chat_round(agent, (1, 2), [None, None, None], rt, chat_row(rt, 0.1, 0.7), 0, events)
    assert events == []


def test_maybe_interact_donor_behind_gives_nothing():
    rt, _ = build_runtime(rate=1.0)
    agent = make_agent(learning=LearningState(9, False))
    events = []
    chat_round(agent, (1,), [None, LearningState(2, False)], rt,
               chat_row(rt, 0.1, 0.1), 0, events)
    assert [e.kind for e in events] == [INTERACTED]
    assert agent.learning.trials_t == 9
    assert not agent.bonus_trial_today


def test_interaction_rate_matches_awareness_times_base_rate():
    # awareness 0.5 at base rate 0.02 must chat on about 1% of eligible
    # ticks; 200k draws keep the check well inside +-0.001
    rt, _ = build_runtime(awareness=0.5, rate=0.02)
    assert rt.p_interact == pytest.approx(0.01)
    gen = substream(123, STREAM_AGENT, 0)
    snapshot = [None, LearningState(50, True)]
    agent = make_agent(learning=LearningState(1, False))
    agent.bonus_trial_today = True  # freeze state so only the coin matters
    events = []
    n = 200_000
    draws = gen.random((rt.n_slots + 2, n))
    coin = chat_coins(rt, draws, np.ones(n, dtype=bool), np.ones(n, dtype=bool))
    threshold = trials_to_threshold(rt.learn_params)
    for t in np.flatnonzero(coin).tolist():
        maybe_interact(agent, (1,), snapshot, threshold, draws[rt.n_slots + 1, t].item(), t,
                       events)
    assert len(events) / n == pytest.approx(0.01, abs=1e-3)


def test_interaction_can_tip_agent_over_threshold():
    rt, _ = build_runtime(rate=1.0, k=0.5)  # threshold at t=4
    agent = make_agent(learning=LearningState(3, False))
    events = []
    chat_round(agent, (1,), [None, LearningState(10, True)], rt,
               chat_row(rt, 0.0, 0.0), 0, events)
    assert [e.kind for e in events] == [INTERACTED, BECAME_EXPERIENCED]
    assert agent.learning == LearningState(4, True)


def replay_fsm(events, population):
    """Assert the event stream respects the agent state machine."""
    home = [True] * population
    influenced = [False] * population
    experienced = [False] * population
    on = [set() for _ in range(population)]
    last_tick = [0] * population
    for ev in events:
        a = ev.agent_id
        assert ev.tick >= last_tick[a], "ticks must be nondecreasing per agent"
        last_tick[a] = ev.tick
        if ev.kind == LEFT_HOME:
            assert home[a]
            home[a] = False
        elif ev.kind == RETURNED_HOME:
            assert not home[a]
            home[a] = True
        elif ev.kind == INFLUENCED:
            assert not influenced[a]
            influenced[a] = True
        elif ev.kind == BECAME_EXPERIENCED:
            assert influenced[a] and not experienced[a]
            experienced[a] = True
        elif ev.kind == SWITCHED_ON:
            assert home[a], "no switching while out"
            assert ev.detail not in on[a], "no double switch-on"
            on[a].add(ev.detail)
        elif ev.kind == SWITCHED_OFF:
            assert home[a]
            assert ev.detail in on[a]
            on[a].remove(ev.detail)
        elif ev.kind == INTERACTED:
            assert home[a] and influenced[a]
        else:
            raise AssertionError(f"unknown event kind {ev.kind}")


def test_event_log_respects_state_machine():
    scenario = validate_scenario(tiny_doc(
        population=12, degree=4, beta=0.2, horizon=4, tick=15,
        rate=0.4, k=1.5, seed=23,
    ))
    output = run(scenario, record_events=True)
    assert output.events, "expected a populated event log"
    replay_fsm(output.events, 12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exactly_one_leave_and_return_per_day(seed):
    scenario = validate_scenario(tiny_doc(population=5, horizon=3, tick=10, seed=seed))
    output = run(scenario, record_events=True)
    ticks_per_day = scenario.config.ticks_per_day
    for agent_id in range(5):
        for day in range(3):
            day_events = [
                e.kind for e in output.events
                if e.agent_id == agent_id
                and day * ticks_per_day <= e.tick < (day + 1) * ticks_per_day
                and e.kind in (LEFT_HOME, RETURNED_HOME)
            ]
            assert day_events == [LEFT_HOME, RETURNED_HOME]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_daily_times_stay_inside_windows(seed):
    scenario = validate_scenario(tiny_doc(population=8, horizon=3, tick=30, seed=seed))
    sim = Simulation(scenario)
    ticks_per_day = scenario.config.ticks_per_day
    for t in range(3 * ticks_per_day):
        sim.tick()
        if t % ticks_per_day == 0:
            for leave, ret in daily_times(sim).values():
                assert 600 <= leave <= 660
                assert 840 <= ret <= 900
