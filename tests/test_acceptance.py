"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible under pytest -v) and pins the
agreed tolerances and runtime budgets.  Keep these independent of the unit
suites: oracles here are mpmath and brute-force loops, not library code.
"""

import math
import time
from dataclasses import replace

import mpmath
import numpy as np

from metersim.cli import main as cli_main
from metersim.domain import TimeOfDay, validate_scenario
from metersim.engine import run
from metersim.learning import (
    LearningParams,
    LearningState,
    absorb_interaction,
    adoption_probability,
    record_trial,
    trials_to_threshold,
)
from metersim.metrics import aggregate_load, peak_reduction, peak_stats, window_mean
from metersim.network import clustering_coefficient, generate_small_world

from test_engine import MICRO_EVENTS, micro_doc

PEAK = (TimeOfDay.parse("17:00"), TimeOfDay.parse("20:00"))
NIGHT = (TimeOfDay.parse("01:00"), TimeOfDay.parse("05:00"))


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def brute_force_threshold(m, k, p_th, cap=200000):
    t = 1
    while m * (1.0 - math.exp(-k * t)) < p_th:
        t += 1
        if t > cap:
            return None
    return t


def test_acceptance_1_learning_curve_exactness(capsys):
    started = time.perf_counter()
    mpmath.mp.dps = 50
    ms = [0.1 * i for i in range(1, 11)]
    ks = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 3.5, 5.0]
    ts = [0, 1, 2, 3, 5, 8, 13, 19, 50, 200]
    max_err = 0.0
    for m in ms:
        for k in ks:
            params = LearningParams(m, k, 0.5)
            for t in ts:
                got = adoption_probability(params, t)
                expected = mpmath.mpf(m) * (1 - mpmath.exp(-mpmath.mpf(k) * t))
                max_err = max(max_err, abs(float(mpmath.mpf(got) - expected)))
    t19 = trials_to_threshold(LearningParams(1.0, 0.1, 0.85))
    oracle19 = brute_force_threshold(1.0, 0.1, 0.85)
    elapsed = time.perf_counter() - started

    ok = max_err <= 1e-12 and t19 == 19 and oracle19 == 19 and elapsed < 1.0
    _report(capsys, 1, "learning curve exactness", ok,
            f"max_err={max_err:.2e}, t19={t19}, oracle={oracle19}, {elapsed:.2f}s")
    assert max_err <= 1e-12
    assert t19 == 19 and oracle19 == 19
    assert elapsed < 1.0


def test_acceptance_2_threshold_absorption(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    crossing_ok = True
    absorbing_ok = True
    for _ in range(100):
        m = float(rng.uniform(0.05, 1.0))
        k = float(rng.uniform(0.01, 3.0))
        p_th = m * float(rng.uniform(0.05, 0.95))
        params = LearningParams(m, k, p_th)
        expected = brute_force_threshold(m, k, p_th)
        threshold = trials_to_threshold(params)
        state = LearningState(0, False)
        crossed_at = None
        for step in range(1, expected + 10):
            state = record_trial(state, threshold)
            if state.experienced and crossed_at is None:
                crossed_at = step
            if crossed_at is not None and not state.experienced:
                absorbing_ok = False
        if crossed_at != expected:
            crossing_ok = False
        behind = LearningState(0, False)
        after = absorb_interaction(state, behind, threshold)
        if not after.experienced:
            absorbing_ok = False
    elapsed = time.perf_counter() - started

    ok = crossing_ok and absorbing_ok and elapsed < 1.0
    _report(capsys, 2, "threshold and absorption", ok,
            f"100 parameter sets, crossing_ok={crossing_ok}, "
            f"absorbing_ok={absorbing_ok}, {elapsed:.2f}s")
    assert crossing_ok and absorbing_ok
    assert elapsed < 1.0


def test_acceptance_3_network_suite(capsys):
    started = time.perf_counter()
    edges_ok = True
    ring_clustering = None
    min_rewired_clustering = None
    for beta in (0.0, 0.1, 0.5, 1.0):
        for seed in range(20):
            net = generate_small_world(1000, 4, beta, np.random.default_rng(seed))
            if net.edge_count != 2000:
                edges_ok = False
            if beta == 0.0 and seed == 0:
                ring_clustering = clustering_coefficient(net)
            if beta == 0.1:
                c = clustering_coefficient(net)
                if min_rewired_clustering is None or c < min_rewired_clustering:
                    min_rewired_clustering = c
    elapsed = time.perf_counter() - started

    ok = (edges_ok and ring_clustering == 0.5
          and min_rewired_clustering > 0.3 and elapsed < 10.0)
    _report(capsys, 3, "small world network suite", ok,
            f"edges_ok={edges_ok}, ring_clustering={ring_clustering}, "
            f"min_beta0.1_clustering={min_rewired_clustering:.4f}, {elapsed:.2f}s")
    assert edges_ok
    assert ring_clustering == 0.5
    assert min_rewired_clustering > 0.3
    assert elapsed < 10.0


def test_acceptance_4_daily_load_curve_shape(capsys, sample_scenario):
    started = time.perf_counter()
    results = []
    all_ok = True
    for seed in (42, 43, 44, 45, 46):
        scenario = replace(sample_scenario, config=replace(sample_scenario.config, seed=seed))
        curve = aggregate_load(run(scenario))
        peak_time, peak_watts = peak_stats(curve)
        night = window_mean(curve, NIGHT)
        in_window = PEAK[0].minutes <= peak_time.minutes < PEAK[1].minutes
        quiet_night = night < 0.5 * peak_watts
        all_ok = all_ok and in_window and quiet_night
        results.append(f"s{seed}:{peak_time}/{night / peak_watts:.2f}")
    elapsed = time.perf_counter() - started

    ok = all_ok and elapsed < 30.0
    _report(capsys, 4, "daily load curve shape", ok,
            f"peak time and night/peak ratio per seed: {', '.join(results)}, {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 30.0


def test_acceptance_5_peak_demand_reduction(capsys, sample_scenario):
    started = time.perf_counter()
    base_cfg = replace(sample_scenario.config, initial_experienced_fraction=0.0)
    treated_cfg = replace(sample_scenario.config, initial_experienced_fraction=0.9)
    base = aggregate_load(run(replace(sample_scenario, config=base_cfg)))
    treated = aggregate_load(run(replace(sample_scenario, config=treated_cfg)))

    reduction = peak_reduction(base, treated, PEAK)
    peak_drop_watts = window_mean(base, PEAK) - window_mean(treated, PEAK)
    night_drop_watts = window_mean(base, NIGHT) - window_mean(treated, NIGHT)
    elapsed = time.perf_counter() - started

    ok = (reduction > 0.0 and reduction >= 0.10
          and peak_drop_watts > night_drop_watts and elapsed < 60.0)
    _report(capsys, 5, "peak demand reduction", ok,
            f"peak_reduction={reduction:.4f}, peak_drop={peak_drop_watts:.0f}W, "
            f"night_drop={night_drop_watts:.0f}W, {elapsed:.1f}s")
    assert reduction > 0.0
    assert reduction >= 0.10
    assert peak_drop_watts > night_drop_watts
    assert elapsed < 60.0


def test_acceptance_6_byte_determinism(capsys, sample_path, tmp_path):
    started = time.perf_counter()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = cli_main(["run", "--config", sample_path, "--out", str(out_a), "--events"])
    code_b = cli_main(["run", "--config", sample_path, "--out", str(out_b), "--events"])
    names = ("loadcurve.csv", "adoption.csv", "events.csv")
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    elapsed = time.perf_counter() - started

    ok = code_a == 0 and code_b == 0 and identical and elapsed < 60.0
    sizes = ",".join(str((out_a / n).stat().st_size) for n in names)
    _report(capsys, 6, "byte determinism", ok,
            f"exit=({code_a},{code_b}), identical={identical}, bytes={sizes}, {elapsed:.1f}s")
    assert code_a == 0 and code_b == 0
    assert identical
    assert elapsed < 60.0


def test_acceptance_7_micro_oracle(capsys):
    started = time.perf_counter()
    output = run(validate_scenario(micro_doc()), record_events=True)
    got = [(e.tick, e.agent_id, e.kind, e.detail) for e in output.events]
    matches = got == MICRO_EVENTS
    elapsed = time.perf_counter() - started

    ok = matches and elapsed < 1.0
    _report(capsys, 7, "micro oracle event log", ok,
            f"{len(got)}/{len(MICRO_EVENTS)} events match={matches}, {elapsed:.2f}s")
    assert matches
    assert elapsed < 1.0
