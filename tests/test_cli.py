import json
import os
import subprocess
import sys

import pytest

from metersim import cli
from metersim.cli import main
from metersim.metrics import LoadCurve, read_load_curve, write_load_curve

from conftest import child_env, tiny_doc


@pytest.fixture
def tiny_config(tmp_path):
    def write(name="scenario.json", **kwargs):
        path = tmp_path / name
        path.write_text(json.dumps(tiny_doc(**kwargs)), encoding="utf-8")
        return str(path)
    return write


def test_validate_ok(tiny_config, capsys):
    assert main(["validate", "--config", tiny_config()]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_every_violation(tiny_config, tmp_path, capsys):
    doc = tiny_doc()
    doc["scenario"]["archetype_mix"] = {"resident": 0.7}
    doc["scenario"]["network_mean_degree_K"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "MixNotNormalized" in err
    assert "BadDegree" in err


def test_validate_rejects_broken_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    assert "BadValue" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_writes_outputs_and_manifest(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", tiny_config(), "--out", str(out)]) == 0

    curve_lines = (out / "loadcurve.csv").read_text().splitlines()
    assert curve_lines[0] == "bucket_start_min,mean_watts"
    assert len(curve_lines) == 49

    adoption_lines = (out / "adoption.csv").read_text().splitlines()
    assert adoption_lines[0] == "day,uninfluenced,inexperienced,experienced"
    assert len(adoption_lines) == 3  # header + one row per day
    assert adoption_lines[1].startswith("0,")

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "scenario_path", "seed", "out_dir", "files",
        "engine_version", "duration_seconds",
    }
    assert manifest["seed"] == 11
    assert manifest["files"] == ["loadcurve.csv", "adoption.csv"]
    for name in manifest["files"]:
        assert (out / name).stat().st_size > 0
    assert read_load_curve(str(out / "loadcurve.csv")).bucket_minutes == 30

    stdout = capsys.readouterr().out
    assert "seed=11\n" in stdout
    assert "files=loadcurve.csv,adoption.csv\n" in stdout
    assert "peak_start=" in stdout and "peak_watts=" in stdout
    assert "final_adoption=uninfluenced:" in stdout


def test_run_events_flag_adds_event_log(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 0
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "tick,agent_id,kind,detail"
    assert len(lines) > 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["loadcurve.csv", "adoption.csv", "events.csv"]


def test_run_is_byte_deterministic(tiny_config, tmp_path):
    config = tiny_config()
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", "--config", config, "--out", str(a), "--events"]) == 0
    assert main(["run", "--config", config, "--out", str(b), "--events"]) == 0
    for name in ("loadcurve.csv", "adoption.csv", "events.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seed_override(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", tiny_config(), "--seed", "99", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 99
    assert "seed=99\n" in capsys.readouterr().out


def test_run_rejects_bad_seed_override(tiny_config, tmp_path, capsys):
    code = main(["run", "--config", tiny_config(), "--seed", "-1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "BadValue" in capsys.readouterr().err


def test_run_experienced_fraction_override(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", tiny_config(), "--out", str(out),
                 "--experienced-fraction", "1.0"])
    assert code == 0
    assert "experienced:6" in capsys.readouterr().out

    code = main(["run", "--config", tiny_config(), "--out", str(out),
                 "--experienced-fraction", "1.5"])
    assert code == 2


def test_run_overrides_obey_cross_field_rules(tiny_config, tmp_path, capsys):
    # validates as written; pre-seeding makes the unreachable threshold an error
    config = tiny_config(name="unreachable.json", M=0.8, p_threshold=0.85, exp_frac=0.0)
    assert main(["validate", "--config", config]) == 0
    code = main(["run", "--config", config, "--out", str(tmp_path / "o"),
                 "--experienced-fraction", "0.5"])
    assert code == 2
    assert "BadValue" in capsys.readouterr().err


def test_run_fractional_wattages_give_a_non_negative_curve(tmp_path):
    # a running sum of switch deltas drifted to -1.9e-14 W on this scenario
    # at seed 4; the exact per tick sum cannot go below zero
    doc = tiny_doc(population=50, horizon=2, tick=10, seed=4)
    for appliance, watts in zip(doc["appliances"], (0.1, 0.7)):
        appliance["power_watts"] = watts
        appliance["mean_on_minutes"] = 10
        appliance["usage_profile"] = [0.5] * 24 + [0.0] * 24
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    curve = read_load_curve(str(out / "loadcurve.csv"))
    assert len(curve.values) == 48
    assert all(v >= 0.0 for v in curve.values)


def test_run_reports_a_bad_curve_instead_of_a_traceback(tiny_config, tmp_path, capsys, monkeypatch):
    def refuse(output, bucket_minutes):
        raise ValueError("curve values must be finite and non-negative")

    monkeypatch.setattr(cli, "aggregate_load", refuse)
    out = tmp_path / "o"
    assert main(["run", "--config", tiny_config(), "--out", str(out)]) == 2
    assert "BadCurve: curve values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_tick_that_does_not_fit_output_buckets(tiny_config, tmp_path, capsys):
    config = tiny_config(name="tick20.json", tick=20)
    assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "BadBucket" in capsys.readouterr().err


def run_tiny_and_get_curve(tiny_config, tmp_path):
    out = tmp_path / "base"
    assert main(["run", "--config", tiny_config(), "--out", str(out)]) == 0
    return out / "loadcurve.csv"


def test_compare_identical_curves(tiny_config, tmp_path, capsys):
    curve_path = run_tiny_and_get_curve(tiny_config, tmp_path)
    capsys.readouterr()
    assert main(["compare", str(curve_path), str(curve_path)]) == 0
    stdout = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in stdout.splitlines())
    assert lines["correlation"] == "1.000000"
    assert lines["peak_reduction"] == "0.000000"
    assert lines["base_peak_start_min"] == lines["treated_peak_start_min"]
    assert lines["base_peak_watts"] == lines["treated_peak_watts"]


def test_compare_uniformly_scaled_curve(tiny_config, tmp_path, capsys):
    curve_path = run_tiny_and_get_curve(tiny_config, tmp_path)
    base = read_load_curve(str(curve_path))
    treated = LoadCurve(base.bucket_minutes, tuple(0.8 * v for v in base.values))
    treated_path = tmp_path / "treated.csv"
    write_load_curve(treated, str(treated_path))
    capsys.readouterr()
    assert main(["compare", str(curve_path), str(treated_path)]) == 0
    stdout = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in stdout.splitlines())
    assert lines["correlation"] == "1.000000"
    assert float(lines["peak_reduction"]) == pytest.approx(0.2, abs=2e-4)


def test_compare_window_argument(tiny_config, tmp_path, capsys):
    curve_path = run_tiny_and_get_curve(tiny_config, tmp_path)
    assert main(["compare", str(curve_path), str(curve_path),
                 "--window", "00:00-06:00"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["compare", str(curve_path), str(curve_path), "--window", "20:00-17:00"])
    assert exc.value.code == 2


def test_compare_rejects_mismatched_and_malformed_curves(tiny_config, tmp_path, capsys):
    curve_path = run_tiny_and_get_curve(tiny_config, tmp_path)
    coarse = LoadCurve(60, tuple(float(i) for i in range(24)))
    coarse_path = tmp_path / "coarse.csv"
    write_load_curve(coarse, str(coarse_path))
    assert main(["compare", str(curve_path), str(coarse_path)]) == 2
    assert "LengthMismatch" in capsys.readouterr().err

    garbage = tmp_path / "garbage.csv"
    garbage.write_text("hello\nworld\n", encoding="utf-8")
    assert main(["compare", str(curve_path), str(garbage)]) == 2
    assert "BadCurve" in capsys.readouterr().err

    assert main(["compare", str(curve_path), str(tmp_path / "missing.csv")]) == 1


def test_network_stats(tiny_config, capsys):
    assert main(["network-stats", "--config", tiny_config()]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0] == "nodes,edges,mean_degree,clustering_coefficient,mean_path_length"
    nodes, edges, mean_degree, clustering, path_length = out_lines[1].split(",")
    assert nodes == "6" and edges == "6"
    assert float(mean_degree) == pytest.approx(2.0)
    assert 0.0 <= float(clustering) <= 1.0
    assert float(path_length) > 0.0


def test_network_stats_rejects_bad_degree(tiny_config, capsys):
    assert main(["network-stats", "--config", tiny_config(name="odd.json", degree=3)]) == 2
    assert "BadDegree" in capsys.readouterr().err


def test_network_stats_sample_config(sample_path, capsys):
    assert main(["network-stats", "--config", sample_path]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == "1000" and row[1] == "2000"
    assert float(row[2]) == pytest.approx(4.0)
    assert float(row[3]) > 0.3          # beta=0.1 keeps most triangles
    assert 1.0 < float(row[4]) < 20.0   # and paths stay short


def test_network_stats_pure_ring_clustering(tiny_config, capsys):
    config = tiny_config(name="ring.json", population=20, degree=4, beta=0.0)
    assert main(["network-stats", "--config", config]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(0.5, abs=1e-9)


def test_run_sample_scenario_long_horizon_reaches_experience(sample_path, tmp_path):
    """Thirty days with the intervention on day 0 is enough for the stock
    archetypes to cross the threshold (19 daily trials at k=0.1), so the
    final adoption row must show experienced households."""
    doc = json.loads(open(sample_path, encoding="utf-8").read())
    doc["scenario"]["horizon_days"] = 30
    config_path = tmp_path / "long.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    rows = (out / "adoption.csv").read_text().splitlines()[1:]
    assert len(rows) == 30
    uninfluenced = [int(r.split(",")[1]) for r in rows]
    experienced = [int(r.split(",")[3]) for r in rows]
    assert experienced[-1] > 0
    assert all(b >= a for a, b in zip(experienced, experienced[1:]))
    assert all(b <= a for a, b in zip(uninfluenced, uninfluenced[1:]))


def test_module_entry_point(tiny_config):
    result = subprocess.run(
        [sys.executable, "-m", "metersim", "validate", "--config", tiny_config()],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "ok\n"


SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


@pytest.mark.parametrize("script, args, message", [
    ("experienced_fraction_sweep.py", ["--fractions", "0.0,1.5"],
     "BadValue: scenario: initial_experienced_fraction must be a finite number in [0, 1], got 1.5"),
    ("daily_load_curve.py", ["--seed", "-1"],
     "BadValue: scenario: seed must be an integer"),
])
def test_scripts_exit_2_on_a_bad_scenario(tiny_config, tmp_path, script, args, message):
    out = tmp_path / "o"
    result = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script),
         "--config", tiny_config(), "--out", str(out), *args],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 2
    assert result.stderr.startswith(message)
    assert "Traceback" not in result.stderr
    assert not out.exists()
