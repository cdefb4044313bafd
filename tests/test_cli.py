import csv
import io
import json
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metersim import cli
from metersim.behavior import (
    BECAME_EXPERIENCED, INFLUENCED, INTERACTED, LEFT_HOME, RETURNED_HOME, SWITCHED_OFF,
    SWITCHED_ON, AgentEvent,
)
from metersim.cli import main
from metersim.domain import DEFAULT_PEAK_WINDOW, load_scenario, validate_scenario
from metersim.engine import run
from metersim.metrics import (
    BadCurve, LoadCurve, aggregate_load, peak_reduction, read_load_curve, window_mean, write_load_curve,
)

from conftest import SAMPLE_PATH, child_env, tiny_doc
from test_engine import micro_doc


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


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf-8", "nested-too-deep"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unparsable_scenario_files_are_refused_not_a_traceback(tmp_path, capsys, content, command):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = tmp_path / "o"
    args = ["--out", str(out), "--events"] if command == "run" else []
    assert main([command, "--config", str(path), *args]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("BadValue: not valid JSON: ")
    assert captured.out == ""
    assert not out.exists()


def _empty_peak_window():
    doc = tiny_doc()
    doc["scenario"]["peak_window"] = ["18:00", "18:00"]
    return doc


def _deferrable_not_a_bool():
    doc = tiny_doc()
    doc["appliances"][0]["deferrable"] = "yes"
    return doc


def _window_bound_not_clock_text():
    doc = tiny_doc()
    doc["archetypes"][0]["leave_window"] = [830, "09:30"]
    return doc


@pytest.mark.parametrize("content, line", [
    (list, "BadValue: document root must be an object"),
    (_empty_peak_window, "BadWindow: scenario: peak_window must be non-empty"),
    (_deferrable_not_a_bool, "BadValue: appliances[0]: deferrable must be a boolean"),
    (_window_bound_not_clock_text,
     "BadWindow: archetypes[0]: 'leave_window': expected HH:MM string, got 830"),
], ids=["root-list", "empty-peak-window", "deferrable-yes", "window-bound-830"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_refused_scenario_is_one_line_on_stderr(tmp_path, capsys, content, line, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content()), encoding="utf-8")
    out = tmp_path / "o"
    args = ["--out", str(out), "--events"] if command == "run" else []
    assert main([command, "--config", str(path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("population", [2**31, 10**10])
def test_a_population_beyond_int32_node_ids_is_refused(tmp_path, capsys, population):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(tiny_doc(population=population)), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("BadValue: ") and "population" in lines[0]
    assert captured.out == ""


def test_the_largest_population_passes_validate(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(tiny_doc(population=2**31 - 1)), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"


def refuse_to_allocate(*args, **kwargs):
    raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")


def test_run_too_large_for_memory_exits_1_and_leaves_nothing(
        tiny_config, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "Simulation", refuse_to_allocate)
    out = tmp_path / "o" / "run"
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("cannot allocate the run: Unable to allocate 74.5 GiB "
                            "for an array with shape (10000000000,)\n")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()

    # a directory that was there before stays, without the streamed log
    out.mkdir(parents=True)
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]


def test_sweep_too_large_for_memory_exits_1_and_leaves_nothing(
        tiny_config, tmp_path, capsys, monkeypatch):
    def out_of_memory(scenario):
        raise MemoryError

    monkeypatch.setattr(cli, "run", out_of_memory)
    out = tmp_path / "o" / "sweep.csv"
    assert main(["sweep", "--config", tiny_config(), "--fractions", "0.0,0.5",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "cannot allocate the run: out of memory\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_network_stats_too_large_for_memory_exits_1(tiny_config, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_small_world", refuse_to_allocate)
    assert main(["network-stats", "--config", tiny_config()]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("cannot allocate the run: Unable to allocate 74.5 GiB "
                            "for an array with shape (10000000000,)\n")
    assert captured.out == ""


def test_run_that_cannot_write_its_outputs_exits_1_and_leaves_nothing(
        tiny_config, tmp_path, capsys, monkeypatch):
    def disk_full(curve, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_load_curve", disk_full)
    out = tmp_path / "o" / "deep" / "run"
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "cannot write outputs: [Errno 28] No space left on device\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_run_that_fails_after_writing_leaves_no_output(tiny_config, tmp_path, capsys, monkeypatch):
    """A failure once loadcurve.csv, adoption.csv and events.csv are written
    removes them, the manifest it was writing, and the directories."""
    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", disk_full)
    out = tmp_path / "o" / "deep"
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 1
    assert capsys.readouterr().err == "cannot write outputs: [Errno 28] No space left on device\n"
    assert not out.exists()
    assert not (tmp_path / "o").exists()


def test_a_failed_run_leaves_files_it_did_not_open(tiny_config, tmp_path, monkeypatch):
    """Only what the run opened goes: an earlier file in --out that the
    run had not reached stays."""
    def disk_full(curve, path):
        raise OSError(28, "No space left on device")

    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("earlier\n")
    monkeypatch.setattr(cli, "write_load_curve", disk_full)
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert (out / "manifest.json").read_text() == "earlier\n"


def test_a_sweep_that_cannot_write_its_rows_leaves_nothing(
        tiny_config, tmp_path, capsys, monkeypatch):
    """A write that fails after the header removes the CSV and the
    directories the sweep made for it."""
    writer = csv.writer

    class FullDisk:
        def __init__(self, fh, **kwargs):
            self.rows = writer(fh, **kwargs)
            self.written = 0

        def writerow(self, row):
            if self.written:
                raise OSError(28, "No space left on device")
            self.written += 1
            return self.rows.writerow(row)

    monkeypatch.setattr(cli.csv, "writer", FullDisk)
    out = tmp_path / "new" / "deep" / "out.csv"
    assert main(["sweep", "--config", tiny_config(), "--fractions", "0.0,0.5",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "cannot write outputs: [Errno 28] No space left on device\n"
    assert captured.out == ""
    assert not out.exists()
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_engine_value_error_is_a_traceback_not_a_refusal(
        tiny_config, tmp_path, capsys, monkeypatch, command):
    """Only the validator's and the metrics' refusals exit 2: a ValueError
    from the engine is a bug, and run still removes what it wrote."""
    def broken(*args, **kwargs):
        raise ValueError("engine bug")

    monkeypatch.setattr(cli, "Simulation" if command == "run" else "run", broken)
    out = tmp_path / "o" / "out"
    args = ["--events"] if command == "run" else ["--fractions", "0.0,0.5"]
    with pytest.raises(ValueError, match="engine bug"):
        main([command, "--config", tiny_config(), "--out", str(out), *args])
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "o").exists()


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
    keys = {
        "scenario_path", "seed", "out_dir", "files",
        "engine_version", "setup_seconds", "tick_seconds", "duration_seconds",
        "agent_ticks_per_s",
    }
    if cli.resource is not None:
        keys.add("peak_rss_mb")
        assert manifest["peak_rss_mb"] > 0
    assert set(manifest) == keys
    assert isinstance(manifest["agent_ticks_per_s"], int) and manifest["agent_ticks_per_s"] > 0
    assert manifest["setup_seconds"] >= 0 and manifest["tick_seconds"] >= 0
    # three fields rounded to the millisecond on their own
    timed = manifest["setup_seconds"] + manifest["tick_seconds"]
    assert timed <= manifest["duration_seconds"] + 0.002
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


def test_manifest_leaves_peak_rss_out_where_the_platform_has_no_resource(
        tiny_config, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "resource", None)
    out = tmp_path / "out"
    assert main(["run", "--config", tiny_config(), "--out", str(out)]) == 0
    assert "peak_rss_mb" not in json.loads((out / "manifest.json").read_text())


def test_manifest_leaves_agent_ticks_per_s_out_when_the_loop_took_no_time(
        tiny_config, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "time", type("Frozen", (), {"monotonic": staticmethod(lambda: 5.0)}))
    out = tmp_path / "out"
    assert main(["run", "--config", tiny_config(), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tick_seconds"] == 0
    assert "agent_ticks_per_s" not in manifest


def test_run_frees_the_simulation_before_writing(tiny_config, tmp_path, monkeypatch):
    """Only the output outlives the tick loop: the agents, network and event
    list are freed before the files are written, so they do not add to the
    peak memory of the writing."""
    sims = []
    run_all = cli.Simulation.run_all

    def kept(sim):
        sims.append(weakref.ref(sim))
        return run_all(sim)

    alive_at_write = []

    def write(curve, path):
        alive_at_write.append(sims[0]() is not None)
        write_load_curve(curve, path)

    monkeypatch.setattr(cli.Simulation, "run_all", kept)
    monkeypatch.setattr(cli, "write_load_curve", write)
    assert main(["run", "--config", tiny_config(), "--out", str(tmp_path / "out"), "--events"]) == 0
    assert alive_at_write == [False]


def test_run_events_flag_adds_event_log(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 0
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "tick,agent_id,kind,detail"
    assert len(lines) > 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["loadcurve.csv", "adoption.csv", "events.csv"]
    assert manifest["events_rows"] == len(lines) - 1

    # without --events there is no row count, not a count of 0
    out = tmp_path / "quiet"
    assert main(["run", "--config", tiny_config(), "--out", str(out)]) == 0
    assert "events_rows" not in json.loads((out / "manifest.json").read_text())


# the characters an id may hold: any but the four the validator refuses
allowed_ids = st.text(st.characters(blacklist_characters=',"\r\n'), min_size=1)


@st.composite
def events_of_every_kind(draw):
    tick, agent_id = draw(st.integers(0, 10**9)), draw(st.integers(0, 10**9))
    kind = draw(st.sampled_from([LEFT_HOME, RETURNED_HOME, INFLUENCED, BECAME_EXPERIENCED,
                                 SWITCHED_ON, SWITCHED_OFF, INTERACTED]))
    if kind in (SWITCHED_ON, SWITCHED_OFF):
        detail = f"{draw(allowed_ids)}#{draw(st.integers(0, 99))}"
    elif kind == INTERACTED:
        detail = str(draw(st.integers(0, 10**9)))
    else:
        detail = ""
    return AgentEvent(tick, agent_id, kind, detail)


@settings(max_examples=300, deadline=None)
@given(st.lists(events_of_every_kind(), max_size=5))
def test_event_rows_are_the_rows_csv_writer_writes(events):
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(events)
    assert cli.event_rows(events) == expected.getvalue()


def rename_appliance(doc, old, new):
    """doc with appliance id old renamed new, in the catalog and the bundle."""
    for appliance in doc["appliances"]:
        if appliance["id"] == old:
            appliance["id"] = new
    bundle = doc["archetypes"][0]["appliances"]
    doc["archetypes"][0]["appliances"] = {new if a == old else a: n for a, n in bundle.items()}
    return doc


def test_run_with_an_odd_but_allowed_id_writes_events_csv_reads_back(tmp_path):
    odd = " h\u00e9at;er \u2603 "
    doc = rename_appliance(tiny_doc(), "heater", odd)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--events"]) == 0

    with open(out / "events.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    events = run(validate_scenario(doc), record_events=True).events
    assert rows[0] == ["tick", "agent_id", "kind", "detail"]
    assert rows[1:] == [[str(e.tick), str(e.agent_id), e.kind, e.detail] for e in events]
    assert any(row[3].startswith(odd + "#") for row in rows[1:])


@pytest.mark.parametrize("section", ["appliances", "archetypes"])
@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_an_id_with_a_csv_special_character_is_refused(tmp_path, capsys, section, char):
    doc = tiny_doc()
    if section == "appliances":
        rename_appliance(doc, "heater", f"he{char}ater")
    else:
        doc["archetypes"][0]["id"] = f"resi{char}dent"
        doc["scenario"]["archetype_mix"] = {f"resi{char}dent": 1.0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    # one line for the id, and no reference to it is reported unknown
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"BadValue: {section}[")

    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--events"]) == 2
    assert capsys.readouterr().err.splitlines() == lines
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    tiny_doc(),
    # chats, and agents experienced from the start
    tiny_doc(population=16, degree=4, beta=0.3, rate=1.0, exp_frac=0.5, seed=8),
    micro_doc(),
], ids=["tiny", "tiny-chatty", "micro"])
def test_run_streams_the_event_log_that_run_records(doc, tmp_path):
    """events.csv, written a tick at a time, holds the events of an
    in-memory run of the same scenario, row for row."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--events"]) == 0

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("tick", "agent_id", "kind", "detail"))
    writer.writerows(run(validate_scenario(doc), record_events=True).events)
    assert (out / "events.csv").read_text(encoding="utf-8") == expected.getvalue()


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
    def refuse(output):
        raise BadCurve("curve values must be finite and non-negative")

    monkeypatch.setattr(cli, "aggregate_load", refuse)
    out = tmp_path / "o"
    assert main(["run", "--config", tiny_config(), "--out", str(out)]) == 2
    assert "BadCurve: curve values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_run_with_events_reports_a_bad_curve_and_leaves_no_outputs(
        tiny_config, tmp_path, capsys, monkeypatch):
    def refuse(output):
        raise BadCurve("curve values must be finite and non-negative")

    monkeypatch.setattr(cli, "aggregate_load", refuse)
    out = tmp_path / "o" / "run"
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 2
    assert "BadCurve: curve values must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    # a directory that was there before stays, without the streamed log
    out.mkdir(parents=True)
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    assert main(["run", "--config", tiny_config(), "--out", str(out), "--events"]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]


@pytest.mark.parametrize("blocker, flags", [
    ("out is a file", []),
    ("out is a file", ["--events"]),
    ("events.csv is a directory", ["--events"]),
])
def test_run_exits_1_before_the_tick_loop_when_out_cannot_be_written(
        tiny_config, tmp_path, capsys, monkeypatch, blocker, flags):
    out = tmp_path / "o"
    if blocker == "out is a file":
        out.write_text("", encoding="utf-8")
    else:
        (out / "events.csv").mkdir(parents=True)

    def loop(sim):
        raise AssertionError("the tick loop ran")

    monkeypatch.setattr(cli.Simulation, "run_all", loop)
    assert main(["run", "--config", tiny_config(), "--out", str(out), *flags]) == 1
    assert "cannot write outputs" in capsys.readouterr().err


def test_run_rejects_tick_that_does_not_fit_output_buckets(tiny_config, tmp_path, capsys):
    config = tiny_config(name="tick20.json", tick=20)
    assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "BadBucket" in capsys.readouterr().err


@pytest.mark.parametrize("tick", [20, 45, 60])
def test_validate_rejects_tick_that_does_not_fit_output_buckets(tiny_config, tick, capsys):
    """A tick that divides the day but not the 30 minute output bucket is
    refused by validate itself, with the code run reports for it."""
    config = tiny_config(name=f"tick{tick}.json", tick=tick)
    assert main(["validate", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("BadBucket: ") and err.count("\n") == 1


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
    treated = LoadCurve(tuple(0.8 * v for v in base.values))
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
    capsys.readouterr()
    for window in ("20:00-17:00", "1700"):
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(curve_path), str(curve_path), "--window", window])
        assert exc.value.code == 2
        # a usage error: the usage, then one line naming the bad option
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: ")
        assert err[-1].startswith("metersim compare: error: argument --window: ")
        assert repr(window) in err[-1]


def test_compare_rejects_mismatched_and_malformed_curves(tiny_config, tmp_path, capsys):
    curve_path = run_tiny_and_get_curve(tiny_config, tmp_path)
    coarse = LoadCurve(tuple(float(i) for i in range(24)))
    coarse_path = tmp_path / "coarse.csv"
    write_load_curve(coarse, str(coarse_path))
    assert main(["compare", str(curve_path), str(coarse_path)]) == 2
    assert "LengthMismatch" in capsys.readouterr().err

    garbage = tmp_path / "garbage.csv"
    garbage.write_text("hello\nworld\n", encoding="utf-8")
    assert main(["compare", str(curve_path), str(garbage)]) == 2
    assert "BadCurve" in capsys.readouterr().err

    assert main(["compare", str(curve_path), str(tmp_path / "missing.csv")]) == 1


def test_compare_reports_a_line_past_the_csv_field_limit_as_a_bad_curve(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["compare", str(deep), str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"BadCurve: {deep}:1: field larger than field limit (131072)\n"
    assert captured.out == ""


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
    (b"bucket_start_min,mean_watts\n0,1e999\n", "curve values must be finite and non-negative"),
], ids=["not-utf-8", "infinite"])
def test_compare_names_the_bad_curve_file(tiny_config, tmp_path, capsys, content, message):
    curve_path = run_tiny_and_get_curve(tiny_config, tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    capsys.readouterr()
    assert main(["compare", str(curve_path), str(bad)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"BadCurve: {bad}")
    assert message in lines[0]
    assert captured.out == ""


def test_compare_reports_a_window_that_covers_no_bucket(tiny_config, tmp_path, capsys):
    curve_path = run_tiny_and_get_curve(tiny_config, tmp_path)
    capsys.readouterr()
    assert main(["compare", str(curve_path), str(curve_path), "--window", "00:10-00:20"]) == 2
    assert capsys.readouterr().err == "BadCurve: window 00:10-00:20 covers no bucket\n"


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
    line = capsys.readouterr().out.splitlines()[1]
    # the sample's graph, byte for byte as the scalar rewiring loop built it
    assert line == "1000,2000,4.000000,0.371433,8.732000"
    row = line.split(",")
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


@pytest.mark.parametrize("args, message", [
    (["--fractions", "0.0,1.5"],
     "BadValue: scenario: initial_experienced_fraction must be a finite number in [0, 1], got 1.5"),
    (["--fractions", "0.0,0.5", "--seed", "-1"],
     "BadValue: scenario: seed must be an integer"),
], ids=["fraction-1.5", "seed--1"])
def test_sweep_exits_2_on_a_bad_scenario(tiny_config, tmp_path, capsys, monkeypatch, args, message):
    def refuse(scenario):
        raise AssertionError("a fraction ran before every fraction was validated")

    monkeypatch.setattr(cli, "run", refuse)
    out = tmp_path / "o" / "sweep.csv"
    assert main(["sweep", "--config", tiny_config(), "--out", str(out), *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_a_fraction_that_is_not_a_number(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--config", tiny_config(), "--fractions", "0.0,abc", "--out", str(out)])
    assert excinfo.value.code == 2
    assert "argument --fractions: expected comma separated numbers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_reports_a_zero_base_instead_of_a_traceback(tmp_path, capsys):
    doc = tiny_doc()
    for appliance in doc["appliances"]:
        appliance["usage_profile"] = [0.0] * 48
    config = tmp_path / "dark.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--fractions", "0.0,0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "ZeroBaseError: base demand in the window is zero\n"
    assert not out.exists()


def test_sweep_rows_match_runs_at_each_fraction(tiny_config, tmp_path, capsys):
    config = tiny_config(rate=0.5, horizon=3)
    fractions = [0.0, 0.5, 1.0]
    out = tmp_path / "sweep" / "rows.csv"
    assert main(["sweep", "--config", config, "--fractions", "0.0,0.5,1.0", "--seed", "7",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "window 17:00-20:00, seed 7"
    assert len(lines) == 2 + len(fractions)

    curves = [
        aggregate_load(run(load_scenario(config, {"seed": 7, "initial_experienced_fraction": f})))
        for f in fractions
    ]
    window = DEFAULT_PEAK_WINDOW
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["experienced_fraction", "peak_window_mean_watts", "peak_reduction"]
    assert rows[1:] == [
        [f"{f:.2f}", f"{window_mean(c, window):.3f}", f"{peak_reduction(curves[0], c, window):.6f}"]
        for f, c in zip(fractions, curves)
    ]
    assert rows[1][2] == "0.000000" and float(rows[3][2]) != 0.0


@pytest.mark.parametrize("fractions, labels", [
    ("0.121,0.124", ["0.121", "0.124"]),
    ("0.0,0.125,0.9", ["0.00", "0.125", "0.90"]),
], ids=["apart-at-two-decimals", "two-decimals-where-exact"])
def test_sweep_rows_name_their_fraction_exactly(tiny_config, tmp_path, capsys, fractions, labels):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", tiny_config(), "--fractions", fractions,
                 "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == labels
    table = capsys.readouterr().out.splitlines()[2:]
    assert [line.split()[0] for line in table] == labels


def test_sweep_refuses_a_window_that_covers_no_bucket_before_any_run(tmp_path, capsys, monkeypatch):
    def refuse(scenario):
        raise AssertionError("a fraction ran before the window was checked")

    monkeypatch.setattr(cli, "run", refuse)
    doc = tiny_doc()
    doc["scenario"]["peak_window"] = ["17:05", "17:20"]
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--config", str(config)]) == 0
    capsys.readouterr()
    out = tmp_path / "o" / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--fractions", "0.0,0.5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "BadCurve: window 17:05-17:20 covers no bucket\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def _write_sample_variant(tmp_path, name, edit):
    with open(SAMPLE_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _huge_appliances(doc):
    # a tick's load summed to more than a float holds
    doc["scenario"].update(population=3, network_mean_degree_K=2, horizon_days=1)
    for appliance in doc["appliances"]:
        appliance.update(power_watts=5e307, usage_profile=[1.0] * 48, mean_on_minutes=None)


def _tiny_learning_rate(doc):
    # the trial count that reaches p_threshold overflows a float
    doc["scenario"].update(population=20, horizon_days=1, initial_experienced_fraction=0.5)
    for archetype in doc["archetypes"]:
        archetype["learning_rate_k"] = 1e-320


@pytest.mark.parametrize("edit, field", [
    (_huge_appliances, "power_watts"),
    (_tiny_learning_rate, "learning_rate_k"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_overflowing_scenarios_are_refused_not_run(tmp_path, capsys, edit, field, command):
    config = _write_sample_variant(tmp_path, "overflow.json", edit)
    out = tmp_path / "o"
    args = ["--out", str(out), "--events"] if command == "run" else []
    assert main([command, "--config", config, *args]) == 2
    lines = capsys.readouterr().err.splitlines()
    bad = [line for line in lines if line.startswith("BadValue: ")]
    assert bad and all(field in line for line in bad)
    assert all(line.split(": ", 1)[0].isalpha() for line in lines)
    assert not out.exists()


def _threshold_at_the_asymptote(doc):
    # P(t) rounds up to M = p_threshold by t = 37 at k = 1, yet the curve
    # never reaches its asymptote, and validation says so
    doc["scenario"].update(population=100, horizon_days=45, seed=3, p_threshold=0.9)
    for archetype in doc["archetypes"]:
        archetype.update(max_attainable_M=0.9, learning_rate_k=1.0)


def _seeded_at_the_asymptote(doc):
    _threshold_at_the_asymptote(doc)
    doc["scenario"]["initial_experienced_fraction"] = 0.1


def test_a_threshold_at_the_asymptote_is_crossed_neither_in_a_run_nor_in_validation(
        tmp_path, capsys):
    config = _write_sample_variant(tmp_path, "asymptote.json", _threshold_at_the_asymptote)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO((out / "adoption.csv").read_text(encoding="utf-8"))))
    assert len(rows) == 1 + 45
    assert [row[3] for row in rows[1:]] == ["0"] * 45
    assert rows[-1][1:] == ["0", "100", "0"]
    capsys.readouterr()

    seeded = _write_sample_variant(tmp_path, "seeded.json", _seeded_at_the_asymptote)
    assert main(["validate", "--config", seeded]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all("can never reach p_threshold" in line for line in lines)
