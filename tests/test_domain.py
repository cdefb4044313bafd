import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metersim.cli import main
from metersim.domain import (
    APPLIANCE_COUNT,
    APPLIANCE_FIELDS,
    ARCHETYPE_FIELDS,
    BAD_DEGREE,
    BAD_PROFILE_LENGTH,
    BAD_VALUE,
    BAD_WINDOW,
    MIX_FRACTION,
    MIX_NOT_NORMALIZED,
    PROPENSITY,
    SCENARIO_FIELDS,
    UNKNOWN_APPLIANCE,
    UNKNOWN_ARCHETYPE,
    Scenario,
    ScenarioValidationError,
    TimeOfDay,
    load_scenario,
    validate_scenario,
)
from metersim.metrics import read_load_curve

from conftest import tiny_doc


def codes_of(excinfo):
    return {issue.code for issue in excinfo.value.issues}


def test_time_of_day_parse_and_format():
    t = TimeOfDay.parse("08:45")
    assert t.minutes == 525
    assert str(t) == "08:45"
    assert TimeOfDay.parse("00:00").minutes == 0
    assert TimeOfDay.parse("23:59").minutes == 1439


@pytest.mark.parametrize("bad", ["24:00", "8:5x", "0800", "12:60", "", "later", "-1:00"])
def test_time_of_day_rejects_bad_text(bad):
    with pytest.raises(ValueError):
        TimeOfDay.parse(bad)


def test_time_of_day_range_checked():
    with pytest.raises(ValueError):
        TimeOfDay(1440)
    with pytest.raises(ValueError):
        TimeOfDay(-1)
    for not_an_int in ("x", 30.0, True):
        with pytest.raises(ValueError, match="minutes must be an int"):
            TimeOfDay(not_an_int)


def test_sample_config_round_trip(sample_path):
    scenario = load_scenario(sample_path)
    assert isinstance(scenario, Scenario)
    assert scenario.config.population == 1000
    assert scenario.config.ticks_per_day == 144
    ids = {a.id for a in scenario.appliances}
    for arch in scenario.archetypes:
        assert all(app_id in ids for app_id, _n in arch.appliances)


def test_valid_tiny_doc_passes():
    scenario = validate_scenario(tiny_doc())
    assert scenario.config.population == 6
    assert scenario.archetypes[0].awareness == 1.0
    assert [a.deferrable for a in scenario.appliances] == [False, True]


def test_mix_not_normalized():
    doc = tiny_doc()
    doc["scenario"]["archetype_mix"] = {"resident": 0.7}
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    assert MIX_NOT_NORMALIZED in codes_of(excinfo)


def test_unknown_archetype_in_mix():
    doc = tiny_doc()
    doc["scenario"]["archetype_mix"] = {"resident": 0.5, "ghost": 0.5}
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    assert UNKNOWN_ARCHETYPE in codes_of(excinfo)


def test_unknown_appliance_in_bundle():
    doc = tiny_doc()
    doc["archetypes"][0]["appliances"]["flux_capacitor"] = 1
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    assert UNKNOWN_APPLIANCE in codes_of(excinfo)


def test_refused_entries_still_define_their_ids(sample_path, tmp_path, capsys):
    # every appliance is refused for its power, yet each id exists: only
    # the BadValue lines, no UnknownAppliance for the archetypes' bundles
    with open(sample_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for appliance in doc["appliances"]:
        appliance["power_watts"] = 5e307
    path = tmp_path / "huge_power.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 7
    assert all(line.startswith(f"{BAD_VALUE}: appliances[") for line in lines)


def test_unknown_ids_reported_beside_refused_entries():
    doc = tiny_doc()
    doc["appliances"][0]["power_watts"] = -1
    doc["archetypes"][0]["awareness"] = 7
    doc["archetypes"][0]["appliances"]["flux_capacitor"] = 1
    doc["scenario"]["archetype_mix"] = {"resident": 0.5, "ghost": 0.5}
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    messages = [issue.message for issue in excinfo.value.issues]
    assert [m for m in messages if "unknown" in m] == [
        "archetype_mix references unknown archetype 'ghost'",
    ]
    doc["archetypes"][0]["awareness"] = 1.0
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    messages = [issue.message for issue in excinfo.value.issues]
    assert [m for m in messages if "unknown" in m] == [
        "archetype 'resident' references unknown appliance 'flux_capacitor'",
        "archetype_mix references unknown archetype 'ghost'",
    ]


def test_duplicate_id_of_a_refused_entry():
    doc = tiny_doc()
    doc["appliances"][1]["id"] = "heater"
    doc["appliances"][1]["power_watts"] = -1
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    messages = [issue.message for issue in excinfo.value.issues]
    assert "duplicate appliance id 'heater'" in messages


def test_an_archetype_may_share_an_appliance_id():
    # bundles name only appliance ids and the mix only archetype ids, so
    # the two catalogs' ids cannot be confused
    doc = tiny_doc(mix={"heater": 1.0})
    doc["archetypes"][0]["id"] = "heater"
    scenario = validate_scenario(doc)
    assert [a.id for a in scenario.archetypes] == ["heater"]
    assert [a.id for a in scenario.appliances] == ["heater", "shifter"]


@pytest.mark.parametrize("section", ["appliances", "archetypes"])
def test_a_duplicate_id_within_one_section_is_refused(section):
    doc = tiny_doc()
    doc[section].append(dict(doc[section][0]))
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    issues = [(issue.code, issue.message) for issue in excinfo.value.issues]
    entry_id = doc[section][0]["id"]
    assert issues == [(BAD_VALUE, f"duplicate {section[:-1]} id '{entry_id}'")]


def test_bad_window_reversed():
    doc = tiny_doc()
    doc["archetypes"][0]["leave_window"] = ["11:00", "10:00"]
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    assert BAD_WINDOW in codes_of(excinfo)


def test_bad_window_overlapping_leave_and_return():
    doc = tiny_doc()
    doc["archetypes"][0]["leave_window"] = ["10:00", "14:30"]
    doc["archetypes"][0]["return_window"] = ["14:00", "15:00"]
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    assert BAD_WINDOW in codes_of(excinfo)


def test_bad_profile_length():
    doc = tiny_doc()
    doc["appliances"][0]["usage_profile"] = [0.5] * 24
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    assert BAD_PROFILE_LENGTH in codes_of(excinfo)


def test_bad_degree_odd_or_too_large():
    doc = tiny_doc()
    doc["scenario"]["network_mean_degree_K"] = 3
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    assert BAD_DEGREE in codes_of(excinfo)

    doc = tiny_doc(population=4)
    doc["scenario"]["network_mean_degree_K"] = 4
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    assert BAD_DEGREE in codes_of(excinfo)


def test_all_violations_reported_together():
    doc = tiny_doc()
    doc["scenario"]["archetype_mix"] = {"resident": 0.4, "ghost": 0.4}
    doc["appliances"][0]["usage_profile"] = [0.5] * 3
    doc["archetypes"][0]["leave_window"] = ["11:00", "10:00"]
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    codes = codes_of(excinfo)
    assert {MIX_NOT_NORMALIZED, BAD_PROFILE_LENGTH, BAD_WINDOW} <= codes


def test_unreachable_threshold_blocks_preseeding():
    doc = tiny_doc(M=0.8, p_threshold=0.85, exp_frac=0.5)
    with pytest.raises(ScenarioValidationError):
        validate_scenario(doc)
    # fine without pre-seeding
    doc = tiny_doc(M=0.8, p_threshold=0.85, exp_frac=0.0)
    validate_scenario(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("population", 0),
        ("population", -5),
        ("network_rewire_beta", 1.5),
        ("p_threshold", 0.0),
        ("p_threshold", 1.2),
        ("intervention_start_day", -1),
        ("initial_experienced_fraction", -0.1),
        ("horizon_days", 0),
        ("tick_minutes", 7),  # does not divide 1440
        ("tick_minutes", 0),
        ("base_interaction_rate", 2.0),
        ("seed", -1),
        ("seed", 2**64),
    ],
)
def test_scenario_field_ranges(field, value):
    doc = tiny_doc()
    doc["scenario"][field] = value
    with pytest.raises(ScenarioValidationError):
        validate_scenario(doc)


def _set_in(*path):
    def place(doc, value):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return place


# where each spec's value sits in tiny_doc
TABLE_PLACES = (
    [(spec, _set_in("scenario", spec.key)) for spec in SCENARIO_FIELDS]
    + [(spec, _set_in("archetypes", 0, spec.key)) for spec in ARCHETYPE_FIELDS]
    + [(spec, _set_in("appliances", 0, spec.key)) for spec in APPLIANCE_FIELDS]
)
FIELD_PLACES = TABLE_PLACES + [
    (MIX_FRACTION, _set_in("scenario", "archetype_mix", "resident")),
    (PROPENSITY, _set_in("appliances", 0, "usage_profile", 0)),
    (APPLIANCE_COUNT, _set_in("archetypes", 0, "appliances", "heater")),
]


def _out_of_range(spec):
    """Values just outside each bound of spec."""
    def step(bound, direction):
        if spec.kind is int:
            return bound + direction
        return math.nextafter(bound, direction * math.inf)

    values = [spec.lo if spec.lo_open else step(spec.lo, -1)]
    if spec.hi is not None:
        values.append(step(spec.hi, 1))
    return values


def _bad_value_cases():
    for spec, place in FIELD_PLACES:
        # a value of the wrong type is BadValue whatever the field's range code
        wrong = [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                 ("bool", True), ("str", "1")]
        if spec.kind is float:
            wrong.append(("huge", 10**400))  # an integer no float can hold
        for label, value in wrong:
            yield pytest.param(spec.key, place, value, BAD_VALUE, id=f"{spec.key}-{label}")
        for value in _out_of_range(spec):
            yield pytest.param(spec.key, place, value, spec.code, id=f"{spec.key}-{value!r}")


@pytest.mark.parametrize("key, place, value, code", list(_bad_value_cases()))
def test_field_table_rejects_bad_values(tmp_path, capsys, key, place, value, code):
    doc = tiny_doc()
    place(doc, value)
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(doc)
    first = excinfo.value.issues[0]
    assert first.code == code and key in first.message

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity as JSON extensions
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"{code}: ")


@pytest.mark.parametrize("spec, place", TABLE_PLACES, ids=[s.key for s, _ in TABLE_PLACES])
def test_field_table_accepts_closed_bounds(spec, place):
    for value in (None if spec.lo_open else spec.lo, spec.hi):
        if value is not None:
            doc = tiny_doc()
            place(doc, value)
            validate_scenario(doc)


# population and horizon_days stay small so that each example runs in
# milliseconds; their lower bounds are pushed like every other field's
EDGE_OVERRIDES = {"population": (0, 1, 20), "horizon_days": (0, 1)}


def _edge_values(spec):
    """spec's bounds and the values just inside them, with a huge value
    standing in for a missing upper bound."""
    if spec.key in EDGE_OVERRIDES:
        return EDGE_OVERRIDES[spec.key]

    def inside(bound, direction):
        if spec.kind is int:
            return bound + direction
        return math.nextafter(bound, direction * math.inf)

    values = [spec.lo, inside(spec.lo, 1)]
    if spec.hi is None:
        values.append(2**64 if spec.kind is int else sys.float_info.max)
    else:
        values += [spec.hi, inside(spec.hi, -1)]
    return values


EDGE_PUSHES = [(spec.key, place, value) for spec, place in TABLE_PLACES for value in _edge_values(spec)]


def _push(key, value):
    return next((key, place, value) for spec, place in TABLE_PLACES if spec.key == key)


@settings(max_examples=60, deadline=None)
# the two overflows validate once let through: a tick's load past a
# float, and a pre-seeded trial count past a float
@example([_push("power_watts", sys.float_info.max)])
@example([_push("learning_rate_k", math.nextafter(0, 1))])
@given(st.lists(st.sampled_from(EDGE_PUSHES), max_size=4))
def test_what_validate_accepts_runs_to_finite_curves(pushes):
    """Every field at a bound, just inside it, or huge: validate either
    accepts and run --events finishes with a finite, non-negative curve,
    or both refuse with one violation per stderr line."""
    # typical values that pre-seed experienced agents and let them chat
    doc = tiny_doc(horizon=1, exp_frac=0.5, rate=0.5)
    for _key, place, value in pushes:
        place(doc, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "scenario.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        codes, err = [], io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            for command in (["validate"], ["run", "--events", "--out", out]):
                codes.append(main([*command, "--config", config]))
        if codes[0] == 0:
            assert codes[1] == 0, err.getvalue()
            values = read_load_curve(os.path.join(out, "loadcurve.csv")).values
            assert all(math.isfinite(v) and v >= 0 for v in values)
        else:
            assert codes == [2, 2]
            lines = err.getvalue().splitlines()
            assert lines and all(re.fullmatch(r"[A-Za-z]+: \S.*", line) for line in lines)
            assert not os.path.exists(out)


def test_optional_fields_take_the_dataclass_defaults():
    doc = tiny_doc()
    del doc["appliances"][0]["mean_on_minutes"]
    doc["appliances"][1]["mean_on_minutes"] = None
    scenario = validate_scenario(doc)
    assert [a.mean_on_minutes for a in scenario.appliances] == [60.0, None]
    assert scenario.config.peak_suppression == 0.5
    # integers stay int; numbers are stored as float even when written as 100
    assert type(scenario.config.seed) is int
    assert type(scenario.appliances[0].power_watts) is float


def test_json_decode_failure_is_a_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioValidationError):
        load_scenario(str(path))


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["scenario", "archetypes", "appliances", "junk"]),
    json_values,
    max_size=4,
))
def test_validate_is_total_on_arbitrary_documents(doc):
    # never crashes: either a Scenario comes back or a collected error list
    try:
        scenario = validate_scenario(doc)
    except ScenarioValidationError as exc:
        assert len(exc.issues) >= 1
    else:
        assert isinstance(scenario, Scenario)


@settings(max_examples=40, deadline=None)
@given(json_values)
def test_validate_is_total_on_mangled_sections(value):
    doc = tiny_doc()
    doc["scenario"] = value
    try:
        validate_scenario(doc)
    except ScenarioValidationError as exc:
        assert exc.issues
