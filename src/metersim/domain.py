"""Core domain types for household load simulations.

Everything configurable lives in a single JSON scenario document with three
top level sections: "scenario" (run parameters), "archetypes" (household
profiles) and "appliances" (the appliance catalog).  Times are written as
"HH:MM" strings and held internally as minutes since midnight.  Validation
is collecting: a bad document yields the full list of violations, not just
the first one.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Any, Mapping

MINUTES_PER_DAY = 1440
PROFILE_BUCKETS = 48  # half hour switch-on propensity buckets

# violation codes used by validate_scenario
MIX_NOT_NORMALIZED = "MixNotNormalized"
UNKNOWN_ARCHETYPE = "UnknownArchetype"
UNKNOWN_APPLIANCE = "UnknownAppliance"
BAD_WINDOW = "BadWindow"
BAD_PROFILE_LENGTH = "BadProfileLength"
BAD_DEGREE = "BadDegree"
BAD_VALUE = "BadValue"

MIX_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class TimeOfDay:
    """A clock time, stored as whole minutes since midnight."""

    minutes: int

    def __post_init__(self) -> None:
        if not isinstance(self.minutes, int) or isinstance(self.minutes, bool):
            raise ValueError(f"minutes must be an int, got {self.minutes!r}")
        if not 0 <= self.minutes < MINUTES_PER_DAY:
            raise ValueError(f"minutes out of range [0, 1440): {self.minutes}")

    @classmethod
    def parse(cls, text: str) -> "TimeOfDay":
        """Parse "HH:MM". Raises ValueError on anything else."""
        if not isinstance(text, str):
            raise ValueError(f"expected HH:MM string, got {text!r}")
        parts = text.split(":")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"expected HH:MM string, got {text!r}")
        hours, mins = int(parts[0]), int(parts[1])
        if hours > 23 or mins > 59:
            raise ValueError(f"clock time out of range: {text!r}")
        return cls(hours * 60 + mins)

    def __str__(self) -> str:
        return f"{self.minutes // 60:02d}:{self.minutes % 60:02d}"


DEFAULT_PEAK_WINDOW = (TimeOfDay(17 * 60), TimeOfDay(20 * 60))


@dataclass(frozen=True, slots=True)
class ApplianceSpec:
    """One appliance type from the catalog.

    usage_profile holds 48 half hour switch-on propensities in [0, 1],
    applied per tick while the household is at home.  mean_on_minutes is
    the average on stretch used to derive the per tick switch-off
    probability; None means the appliance never switches itself off
    (always-on base load such as cold appliances).
    """

    id: str
    label: str
    power_watts: float
    usage_profile: tuple[float, ...]
    deferrable: bool
    mean_on_minutes: float | None = 60.0


@dataclass(frozen=True, slots=True)
class ArchetypeSpec:
    """A household archetype: who lives there and how they behave."""

    id: str
    label: str
    leave_window: tuple[TimeOfDay, TimeOfDay]
    return_window: tuple[TimeOfDay, TimeOfDay]
    awareness: float  # propensity to talk about the technology, [0, 1]
    learning_rate_k: float
    max_attainable_M: float
    appliances: tuple[tuple[str, int], ...]  # (appliance id, count)


@dataclass(frozen=True, slots=True)
class LearningState:
    """Per agent learning progress once influenced.

    trials_t counts reinforced trials; experienced flips (and stays) true
    once the learning curve value reaches the adoption threshold.
    """

    trials_t: int
    experienced: bool

    def __post_init__(self) -> None:
        if self.trials_t < 0:
            raise ValueError("trials_t must be non-negative")


@dataclass(slots=True)
class AgentState:
    """Mutable per agent simulation state.

    learning is None while the agent is uninfluenced.  appliance_on has one
    flag per owned appliance instance, in archetype bundle order.
    bonus_trial_today caps peer learning at one extra trial per day.  The
    day's leave and return times live in the engine's group arrays.
    """

    agent_id: int
    archetype_id: str
    at_home: bool
    learning: LearningState | None
    appliance_on: list[bool]
    bonus_trial_today: bool = False


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Validated run parameters (the "scenario" JSON section)."""

    population: int
    archetype_mix: tuple[tuple[str, float], ...]
    network_mean_degree_K: int
    network_rewire_beta: float
    p_threshold: float
    intervention_start_day: int
    initial_experienced_fraction: float
    horizon_days: int
    tick_minutes: int
    base_interaction_rate: float
    seed: int
    peak_window: tuple[TimeOfDay, TimeOfDay] = DEFAULT_PEAK_WINDOW
    peak_suppression: float = 0.5

    @property
    def ticks_per_day(self) -> int:
        return MINUTES_PER_DAY // self.tick_minutes


@dataclass(frozen=True, slots=True)
class Scenario:
    """A fully cross referenced scenario: config plus resolved catalogs."""

    config: ScenarioConfig
    archetypes: tuple[ArchetypeSpec, ...]
    appliances: tuple[ApplianceSpec, ...]


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ScenarioValidationError(Exception):
    """Raised by validate_scenario with the complete list of violations."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__("\n".join(str(i) for i in issues))


class _Collector:
    """Accumulates violations so validation can report them all at once."""

    def __init__(self) -> None:
        self.issues: list[ValidationIssue] = []

    def add(self, code: str, message: str) -> None:
        self.issues.append(ValidationIssue(code, message))


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """One numeric field of a scenario document and the values it accepts.

    kind is int or float.  A value must lie in [lo, hi], or in (lo, hi]
    when lo_open is set; hi None means no upper bound.  A value of another
    type, a bool, NaN or an infinity is BadValue; one out of range gets
    code.  An absent optional field keeps the default of the dataclass
    field it fills; nullable lets JSON null through as None.
    """

    key: str
    kind: type
    lo: float
    hi: float | None = None
    lo_open: bool = False
    code: str = BAD_VALUE
    optional: bool = False
    nullable: bool = False

    def contains(self, x: float) -> bool:
        above = x > self.lo if self.lo_open else x >= self.lo
        return above and (self.hi is None or x <= self.hi)

    def describe(self) -> str:
        kind = "an integer" if self.kind is int else "a finite number"
        if self.hi is None:
            return f"{kind} {'>' if self.lo_open else '>='} {self.lo}"
        return f"{kind} in {'(' if self.lo_open else '['}{self.lo}, {self.hi}]"


SCENARIO_FIELDS = (
    FieldSpec("population", int, 0, lo_open=True),
    FieldSpec("network_mean_degree_K", int, 2, code=BAD_DEGREE),
    FieldSpec("network_rewire_beta", float, 0, 1),
    FieldSpec("p_threshold", float, 0, 1, lo_open=True),
    FieldSpec("intervention_start_day", int, 0),
    FieldSpec("initial_experienced_fraction", float, 0, 1),
    FieldSpec("horizon_days", int, 0, lo_open=True),
    FieldSpec("tick_minutes", int, 0, lo_open=True),
    FieldSpec("base_interaction_rate", float, 0, 1),
    FieldSpec("seed", int, 0, 2**64 - 1),
    FieldSpec("peak_suppression", float, 0, 1, optional=True),
)
ARCHETYPE_FIELDS = (
    FieldSpec("awareness", float, 0, 1),
    FieldSpec("learning_rate_k", float, 0, lo_open=True),
    FieldSpec("max_attainable_M", float, 0, 1, lo_open=True),
)
APPLIANCE_FIELDS = (
    FieldSpec("power_watts", float, 0, lo_open=True),
    FieldSpec("mean_on_minutes", float, 0, lo_open=True, optional=True, nullable=True),
)
# each entry of these objects and lists, keyed by the field that holds them
MIX_FRACTION = FieldSpec("archetype_mix", float, 0, 1)
PROPENSITY = FieldSpec("usage_profile", float, 0, 1)
APPLIANCE_COUNT = FieldSpec("appliances", int, 0)


def _number(value: Any, spec: FieldSpec, where: str, errs: _Collector, entry: Any = None) -> Any:
    """value as spec.kind when it has that type and lies in range;
    otherwise None, with the violation added to errs.  entry names the
    list index or object key of an entry of the field."""
    number = None
    if isinstance(value, (int, spec.kind)) and not isinstance(value, bool):
        try:
            number = spec.kind(value)
        except OverflowError:  # an integer too large for a float
            pass
    if number is None or (isinstance(number, float) and not math.isfinite(number)):
        code = BAD_VALUE
    elif spec.contains(number):
        return number
    else:
        code = spec.code
    label = spec.key if entry is None else f"{spec.key}[{entry!r}]"
    errs.add(code, f"{where}: {label} must be {spec.describe()}, got {value!r}")
    return None


def _read_fields(
    obj: Mapping[str, Any], specs: tuple[FieldSpec, ...], where: str, errs: _Collector,
) -> dict[str, Any]:
    """The valid values of specs' fields in obj, by key.

    A field that is missing, of the wrong type or out of range is reported
    and left out, and so is an absent optional field.
    """
    values: dict[str, Any] = {}
    for spec in specs:
        if spec.key not in obj:
            if not spec.optional:
                errs.add(BAD_VALUE, f"{where}: missing field '{spec.key}'")
        elif obj[spec.key] is None and spec.nullable:
            values[spec.key] = None
        else:
            value = _number(obj[spec.key], spec, where, errs)
            if value is not None:
                values[spec.key] = value
    return values


def _build(cls: type, values: Mapping[str, Any]) -> Any:
    """cls(**values) once values holds every field of cls that has no
    default; None while one of them is missing or was invalid."""
    if all(f.name in values for f in fields(cls) if f.default is MISSING):
        return cls(**values)
    return None


def _read_id(obj: Mapping[str, Any], where: str, values: dict[str, Any], errs: _Collector) -> None:
    """Add a catalog entry's id, and its label (the id when absent), to values."""
    entry_id = obj.get("id")
    if isinstance(entry_id, str) and entry_id:
        values["id"] = entry_id
        values["label"] = str(obj.get("label", entry_id))
    else:
        errs.add(BAD_VALUE, f"{where}: field 'id' must be a non-empty string")


def _parse_window(
    obj: Mapping[str, Any], key: str, where: str, errs: _Collector,
) -> tuple[TimeOfDay, TimeOfDay] | None:
    raw = obj.get(key)
    try:
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ValueError("must be a [start, end] pair of HH:MM strings")
        start, end = TimeOfDay.parse(raw[0]), TimeOfDay.parse(raw[1])
        if start.minutes > end.minutes:
            raise ValueError(f"start {start} is after end {end}")
    except ValueError as exc:
        errs.add(BAD_WINDOW, f"{where}: '{key}': {exc}")
        return None
    return (start, end)


def _parse_appliance(obj: Mapping[str, Any], where: str, errs: _Collector) -> ApplianceSpec | None:
    values = _read_fields(obj, APPLIANCE_FIELDS, where, errs)
    _read_id(obj, where, values, errs)

    profile = obj.get("usage_profile")
    if not isinstance(profile, (list, tuple)):
        errs.add(BAD_PROFILE_LENGTH, f"{where}: usage_profile must be a list of {PROFILE_BUCKETS} numbers")
    elif len(profile) != PROFILE_BUCKETS:
        errs.add(
            BAD_PROFILE_LENGTH,
            f"{where}: usage_profile has {len(profile)} entries, expected {PROFILE_BUCKETS}",
        )
    else:
        read = [_number(v, PROPENSITY, where, errs, i) for i, v in enumerate(profile)]
        if None not in read:
            values["usage_profile"] = tuple(read)

    values["deferrable"] = obj.get("deferrable", False)
    if not isinstance(values["deferrable"], bool):
        errs.add(BAD_VALUE, f"{where}: deferrable must be a boolean")
        values["deferrable"] = False
    return _build(ApplianceSpec, values)


def _parse_archetype(obj: Mapping[str, Any], where: str, errs: _Collector) -> ArchetypeSpec | None:
    values = _read_fields(obj, ARCHETYPE_FIELDS, where, errs)
    _read_id(obj, where, values, errs)

    leave = _parse_window(obj, "leave_window", where, errs)
    ret = _parse_window(obj, "return_window", where, errs)
    if leave is not None and ret is not None and leave[1].minutes >= ret[0].minutes:
        errs.add(
            BAD_WINDOW,
            f"{where}: leave_window must end before return_window starts "
            f"({leave[1]} vs {ret[0]})",
        )
    elif leave is not None and ret is not None:
        values.update(leave_window=leave, return_window=ret)

    bundle = obj.get("appliances")
    if not isinstance(bundle, Mapping):
        errs.add(BAD_VALUE, f"{where}: appliances must be an object of id -> count")
    else:
        counts = [_number(n, APPLIANCE_COUNT, where, errs, app_id) for app_id, n in bundle.items()]
        if None not in counts:
            values["appliances"] = tuple(zip(map(str, bundle), counts))
    return _build(ArchetypeSpec, values)


def _parse_scenario_section(obj: Mapping[str, Any], errs: _Collector) -> ScenarioConfig | None:
    where = "scenario"
    values = _read_fields(obj, SCENARIO_FIELDS, where, errs)

    mix = obj.get("archetype_mix")
    if not isinstance(mix, Mapping) or not mix:
        errs.add(BAD_VALUE, f"{where}: archetype_mix must be a non-empty object of id -> fraction")
    else:
        fractions = [_number(f, MIX_FRACTION, where, errs, arch_id) for arch_id, f in mix.items()]
        if None not in fractions:
            total = sum(fractions)
            if abs(total - 1.0) > MIX_TOLERANCE:
                errs.add(MIX_NOT_NORMALIZED, f"{where}: archetype_mix sums to {total!r}, expected 1.0")
            else:
                values["archetype_mix"] = tuple(zip(map(str, mix), fractions))

    degree = values.get("network_mean_degree_K")
    population = values.get("population")
    if degree is not None and degree % 2 != 0:
        errs.add(BAD_DEGREE, f"{where}: network_mean_degree_K must be even, got {degree}")
        del values["network_mean_degree_K"]
    elif degree is not None and population is not None and degree >= population:
        errs.add(BAD_DEGREE, f"{where}: network_mean_degree_K ({degree}) must be smaller than population ({population})")
        del values["network_mean_degree_K"]

    tick = values.get("tick_minutes")
    if tick is not None and MINUTES_PER_DAY % tick != 0:
        errs.add(BAD_VALUE, f"{where}: tick_minutes must divide {MINUTES_PER_DAY}, got {tick}")
        del values["tick_minutes"]

    if "peak_window" in obj:
        window = _parse_window(obj, "peak_window", where, errs)
        if window is not None and window[0].minutes >= window[1].minutes:
            errs.add(BAD_WINDOW, f"{where}: peak_window must be non-empty")
        elif window is not None:
            values["peak_window"] = window
    return _build(ScenarioConfig, values)


def validate_scenario(raw: Mapping[str, Any]) -> Scenario:
    """Validate a parsed scenario document.

    Returns a fully cross referenced Scenario, or raises
    ScenarioValidationError carrying every violation found.  Never raises
    anything else for malformed input.
    """
    errs = _Collector()
    if not isinstance(raw, Mapping):
        errs.add(BAD_VALUE, "document root must be an object")
        raise ScenarioValidationError(errs.issues)

    config = None
    if isinstance(raw.get("scenario"), Mapping):
        config = _parse_scenario_section(raw["scenario"], errs)
    else:
        errs.add(BAD_VALUE, "scenario: must be an object")

    parsed: dict[str, list[Any]] = {"appliances": [], "archetypes": []}
    seen: set[str] = set()  # duplicate ids make cross references ambiguous
    for section, parse in (("appliances", _parse_appliance), ("archetypes", _parse_archetype)):
        entries = raw.get(section)
        if not isinstance(entries, list):
            errs.add(BAD_VALUE, f"{section}: must be a list")
            continue
        for i, obj in enumerate(entries):
            where = f"{section}[{i}]"
            if not isinstance(obj, Mapping):
                errs.add(BAD_VALUE, f"{where}: must be an object")
            elif (spec := parse(obj, where, errs)) is not None:
                if spec.id in seen:
                    errs.add(BAD_VALUE, f"duplicate {section[:-1]} id '{spec.id}'")
                seen.add(spec.id)
                parsed[section].append(spec)
    appliances, archetypes = parsed["appliances"], parsed["archetypes"]

    appliance_ids = {a.id for a in appliances}
    archetype_ids = {a.id for a in archetypes}

    for arch in archetypes:
        for app_id, _count in arch.appliances:
            if app_id not in appliance_ids:
                errs.add(
                    UNKNOWN_APPLIANCE,
                    f"archetype '{arch.id}' references unknown appliance '{app_id}'",
                )

    if config is not None:
        for arch_id, _frac in config.archetype_mix:
            if arch_id not in archetype_ids:
                errs.add(
                    UNKNOWN_ARCHETYPE,
                    f"archetype_mix references unknown archetype '{arch_id}'",
                )
        # pre-seeding experienced agents is impossible when the learning
        # curve asymptote never reaches the threshold
        if config.initial_experienced_fraction > 0:
            for arch in archetypes:
                in_mix = any(a == arch.id and f > 0 for a, f in config.archetype_mix)
                if in_mix and config.p_threshold >= arch.max_attainable_M:
                    errs.add(
                        BAD_VALUE,
                        f"archetype '{arch.id}' can never reach p_threshold "
                        f"{config.p_threshold} (max_attainable_M {arch.max_attainable_M}), "
                        "so initial_experienced_fraction > 0 is unsatisfiable",
                    )

    if errs.issues or config is None:
        raise ScenarioValidationError(errs.issues)
    return Scenario(config=config, archetypes=tuple(archetypes), appliances=tuple(appliances))


def load_scenario(path: str, overrides: Mapping[str, Any] | None = None) -> Scenario:
    """Read and validate a scenario JSON file.

    overrides replaces fields of the "scenario" section before validation,
    so they obey the same rules as the file; None values are skipped, which
    lets unset command line options pass straight through.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioValidationError(
                [ValidationIssue(BAD_VALUE, f"not valid JSON: {exc}")]
            ) from exc
    if overrides and isinstance(raw, dict) and isinstance(raw.get("scenario"), dict):
        raw["scenario"].update((k, v) for k, v in overrides.items() if v is not None)
    return validate_scenario(raw)
