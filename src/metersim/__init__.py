"""Agent based simulation of household electricity use under mandated
smart metering, with behavioural learning and peer knowledge exchange."""

__version__ = "0.1.0"

from .domain import (
    AgentState,
    ApplianceSpec,
    ArchetypeSpec,
    Scenario,
    ScenarioConfig,
    ScenarioValidationError,
    TimeOfDay,
    load_scenario,
    validate_scenario,
)
from .engine import SimOutput, Simulation, run
from .learning import LearningParams, LearningState, adoption_probability, trials_to_threshold
from .metrics import LoadCurve, aggregate_load, peak_reduction, peak_stats, pearson_correlation
from .network import Network, clustering_coefficient, generate_small_world

__all__ = [
    "AgentState",
    "ApplianceSpec",
    "ArchetypeSpec",
    "LearningParams",
    "LearningState",
    "LoadCurve",
    "Network",
    "Scenario",
    "ScenarioConfig",
    "ScenarioValidationError",
    "SimOutput",
    "Simulation",
    "TimeOfDay",
    "adoption_probability",
    "aggregate_load",
    "clustering_coefficient",
    "generate_small_world",
    "load_scenario",
    "peak_reduction",
    "peak_stats",
    "pearson_correlation",
    "run",
    "trials_to_threshold",
    "validate_scenario",
]
