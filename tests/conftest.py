import copy
import os

import pytest

from metersim.domain import load_scenario, validate_scenario

SAMPLE_PATH = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "configs", "sample_scenario.json")
)
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def child_env():
    """The environment for a child Python process, with this checkout's
    src first on PYTHONPATH as it is for the test process."""
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture(scope="session")
def sample_path():
    return SAMPLE_PATH


@pytest.fixture(scope="session")
def sample_scenario():
    return load_scenario(SAMPLE_PATH)


def tiny_doc(
    population=6,
    mix=None,
    degree=2,
    beta=0.0,
    p_threshold=0.85,
    intervention=0,
    exp_frac=0.0,
    horizon=2,
    tick=30,
    rate=0.0,
    seed=11,
    awareness=1.0,
    k=0.5,
    M=1.0,
):
    """Small two-appliance scenario document for engine level tests."""
    return {
        "scenario": {
            "population": population,
            "archetype_mix": dict(mix or {"resident": 1.0}),
            "network_mean_degree_K": degree,
            "network_rewire_beta": beta,
            "p_threshold": p_threshold,
            "intervention_start_day": intervention,
            "initial_experienced_fraction": exp_frac,
            "horizon_days": horizon,
            "tick_minutes": tick,
            "base_interaction_rate": rate,
            "seed": seed,
        },
        "archetypes": [
            {
                "id": "resident",
                "label": "Resident",
                "leave_window": ["10:00", "11:00"],
                "return_window": ["14:00", "15:00"],
                "awareness": awareness,
                "learning_rate_k": k,
                "max_attainable_M": M,
                "appliances": {"heater": 1, "shifter": 1},
            },
        ],
        "appliances": [
            {
                "id": "heater",
                "label": "Heater",
                "power_watts": 100,
                "deferrable": False,
                "mean_on_minutes": 60,
                "usage_profile": [0.5] * 48,
            },
            {
                "id": "shifter",
                "label": "Shifter",
                "power_watts": 200,
                "deferrable": True,
                "mean_on_minutes": 60,
                "usage_profile": [0.3] * 48,
            },
        ],
    }


def daily_times(sim):
    """Today's (leave, return) minutes of a Simulation, by agent id, read
    from its group arrays."""
    times = {}
    for group in sim._groups:
        pairs = zip(group.leave_at.tolist(), group.return_at.tolist())
        for agent, pair in zip(group.agents, pairs):
            times[agent.agent_id] = pair
    return times


@pytest.fixture
def make_scenario():
    """Factory: keyword tweaks plus optional raw document editing."""

    def build(edit=None, **kwargs):
        doc = tiny_doc(**kwargs)
        if edit is not None:
            doc = copy.deepcopy(doc)
            edit(doc)
        return validate_scenario(doc)

    return build


@pytest.fixture
def make_doc():
    def build(**kwargs):
        return tiny_doc(**kwargs)

    return build
