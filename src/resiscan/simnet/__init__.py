"""Deterministic in-process network simulator: scenarios, transport, services.

Each name below loads its submodule on first use (PEP 562), so a stage that
needs only scenarios and services never loads the transport, and the other
way round.
"""

import importlib

# Each exported name and the submodule that defines it.
_SUBMODULES = {
    **dict.fromkeys(
        (
            "GroundTruth", "Scenario", "ScenarioError", "ScenarioParams", "SimCpe", "SimHost",
            "SimNet", "SimService", "SimSubnet", "expected_grab_outcomes", "generate_scenario",
            "ground_truth", "load_scenario", "save_scenario",
        ),
        "scenario",
    ),
    "SimServices": "services",
    "SimTransport": "transport",
}

__all__ = sorted(_SUBMODULES)


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SUBMODULES[name]}"), name)
