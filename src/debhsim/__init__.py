"""Discrete-event simulator of black hole attacks on an AODV network
and the debh hop-by-hop detection and elimination defense."""

from .metrics import RunMetrics, claims
from .scenario import ScenarioConfig, build_suite, load_config, run_scenario, \
    run_suite
from .simulation import Simulation

__version__ = "0.1.0"

__all__ = [
    "RunMetrics", "ScenarioConfig", "Simulation", "build_suite",
    "claims", "load_config", "run_scenario", "run_suite",
    "__version__",
]
