"""Closed-form queue and wait statistics for a single transit route whose
service is perturbed by random short suspensions, plus a discrete-event
simulator for validating the analytical results.

The package namespace carries the entry points; the building blocks stay in
their modules (``transitq.headway``, ``transitq.roots``, ``transitq.solver``,
``transitq.report`` and the rest).
"""

from .model import (IncidentParams, InvalidScenarioError, RouteConfig, Scenario,
                    StationParams, expand_grid, load_scenario, preset,
                    reference_scenario, save_scenario)
from .roots import RootSearchError
from .simulator import ComparisonTable, SimConfig, SimStats, compare, run_simulation
from .solver import (RouteReport, SolverError, StationMetrics, StationSolveError,
                     analyze_route)

__version__ = "0.1.0"

__all__ = [
    "ComparisonTable", "IncidentParams", "InvalidScenarioError",
    "RootSearchError", "RouteConfig", "RouteReport", "Scenario", "SimConfig",
    "SimStats", "SolverError", "StationMetrics", "StationParams",
    "StationSolveError", "analyze_route", "compare", "expand_grid",
    "load_scenario", "preset", "reference_scenario", "run_simulation",
    "save_scenario",
]
