"""Closed-form queue and wait statistics for a single transit route whose
service is perturbed by random short suspensions, plus a discrete-event
simulator for validating the analytical results.

The package namespace carries the entry points; the building blocks stay in
their modules (``transitq.headway``, ``transitq.roots``, ``transitq.solver``,
``transitq.report`` and the rest).  Names and submodules are imported on
first access, so ``import transitq`` alone loads none of them.
"""

import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {name: module for module, names in (
    ("model", "IncidentParams InvalidScenarioError RouteConfig Scenario StationParams "
              "expand_grid load_scenario preset reference_scenario save_scenario"),
    ("roots", "SolverError"),
    ("simulator", "ComparisonTable SimConfig SimStats compare run_simulation"),
    ("solver", "RouteReport StationMetrics StationSolveError analyze_route"),
) for name in names.split()}
_SUBMODULES = ("cli", "headway", "model", "report", "roots", "simulator", "solver")

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _SUBMODULES and name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_HOMES.get(name, name)}"
    __import__(module)  # unlike importlib.import_module, timed by -X importtime
    return sys.modules[module] if name in _SUBMODULES else getattr(sys.modules[module], name)
