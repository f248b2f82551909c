import transitq

# The package namespace: the entry points the README quickstart, the demos
# and the CLI use.  Everything else is reached through its module.
PUBLIC_NAMES = {
    # scenarios
    "IncidentParams", "InvalidScenarioError", "RouteConfig", "Scenario",
    "StationParams", "expand_grid", "load_scenario", "preset",
    "reference_scenario", "save_scenario",
    # closed-form analysis
    "RouteReport", "SolverError", "StationMetrics",
    "StationSolveError", "analyze_route",
    # simulation
    "ComparisonTable", "SimConfig", "SimStats", "compare", "run_simulation",
}


def test_public_api_is_pinned():
    assert len(transitq.__all__) == len(set(transitq.__all__))
    assert set(transitq.__all__) == PUBLIC_NAMES
    for name in transitq.__all__:
        assert getattr(transitq, name) is not None
