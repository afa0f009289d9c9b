"""Test-execution analytics and cost-optimal timeout tuning for flaky CI suites.

Public names resolve on first use (PEP 562): ``import timeopt`` loads no
submodule, and reading a name imports only the module that defines it.
"""

from typing import Any

__version__ = "0.1.0"

_EXPORTS = {
    "evaluate": (
        "CvReport", "FoldAssignment", "PolicyTotals", "compare_policies", "count_timeouts",
        "cross_validate", "make_folds",
    ),
    "flakiness": (
        "EvolutionSeries", "FlakinessComparison", "FlakinessReport", "TimeoutChangeStats",
        "compare_flakiness", "flakiness_evolution", "flakiness_report",
        "timeout_change_stats", "timeout_failure_share",
    ),
    "ingest": (
        "DatasetSummary", "ValidationReport", "load_executions", "load_timeout_changes",
        "summarize", "write_executions",
    ),
    "model": (
        "GRID_SECONDS", "ExecutionDataset", "ExecutionRecord", "SampleStats", "TestSample",
        "TimeoutChangeRecord", "TimeoutPolicy", "Verdict", "failure_rate", "is_flaky",
        "sample_stats",
    ),
    "optimize": (
        "CostCurve", "OptimizationConfig", "OptimizationResult", "SweepResult",
        "TimeoutOptimizer", "empirical_exceedance", "expected_cost", "optimize_timeout",
        "static_sweep", "timeout_probability", "tolhurst_bound", "truncated_mean",
    ),
    "simulate": (
        "SimulationReport", "WorkloadSpec", "generate_workload", "simulate_rerun_policy",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> Any:
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the submodule here and, unlike importlib.import_module,
    # shows in ``python -X importtime``
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
