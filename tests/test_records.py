"""The record types' contract: constructor signatures, immutability, equality,
hashing and repr. Plain records are ``NamedTuple``s; types that check their
fields are ``_Frozen`` classes, which offer no way around their checks."""

import ast
import inspect
import json
import pickle
from datetime import datetime, timezone
from pathlib import Path

import pytest

from timeopt.evaluate import CvReport, FoldAssignment, FoldPolicyResult, PolicyTotals
from timeopt.flakiness import (
    EvolutionSeries, FlakinessComparison, FlakinessReport, TimeoutChangeStats,
)
from timeopt.ingest import DatasetSummary, ValidationReport
from timeopt.model import (
    ExecutionDataset, ExecutionRecord, SampleStats, TestSample, TimeoutChangeRecord,
    TimeoutPolicy, Verdict, _Frozen,
)
from timeopt.optimize import CostCurve, OptimizationConfig, OptimizationResult, SweepResult
from timeopt.simulate import SimulationReport, TestDistribution, TestSimulation, WorkloadSpec

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
RECORD = ExecutionRecord("t", "r", EPOCH, 1.5, Verdict.TIMEOUT, True)
FLAKY = FlakinessReport("r", 2, 1, 1, 1.0, (1, 0, 0, 0, 0))
SIMULATED = TestSimulation("t", 2, 1, 3, 7.5, 1, 1)

# One instance of each of the 24 record types, each field set.
EXAMPLES = [
    RECORD,
    TestSample("t", "r", (1.0, 2.0), ("pass", "fail"), (False, True)),
    SampleStats(2, 1.5, 0.5, 0.8660254037844386, 2.0, 1.0),
    ExecutionDataset([RECORD]),
    DatasetSummary(1, 1, 1, 1.0),
    TimeoutChangeRecord("t", EPOCH, 5, 3),
    ValidationReport(1, 2, {"bad id": 2}, ("note",)),
    OptimizationConfig(2, 0.01, "empirical_ecdf", 5, 60),
    OptimizationResult("t", 3, 12.5, 0.25, (1, 4), "tolhurst_bound", True),
    CostCurve(((1, 2.0), (2, 1.5))),
    SweepResult(CostCurve(((1, 2.0), (2, 1.5))), 2, 1.5),
    TimeoutPolicy("original", {"t": 5}, 7),
    FoldAssignment(2, {0: 0, 1: 1}, ("x",)),
    FoldPolicyResult(0, "static", 1, 9.5),
    CvReport(2, 1, ("optimized",), (FoldPolicyResult(0, "optimized", 0, 1.0),),
             {"optimized": {"optimized": 0.0}}, {"t": 3}, ("x",)),
    PolicyTotals("static", 1, 9.5, 2.5),
    FLAKY,
    EvolutionSeries("r", ((1, 0.0), (2, 1.0))),
    FlakinessComparison(FLAKY, FLAKY, 0.0, 0.0, ("note",)),
    TimeoutChangeStats(1, 2.0, 1, 1, (1.5, 2.0, 2.5), (0.5, 0.5, 0.5)),
    WorkloadSpec(2, 3, "exponential", 60.0, 0.0, 2.0, 0.1, (2.0, 3.0), 0.05, 0.9, 7),
    TestDistribution("constant", 60.0, 0.0, 0.0, (2.0, 10.0), 0.0),
    SIMULATED,
    SimulationReport((SIMULATED,), 2, 1, 3, 7.5, 1, 1),
]
VALIDATING = {
    ExecutionRecord, TestSample, ExecutionDataset, TimeoutChangeRecord, OptimizationConfig,
    CostCurve, TimeoutPolicy, EvolutionSeries, WorkloadSpec,
}
# Each constructor's parameters and defaults, as they were when every type was
# a dataclass. ValidationReport's reasons then defaulted to a fresh dict each time.
SIGNATURES = {
    "ExecutionRecord": "test_id, revision_id, started_at, duration, verdict, interrupted=False",
    "TestSample": "test_id, revision_id, durations, verdicts, censored=None",
    "SampleStats": "n, mean, variance, q_n, max, min",
    "ExecutionDataset": "records=()",
    "DatasetSummary": "test_count, execution_count, revision_count, censored_fraction",
    "TimeoutChangeRecord": "test_id, changed_at, new_value, old_value=None",
    "ValidationReport": "accepted, rejected, reasons=mappingproxy({}), warnings=()",
    "OptimizationConfig": "rerun_count=3, breakage_probability=0.0, "
    "probability_method='tolhurst_bound', min_samples=30, fallback_timeout=120",
    "OptimizationResult": "test_id, optimal_timeout, expected_cost_at_optimum, "
    "timeout_probability_at_optimum, search_range, method_used, fallback_applied=False",
    "CostCurve": "points",
    "SweepResult": "curve, optimal_timeout, average_cost_at_optimum",
    "TimeoutPolicy": "label, values=None, default=None",
    "FoldAssignment": "k, assignment, excluded_tests=()",
    "FoldPolicyResult": "fold, policy, flaky_timeout_count, average_cost",
    "CvReport": "k, seed, policies, rows, timeout_reduction, fitted_timeouts, excluded_tests=()",
    "PolicyTotals": "policy, flaky_timeout_count, average_cost, median_timeout",
    "FlakinessReport": "revision_id, repetition_count, unique_tests, flaky_tests, "
    "flakiness_rate, bin_counts",
    "EvolutionSeries": "revision_id, points",
    "FlakinessComparison": "report_a, report_b, absolute_change, relative_change, warnings=()",
    "TimeoutChangeStats": "tests_with_changes, changes_per_test_median, increase_count, "
    "decrease_count, increase_ratios, decrease_ratios",
    "WorkloadSpec": "test_count, executions_per_test, base_distribution='lognormal', "
    "scale_seconds=300.0, sigma=0.5, scale_spread=1.0, outlier_probability=0.0, "
    "outlier_factor_range=(2.0, 10.0), hang_probability=0.0, "
    "original_timeout_percentile=0.85, seed=0",
    "TestDistribution": "kind, scale, sigma, outlier_probability, outlier_factor_range, "
    "hang_probability",
    "TestSimulation": "test_id, initial_runs, timeout_events, rerun_count, "
    "total_machine_seconds, accepted, rejected",
    "SimulationReport": "per_test, initial_runs, timeout_events, rerun_count, "
    "total_machine_seconds, accepted, rejected",
}
BY_TYPE = pytest.mark.parametrize("value", EXAMPLES, ids=lambda value: type(value).__name__)


def _values(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


def _hashable(value):
    try:
        hash(_values(value))
    except TypeError:
        return False
    return True


def test_every_record_type_is_covered():
    assert sorted(type(value).__name__ for value in EXAMPLES) == sorted(SIGNATURES)


@BY_TYPE
def test_constructor_signature_is_kept(value):
    parameters = inspect.signature(type(value)).parameters.values()
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    shown = ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in parameters
    )
    assert shown == SIGNATURES[type(value).__name__]


@BY_TYPE
def test_the_mechanism_matches_the_kind(value):
    cls = type(value)
    if cls in VALIDATING:
        assert issubclass(cls, _Frozen) and not isinstance(value, tuple)
        # NamedTuple's _replace and _make build without __init__'s checks
        assert not hasattr(value, "_replace") and not hasattr(cls, "_make")
    else:
        assert isinstance(value, tuple) and hasattr(cls, "_asdict")


@BY_TYPE
def test_fields_cannot_be_assigned_or_deleted(value):
    first = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@BY_TYPE
def test_equal_fields_make_equal_values(value):
    cls = type(value)
    if cls is ExecutionDataset:
        copy = ExecutionDataset.from_columns(*_values(value))
    else:
        copy = cls(**dict(zip(cls._fields, _values(value))))
    assert copy == value and not copy != value
    assert copy is not value
    if _hashable(value):
        assert hash(copy) == hash(value)


@BY_TYPE
def test_repr_names_the_type_and_its_fields(value):
    text = repr(value)
    assert text.startswith(f"{type(value).__name__}(")
    for name in type(value)._fields:
        assert f"{name}={getattr(value, name)!r}" in text


@BY_TYPE
def test_pickles_to_an_equal_value(value):
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls", sorted(VALIDATING, key=lambda cls: cls.__name__))
def test_validating_types_differ_from_their_fields_tuple(cls):
    value = next(value for value in EXAMPLES if type(value) is cls)
    assert value != _values(value)


def test_validating_types_still_check_their_fields():
    with pytest.raises(ValueError, match="duration must be non-negative"):
        ExecutionRecord("t", "r", EPOCH, -1.0, Verdict.PASS)
    with pytest.raises(ValueError, match="equal length"):
        TestSample("t", "r", (1.0,), ())
    with pytest.raises(ValueError, match="equal length"):
        ExecutionDataset.from_columns(("t",), (), (), (), (), ())
    with pytest.raises(ValueError, match="new_value must be >= 1"):
        TimeoutChangeRecord("t", EPOCH, 0)
    with pytest.raises(ValueError, match="min_samples must be >= 2"):
        OptimizationConfig(min_samples=1)
    with pytest.raises(ValueError, match="strictly increasing"):
        CostCurve(((2, 1.0), (1, 1.0)))
    with pytest.raises(ValueError, match="per-test values or a default"):
        TimeoutPolicy("original")
    with pytest.raises(ValueError, match="strictly increasing"):
        EvolutionSeries("r", ((2, 0.0), (2, 0.0)))
    with pytest.raises(ValueError, match="sigma must be non-negative"):
        WorkloadSpec(1, 1, sigma=-1.0)


def test_the_default_reasons_are_one_read_only_mapping():
    first, second = ValidationReport(1, 0), ValidationReport(2, 0)
    assert first.reasons == {} and first.reasons is second.reasons
    with pytest.raises(TypeError):
        first.reasons["bad id"] = 1  # type: ignore[index]
    assert ValidationReport(1, 0) == ValidationReport(1, 0, {})


def test_as_dict_keeps_field_order_and_json_bytes():
    # _asdict is shallow; every nested value of these reports is a tuple,
    # which json writes as an array whether it is copied or not
    summary = DatasetSummary(2, 80, 1, 0.0)
    assert list(summary._asdict()) == list(DatasetSummary._fields)
    assert json.dumps(FLAKY._asdict()) == (
        '{"revision_id": "r", "repetition_count": 2, "unique_tests": 1, "flaky_tests": 1, '
        '"flakiness_rate": 1.0, "bin_counts": [1, 0, 0, 0, 0]}'
    )


def test_the_dataset_caches_its_indexes_and_compares_columns():
    dataset = ExecutionDataset([RECORD, ExecutionRecord("u", "r", EPOCH, 2.0, Verdict.PASS)])
    index = dataset.test_index
    assert dataset.test_index is index and "test_index" in vars(dataset)
    same = ExecutionDataset.from_columns(*_values(dataset))
    assert same == dataset and hash(same) == hash(dataset)
    assert "test_index" not in vars(same)
    assert dataset != ExecutionDataset([RECORD])


def test_no_module_uses_dataclasses():
    src = Path(__file__).resolve().parents[1] / "src" / "timeopt"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(alias.name != "dataclasses" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
