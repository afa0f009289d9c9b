import ast
import hashlib
import math
import os
import random
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import timeopt
from helpers import verdict_dataset

from timeopt import cli, simulate
from timeopt.ingest import load_executions, write_executions
from timeopt.model import DURATION_LIMIT, GRID_SECONDS, ExecutionDataset, TimeoutPolicy, Verdict
from timeopt.evaluate import compare_policies
from timeopt.optimize import (
    EMPIRICAL_ECDF, PROBABILITY_METHODS, OptimizationConfig, TimeoutOptimizer, expected_cost,
)
from timeopt.simulate import (
    _QUANTILE_CAP,
    TestDistribution,
    WorkloadSpec,
    generate_workload,
    simulate_rerun_policy,
)


def spec_of(**overrides) -> WorkloadSpec:
    base = dict(
        test_count=2,
        executions_per_test=50,
        base_distribution="lognormal",
        scale_seconds=300.0,
        sigma=0.5,
        seed=1234,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestWorkloadSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"test_count": 0},
            {"executions_per_test": 0},
            {"base_distribution": "cauchy"},
            {"scale_seconds": 0.0},
            {"sigma": -1.0},
            {"scale_spread": 0.5},
            {"outlier_probability": 1.5},
            {"hang_probability": -0.1},
            {"outlier_factor_range": (0.0, 2.0)},
            {"original_timeout_percentile": 0.0},
        ],
    )
    def test_rejects_bad_specs(self, overrides):
        with pytest.raises(ValueError):
            spec_of(**overrides)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("scale_seconds", {"scale_seconds": math.inf}),
            ("scale_seconds", {"scale_seconds": math.nan}),
            ("scale_spread", {"scale_spread": math.inf}),
            ("scale_spread", {"scale_spread": math.nan}),
            ("outlier_factor_range", {"outlier_factor_range": (2.0, math.inf)}),
            ("outlier_factor_range", {"outlier_factor_range": (math.inf, math.inf)}),
            ("sigma", {"sigma": math.inf}),
            ("sigma", {"sigma": math.nan}),
        ],
    )
    def test_rejects_non_finite_values_by_name(self, field, overrides):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            spec_of(**overrides)

    @pytest.mark.parametrize(
        "scale, spread", [(1e300, 1e300), (6e301, 1e10), (sys.float_info.max, 1.0 + 2**-52)]
    )
    def test_rejects_an_overflowing_drawn_scale(self, scale, spread):
        with pytest.raises(ValueError, match="scale_seconds .* times scale_spread .* finite"):
            spec_of(scale_seconds=scale, scale_spread=spread)

    def test_accepts_a_large_finite_drawn_scale(self):
        assert spec_of(scale_seconds=1e300, scale_spread=1e8).scale_spread == 1e8


class TestGenerateWorkload:
    def test_constant_distribution_emits_constant_durations(self):
        dataset, policy, _ = generate_workload(
            spec_of(base_distribution="constant", scale_seconds=420.0, sigma=0.0)
        )
        assert {r.duration for r in dataset.records} == {420.0}
        assert all(r.verdict is Verdict.PASS for r in dataset.records)
        assert policy.value_for("test-000") == 7

    def test_draws_are_bounded_by_the_duration_limit(self):
        dataset, _, _ = generate_workload(
            spec_of(base_distribution="constant", scale_seconds=DURATION_LIMIT, sigma=0.0)
        )
        assert set(dataset.durations) == {DURATION_LIMIT}
        above = math.nextafter(DURATION_LIMIT, math.inf)
        with pytest.raises(ValueError, match=r"drew duration .* at most 2\*\*48 s"):
            generate_workload(spec_of(base_distribution="constant", scale_seconds=above, sigma=0.0))

    def test_percentile_one_yields_zero_timeout_verdicts(self):
        dataset, _, _ = generate_workload(
            spec_of(original_timeout_percentile=1.0, executions_per_test=200)
        )
        assert all(r.verdict is Verdict.PASS for r in dataset.records)

    def test_empirical_exceedance_matches_true_median(self):
        spec = spec_of(test_count=1, executions_per_test=10_000, seed=99)
        dataset, _, truth = generate_workload(spec)
        median = truth["test-000"].quantile(0.5)
        sample = dataset.sample("test-000", "r0")
        observed = sum(1 for d in sample.durations if d > median) / sample.n
        assert observed == pytest.approx(0.5, abs=0.02)

    def test_deterministic_given_seed(self):
        first, policy_a, _ = generate_workload(spec_of())
        second, policy_b, _ = generate_workload(spec_of())
        assert first == second
        assert policy_a == policy_b

    def test_hangs_are_censored_at_the_original_timeout(self):
        dataset, policy, _ = generate_workload(
            spec_of(hang_probability=1.0, executions_per_test=5)
        )
        for record in dataset.records:
            cap = policy.value_for(record.test_id) * 60.0
            assert record.duration == cap
            assert record.verdict is Verdict.TIMEOUT
            assert record.interrupted

    def test_uninterrupted_timeout_verdicts_past_the_original_value(self):
        dataset, policy, _ = generate_workload(
            spec_of(executions_per_test=500, original_timeout_percentile=0.7, seed=5)
        )
        overruns = [
            r
            for r in dataset.records
            if r.duration > policy.value_for(r.test_id) * 60.0
        ]
        assert overruns
        assert all(r.verdict is Verdict.TIMEOUT and not r.interrupted for r in overruns)

    def test_scale_spread_varies_tests(self):
        _, policy, truth = generate_workload(spec_of(test_count=8, scale_spread=3.0))
        scales = {d.scale for d in truth.values()}
        assert len(scales) == 8
        assert len(set(policy.values.values())) > 1

    def test_round_trips_through_ingestion(self, tmp_path):
        dataset, _, _ = generate_workload(spec_of(executions_per_test=20))
        path = tmp_path / "fleet.jsonl"
        write_executions(dataset, path)
        loaded, report = load_executions(path)
        assert report.rejected == 0
        assert loaded.test_ids() == dataset.test_ids()
        assert [r.verdict for r in loaded.records] == [r.verdict for r in dataset.records]
        for ours, theirs in zip(dataset.records, loaded.records):
            assert theirs.duration == pytest.approx(ours.duration)


class TestGroundTruth:
    def test_quantile_inverts_exceedance(self):
        dist = TestDistribution(
            kind="lognormal",
            scale=300.0,
            sigma=0.5,
            outlier_probability=0.05,
            outlier_factor_range=(2.0, 5.0),
            hang_probability=0.01,
        )
        for p in (0.1, 0.5, 0.85, 0.95):
            q = dist.quantile(p)
            assert dist.exceedance(q) == pytest.approx(1 - p, abs=1e-6)

    def test_exponential_exceedance_analytic(self):
        dist = TestDistribution(
            kind="exponential",
            scale=120.0,
            sigma=0.0,
            outlier_probability=0.0,
            outlier_factor_range=(2.0, 2.0),
            hang_probability=0.0,
        )
        assert dist.exceedance(120.0) == pytest.approx(math.exp(-1))
        assert dist.quantile(1 - math.exp(-1)) == pytest.approx(120.0, rel=1e-6)

    def test_hang_floor_caps_quantile(self):
        dist = TestDistribution(
            kind="lognormal",
            scale=300.0,
            sigma=0.5,
            outlier_probability=0.0,
            outlier_factor_range=(2.0, 2.0),
            hang_probability=0.05,
        )
        assert dist.exceedance(1e11) >= 0.05
        assert dist.quantile(0.99) >= 1e11

    def test_outlier_midpoints_near_the_float_limit_stay_finite(self):
        dist = TestDistribution(
            kind="lognormal",
            scale=1.0,
            sigma=0.5,
            outlier_probability=1.0,
            outlier_factor_range=(1e306, 1e308),
            hang_probability=0.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = dist.exceedance(1e308)
        # every finite midpoint is at most 1e308, so t / mid >= the median
        assert 0.0 < tail <= 0.5


def reference_exceedance(dist: TestDistribution, t: float) -> float:
    """``exceedance`` one value and one call at a time, over numpy midpoints."""

    def base(x):
        if x <= 0:
            return 1.0
        if dist.kind == "lognormal":
            if dist.sigma == 0:
                return 1.0 if x < dist.scale else 0.0
            z = math.log(x / dist.scale) / dist.sigma
            return 0.5 * math.erfc(z / math.sqrt(2.0))
        if dist.kind == "exponential":
            return math.exp(-x / dist.scale)
        return 1.0 if x < dist.scale else 0.0

    value = base(t)
    if dist.outlier_probability > 0:
        lo, hi = dist.outlier_factor_range
        if hi == lo:
            tail = base(t / lo)
        else:
            factors = np.linspace(lo, hi, 512)
            mids = factors[:-1] / 2.0 + factors[1:] / 2.0
            tail = float(np.mean([base(t / f) for f in mids]))
        value = (1 - dist.outlier_probability) * value + dist.outlier_probability * tail
    return dist.hang_probability + (1 - dist.hang_probability) * value


@pytest.mark.parametrize(
    "kind, sigma, outliers, factors, hangs",
    [
        ("lognormal", 0.5, 0.0, (2.0, 10.0), 0.0),
        ("lognormal", 0.5, 0.05, (2.0, 10.0), 0.03),
        ("lognormal", 0.0, 0.05, (2.0, 10.0), 0.0),
        ("lognormal", 1.5, 0.2, (3.0, 3.0), 0.01),
        ("exponential", 0.5, 0.05, (2.0, 10.0), 0.03),
        ("exponential", 0.5, 1.0, (1.5, 1e300), 0.0),
        ("constant", 0.0, 0.1, (2.0, 10.0), 0.0),
    ],
)
def test_exceedance_equals_the_per_value_reference(kind, sigma, outliers, factors, hangs):
    dist = TestDistribution(kind, 180.0, sigma, outliers, factors, hangs)
    probes = [-1.0, 0.0, 1e-300, 0.5, 59.9, 180.0, 360.0, 1234.5678, 1e7, 1e300]
    probes += [float(t) for t in np.geomspace(1.0, 1e5, 200)]
    for t in probes:
        assert repr(dist.exceedance(t)) == repr(reference_exceedance(dist, t)), t


def full_bisection(dist: TestDistribution, p: float) -> float:
    """``quantile`` as it ran before the early stop: always 200 steps."""
    target = 1.0 - p
    hi = max(dist.scale, 1.0)
    while dist.exceedance(hi) > target:
        hi *= 2.0
        if hi >= _QUANTILE_CAP:
            return _QUANTILE_CAP
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if dist.exceedance(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def distribution(kind: str, **overrides) -> TestDistribution:
    fields = dict(
        kind=kind,
        scale=300.0,
        sigma=0.5,
        outlier_probability=0.0,
        outlier_factor_range=(2.0, 10.0),
        hang_probability=0.0,
    )
    fields.update(overrides)
    return TestDistribution(**fields)


@pytest.mark.parametrize(
    "dist",
    [
        distribution("lognormal", outlier_probability=0.01),
        distribution("lognormal", scale=1234.5, outlier_probability=0.05, sigma=1.2),
        distribution("exponential", scale=120.0),
        distribution("lognormal", hang_probability=0.05),  # p = 0.99 hits the cap
    ],
    ids=["lognormal-outliers", "lognormal-wide", "exponential", "hang-cap"],
)
@pytest.mark.parametrize("p", [0.1, 0.5, 0.85, 0.99])
def test_quantile_stops_at_its_fixed_point(monkeypatch, dist, p):
    expected = full_bisection(dist, p)
    calls = 0
    exceedance = TestDistribution.exceedance

    def counted(self, t):
        nonlocal calls
        calls += 1
        return exceedance(self, t)

    monkeypatch.setattr(TestDistribution, "exceedance", counted)
    assert dist.quantile(p) == expected
    assert calls < 80


@pytest.mark.parametrize(
    "dist, p",
    [
        *(
            (dist, p)
            for dist in (
                distribution("lognormal", outlier_probability=0.01),
                distribution("lognormal", scale=1234.5, outlier_probability=0.05, sigma=1.2),
                distribution("exponential", scale=120.0),
                distribution("lognormal", hang_probability=0.05),
            )
            for p in (0.1, 0.5, 0.85, 0.99)
        ),
        # quantiles of 1.5 and 2.5 units: exactly on round()'s half-unit ties
        (distribution("constant", scale=90.0), 0.85),
        (distribution("constant", scale=150.0), 0.85),
        (distribution("lognormal"), 0.0),
        (distribution("lognormal", hang_probability=0.05), 1.0),  # the cap
    ],
)
def test_quantile_units_is_the_rounded_quantile(dist, p):
    assert dist.quantile_units(p) == max(1, round(dist.quantile(p) / GRID_SECONDS))


def test_hang_storm_timeouts_stop_searching_at_the_grid(monkeypatch):
    # perfbench's hang-storm simulate fleet; the full bisection makes 886 probes
    spec = WorkloadSpec(
        test_count=16,
        executions_per_test=500,
        base_distribution="exponential",
        scale_seconds=3 * GRID_SECONDS,
        scale_spread=4.0,
        outlier_probability=0.05,
        hang_probability=0.03,
        original_timeout_percentile=0.6,
        seed=7,
    )
    calls = 0
    exceedance = TestDistribution.exceedance

    def counted(self, t):
        nonlocal calls
        calls += 1
        return exceedance(self, t)

    monkeypatch.setattr(TestDistribution, "exceedance", counted)
    generate_workload(spec)
    assert calls <= 150


def run_python(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's timeopt."""
    src = str(Path(timeopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path}
    )


@pytest.mark.parametrize("module", ["timeopt", "timeopt.cli"])
def test_import_does_not_load_numpy(module):
    run_python(f"import sys, {module}; assert 'numpy' not in sys.modules")


LOADED = "sorted(m for m in sys.modules if m.startswith('timeopt.'))"
# Modules that generate class code at import, or that only such code needs
CODEGEN = "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"
# What tests/reference.py may take from the program, and names it must not use
REFERENCE_VALUE_TYPES = {"SampleStats", "TestSample", "Verdict"}
REFERENCE_FORBIDDEN = {
    "_SortedSample", "_EmpiricalSteps", "_TolhurstSteps", "_steps", "_cost", "_tallies", "_tally",
    "_kernel_of", "stats_of", "verdict_of", "__import__", "import_module", "optimize", "evaluate",
    "flakiness", "modules",
}


class TestImportGraph:
    """Each command imports only what it runs: names resolve on first use."""

    def test_package_loads_no_submodule(self):
        run_python(f"import sys, timeopt; assert {LOADED} == [], {LOADED}")

    def test_cli_loads_no_optimizer_until_a_handler_runs(self):
        # the optimize and sweep handlers import optimize themselves
        expected = ["timeopt.cli", "timeopt.ingest", "timeopt.model"]
        run_python(f"import sys, timeopt.cli; assert {LOADED} == {expected}, {LOADED}")

    def test_cli_loads_no_dataclasses_or_inspect(self):
        # record types are NamedTuples or _Frozen classes: no class code is
        # generated at import, and nothing pulls in inspect, ast, dis or tokenize
        run_python(f"import sys, timeopt.cli; assert {CODEGEN} == [], {CODEGEN}")

    def test_commands_load_no_dataclasses_or_inspect(self, tmp_path):
        runs, changes = str(tmp_path / "runs.jsonl"), tmp_path / "changes.jsonl"
        write_executions(verdict_dataset({"a": ["pass", "fail"] * 3, "b": ["pass"] * 6}), runs)
        changes.write_text(
            '{"test_id": "a", "changed_at": "2021-01-01T00:00:00Z", "new_value": 15}\n'
            '{"test_id": "a", "changed_at": "2021-02-01T00:00:00Z", "old_value": 15,'
            ' "new_value": 25}\n'
        )
        out = ["--out", str(tmp_path / "out")]
        commands = [
            ["optimize", "--input", runs, *out],
            ["sweep", "--input", runs, "--lo", "1", "--hi", "3", "--pb", "0.01", *out],
            ["evaluate", "--input", runs, "--k", "2", "--seed", "1", "--min-samples", "2", *out],
            ["flakiness", "--input", runs, "--revision", "r1", *out],
            ["compare", "--input-a", runs, "--input-b", runs, "--revision-a", "r1",
             "--revision-b", "r1", *out],
            ["summarize", "--input", runs, "--output-format", "table", *out],
            ["timeout-history", "--input", str(changes), *out],
        ]
        run_python(
            "import sys, timeopt.cli\n"
            f"for argv in {commands!r}:\n"
            "    assert timeopt.cli.run(argv) == 0, argv\n"
            f"    assert {CODEGEN} == [], (argv[0], {CODEGEN})\n"
        )

    def test_simulate_loads_no_statistics(self, tmp_path):
        # TimeoutPolicy lives in model, so simulate loads no evaluate;
        # statistics pulls in fractions and decimal
        report = tmp_path / "report.json"
        run_python(
            "import sys, timeopt.cli\n"
            "assert timeopt.cli.run(['simulate', '--tests', '2', '--runs', '20',"
            f" '--seed', '1', '--report-out', {str(report)!r}]) == 0\n"
            "assert 'timeopt.evaluate' not in sys.modules\n"
            "loaded = [m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules]\n"
            "assert loaded == [], loaded\n"
        )

    def test_evaluate_loads_no_statistics(self, tmp_path):
        # the totals' median_value is computed in place; statistics pulls in
        # fractions and decimal
        path = str(tmp_path / "runs.jsonl")
        write_executions(verdict_dataset({"a": ["pass"] * 6, "b": ["pass", "fail"] * 3}), path)
        run_python(
            "import sys, timeopt.cli\n"
            f"assert timeopt.cli.run(['evaluate', '--input', {path!r}, '--k', '2',"
            f" '--seed', '1', '--min-samples', '2', '--out', {path + '.cv'!r}]) == 0\n"
            "assert 'timeopt.evaluate' in sys.modules\n"
            "loaded = [m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules]\n"
            "assert loaded == [], loaded\n"
        )

    def test_flakiness_and_compare_load_no_statistics(self, tmp_path):
        # only timeout-history's quartiles and median need statistics
        path = str(tmp_path / "runs.jsonl")
        write_executions(verdict_dataset({"a": ["pass", "fail"] * 3, "b": ["pass"] * 6}), path)
        run_python(
            "import sys, timeopt.cli\n"
            f"assert timeopt.cli.run(['flakiness', '--input', {path!r}, '--revision', 'r1',"
            f" '--step', '1', '--out', {path + '.flaky'!r}]) == 0\n"
            f"assert timeopt.cli.run(['compare', '--input-a', {path!r}, '--input-b', {path!r},"
            f" '--revision-a', 'r1', '--revision-b', 'r1', '--out', {path + '.cmp'!r}]) == 0\n"
            "assert 'timeopt.flakiness' in sys.modules\n"
            "loaded = [m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules]\n"
            "assert loaded == [], loaded\n"
        )

    def test_public_names_are_their_modules_objects(self):
        run_python(
            "import importlib, timeopt\n"
            "for module, names in timeopt._EXPORTS.items():\n"
            "    owner = importlib.import_module(f'timeopt.{module}')\n"
            "    for name in names:\n"
            "        assert getattr(timeopt, name) is getattr(owner, name), name\n"
        )

    def test_dir_covers_all(self):
        run_python("import timeopt; assert set(timeopt.__all__) <= set(dir(timeopt))")

    def test_star_import(self):
        run_python(
            "import timeopt\n"
            "namespace = {}\n"
            "exec('from timeopt import *', namespace)\n"
            "assert set(timeopt.__all__) <= set(namespace), set(timeopt.__all__) - set(namespace)\n"
            "assert namespace['TimeoutOptimizer'] is timeopt.optimize.TimeoutOptimizer\n"
        )

    def test_submodule_attribute_imports_it(self):
        run_python("import timeopt; assert timeopt.evaluate.make_folds is timeopt.make_folds")

    def test_unknown_attribute_raises(self):
        # hasattr is False only on AttributeError; any other error propagates
        run_python("import timeopt; assert not hasattr(timeopt, 'no_such_name')")

    def test_reference_imports_no_program_code(self):
        # The tests' oracles must not share code with what they check: the
        # reference module imports the standard library and value types of
        # timeopt.model alone, and names no kernel, tally or adapter.
        path = Path(__file__).with_name("reference.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "timeopt.model":
                assert {alias.name for alias in node.names} <= REFERENCE_VALUE_TYPES
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names and top != "importlib", module
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            assert name not in REFERENCE_FORBIDDEN, name
        run_python(
            f"import sys; sys.path.insert(0, {str(path.parent)!r}); import reference\n"
            f"assert {LOADED} == ['timeopt.model'], {LOADED}"
        )


class TestSimulateRerunPolicy:
    def test_no_timeouts_no_reruns(self):
        dataset, _, _ = generate_workload(
            spec_of(base_distribution="constant", scale_seconds=120.0, sigma=0.0)
        )
        policy = TimeoutPolicy.static(10)
        report = simulate_rerun_policy(dataset, policy, rerun_count=3, seed=1)
        assert report.rerun_count == 0
        assert report.timeout_events == 0
        assert report.total_machine_seconds == pytest.approx(
            sum(r.duration for r in dataset.records)
        )
        assert report.rejected == 0

    def test_hang_costs_lie_within_the_rerun_noise(self):
        # 10 tests x 500 runs, 5% hangs: for a static policy and both fitted
        # ones, the cost model's whole-dataset average lies within three
        # standard deviations of the simulator's over ten rerun seeds. Scoring
        # a hang as a natural run of its enforced timeout put the model 200
        # or more of the simulator's standard errors below it.
        spec = WorkloadSpec(test_count=10, executions_per_test=500, hang_probability=0.05, seed=1)
        dataset, _, _ = generate_workload(spec)
        assert sum(dataset.censored) == 243
        policies = [TimeoutPolicy.static(60)] + [
            TimeoutPolicy(method, TimeoutOptimizer(config).fit(dataset).timeouts_)
            for method in PROBABILITY_METHODS
            for config in [OptimizationConfig(3, 0.0, method)]
        ]
        totals = compare_policies(dataset, policies, OptimizationConfig(3, 0.0, EMPIRICAL_ECDF))
        for policy, total in zip(policies, totals):
            simulated = [
                simulate_rerun_policy(dataset, policy, rerun_count=3, seed=seed)
                for seed in range(10)
            ]
            costs = [report.mean_cost_per_initial_run for report in simulated]
            noise = statistics.stdev(costs)
            assert abs(total.average_cost - statistics.fmean(costs)) <= 3 * noise, policy.label
            hangs_and_overruns = simulated[0].timeout_events
            assert total.flaky_timeout_count == hangs_and_overruns - 243  # hangs are not flaky

    def test_everything_hangs_charges_full_budget(self):
        dataset, policy, _ = generate_workload(
            spec_of(hang_probability=1.0, test_count=3, executions_per_test=10)
        )
        m = 3
        report = simulate_rerun_policy(dataset, policy, rerun_count=m, seed=0)
        expected = sum(
            (m + 1) * policy.value_for(r.test_id) * 60.0 for r in dataset.records
        )
        assert report.total_machine_seconds == pytest.approx(expected)
        assert report.rerun_count == m * report.timeout_events
        assert report.timeout_events == len(dataset.records)
        assert report.accepted == 0
        assert report.rejected == len(dataset.records)

    def test_rerun_budget_invariant(self):
        dataset, policy, _ = generate_workload(
            spec_of(executions_per_test=300, original_timeout_percentile=0.8, seed=42)
        )
        report = simulate_rerun_policy(dataset, policy, rerun_count=3, seed=7)
        assert report.rerun_count <= 3 * report.timeout_events
        assert report.initial_runs == len(dataset.records)

    def test_mean_cost_tracks_cost_model(self):
        spec = spec_of(
            test_count=5,
            executions_per_test=2_000,
            original_timeout_percentile=0.85,
            seed=21,
        )
        dataset, policy, _ = generate_workload(spec)
        report = simulate_rerun_policy(dataset, policy, rerun_count=3, seed=2)
        config = OptimizationConfig(probability_method=EMPIRICAL_ECDF, min_samples=2)
        predicted = []
        for test_id in dataset.test_ids():
            sample = dataset.sample(test_id, "r0")
            predicted.append(expected_cost(sample, policy.value_for(test_id) * 60.0, config))
        fleet_predicted = sum(predicted) / len(predicted)
        assert report.mean_cost_per_initial_run == pytest.approx(fleet_predicted, rel=0.05)

    def test_deterministic_given_seed(self):
        dataset, policy, _ = generate_workload(spec_of(executions_per_test=100, seed=4))
        a = simulate_rerun_policy(dataset, policy, rerun_count=3, seed=11)
        b = simulate_rerun_policy(dataset, policy, rerun_count=3, seed=11)
        assert a == b

    def test_replay_ignores_row_order(self):
        dataset, policy, _ = generate_workload(
            spec_of(executions_per_test=100, hang_probability=0.05, seed=4)
        )
        rows = list(dataset.records)
        random.Random(9).shuffle(rows)  # start times travel with their rows
        shuffled = ExecutionDataset(records=tuple(rows))
        ordered = simulate_rerun_policy(dataset, policy, rerun_count=3, seed=11)
        assert ordered.timeout_events > 0
        assert simulate_rerun_policy(shuffled, policy, rerun_count=3, seed=11) == ordered

    def test_policy_gap_errors(self):
        dataset, _, _ = generate_workload(spec_of())
        partial = TimeoutPolicy("original", values={"test-000": 5})
        with pytest.raises(ValueError, match="test-001"):
            simulate_rerun_policy(dataset, partial, rerun_count=3, seed=0)

    def test_censored_records_time_out_under_any_policy(self):
        # A hang record capped at 8 minutes still times out under a 30 minute
        # policy: the run would never have finished.
        dataset, policy, _ = generate_workload(
            spec_of(hang_probability=1.0, test_count=1, executions_per_test=4)
        )
        generous = TimeoutPolicy.static(policy.value_for("test-000") + 22)
        report = simulate_rerun_policy(dataset, generous, rerun_count=2, seed=0)
        assert report.timeout_events == 4
        assert report.total_machine_seconds == pytest.approx(
            4 * 3 * (policy.value_for("test-000") + 22) * 60.0
        )


# The first 16 hex digits of the sha256 of ``simulate --out`` and ``--report-out``
# for ``--tests 4 --runs 150 --spread 2 --m 2``, recorded before the generator
# and the replay drew in bulk: bulk draws must reproduce the scalar ones.
SIMULATE_DIGESTS = [
    ("lognormal", "plain", 3, "30721ef724706547", "1e08cd89ab415853"),
    ("lognormal", "plain", 8, "75fceb0035aca31d", "8435d6d763d20f27"),
    ("lognormal", "hangs", 3, "ee86be96fd4f6a39", "229e542f14657599"),
    ("lognormal", "hangs", 8, "5debba999d040559", "ddafb77ca3a67862"),
    ("lognormal", "outliers", 3, "81df4bfb0bf39bfd", "44cdb4f9ab491d7f"),
    ("lognormal", "outliers", 8, "eae7168e1498bb62", "cfc9ad288d18b9a8"),
    ("lognormal", "both", 3, "2bb1d12c9ce78222", "4b931eb5c16d0a0d"),
    ("lognormal", "both", 8, "d757460b462061d0", "c48fc22090c42cf8"),
    ("exponential", "plain", 3, "020ebca9487ae270", "b65e982d63b93a53"),
    ("exponential", "plain", 8, "f16043b1168e7431", "31348580d6bac4f5"),
    ("exponential", "hangs", 3, "a856c52bf732841a", "0df85abf72c88e07"),
    ("exponential", "hangs", 8, "c0f5e4206df84b70", "2558235882d84389"),
    ("exponential", "outliers", 3, "c180138d87f2d96b", "cb38014d9764c99f"),
    ("exponential", "outliers", 8, "a21f22e2d7096089", "2ea773a36cc91332"),
    ("exponential", "both", 3, "3eed96c7a055a0e0", "7ae147109222799d"),
    ("exponential", "both", 8, "18edc53fcad15d2b", "6ffcf4f031de058c"),
    ("constant", "plain", 3, "04941ed886a9bd02", "43d0589b5e737042"),
    ("constant", "plain", 8, "0d045f5a45110089", "fe66bdeccd58100d"),
    ("constant", "hangs", 3, "a3926fdfd21f4efd", "b8f9b2cab8cafa54"),
    ("constant", "hangs", 8, "9c0a2a9cef15a3b1", "e7932fee628ac272"),
    ("constant", "outliers", 3, "a8d8bc03f0d34048", "9d93c1acfaae9f84"),
    ("constant", "outliers", 8, "4b45b2e0881c5072", "a7789c026b347be2"),
    ("constant", "both", 3, "498710af884f58c7", "b3dce1b621cff5d6"),
    ("constant", "both", 8, "eb1e314ed5655f86", "5f803d6c78426582"),
]
SIMULATE_VARIANTS = {
    "plain": [],
    "hangs": ["--hang-prob", "0.04"],
    "outliers": ["--outlier-prob", "0.08"],
    "both": ["--hang-prob", "0.04", "--outlier-prob", "0.08"],
}


@pytest.mark.parametrize(
    "distribution, variant, seed, dataset_digest, report_digest",
    SIMULATE_DIGESTS,
    ids=[f"{dist}-{variant}-{seed}" for dist, variant, seed, *_ in SIMULATE_DIGESTS],
)
def test_simulate_outputs_are_pinned(
    tmp_path, distribution, variant, seed, dataset_digest, report_digest
):
    out, report = tmp_path / "runs.jsonl", tmp_path / "report.json"
    argv = ["simulate", "--tests", "4", "--runs", "150", "--spread", "2", "--m", "2"]
    argv += ["--distribution", distribution, *SIMULATE_VARIANTS[variant], "--seed", str(seed)]
    assert cli.run([*argv, "--out", str(out), "--report-out", str(report)]) == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()[:16] for path in (out, report)]
    assert digests == [dataset_digest, report_digest]


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize(
    "distribution, variant, seed, dataset_digest, report_digest",
    [case for case in SIMULATE_DIGESTS if case[1] == "both"],
    ids=[f"{dist}-{seed}" for dist, variant, seed, *_ in SIMULATE_DIGESTS if variant == "both"],
)
def test_simulate_outputs_hold_with_small_pick_chunks(
    tmp_path, monkeypatch, chunk, distribution, variant, seed, dataset_digest, report_digest
):
    # the rerun picks drawn a few at a time are the picks of one array draw
    monkeypatch.setattr(simulate, "_PICK_CHUNK", chunk)
    test_simulate_outputs_are_pinned(
        tmp_path, distribution, variant, seed, dataset_digest, report_digest
    )


class TestArrayDrawsEqualScalarDraws:
    """The numpy property behind the bulk draws of ``generate_workload`` and
    ``simulate_rerun_policy``: one array draw gives the values of, and leaves
    the generator where, the same number of successive scalar draws would."""

    def test_bounded_integers(self):
        for bound in range(1, 3001):
            scalar = np.random.default_rng((5, bound))
            array = np.random.default_rng((5, bound))
            draws = [int(scalar.integers(bound)) for _ in range(7)]
            assert array.integers(bound, size=7).tolist() == draws, bound
            assert array.bit_generator.state == scalar.bit_generator.state, bound

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, size: rng.standard_normal(size),
            lambda rng, size: rng.exponential(180.0, size),
        ],
        ids=["standard_normal", "exponential"],
    )
    def test_floats(self, draw):
        for seed in range(20):
            scalar = np.random.default_rng((seed, 1))
            array = np.random.default_rng((seed, 1))
            draws = [draw(scalar, None) for _ in range(500)]
            assert all(type(value) is float for value in draws)
            assert draw(array, 500).tolist() == draws, seed
            assert array.bit_generator.state == scalar.bit_generator.state, seed
