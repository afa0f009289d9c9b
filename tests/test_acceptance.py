"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines).
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import MINUTE, dataset_of, minutes_sample, sweep_fixture_dataset
from timeopt.cli import run
from timeopt.evaluate import cross_validate
from timeopt.ingest import write_executions
from timeopt.model import TestSample, Verdict, sample_stats
from timeopt.optimize import (
    EMPIRICAL_ECDF,
    TOLHURST_BOUND,
    OptimizationConfig,
    expected_cost,
    optimize_timeout,
    tolhurst_bound,
)
from timeopt.simulate import WorkloadSpec, generate_workload, simulate_rerun_policy

EMPIRICAL = OptimizationConfig(probability_method=EMPIRICAL_ECDF, min_samples=2)


@contextmanager
def runtime_budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds the {seconds}s budget"


def plain_sample(durations, test_id="t") -> TestSample:
    return TestSample(
        test_id=test_id,
        revision_id="r",
        durations=tuple(durations),
        verdicts=(Verdict.PASS,) * len(durations),
    )


def test_criterion_1_worked_example_golden():
    with runtime_budget(1.0):
        # Truncated mean 1.55 min and exceedance 0.15 at a 3 minute timeout.
        tight = minutes_sample([1.25] * 16 + [2.0] + [10.0 / 3, 25.0 / 6, 5.0])
        cost_tight = expected_cost(tight, 3 * MINUTE, EMPIRICAL)
        assert abs(cost_tight - 2.2475 * MINUTE) <= 1e-9
        assert round(cost_tight / MINUTE, 2) == 2.25

        # Truncated mean 1.77 min and exceedance 0.04 at a 6 minute timeout.
        loose = minutes_sample([95 / 60] * 23 + [110 / 60] + [400 / 60])
        assert abs(sum(min(d, 6 * MINUTE) for d in loose.durations) / 25 - 1.77 * MINUTE) < 1e-9
        cost_loose = expected_cost(loose, 6 * MINUTE, EMPIRICAL)
        assert abs(cost_loose - 1.9824 * MINUTE) <= 1e-9
        assert round(cost_loose / MINUTE, 2) == 1.98
    print("ACCEPTANCE 1 (worked-example golden values): PASS")


def test_criterion_2_cantelli_asymptote():
    with runtime_budget(5.0):
        rng = np.random.default_rng(2024)
        durations = rng.standard_normal(100_000) + 10.0
        assert durations.min() > 0
        stats = sample_stats(plain_sample(durations))
        bound = tolhurst_bound(stats, stats.mean + 2.0 * stats.q_n)
        limit = 1.0 / (1.0 + 2.0**2)
        assert abs(bound - limit) <= 0.01 * limit
    print("ACCEPTANCE 2 (Cantelli asymptote at n=1e5): PASS")


def test_criterion_3_bound_soundness_monte_carlo():
    with runtime_budget(30.0):
        n = 200
        trials = 1000
        lambdas = (1.5, 2.0, 3.0)

        def lognormal_survival(t):
            return 0.5 * math.erfc(math.log(t) / math.sqrt(2.0))

        for dist_index, (name, draw, survival) in enumerate(
            [
                ("exponential", lambda r: r.exponential(1.0, n), lambda t: math.exp(-t)),
                ("lognormal", lambda r: np.exp(r.standard_normal(n)), lognormal_survival),
            ]
        ):
            held = {lam: 0 for lam in lambdas}
            for trial in range(trials):
                rng = np.random.default_rng((3000 + trial, dist_index))
                stats = sample_stats(plain_sample(draw(rng)))
                for lam in lambdas:
                    t = stats.mean + lam * stats.q_n
                    if survival(t) <= tolhurst_bound(stats, t):
                        held[lam] += 1
            for lam in lambdas:
                fraction = held[lam] / trials
                assert fraction >= 0.95, f"{name} at lambda={lam}: {fraction:.3f}"
    print("ACCEPTANCE 3 (distributional bound soundness >= 95%): PASS")


def test_criterion_4_optimizer_oracle_equivalence():
    def oracle_argmin(sample, config):
        """Independent naive argmin over the full grid with tie-breaking."""
        stats = sample_stats(sample)
        lower = max(1, math.ceil(stats.mean / 60.0))
        upper = max(lower, math.ceil(2 * stats.max / 60.0))
        best_t, best_cost = None, None
        for t_units in range(lower, upper + 1):
            t = t_units * 60.0
            tm = sum(min(d, t) for d in sample.durations) / sample.n
            if config.probability_method == EMPIRICAL_ECDF:
                p = len([d for d in sample.durations if d > t]) / sample.n
            else:
                lam = (t - stats.mean) / stats.q_n if stats.q_n else None
                if stats.q_n == 0:
                    p = 0.0 if t > stats.mean else 1.0
                elif lam <= 1.0:
                    p = 1.0
                else:
                    k_sq = stats.n * lam**2 / (stats.n - 1 + lam**2)
                    p = min(1.0, max(0.0, math.floor((stats.n + 1) / (k_sq + 1)) / (stats.n + 1)))
            cost = tm * (1 + config.rerun_count * p)
            cost += config.breakage_probability * t * (config.rerun_count + 1)
            if best_cost is None or cost < best_cost:
                best_t, best_cost = t_units, cost
        return best_t

    with runtime_budget(10.0):
        rng = random.Random(4242)
        for trial in range(100):
            n = rng.randint(2, 50)
            durations = [rng.uniform(30.0, 3600.0) for _ in range(n)]
            method = EMPIRICAL_ECDF if trial % 2 == 0 else TOLHURST_BOUND
            breakage = 0.0 if trial % 3 else 0.01
            config = OptimizationConfig(
                probability_method=method, min_samples=2, breakage_probability=breakage
            )
            sample = plain_sample(durations)
            result = optimize_timeout(sample, config)
            lower, upper = result.search_range
            assert upper - lower <= 120
            assert result.optimal_timeout == oracle_argmin(sample, config)
    print("ACCEPTANCE 4 (optimizer equals brute-force argmin, 100 samples): PASS")


def test_criterion_5_end_to_end_timeout_reduction():
    with runtime_budget(60.0):
        spec = WorkloadSpec(
            test_count=50,
            executions_per_test=500,
            base_distribution="lognormal",
            scale_seconds=300.0,
            sigma=0.5,
            scale_spread=3.0,
            hang_probability=0.002,
            original_timeout_percentile=0.85,
            seed=20240501,
        )
        dataset, original_policy, _ = generate_workload(spec)
        config = OptimizationConfig()  # concentration-bound fitting, m=3
        report = cross_validate(dataset, [original_policy], config, k=5, seed=77)

        original_costs = []
        optimized_costs = []
        for fold in range(5):
            original = report.row(fold, "original")
            optimized = report.row(fold, "optimized")
            assert original.flaky_timeout_count > 0
            reduction = 1 - optimized.flaky_timeout_count / original.flaky_timeout_count
            assert reduction >= 0.50, f"fold {fold}: reduction {reduction:.2f}"
            original_costs.append(original.average_cost)
            optimized_costs.append(optimized.average_cost)
        assert sum(optimized_costs) / 5 <= sum(original_costs) / 5
    print("ACCEPTANCE 5 (cross-validated flaky-timeout reduction >= 50%): PASS")


def test_criterion_6_static_sweep_fixture(tmp_path, capsys):
    path = tmp_path / "fleet.jsonl"
    write_executions(sweep_fixture_dataset(), path)
    code = run(["sweep", "--input", str(path), "--lo", "75", "--hi", "180"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal_timeout_minutes"] == 115
    with capsys.disabled():
        print("\nACCEPTANCE 6 (static sweep argmin at 115 minutes): PASS")


def test_criterion_7_flakiness_brute_force_equivalence():
    runs = {
        ("t1", "r1"): [(60, "pass")] * 8 + [(600, "timeout")] * 2,
        ("t2", "r1"): [(60, "pass")] * 5 + [(90, "fail")] * 5,
        ("t3", "r1"): [(60, "pass")] * 10,
        ("t4", "r1"): [(90, "fail")] * 10,
        ("t5", "r1"): [(60, "pass")] + [(600, "timeout")] * 6 + [(90, "fail")] * 3,
        ("t6", "r1"): [(60, "pass")] * 9 + [(90, "fail")],
    }
    dataset = dataset_of(runs)

    # Naive re-implementation straight from the raw run lists.
    def naive_is_flaky(verdicts):
        outcomes = {v != "pass" for v in verdicts}
        return outcomes == {True, False}

    naive_flaky = 0
    naive_bins = [0] * 5
    naive_failures = 0
    naive_timeouts = 0
    for entries in runs.values():
        verdicts = [v for _, v in entries]
        if not naive_is_flaky(verdicts):
            continue
        naive_flaky += 1
        rate = sum(1 for v in verdicts if v != "pass") / len(verdicts)
        edges = [0.2, 0.4, 0.6, 0.8]
        slot = 4
        for i, edge in enumerate(edges):
            if rate <= edge:
                slot = i
                break
        naive_bins[slot] += 1
        naive_failures += sum(1 for v in verdicts if v != "pass")
        naive_timeouts += sum(1 for v in verdicts if v == "timeout")

    from timeopt.flakiness import (
        flakiness_evolution,
        flakiness_report,
        timeout_failure_share,
    )

    report = flakiness_report(dataset, "r1")
    assert report.unique_tests == 6
    assert report.flaky_tests == naive_flaky == 4
    assert report.flakiness_rate == naive_flaky / 6
    assert list(report.bin_counts) == naive_bins == [2, 0, 1, 0, 1]
    share, notes = timeout_failure_share(dataset)
    assert share == naive_timeouts / naive_failures == 8 / 17
    assert notes == ()

    step = 3
    series = flakiness_evolution(dataset, "r1", step=step)
    max_n = max(len(v) for v in runs.values())
    expected_points = []
    k = step
    while True:
        flaky = sum(
            1
            for entries in runs.values()
            if naive_is_flaky([v for _, v in entries][:k])
        )
        expected_points.append((k, flaky / 6))
        if k >= max_n:
            break
        k += step
    assert list(series.points) == expected_points
    print("ACCEPTANCE 7 (analytics equal naive recomputation, exactly): PASS")


def test_criterion_8_simulator_formula_bridge():
    with runtime_budget(30.0):
        spec = WorkloadSpec(
            test_count=10,
            executions_per_test=10_000,
            base_distribution="lognormal",
            scale_seconds=300.0,
            sigma=0.5,
            scale_spread=2.0,
            original_timeout_percentile=0.85,
            seed=8,
        )
        dataset, policy, _ = generate_workload(spec)
        assert len(dataset) == 100_000
        report = simulate_rerun_policy(dataset, policy, rerun_count=3, seed=88)
        predictions = [
            expected_cost(
                dataset.sample(test_id, "r0"),
                policy.value_for(test_id) * 60.0,
                EMPIRICAL,
            )
            for test_id in dataset.test_ids()
        ]
        predicted = sum(predictions) / len(predictions)
        simulated = report.mean_cost_per_initial_run
        assert abs(simulated - predicted) <= 0.05 * predicted
    print("ACCEPTANCE 8 (simulated mean cost within 5% of the cost model): PASS")


def test_criterion_9_seeded_commands_are_byte_identical(tmp_path, capsys):
    fleet = tmp_path / "fleet.jsonl"
    first_run = [
        "simulate",
        "--tests", "4",
        "--runs", "60",
        "--scale", "5",
        "--spread", "2.0",
        "--percentile", "0.85",
        "--seed", "17",
        "--out", str(fleet),
    ]
    assert run(first_run) == 0
    sim_stdout_1 = capsys.readouterr().out
    fleet_bytes_1 = fleet.read_bytes()
    assert run(first_run) == 0
    sim_stdout_2 = capsys.readouterr().out
    assert sim_stdout_1 == sim_stdout_2
    assert fleet.read_bytes() == fleet_bytes_1

    cv_out = tmp_path / "cv.json"
    evaluate_argv = [
        "evaluate",
        "--input", str(fleet),
        "--k", "5",
        "--seed", "23",
        "--static", "120",
        "--min-samples", "2",
        "--out", str(cv_out),
    ]
    assert run(evaluate_argv) == 0
    eval_stdout_1 = capsys.readouterr().out
    cv_bytes_1 = cv_out.read_bytes()
    assert run(evaluate_argv) == 0
    eval_stdout_2 = capsys.readouterr().out
    assert eval_stdout_1 == eval_stdout_2
    assert cv_out.read_bytes() == cv_bytes_1
    with capsys.disabled():
        print("\nACCEPTANCE 9 (seeded commands byte-identical): PASS")
