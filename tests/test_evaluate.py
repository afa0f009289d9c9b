import random
from collections import Counter

import pytest

from helpers import (
    MINUTE,
    dataset_of,
    minutes_sample,
    record,
    reference_cross_validate,
    sample_of,
)
from timeopt import evaluate
from timeopt.evaluate import (
    TimeoutPolicy,
    compare_policies,
    count_timeouts,
    cross_validate,
    load_timeout_policy,
    make_folds,
    write_timeout_policy,
)
from timeopt.model import ExecutionDataset
from timeopt.optimize import (
    EMPIRICAL_ECDF,
    TOLHURST_BOUND,
    OptimizationConfig,
    empirical_exceedance,
)
from timeopt.simulate import simulate_rerun_policy

CONFIG = OptimizationConfig(probability_method=EMPIRICAL_ECDF, min_samples=2)


def fleet(test_runs: dict[str, list[float]]) -> ExecutionDataset:
    """One-revision dataset from test -> duration list (seconds)."""
    return dataset_of(
        {(tid, "r1"): [(d, "pass") for d in durations] for tid, durations in test_runs.items()}
    )


class TestCountTimeouts:
    def test_empty_sample(self):
        assert count_timeouts(sample_of([]), 10.0) == 0

    def test_strictly_greater(self):
        sample = minutes_sample([50, 70, 130])
        assert count_timeouts(sample, 120 * MINUTE) == 1
        assert count_timeouts(sample, 130 * MINUTE) == 0

    def test_none_above(self):
        assert count_timeouts(minutes_sample([1, 2]), 5 * MINUTE) == 0

    def test_equals_n_times_exceedance(self):
        rng = random.Random(53)
        for _ in range(50):
            durations = [rng.uniform(0, 500) for _ in range(rng.randint(1, 60))]
            sample = sample_of(durations)
            t = rng.uniform(0, 600)
            # identical integer count; the division by n is exact either way
            assert empirical_exceedance(sample, t) == count_timeouts(sample, t) / sample.n


class TestMakeFolds:
    def test_even_split(self):
        dataset = fleet({"a": [60.0] * 10})
        folds = make_folds(dataset, k=5, seed=1)
        sizes = Counter(folds.assignment.values())
        assert sizes == {f: 2 for f in range(5)}

    def test_remainder_split(self):
        dataset = fleet({"a": [60.0] * 7})
        folds = make_folds(dataset, k=5, seed=1)
        sizes = sorted(Counter(folds.assignment.values()).values(), reverse=True)
        assert sizes == [2, 2, 1, 1, 1]

    def test_same_seed_same_assignment(self):
        dataset = fleet({"a": [60.0] * 20, "b": [30.0] * 13})
        first = make_folds(dataset, k=5, seed=7)
        second = make_folds(dataset, k=5, seed=7)
        assert first == second

    def test_different_seeds_usually_differ(self):
        dataset = fleet({"a": [60.0 + i for i in range(40)]})
        a = make_folds(dataset, k=5, seed=1)
        b = make_folds(dataset, k=5, seed=2)
        assert a.assignment != b.assignment

    def test_partition_covers_every_included_execution_once(self):
        dataset = fleet({"a": [1.0] * 23, "b": [2.0] * 9, "c": [3.0] * 5})
        folds = make_folds(dataset, k=5, seed=3)
        assert sorted(folds.assignment) == list(range(len(dataset)))
        assert set(folds.assignment.values()) == set(range(5))

    def test_small_tests_excluded_with_warning(self):
        dataset = fleet({"a": [1.0] * 10, "tiny": [2.0] * 3})
        folds = make_folds(dataset, k=5, seed=1)
        assert folds.excluded_tests == ("tiny",)
        tiny_indices = [
            i for i, r in enumerate(dataset.records) if r.test_id == "tiny"
        ]
        assert not set(tiny_indices) & set(folds.assignment)

    def test_k_below_two_errors(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            make_folds(fleet({"a": [1.0] * 4}), k=1, seed=0)

    def test_per_test_fold_sizes_balanced(self):
        rng = random.Random(59)
        runs = {f"t{i}": [rng.uniform(1, 100) for _ in range(rng.randint(5, 37))] for i in range(8)}
        dataset = fleet(runs)
        folds = make_folds(dataset, k=5, seed=11)
        per_test: dict[str, Counter] = {}
        for i, fold in folds.assignment.items():
            per_test.setdefault(dataset.records[i].test_id, Counter())[fold] += 1
        for counter in per_test.values():
            sizes = [counter.get(f, 0) for f in range(5)]
            assert max(sizes) - min(sizes) <= 1


class TestCrossValidate:
    def test_report_is_deterministic(self):
        rng = random.Random(61)
        dataset = fleet(
            {f"t{i}": [rng.lognormvariate(5, 0.4) for _ in range(40)] for i in range(4)}
        )
        policies = [TimeoutPolicy.static(120)]
        first = cross_validate(dataset, policies, CONFIG, k=5, seed=9)
        second = cross_validate(dataset, policies, CONFIG, k=5, seed=9)
        assert first == second

    def test_static_above_global_max_has_no_timeouts(self):
        dataset = fleet({"a": [60.0, 120.0] * 5, "b": [30.0] * 10})
        report = cross_validate(dataset, [TimeoutPolicy.static(1000)], CONFIG, k=5, seed=2)
        for row in report.rows:
            if row.policy == "static":
                assert row.flaky_timeout_count == 0

    def test_self_reduction_is_zero(self):
        dataset = fleet({"a": [60.0 + i for i in range(20)]})
        report = cross_validate(dataset, [TimeoutPolicy.static(5)], CONFIG, k=4, seed=5)
        for policy in report.policies:
            assert report.timeout_reduction[policy][policy] == 0.0

    def test_missing_policy_value_names_test(self):
        dataset = fleet({"a": [60.0] * 10, "b": [60.0] * 10})
        partial = TimeoutPolicy(kind="original", values={"a": 5})
        with pytest.raises(ValueError, match="'b'"):
            cross_validate(dataset, [partial], CONFIG, k=5, seed=1)

    def test_reserved_label(self):
        dataset = fleet({"a": [60.0] * 10})
        bad = TimeoutPolicy(kind="static", default=5, name="optimized")
        with pytest.raises(ValueError, match="reserved"):
            cross_validate(dataset, [bad], CONFIG, k=5, seed=1)

    def test_every_fold_evaluated_once_per_policy(self):
        dataset = fleet({"a": [60.0] * 15, "b": [90.0] * 15})
        report = cross_validate(dataset, [TimeoutPolicy.static(10)], CONFIG, k=3, seed=4)
        seen = Counter((row.fold, row.policy) for row in report.rows)
        assert set(seen.values()) == {1}
        assert {fold for fold, _ in seen} == {0, 1, 2}

    def test_optimized_beats_tight_original_on_deterministic_fleet(self):
        # Original timeouts sit at the 85th percentile of each test's runs;
        # the optimizer should cut held-out timeouts in every fold.
        rng = random.Random(67)
        runs = {}
        originals = {}
        for i in range(10):
            test = f"t{i}"
            durations = sorted(rng.lognormvariate(5.5, 0.45) for _ in range(100))
            runs[test] = durations
            originals[test] = max(1, round(durations[84] / 60.0))
        dataset = fleet(runs)
        original = TimeoutPolicy(kind="original", values=originals)
        report = cross_validate(dataset, [original], CONFIG, k=5, seed=13)
        for fold in range(5):
            optimized = report.row(fold, "optimized").flaky_timeout_count
            baseline = report.row(fold, "original").flaky_timeout_count
            assert optimized < baseline
        assert report.timeout_reduction["optimized"]["original"] > 0


def reference_fixture() -> ExecutionDataset:
    """Ties, censored hangs, two revisions and tests too small for the folds."""
    rng = random.Random(5)
    records = []
    minute = 0

    def add(test_id, duration, verdict="pass", interrupted=False, revision="r1"):
        nonlocal minute
        records.append(record(test_id, revision, minute % 7, duration, verdict, interrupted))
        minute += 1

    for duration in [60.0] * 12 + [120.0] * 10 + [180.0] * 8 + [61.0, 59.0, 900.0]:
        add("tied", duration)
    for _ in range(36):
        add("hung", rng.lognormvariate(6.0, 0.5), revision=rng.choice(["r1", "r2"]))
    for _ in range(4):
        add("hung", 1200.0, "timeout", interrupted=True)
        add("hung", 1500.0, "timeout", interrupted=False)
    for _ in range(45):
        add("spread", rng.uniform(10.0, 4000.0), rng.choice(["pass", "fail"]))
    for duration in (30.0, 45.0):
        add("tiny", duration)
    add("single", 5.0)
    return ExecutionDataset(records=records)


@pytest.mark.parametrize(
    "config",
    [
        OptimizationConfig(),
        OptimizationConfig(probability_method=EMPIRICAL_ECDF),
        OptimizationConfig(rerun_count=5, breakage_probability=0.01, min_samples=2),
        OptimizationConfig(
            rerun_count=1, probability_method=EMPIRICAL_ECDF, min_samples=2, fallback_timeout=3
        ),
        OptimizationConfig(probability_method=TOLHURST_BOUND, min_samples=25),
    ],
)
@pytest.mark.parametrize("k, seed", [(5, 0), (3, 11), (4, 7)])
def test_cross_validate_equals_the_subsample_reference(config, k, seed):
    dataset = reference_fixture()
    policies = [TimeoutPolicy.static(3), TimeoutPolicy.static(20, name="loose")]
    report = cross_validate(dataset, policies, config, k=k, seed=seed)
    expected = reference_cross_validate(dataset, policies, config, k, seed)
    assert report.excluded_tests == ("single", "tiny")
    assert report == expected


class TestComparePolicies:
    def test_median_timeout_fixture(self):
        # Ten tests; original timeouts have median 15 and the alternative 11.
        runs = {f"t{i}": [60.0] * 3 for i in range(9)}
        dataset = fleet(runs)
        original = TimeoutPolicy(
            kind="original",
            values={f"t{i}": v for i, v in enumerate([5, 8, 10, 12, 15, 20, 25, 30, 40])},
        )
        optimized = TimeoutPolicy(
            kind="optimized",
            values={f"t{i}": v for i, v in enumerate([4, 6, 8, 9, 11, 14, 18, 22, 30])},
        )
        totals = {t.policy: t for t in compare_policies(dataset, [original, optimized], CONFIG)}
        assert totals["original"].median_timeout == 15
        assert totals["optimized"].median_timeout == 11

    def test_single_policy_totals(self):
        dataset = fleet({"a": [50 * MINUTE, 70 * MINUTE, 130 * MINUTE]})
        (totals,) = compare_policies(dataset, [TimeoutPolicy.static(120)], CONFIG)
        assert totals.flaky_timeout_count == 1
        assert totals.median_timeout == 120

    def test_identical_policies_identical_rows(self):
        dataset = fleet({"a": [60.0] * 4, "b": [100.0] * 4})
        p1 = TimeoutPolicy(kind="original", values={"a": 7, "b": 9}, name="one")
        p2 = TimeoutPolicy(kind="original", values={"a": 7, "b": 9}, name="two")
        t1, t2 = compare_policies(dataset, [p1, p2], CONFIG)
        assert (t1.flaky_timeout_count, t1.average_cost, t1.median_timeout) == (
            t2.flaky_timeout_count,
            t2.average_cost,
            t2.median_timeout,
        )

    def test_kernels_only_for_samples_a_policy_cuts(self, monkeypatch):
        dataset = fleet({"a": [60.0] * 3, "b": [60.0, 400.0], "c": [500.0, 700.0]})
        policies = [
            TimeoutPolicy(kind="original", values={"a": 1, "b": 5, "c": 20}, name="one"),
            TimeoutPolicy(kind="original", values={"a": 2, "b": 10, "c": 20}, name="two"),
        ]
        kernel = evaluate._SortedSample
        sort = kernel._sort
        built = []

        def counting_sort(self):
            built.append(list(self.ordered))
            sort(self)

        # every sample gets a kernel; only the one that a policy cuts is sorted
        monkeypatch.setattr(kernel, "_sort", counting_sort)
        totals = compare_policies(dataset, policies, CONFIG)
        assert built == [[60.0, 400.0]]
        every_kernel = [
            (tid, kernel([dataset.durations[i] for i in rows]))
            for (tid, _), rows in dataset.sample_index.items()
        ]
        for policy, row in zip(policies, totals):
            seconds = policy.seconds(dataset.test_ids())
            expected = evaluate._score(every_kernel, seconds, CONFIG)
            assert (row.flaky_timeout_count, row.average_cost) == expected

    def test_coverage_gap_errors(self):
        dataset = fleet({"a": [60.0], "b": [60.0]})
        with pytest.raises(ValueError, match="has no timeout"):
            compare_policies(
                dataset, [TimeoutPolicy(kind="original", values={"a": 5})], CONFIG
            )


@pytest.mark.parametrize(
    "score",
    [
        lambda dataset, policy: cross_validate(dataset, [policy], CONFIG, k=2),
        lambda dataset, policy: compare_policies(dataset, [policy], CONFIG),
        lambda dataset, policy: simulate_rerun_policy(dataset, policy),
    ],
    ids=["cross_validate", "compare_policies", "simulate_rerun_policy"],
)
def test_uncovered_test_raises_the_policy_error(score):
    dataset = fleet({"a": [60.0] * 4, "b": [60.0] * 4, "c": [60.0] * 4})
    policy = TimeoutPolicy(kind="original", values={"a": 5})
    with pytest.raises(ValueError) as raised:
        score(dataset, policy)
    assert str(raised.value) == "policy 'original' has no timeout for test 'b'"


class TestTimeoutPolicy:
    def test_static_serves_every_test(self):
        policy = TimeoutPolicy.static(120)
        assert policy.value_for("anything") == 120
        assert policy.seconds(["x", "y"]) == {"x": 7200.0, "y": 7200.0}

    def test_values_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeoutPolicy(kind="original", values={"a": 0})
        with pytest.raises(ValueError):
            TimeoutPolicy.static(0)

    def test_needs_values_or_default(self):
        with pytest.raises(ValueError):
            TimeoutPolicy(kind="original")

    def test_csv_round_trip(self, tmp_path):
        policy = TimeoutPolicy(kind="original", values={"b": 9, "a": 15})
        path = tmp_path / "timeouts.csv"
        write_timeout_policy(policy, path)
        loaded = load_timeout_policy(path)
        assert loaded.values == {"a": 15, "b": 9}
        assert path.read_text().splitlines()[0] == "test_id,timeout_minutes"
