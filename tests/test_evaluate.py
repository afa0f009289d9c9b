import gc
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
from timeopt import cli, evaluate
from timeopt.evaluate import compare_policies, count_timeouts, cross_validate, make_folds
from timeopt.ingest import load_timeout_policy, write_executions, write_timeout_policy
from timeopt.model import ExecutionDataset, TimeoutPolicy
from timeopt.optimize import (
    EMPIRICAL_ECDF,
    TOLHURST_BOUND,
    OptimizationConfig,
    TimeoutOptimizer,
    _SortedSample,
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
        partial = TimeoutPolicy("original", values={"a": 5})
        with pytest.raises(ValueError, match="'b'"):
            cross_validate(dataset, [partial], CONFIG, k=5, seed=1)

    def test_reserved_label(self):
        dataset = fleet({"a": [60.0] * 10})
        bad = TimeoutPolicy("optimized", default=5)
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
        original = TimeoutPolicy("original", values=originals)
        report = cross_validate(dataset, [original], CONFIG, k=5, seed=13)
        for fold in range(5):
            optimized = report.row(fold, "optimized").flaky_timeout_count
            baseline = report.row(fold, "original").flaky_timeout_count
            assert optimized < baseline
        assert report.timeout_reduction["optimized"]["original"] > 0


def reference_fixture() -> ExecutionDataset:
    """Ties, signed zeros, censored hangs, two revisions and tests too small
    for the folds."""
    rng = random.Random(5)
    records = []
    minute = 0

    def add(test_id, duration, verdict="pass", interrupted=False, revision="r1"):
        nonlocal minute
        records.append(record(test_id, revision, minute % 7, duration, verdict, interrupted))
        minute += 1

    for duration in [60.0] * 12 + [120.0] * 10 + [180.0] * 8 + [61.0, 59.0, 900.0]:
        add("tied", duration)
    for duration in [0.0, -0.0] * 6 + [0.5, -0.0, 30.0]:
        add("zeros", duration)
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
    policies = [TimeoutPolicy.static(3), TimeoutPolicy.static(20, label="loose")]
    report = cross_validate(dataset, policies, config, k=k, seed=seed)
    expected = reference_cross_validate(dataset, policies, config, k, seed)
    assert report.excluded_tests == ("single", "tiny")
    assert report == expected


@pytest.mark.parametrize("k, seed", [(5, 0), (3, 11), (4, 7)])
def test_fold_kernels_count_the_censored_runs_of_the_subsample_reference(k, seed):
    # Split by make_folds' masks, as cross_validate splits it, each test's
    # kernel gives its held-out and training parts the censored counts of the
    # rows that reference_cross_validate subsamples for the fold.
    dataset = reference_fixture()
    folds = make_folds(dataset, k, seed)
    durations, censored = dataset.durations, dataset.censored
    counted = 0
    for test_id in dataset.test_ids():
        if test_id in folds.excluded_tests:
            continue
        indices = dataset.test_index[test_id]
        order = sorted(indices, key=durations.__getitem__)
        kernel = _SortedSample.of(dataset, order, test_id)
        assert kernel.c == dataset.pooled_sample(test_id).censored_count
        counted += kernel.c
        for fold in range(k):
            in_fold = [folds.assignment[i] == fold for i in order]
            held, train = kernel.split(in_fold, [censored[i] for i in order])
            for part, side in ((held, True), (train, False)):
                rows = [i for i in indices if (folds.assignment[i] == fold) is side]
                assert part.c == dataset.subsample(test_id, "*", rows).censored_count
    assert counted == 4  # the "hung" test's interrupted timeouts


class TestComparePolicies:
    def test_median_timeout_fixture(self):
        # Ten tests; original timeouts have median 15 and the alternative 11.
        runs = {f"t{i}": [60.0] * 3 for i in range(9)}
        dataset = fleet(runs)
        original = TimeoutPolicy(
            "original",
            values={f"t{i}": v for i, v in enumerate([5, 8, 10, 12, 15, 20, 25, 30, 40])},
        )
        optimized = TimeoutPolicy(
            "optimized",
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
        p1 = TimeoutPolicy("one", values={"a": 7, "b": 9})
        p2 = TimeoutPolicy("two", values={"a": 7, "b": 9})
        t1, t2 = compare_policies(dataset, [p1, p2], CONFIG)
        assert (t1.flaky_timeout_count, t1.average_cost, t1.median_timeout) == (
            t2.flaky_timeout_count,
            t2.average_cost,
            t2.median_timeout,
        )

    def test_kernels_only_for_samples_a_policy_cuts(self, monkeypatch):
        dataset = fleet({"a": [60.0] * 3, "b": [60.0, 400.0], "c": [500.0, 700.0]})
        policies = [
            TimeoutPolicy("one", values={"a": 1, "b": 5, "c": 20}),
            TimeoutPolicy("two", values={"a": 2, "b": 10, "c": 20}),
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
            scored = [sample.empirical_cost(seconds[tid], CONFIG) for tid, sample in every_kernel]
            costs = [cost for cost, _ in scored]
            assert row.flaky_timeout_count == sum(over for _, over in scored)
            assert row.average_cost == sum(costs) / len(costs)

    def test_holds_one_sample_kernel_at_a_time(self, monkeypatch):
        dataset = dataset_of(
            {
                (tid, revision): [(60.0 * (i % 7 + 1), "pass") for i in range(9)]
                for tid in ("a", "b", "c")
                for revision in ("r1", "r2")
            }
        )
        policy = TimeoutPolicy("original", values={"a": 2, "b": 4, "c": 8})
        alive_at_build = []
        init = _SortedSample.__init__

        def counting_init(self, *args):
            alive_at_build.append(len(live_kernels([""], besides=self)))
            init(self, *args)

        monkeypatch.setattr(_SortedSample, "__init__", counting_init)
        compare_policies(dataset, [policy, TimeoutPolicy.static(3)], CONFIG)
        assert alive_at_build == [0] * 6

    def test_coverage_gap_errors(self):
        dataset = fleet({"a": [60.0], "b": [60.0]})
        with pytest.raises(ValueError, match="has no timeout"):
            compare_policies(
                dataset, [TimeoutPolicy("original", values={"a": 5})], CONFIG
            )


def live_kernels(test_ids, besides=None) -> list:
    """Every kernel object of the given tests alive now, other than ``besides``."""
    return [
        o for o in gc.get_objects()
        if isinstance(o, _SortedSample) and o is not besides and o.test_id in test_ids
    ]


class TestKernelSharing:
    """``evaluate`` sorts each test's full kernel once: its folds, their
    training sides and the whole-dataset fit read it, and it is freed before
    the next test's is built, and before ``compare_policies`` builds its own
    (test, revision) kernels."""

    @staticmethod
    def spread_runs(tests: int) -> dict[str, list[float]]:
        rng = random.Random(3)
        return {f"shared{i}": [rng.uniform(60, 900) for _ in range(40)] for i in range(tests)}

    def test_evaluate_sorts_each_full_kernel_once(self, tmp_path, monkeypatch, capsys):
        # "tiny" has fewer runs than folds, and its fallback timeout cuts no run
        path = tmp_path / "runs.jsonl"
        runs = {**self.spread_runs(4), "tiny": [100.0, 1.0]}
        write_executions(fleet(runs), path)
        sorted_ids: list[str] = []
        sort = _SortedSample._sort

        def counting_sort(self):
            sorted_ids.append(self.test_id)
            sort(self)

        at_compare = []
        compare = evaluate.compare_policies

        def recording_compare(*args):
            at_compare.append((list(sorted_ids), len(live_kernels(runs))))
            return compare(*args)

        monkeypatch.setattr(_SortedSample, "_sort", counting_sort)
        monkeypatch.setattr(evaluate, "compare_policies", recording_compare)
        argv = ["evaluate", "--input", str(path), "--k", "3", "--seed", "5"]
        assert cli.run(argv + ["--out", str(path) + ".cv"]) == 0
        assert at_compare == [(["shared0", "shared1", "shared2", "shared3"], 0)]

    def test_fit_alone_holds_one_kernel_at_a_time(self, monkeypatch):
        runs = self.spread_runs(5)
        dataset = fleet(runs)
        alive_at_build = []
        init = _SortedSample.__init__

        def counting_init(self, *args):
            alive_at_build.append(len(live_kernels(runs, besides=self)))
            init(self, *args)

        monkeypatch.setattr(_SortedSample, "__init__", counting_init)
        TimeoutOptimizer(CONFIG).fit(dataset)
        assert alive_at_build == [0] * 5
        assert live_kernels(runs) == []

    def test_cross_validate_holds_one_test_kernel_at_a_time(self, monkeypatch):
        # "tiny" is excluded from the folds and gets a kernel for its whole fit
        runs = {**self.spread_runs(4), "tiny": [100.0, 1.0]}
        built = Counter()
        others_alive = []
        init = _SortedSample.__init__

        def counting_init(self, durations, test_id=""):
            built[test_id] += 1
            others = [o for o in live_kernels(runs, besides=self) if o.test_id != test_id]
            others_alive.append(len(others))
            init(self, durations, test_id)

        monkeypatch.setattr(_SortedSample, "__init__", counting_init)
        report = cross_validate(fleet(runs), [TimeoutPolicy.static(5)], CONFIG, k=3, seed=2)
        assert report.excluded_tests == ("tiny",)
        # a full kernel, then a held-out kernel and a training view per fold
        assert built == {**{tid: 1 + 2 * 3 for tid in self.spread_runs(4)}, "tiny": 1}
        assert others_alive == [0] * sum(built.values())
        assert live_kernels(runs) == []

    @pytest.mark.parametrize("method", [EMPIRICAL_ECDF, TOLHURST_BOUND])
    @pytest.mark.parametrize("min_samples", [2, 30])
    def test_fitted_timeouts_are_the_whole_fit(self, method, min_samples):
        # excluded tests, censored hangs, signed zeros and ties
        dataset = reference_fixture()
        config = OptimizationConfig(probability_method=method, min_samples=min_samples)
        report = cross_validate(dataset, [TimeoutPolicy.static(3)], config, k=5, seed=4)
        assert report.excluded_tests == ("single", "tiny")
        assert any(dataset.censored)
        fitted = TimeoutOptimizer(config).fit(dataset).timeouts_
        assert list(report.fitted_timeouts.items()) == list(fitted.items())


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
    policy = TimeoutPolicy("original", values={"a": 5})
    with pytest.raises(ValueError) as raised:
        score(dataset, policy)
    assert str(raised.value) == "policy 'original' has no timeout for test 'b'"


class TestTimeoutPolicy:
    @pytest.mark.parametrize(
        "values", [[7], [9, 3], [5, 1, 4], [2, 2, 8, 3], [1, 2], [10**20, 10**20 + 1]]
    )
    def test_median_value_is_the_statistics_median(self, values):
        import statistics

        policy = TimeoutPolicy("original", values={f"t{i}": v for i, v in enumerate(values)})
        median = policy.median_value(list(policy.values))
        expected = statistics.median(values)
        assert (type(median), median) == (type(expected), expected)

    def test_static_serves_every_test(self):
        policy = TimeoutPolicy.static(120)
        assert policy.value_for("anything") == 120
        assert policy.seconds(["x", "y"]) == {"x": 7200.0, "y": 7200.0}

    def test_values_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeoutPolicy("original", values={"a": 0})
        with pytest.raises(ValueError):
            TimeoutPolicy.static(0)

    def test_needs_values_or_default(self):
        with pytest.raises(ValueError):
            TimeoutPolicy("original")

    def test_an_id_utf8_cannot_encode_writes_no_file(self, tmp_path):
        path = tmp_path / "timeouts.csv"
        policy = TimeoutPolicy("original", values={"b\ud800": 1, "a": 2, "c\udc80": 3})
        with pytest.raises(ValueError, match=r"test id 'b\\ud800' cannot be encoded as UTF-8"):
            write_timeout_policy(policy, path)
        assert not path.exists()

    def test_csv_round_trip(self, tmp_path):
        policy = TimeoutPolicy("original", values={"b": 9, "a": 15})
        path = tmp_path / "timeouts.csv"
        write_timeout_policy(policy, path)
        loaded = load_timeout_policy(path)
        assert loaded.values == {"a": 15, "b": 9}
        assert path.read_text().splitlines()[0] == "test_id,timeout_minutes"
        assert path.read_bytes() == b"test_id,timeout_minutes\na,15\nb,9\n"
