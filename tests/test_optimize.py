import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from helpers import MINUTE, dataset_of, minutes_sample, record, sample_of
from timeopt.model import DURATION_LIMIT, ExecutionDataset, SampleStats
from timeopt.optimize import (
    EMPIRICAL_ECDF,
    PROBABILITY_METHODS,
    TOLHURST_BOUND,
    OptimizationConfig,
    TimeoutOptimizer,
    _cost,
    _SortedSample,
    _steps,
    _unit_at_least,
    _walk,
    empirical_exceedance,
    expected_cost,
    optimize_timeout,
    sample_stats,
    search_grid,
    static_sweep,
    timeout_probability,
    tolhurst_bound,
    truncated_mean,
)

EMPIRICAL = OptimizationConfig(probability_method=EMPIRICAL_ECDF, min_samples=2)
TOLHURST = OptimizationConfig(probability_method=TOLHURST_BOUND, min_samples=2)


def fig4_sample():
    """A 536-run sample with a short bulk and a stretched tail to 30.6 min."""
    minutes = (
        [1.2] * 400
        + [2.5] * 56
        + [3.5] * 24
        + [4.5] * 14
        + [5.5] * 10
        + [7.2] * 7
        + [9.0] * 6
        + [11.0] * 5
        + [13.8] * 5
        + [17.0] * 4
        + [21.0] * 3
        + [25.6]
        + [30.6]
    )
    assert len(minutes) == 536
    return minutes_sample(minutes)


class TestTolhurstBound:
    def test_hand_evaluated_example(self):
        stats = sample_stats(minutes_sample([1, 2, 3, 4, 5]))
        bound = tolhurst_bound(stats, 6 * MINUTE)
        # lam = sqrt(3), k^2 = 15/7, floor(6 / (22/7)) = 1, so 1/6.
        assert bound == pytest.approx(1 / 6, abs=1e-12)

    def test_at_mean_returns_trivial_bound(self):
        stats = sample_stats(minutes_sample([1, 2, 3, 4, 5]))
        assert tolhurst_bound(stats, stats.mean) == 1.0

    def test_below_validity_domain(self):
        stats = sample_stats(minutes_sample([1, 2, 3, 4, 5]))
        assert tolhurst_bound(stats, stats.mean + stats.q_n) == 1.0
        assert tolhurst_bound(stats, 0.0) == 1.0

    def test_large_n_approaches_cantelli(self):
        stats = SampleStats(n=100_000, mean=600.0, variance=100.0, q_n=10.0, max=1e4, min=0.0)
        bound = tolhurst_bound(stats, stats.mean + 2 * stats.q_n)
        assert bound == pytest.approx(1 / (1 + 4), rel=0.01)

    def test_degenerate_sample_rules(self):
        stats = sample_stats(minutes_sample([7, 7, 7]))
        assert tolhurst_bound(stats, 7 * MINUTE) == 1.0  # at the mean
        assert tolhurst_bound(stats, 7 * MINUTE + 1) == 0.0
        assert tolhurst_bound(stats, math.inf) == 0.0

    def test_insufficient_sample(self):
        stats = sample_stats(sample_of([5.0]))
        with pytest.raises(ValueError, match="insufficient sample"):
            tolhurst_bound(stats, 10.0)

    def test_non_increasing_past_validity_edge(self):
        rng = random.Random(23)
        for _ in range(30):
            durations = [rng.lognormvariate(4, 0.6) for _ in range(rng.randint(5, 80))]
            stats = sample_stats(sample_of(durations))
            if stats.q_n == 0:
                continue
            ts = [stats.mean + stats.q_n * (1 + 0.3 * j) for j in range(1, 12)]
            bounds = [tolhurst_bound(stats, t) for t in ts]
            assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_overflowing_lam_takes_the_limit(self):
        # lam is about 4e159, so n * lam * lam overflows a float; the bound
        # there is its floor 1 / (n + 1), the limit as lam grows, which an
        # infinite threshold also reads.
        stats = sample_stats(sample_of([0.0] * 39 + [1e-157]))
        assert tolhurst_bound(stats, 60.0) == 1 / 41
        assert tolhurst_bound(stats, math.inf) == 1 / 41

    def test_never_rises_or_reads_zero_far_past_the_last_step(self):
        # q_n is 7e-14, so lam^2 passes (n - 1) 2^49 within a unit of the
        # mean, where a float k^2 cannot tell n from just below it.
        stats = sample_stats(sample_of([501.62329724800196] * 5))
        bounds = [tolhurst_bound(stats, u * MINUTE) for u in range(1, 20_001)]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))
        assert 0.0 not in bounds

    def test_bounded_to_unit_interval(self):
        rng = random.Random(29)
        for _ in range(100):
            durations = [rng.expovariate(1 / 300) for _ in range(rng.randint(2, 50))]
            stats = sample_stats(sample_of(durations))
            t = rng.uniform(0, 4000)
            assert 0.0 <= tolhurst_bound(stats, t) <= 1.0


class TestEmpiricalEstimators:
    def test_exceedance_direct_count(self):
        sample = minutes_sample([50, 70, 130])
        assert empirical_exceedance(sample, 120 * MINUTE) == pytest.approx(1 / 3)

    def test_exceedance_zero_at_max(self):
        sample = minutes_sample([50, 70, 130])
        assert empirical_exceedance(sample, 130 * MINUTE) == 0.0

    def test_exceedance_fifteen_percent(self):
        sample = minutes_sample([2.0] * 85 + [4.0] * 15)
        assert empirical_exceedance(sample, 3 * MINUTE) == pytest.approx(0.15)

    def test_truncated_mean_clamps(self):
        assert truncated_mean(minutes_sample([2, 4]), 3 * MINUTE) == pytest.approx(2.5 * MINUTE)

    def test_truncated_mean_raw_beyond_max(self):
        sample = minutes_sample([2, 4])
        assert truncated_mean(sample, 10 * MINUTE) == pytest.approx(3 * MINUTE)

    def test_empty_sample_errors(self):
        empty = sample_of([])
        with pytest.raises(ValueError, match="empty sample"):
            empirical_exceedance(empty, 1.0)
        with pytest.raises(ValueError, match="empty sample"):
            truncated_mean(empty, 1.0)

    def test_monotonicity(self):
        rng = random.Random(31)
        for _ in range(30):
            durations = [rng.uniform(0, 900) for _ in range(rng.randint(1, 50))]
            sample = sample_of(durations)
            ts = sorted(rng.uniform(0, 1000) for _ in range(8))
            exceedances = [empirical_exceedance(sample, t) for t in ts]
            means = [truncated_mean(sample, t) for t in ts]
            assert all(b <= a for a, b in zip(exceedances, exceedances[1:]))
            assert all(b >= a for a, b in zip(means, means[1:]))


class TestExpectedCost:
    def test_worked_example_three_minutes(self):
        # truncated mean 1.55 min with exceedance 3/20 at a 3 minute timeout
        sample = minutes_sample([1.25] * 16 + [2.0] + [10.0 / 3, 25.0 / 6, 5.0])
        t = 3 * MINUTE
        assert truncated_mean(sample, t) == pytest.approx(1.55 * MINUTE)
        assert empirical_exceedance(sample, t) == pytest.approx(0.15)
        cost = expected_cost(sample, t, EMPIRICAL)
        assert cost == pytest.approx(2.2475 * MINUTE, abs=1e-9)

    @pytest.mark.parametrize("timeout", [0.0, -60.0, math.nan])
    def test_timeout_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive"):
            expected_cost(minutes_sample([1, 2, 3]), timeout, EMPIRICAL)

    def test_no_timeouts_reduces_to_raw_mean(self):
        sample = minutes_sample([1, 2, 3])
        assert expected_cost(sample, 3 * MINUTE, EMPIRICAL) == pytest.approx(2 * MINUTE)

    def test_breakage_term(self):
        sample = minutes_sample([1, 2, 3])
        config = OptimizationConfig(
            probability_method=EMPIRICAL_ECDF, breakage_probability=0.01, min_samples=2
        )
        t = 3 * MINUTE
        base = expected_cost(sample, t, EMPIRICAL)
        assert expected_cost(sample, t, config) == pytest.approx(base + 0.01 * t * 4)

    def test_cost_equals_raw_mean_beyond_max_without_breakage(self):
        rng = random.Random(37)
        for method in (EMPIRICAL, TOLHURST):
            for _ in range(20):
                durations = [rng.uniform(1, 600) for _ in range(rng.randint(2, 40))]
                sample = sample_of(durations)
                stats = sample_stats(sample)
                t = stats.max * (1 + rng.uniform(0.01, 2))
                expected = stats.mean
                if method.probability_method == TOLHURST_BOUND:
                    expected = stats.mean * (
                        1 + method.rerun_count * tolhurst_bound(stats, t)
                    )
                assert expected_cost(sample, t, method) == pytest.approx(expected)

    def test_strictly_increasing_beyond_max_with_breakage(self):
        config = OptimizationConfig(
            probability_method=EMPIRICAL_ECDF, breakage_probability=0.02, min_samples=2
        )
        rng = random.Random(41)
        for _ in range(20):
            durations = [rng.uniform(1, 600) for _ in range(rng.randint(1, 40))]
            sample = sample_of(durations)
            top = max(durations)
            ts = [top + j * 30 for j in range(1, 8)]
            costs = [expected_cost(sample, t, config) for t in ts]
            assert all(b > a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("reruns", [0, 3])
    @pytest.mark.parametrize("method", [EMPIRICAL_ECDF, TOLHURST_BOUND])
    def test_hangs_cost_inf_at_an_infinite_timeout(self, reruns, method):
        # a hang consumes the timeout, so with no rerun the cost is tm = inf
        sample = sample_of([60.0, 120.0, 90.0], censored=[False, False, True])
        config = OptimizationConfig(probability_method=method, rerun_count=reruns)
        assert expected_cost(sample, math.inf, config) == math.inf


def brute_force_argmin(sample, config):
    """Naive independent re-evaluation over the whole grid, with the
    reference statistics and Tolhurst bound."""
    stats = reference.sample_stats(sample)
    lower = max(1, math.ceil(stats.mean / MINUTE))
    upper = max(lower, math.ceil(2 * stats.max / MINUTE))
    best_t, best_cost = None, None
    for t_units in range(lower, upper + 1):
        t = t_units * MINUTE
        tm = sum(min(d, t) for d in sample.durations) / sample.n
        if config.probability_method == EMPIRICAL_ECDF:
            p = len([d for d in sample.durations if d > t]) / sample.n
        else:
            p = reference.tolhurst_bound(stats, t)
        cost = tm + config.rerun_count * p * tm + config.breakage_probability * t * (
            config.rerun_count + 1
        )
        if best_cost is None or cost < best_cost:
            best_t, best_cost = t_units, cost
    return best_t, best_cost


class TestOptimizeTimeout:
    def test_constant_sample_empirical(self):
        result = optimize_timeout(minutes_sample([7] * 40), EMPIRICAL)
        assert result.optimal_timeout == 7
        assert result.expected_cost_at_optimum == pytest.approx(7 * MINUTE)
        assert result.fallback_applied is False
        assert result.search_range == (7, 14)

    def test_constant_sample_tolhurst_skips_trivial_bound(self):
        # At t == mean the bound is the trivial 1.0, so the grid point just
        # above the mean wins for a zero-spread sample.
        result = optimize_timeout(minutes_sample([7] * 40), TOLHURST)
        assert result.optimal_timeout == 8
        assert result.expected_cost_at_optimum == pytest.approx(7 * MINUTE)

    def test_matches_brute_force_on_grid(self):
        sample = minutes_sample([1, 2, 3, 4, 5] * 8)
        result = optimize_timeout(sample, EMPIRICAL)
        expected_t, expected_cost_value = brute_force_argmin(sample, EMPIRICAL)
        assert result.search_range == (3, 10)
        assert result.optimal_timeout == expected_t
        assert result.expected_cost_at_optimum == pytest.approx(expected_cost_value)

    def test_histogram_shaped_sample_prefers_six_minutes(self):
        sample = fig4_sample()
        result = optimize_timeout(sample, EMPIRICAL)
        assert result.optimal_timeout == 6
        # Eliminating all timeouts (31+ minutes) costs the raw mean, which is
        # worse than the optimum: zero flakiness is not cost-optimal.
        raw_mean = sample_stats(sample).mean
        assert result.expected_cost_at_optimum < raw_mean
        assert expected_cost(sample, 31 * MINUTE, EMPIRICAL) == pytest.approx(raw_mean)

    def test_small_sample_falls_back(self):
        config = OptimizationConfig(probability_method=EMPIRICAL_ECDF, min_samples=30)
        result = optimize_timeout(minutes_sample([5, 6, 7]), config)
        assert result.fallback_applied is True
        assert result.optimal_timeout == config.fallback_timeout
        assert result.timeout_probability_at_optimum == 0.0

    @pytest.mark.parametrize("n, fallback", [(29, True), (30, False)])
    def test_fallback_starts_below_min_samples(self, n, fallback):
        config = OptimizationConfig(probability_method=EMPIRICAL_ECDF, min_samples=30)
        result = optimize_timeout(minutes_sample(([5, 6, 7] * 10)[:n]), config)
        assert result.fallback_applied is fallback
        assert result.optimal_timeout == (config.fallback_timeout if fallback else 7)
        assert result.search_range == (6, 14)

    @pytest.mark.parametrize("method", PROBABILITY_METHODS)
    @pytest.mark.parametrize("natural", [0, 1])
    def test_fewer_than_two_natural_runs_fall_back(self, method, natural):
        # 40 hangs and no or one natural run: no moments to fit, so the
        # fallback, with empirical diagnostics in which every hang times out
        config = OptimizationConfig(probability_method=method, min_samples=30)
        durations = [5 * MINUTE] * natural + [20 * MINUTE] * 40
        sample = sample_of(durations, censored=[False] * natural + [True] * 40)
        result = optimize_timeout(sample, config)
        fallback = config.fallback_timeout * MINUTE
        assert result.fallback_applied is True
        assert result.optimal_timeout == config.fallback_timeout
        assert result.timeout_probability_at_optimum == 40 / (40 + natural)
        assert result.expected_cost_at_optimum == reference.expected_cost(
            sample, fallback, OptimizationConfig(probability_method=EMPIRICAL_ECDF)
        )
        assert result.search_range == ((5, 10) if natural else (120, 120))
        runs = [record(minute=i, duration=d, verdict="timeout", interrupted=i >= natural)
                for i, d in enumerate(durations)]
        assert TimeoutOptimizer(config).fit(ExecutionDataset(runs)).timeouts_ == {"t1": 120}

    @pytest.mark.parametrize("hung, fallback", [(0, True), (1, False)])
    def test_min_samples_counts_censored_runs(self, hung, fallback):
        # 29 natural runs fall back at min_samples = 30; one hang more does not
        config = OptimizationConfig(probability_method=EMPIRICAL_ECDF, min_samples=30)
        durations = ([5, 6, 7] * 10)[:29] + [60] * hung
        sample = minutes_sample(durations, censored=[False] * 29 + [True] * hung)
        result = optimize_timeout(sample, config)
        assert result.fallback_applied is fallback
        assert result.optimal_timeout == (config.fallback_timeout if fallback else 7)
        assert result.search_range == (6, 14)

    def test_empty_sample_falls_back_with_nan_diagnostics(self):
        result = optimize_timeout(sample_of([]), EMPIRICAL)
        assert result.fallback_applied is True
        assert math.isnan(result.expected_cost_at_optimum)

    def test_ties_break_to_smallest_timeout(self):
        # All mass at 2 min: every t >= 2 has identical cost; smallest wins.
        result = optimize_timeout(minutes_sample([2] * 10), EMPIRICAL)
        assert result.optimal_timeout == 2

    def test_exhaustive_equivalence_random_samples(self):
        rng = random.Random(43)
        for trial in range(40):
            n = rng.randint(2, 50)
            durations = [rng.uniform(30, 3600) for _ in range(n)]
            sample = sample_of(durations)
            config = EMPIRICAL if trial % 2 == 0 else TOLHURST
            result = optimize_timeout(sample, config)
            expected_t, _ = brute_force_argmin(sample, config)
            assert result.optimal_timeout == expected_t
            lower, upper = result.search_range
            assert lower <= result.optimal_timeout <= upper
            floor = truncated_mean(sample, result.optimal_timeout * 60.0)
            assert result.expected_cost_at_optimum >= floor - 1e-9


class TestCandidateSearch:
    """Only the first grid point of each run of equal p is scored."""

    @staticmethod
    def exhaustive(kernel, config):
        """The whole-grid scan, with the kernel: (timeout, cost)."""
        stats = kernel.stats
        lower, upper = search_grid(stats)
        best_t, best_cost = lower, math.inf
        for t_units in range(lower, upper + 1):
            t = t_units * MINUTE
            tm, over = kernel.at(t)
            p = over / kernel.n if config == EMPIRICAL else tolhurst_bound(stats, t)
            cost = tm + config.rerun_count * p * tm
            if cost < best_cost:
                best_t, best_cost = t_units, cost
        return best_t, best_cost

    @pytest.mark.parametrize("huge", [1e7, DURATION_LIMIT], ids=["1e7", "limit"])
    @pytest.mark.parametrize("config", [EMPIRICAL, TOLHURST])
    def test_one_huge_run_costs_a_few_kernel_calls(self, monkeypatch, config, huge):
        durations = [60.0] * 39 + [huge]  # a grid of 329,167 or 9.4e12 points
        if huge == 1e7:
            expected = self.exhaustive(_SortedSample(durations), config)
        else:  # too far to scan; past the lower end tm alone exceeds its cost
            kernel = _SortedSample(durations)
            lower = search_grid(kernel.stats)[0]
            tm, over = kernel.at(lower * MINUTE)
            p = over / kernel.n if config == EMPIRICAL else 1.0
            expected = (lower, tm + config.rerun_count * p * tm)
        calls = 0
        at = _SortedSample.at

        def counting_at(self, threshold):
            nonlocal calls
            calls += 1
            return at(self, threshold)

        monkeypatch.setattr(_SortedSample, "at", counting_at)
        result = optimize_timeout(sample_of(durations), config)
        assert (result.optimal_timeout, result.expected_cost_at_optimum) == expected
        n = len(durations)
        # empirical: lower plus one per duration; Tolhurst: one per step
        assert calls <= (n + 1 if config == EMPIRICAL else (n + 1) // 2 + 1)

    @pytest.mark.parametrize("breakage", [0.0, 0.01])
    @pytest.mark.parametrize("method", PROBABILITY_METHODS)
    @pytest.mark.parametrize(
        "durations",
        [
            [420.0] * 30,  # on a grid point: p is 1 at lower, then 0 at once
            [437.5] * 31,  # between grid points
            [0.0] * 30,
            [1e5] * 40,
            [420.0] * 29 + [math.nextafter(420.0, math.inf)],  # one ulp of spread
            [437.5] * 30 + [math.nextafter(437.5, math.inf)] * 2,
            [math.nextafter(1e5, 0.0)] + [1e5] * 39,
        ],
        ids=["zero-420", "zero-437.5", "zero-0", "zero-1e5", "ulp-420", "ulp-437.5", "ulp-1e5"],
    )
    def test_zero_and_one_ulp_spread_equal_the_exhaustive_argmin(
        self, durations, method, breakage
    ):
        config = OptimizationConfig(probability_method=method, breakage_probability=breakage)
        sample = sample_of(durations)
        lower, upper = search_grid(reference.sample_stats(sample))
        expected = (lower, math.inf, math.inf)
        for u in range(lower, upper + 1):  # the reference functions at every grid point
            cost = reference.expected_cost(sample, u * MINUTE, config)
            if cost < expected[1]:
                expected = (u, cost, reference.timeout_probability(sample, u * MINUTE, config))
        result = optimize_timeout(sample, config)
        assert not result.fallback_applied
        assert (
            result.optimal_timeout,
            result.expected_cost_at_optimum,
            result.timeout_probability_at_optimum,
        ) == expected

    @pytest.mark.parametrize("config", [EMPIRICAL, TOLHURST])
    def test_the_stop_fires_on_a_lognormal_sample(self, monkeypatch, config):
        rng = random.Random(0)
        durations = [300 * rng.lognormvariate(0, 0.5) for _ in range(32)]
        kernel = _SortedSample(durations)
        lower, upper = search_grid(kernel.stats)
        steps = len(list(_walk(_steps(kernel, config.probability_method), lower, upper)))
        expected = self.exhaustive(kernel, config)
        calls = 0
        at = _SortedSample.at

        def counting_at(self, threshold):
            nonlocal calls
            calls += 1
            return at(self, threshold)

        monkeypatch.setattr(_SortedSample, "at", counting_at)
        result = optimize_timeout(sample_of(durations), config)
        assert (result.optimal_timeout, result.expected_cost_at_optimum) == expected
        # one call reads tm at lower, one reads it at each raised floor, and the
        # rest score candidates above them: so fewer calls than steps leave a
        # candidate above lower unscored
        assert calls < steps

    @pytest.mark.parametrize("config", [EMPIRICAL, TOLHURST])
    def test_a_750_run_fit_reads_the_kernel_a_few_times(self, monkeypatch, config):
        # a fold fit at paper scale: the argmin is the walk's first candidate,
        # and the raised floor reaches it after a few reads, where a floor
        # fixed at lower would let the walk score about 10 to 20 candidates
        rng = random.Random(0)
        durations = [300 * rng.lognormvariate(0, 0.5) for _ in range(750)]
        expected = self.exhaustive(_SortedSample(durations), config)
        calls = 0
        at = _SortedSample.at

        def counting_at(self, threshold):
            nonlocal calls
            calls += 1
            return at(self, threshold)

        monkeypatch.setattr(_SortedSample, "at", counting_at)
        result = optimize_timeout(_SortedSample(durations), config)
        assert (result.optimal_timeout, result.expected_cost_at_optimum) == expected
        assert calls <= 5

    @pytest.mark.parametrize(
        "seconds",
        [0.0, 5e-324, 59.9, 60.0, math.nextafter(60.0, math.inf), 1e7,
         2 * DURATION_LIMIT, math.nextafter(2 * DURATION_LIMIT, math.inf),
         math.nextafter(2 * DURATION_LIMIT + 60, 0.0), 2 * DURATION_LIMIT + 60],
    )
    def test_unit_at_least_is_exact(self, seconds):
        u = _unit_at_least(seconds)
        assert u * MINUTE >= seconds
        assert (u - 1) * MINUTE < seconds or u == 0

    def test_kernel_in_kernel_out(self):
        durations = [55.0, 61.0, 120.0] * 12
        kernel = _SortedSample(durations, "k")
        for config in (EMPIRICAL, TOLHURST):
            by_kernel = optimize_timeout(kernel, config)
            assert by_kernel == optimize_timeout(sample_of(durations, test_id="k"), config)
            assert by_kernel.test_id == "k"


# The smallest duration whose scaling puts DURATION_LIMIT at a finite float:
# 2**-923 has frexp exponent -922, so its denominator is 2**975.
FAST_FLOOR = 2.0**-923


def kernel_answers(kernel, thresholds):
    """(truncated mean, overruns), overruns alone, and the statistics."""
    return [kernel.at(t) for t in thresholds], [kernel.above(t) for t in thresholds], kernel.stats


def reference_answers(durations, thresholds):
    sample = sample_of(durations)
    counts = [reference.count_timeouts(sample, t) for t in thresholds]
    means = [reference.truncated_mean(sample, t) for t in thresholds]
    return list(zip(means, counts)), counts, reference.sample_stats(sample)


def fold_answers(kernel, thresholds):
    """(truncated mean, overruns), overruns alone, the statistics (0 with no
    natural run) and c."""
    at = [kernel.at(t) for t in thresholds]
    return at, [kernel.above(t) for t in thresholds], kernel.n_nat and kernel.stats, kernel.c


def reference_fold_answers(sample, thresholds):
    counts = [reference.count_timeouts(sample, t) for t in thresholds]
    means = [reference.truncated_mean(sample, t) for t in thresholds]
    stats = sample.n - sample.censored_count and reference.sample_stats(sample)
    return list(zip(means, counts)), counts, stats, sample.censored_count


class TestExactScaling:
    """Both branches of the kernel's common denominator against the ``fsum``
    references, bit for bit: the fast 2**(53 - e) scaling, and the
    ``as_integer_ratio`` fallback where DURATION_LIMIT * 2**(53 - e) overflows."""

    CASES = [
        pytest.param([0.0] * 6, 1, id="all-zero"),
        pytest.param([0.0, -0.0, -0.0, 0.0, 3.5, -0.0, 0.0], 2**51, id="signed-zeros"),
        pytest.param([5e-324, 0.0, 1.0, DURATION_LIMIT], 2**1074, id="subnormal-and-limit"),
        pytest.param([FAST_FLOOR, 0.1, 7.0, DURATION_LIMIT], 2**975, id="fast-at-the-floor"),
        pytest.param(
            [math.nextafter(2 * FAST_FLOOR, 0.0), 0.1, DURATION_LIMIT], 2**975,
            id="fast-full-mantissa",
        ),
        pytest.param(
            [math.nextafter(FAST_FLOOR, 0.0), 0.1, DURATION_LIMIT], 2**976, id="past-the-floor"
        ),
        pytest.param([0.3, 0.1, 0.1, 0.2, 0.1, 0.3, 0.3, 0.2] * 2, 2**56, id="ties"),
    ]

    @staticmethod
    def thresholds(durations):
        points = {0.0, -0.0, 1e-300, 0.15, 60.0, math.inf, DURATION_LIMIT}
        for d in durations:
            points.update((d, math.nextafter(d, 0.0), math.nextafter(d, math.inf), d / 2))
        return sorted(points)

    @pytest.mark.parametrize("durations, denominator", CASES)
    def test_kernel_equals_the_reference(self, durations, denominator):
        thresholds = self.thresholds(durations)
        kernel = _SortedSample(durations)
        kernel._sort()  # so every answer reads the integers
        assert kernel.denominator == denominator
        assert kernel_answers(kernel, thresholds) == reference_answers(durations, thresholds)

    @pytest.mark.parametrize("durations, denominator", CASES)
    @pytest.mark.parametrize(
        "pattern, hung",
        [(pattern, hung) for pattern in ("alternate", "first-half", "all-but-the-max", "ties")
         for hung in (0, 3)] + [("hung-only", 3)],
    )
    def test_fold_kernels_equal_the_kernels_of_their_rows(
        self, durations, denominator, pattern, hung
    ):
        # The runs are the durations in sorted order, then ``hung`` censored
        # runs; the two parts take the sorted positions the pattern keeps, or
        # the others, and the censored runs alternately. "ties" cuts every run
        # of equal durations in two, and "hung-only" holds out the censored
        # runs alone. Each fold's held-out kernel and training kernel answer
        # as the kernel built from its rows and as the fsum references.
        ordered = sorted(durations)
        n = len(ordered)
        keep = {
            "alternate": [i % 2 == 0 for i in range(n)],
            "first-half": [i < n // 2 for i in range(n)],
            "all-but-the-max": [i < n - 1 for i in range(n)],
            "ties": [ordered[i] == ordered[i - 1] if i else False for i in range(n)],
            "hung-only": [False] * n,
        }[pattern] + [pattern == "hung-only" or i % 2 == 0 for i in range(hung)]
        runs = sample_of(ordered + ordered[:1] * hung, censored=[False] * n + [True] * hung)
        parts = [[i for i, k in enumerate(keep) if k is side] for side in (True, False)]
        thresholds = self.thresholds(durations)
        kernel, pieces = _SortedSample.of_parts(runs, parts)
        assert kernel.denominator == denominator
        assert fold_answers(kernel, thresholds) == reference_fold_answers(runs, thresholds)
        for fold in range(2):
            for part, rows in zip(kernel.fold(pieces, fold), (parts[fold], parts[1 - fold])):
                own = _SortedSample.of(runs, rows)
                assert part.n == own.n
                if not rows:  # "ties" on distinct durations; no fold is empty
                    continue
                assert fold_answers(part, thresholds) == fold_answers(own, thresholds)
                assert part.ordered == sorted(own.ordered)
                subsample = sample_of(
                    [runs.durations[i] for i in rows], censored=[runs.censored[i] for i in rows]
                )
                assert fold_answers(part, thresholds) == reference_fold_answers(
                    subsample, thresholds
                )

    @pytest.mark.parametrize("method", PROBABILITY_METHODS)
    @pytest.mark.parametrize(
        "durations",
        [[0.0, -0.0] * 20, [-0.0, 0.0] * 20, [0.0, -0.0, 90.0] * 12, [-0.0] * 3 + [200.0] * 33],
        ids=["zeros", "zeros-negative-first", "zeros-and-runs", "negative-zeros-and-runs"],
    )
    def test_no_output_reads_the_sign_of_a_zero(self, durations, method):
        # A sorted end can differ from max() or min() in the sign of a zero;
        # the search reads the same answer either way.
        config = OptimizationConfig(probability_method=method)
        kernel = _SortedSample(durations, "t1")
        kernel._sort()
        positive = [abs(d) for d in durations]
        assert repr(optimize_timeout(kernel, config)) == repr(
            optimize_timeout(sample_of(positive), config)
        )
        assert search_grid(kernel.stats) == search_grid(sample_stats(sample_of(positive)))


@st.composite
def early_stop_case_st(draw) -> list[float]:
    """2-60 durations: spread over up to a day, or equal but for a few one
    ulp above, so that p drops from 1 to its floor within one grid unit; or
    100-800 lognormal runs and up to 3 far outliers, where the argmin lies
    near the top and the search floor rises to it."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        scale, sigma = draw(st.floats(1.0, 3600.0)), draw(st.floats(0.05, 1.0))
        runs = [scale * rng.lognormvariate(0, sigma) for _ in range(draw(st.integers(100, 800)))]
        return runs + [scale * f for f in draw(st.lists(st.floats(10.0, 1000.0), max_size=3))]
    n = draw(st.integers(2, 60))
    if draw(st.booleans()):
        return draw(st.lists(st.floats(min_value=0.0, max_value=86400.0), min_size=n, max_size=n))
    base = draw(st.floats(min_value=0.0, max_value=86400.0))
    above = draw(st.integers(0, min(3, n - 1)))
    return [base] * (n - above) + [math.nextafter(base, math.inf)] * above


@settings(max_examples=200, deadline=None)
@given(
    durations=early_stop_case_st(),
    method=st.sampled_from(PROBABILITY_METHODS),
    reruns=st.integers(0, 5),
    breakage=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
)
@example(durations=[60.0, 90.0, 600.0] * 10, method=TOLHURST_BOUND, reruns=0, breakage=0.0)
@example(durations=[60.0, 90.0, 600.0] * 10, method=EMPIRICAL_ECDF, reruns=3, breakage=0.05)
# every cost overflows: no cost is kept, and the result is (lower, inf, inf)
@example(
    durations=[DURATION_LIMIT / 2, DURATION_LIMIT] * 15, method=TOLHURST_BOUND, reruns=10**300,
    breakage=0.0,
)
# the edges of the floor's inversion, the least count whose p prices out
# the units below its step: the Tolhurst j* = 1 (zero spread: j falls from
# n + 1 to 0 at the best), and j* > n + 1 (with m = 0 no p costs more)
@example(durations=[120.0] * 30, method=TOLHURST_BOUND, reruns=3, breakage=0.0)
@example(durations=[30.0, 60.0, 1800.0], method=TOLHURST_BOUND, reruns=0, breakage=0.0)
# empirical k* at its least, 1, with no count 0 priced out, since the best
# has p = 0; and k* > n, where no overrun count costs more than the best
@example(durations=[30.0, 60.0, 90.0], method=EMPIRICAL_ECDF, reruns=3, breakage=0.0)
@example(durations=[30.0] * 20 + [60.0] * 2 + [1800.0] * 2, method=EMPIRICAL_ECDF, reruns=3,
         breakage=0.0)
# candidates tie on cost, so a floor raised on a cost merely equal to the
# best would pass the smaller timeout
@example(durations=[0.0, 90.0], method=EMPIRICAL_ECDF, reruns=1, breakage=0.0)
@example(durations=[30.0, 60.0], method=TOLHURST_BOUND, reruns=0, breakage=0.0)
# the probed order statistic is tied with the one above it
@example(durations=[30.0, 60.0, 1800.0, 1800.0], method=EMPIRICAL_ECDF, reruns=3, breakage=0.0)
# with breakage, the floor rises by a read below the best, under both methods
@example(durations=[30.0] * 5 + [90.0, 150.0], method=EMPIRICAL_ECDF, reruns=3, breakage=0.01)
@example(durations=[30.0, 60.0, 150.0, 150.0], method=TOLHURST_BOUND, reruns=1, breakage=0.05)
def test_early_stop_never_changes_the_result(durations, method, reruns, breakage):
    """The search equals scoring every candidate of the whole walk, upward,
    keeping a strictly smaller cost: with m = 0 (where, without breakage,
    the stop never fires), with breakage, and where p falls in one step."""
    config = OptimizationConfig(
        rerun_count=reruns, breakage_probability=breakage, probability_method=method, min_samples=2
    )
    result = optimize_timeout(sample_of(durations), config)
    kernel = _SortedSample(durations)
    lower, upper = search_grid(kernel.stats)
    expected = (lower, math.inf, math.inf)
    for u, p in reversed(list(_walk(_steps(kernel, method), lower, upper))):
        cost = _cost(kernel.at(u * MINUTE)[0], p, u * MINUTE, config)
        if cost < expected[1]:
            expected = (u, cost, p)
    assert (
        result.optimal_timeout,
        result.expected_cost_at_optimum,
        result.timeout_probability_at_optimum,
    ) == expected


class TestStaticSweep:
    def test_flat_curve_ties_to_smallest(self):
        dataset = dataset_of({("a", "r1"): [(10 * MINUTE, "pass")]})
        result = static_sweep(dataset, (75, 180), EMPIRICAL)
        assert result.optimal_timeout == 75
        assert result.average_cost_at_optimum == pytest.approx(10 * MINUTE)
        assert all(cost == pytest.approx(10 * MINUTE) for _, cost in result.curve.points)

    def test_matches_oracle_recomputation(self):
        rng = random.Random(47)
        runs = {}
        for i in range(6):
            runs[(f"t{i}", "r1")] = [
                (rng.uniform(60, 7200), "pass") for _ in range(rng.randint(3, 30))
            ]
        dataset = dataset_of(runs)
        lo, hi = 30, 150
        result = static_sweep(dataset, (lo, hi), EMPIRICAL)

        samples = list(dataset.samples.values())
        best_t, best_cost = None, None
        for t_units in range(lo, hi + 1):
            t = t_units * 60.0
            costs = []
            for s in samples:
                tm = sum(min(d, t) for d in s.durations) / s.n
                p = sum(1 for d in s.durations if d > t) / s.n
                costs.append(tm * (1 + 3 * p))
            avg = sum(costs) / len(costs)
            if best_cost is None or avg < best_cost:
                best_t, best_cost = t_units, avg
        assert result.optimal_timeout == best_t
        assert result.average_cost_at_optimum == pytest.approx(best_cost)

    def test_sweep_always_uses_empirical_probabilities(self):
        dataset = dataset_of({("a", "r1"): [(5 * MINUTE, "pass")] * 10})
        by_bound = static_sweep(dataset, (5, 20), TOLHURST)
        by_ecdf = static_sweep(dataset, (5, 20), EMPIRICAL)
        assert by_bound.curve == by_ecdf.curve

    @pytest.mark.parametrize("breakage", [0.0, 0.01])
    def test_scores_only_samples_running_past_the_previous_point(self, monkeypatch, breakage):
        lo, hi = 75, 130
        runs = {
            (f"s{i:03d}", "r1"): [((i % 70 + 1) * MINUTE, "pass"), (lo * MINUTE, "pass")]
            for i in range(200)
        }
        runs[("slow", "r1")] = [(10 * MINUTE, "pass"), (200 * MINUTE, "pass")]
        dataset = dataset_of(runs)
        config = OptimizationConfig(breakage_probability=breakage)
        calls = 0
        at = _SortedSample.at

        def counting_at(self, threshold):
            nonlocal calls
            calls += 1
            return at(self, threshold)

        monkeypatch.setattr(_SortedSample, "at", counting_at)
        static_sweep(dataset, (lo, hi), config)
        # Every sample is scored at lo, where all but "slow" saturate.
        assert calls <= 201 + 2 * (hi - lo + 1)

    def test_saturated_samples_take_no_cost_call(self, monkeypatch):
        # With breakage, a saturated sample costs its mean plus the point's
        # breakage term, added with no _cost call: a sample is scored through
        # _cost at each point up to the one where it saturates, and never after.
        lo, hi = 10, 60
        runs = {(f"s{i}", "r1"): [(i * MINUTE, "pass"), (lo * MINUTE, "pass")] for i in range(8)}
        runs[("slow", "r1")] = [(5 * MINUTE, "pass"), (30.5 * MINUTE, "pass")]
        dataset = dataset_of(runs)
        config = OptimizationConfig(
            breakage_probability=0.01, probability_method=EMPIRICAL_ECDF, rerun_count=2
        )
        calls = []

        def counting_cost(*args):
            calls.append(args)
            return _cost(*args)

        monkeypatch.setattr("timeopt.optimize._cost", counting_cost)
        result = static_sweep(dataset, (lo, hi), config)
        # the eight saturate at lo; "slow" is scored from 10 through 31, where it saturates
        assert len(calls) == 8 + (31 - lo + 1)
        samples = list(dataset.samples.values())
        assert result.curve.points == tuple(
            (t, math.fsum(reference.expected_cost(s, t * MINUTE, config) for s in samples) / 9)
            for t in range(lo, hi + 1)
        )

    def test_samples_saturated_at_lo_get_no_kernel(self, monkeypatch):
        lo = 10
        runs = {(f"s{i}", "r1"): [(i * MINUTE, "pass"), (lo * MINUTE, "pass")] for i in range(8)}
        runs[("slow", "r1")] = [(5 * MINUTE, "pass"), (math.nextafter(lo * MINUTE, 1e9), "pass")]
        dataset = dataset_of(runs)
        built = []
        sort = _SortedSample._sort

        def counting_sort(self):
            built.append(tuple(self.ordered))
            sort(self)

        # every sample gets a kernel; only the one that lo cuts is sorted
        monkeypatch.setattr(_SortedSample, "_sort", counting_sort)
        static_sweep(dataset, (lo, 20), EMPIRICAL)
        assert built == [dataset.sample("slow", "r1").durations]

    def test_invalid_range_and_empty_dataset(self):
        dataset = dataset_of({("a", "r1"): [(60, "pass")]})
        with pytest.raises(ValueError, match="lo < hi"):
            static_sweep(dataset, (10, 10), EMPIRICAL)
        from timeopt.model import ExecutionDataset

        with pytest.raises(ValueError, match="empty dataset"):
            static_sweep(ExecutionDataset(records=()), (5, 10), EMPIRICAL)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rerun_count": -1},
            {"rerun_count": 10**400},  # past the float range, where the cost cannot take it
            {"breakage_probability": 1.5},
            {"probability_method": "guesswork"},
            {"min_samples": 1},
            {"fallback_timeout": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizationConfig(**kwargs)


class TestTimeoutOptimizerEstimator:
    def test_fit_predict(self):
        dataset = dataset_of(
            {
                ("a", "r1"): [(m * MINUTE, "pass") for m in [7] * 40],
                ("b", "r1"): [(m * MINUTE, "pass") for m in [1, 2, 3, 4, 5] * 8],
            }
        )
        config = OptimizationConfig(probability_method=EMPIRICAL_ECDF, min_samples=2)
        est = TimeoutOptimizer(config).fit(dataset)
        assert est.predict(["a"]) == [7]
        assert est.timeouts_["b"] == optimize_timeout(
            dataset.pooled_sample("b"), config
        ).optimal_timeout

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            TimeoutOptimizer().predict(["a"])

    def test_predict_unknown_test_raises(self):
        dataset = dataset_of({("a", "r1"): [(60.0, "pass")] * 5})
        est = TimeoutOptimizer(OptimizationConfig(min_samples=2)).fit(dataset)
        with pytest.raises(ValueError, match="no fitted timeout"):
            est.predict(["zz"])


class TestTimeoutProbabilityDispatch:
    def test_methods_differ_on_heavy_tail(self):
        sample = minutes_sample([1] * 50 + [30])
        t = 20 * MINUTE
        empirical = timeout_probability(sample, t, EMPIRICAL)
        bound = timeout_probability(sample, t, TOLHURST)
        assert empirical < bound  # the concentration bound is conservative

    def test_search_grid_shape(self):
        stats = sample_stats(minutes_sample([1, 2, 3, 4, 5]))
        assert search_grid(stats) == (3, 10)
