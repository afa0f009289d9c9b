"""Timeout-exceedance estimation and cost-optimal timeout search.

The probability that a test execution overruns a candidate timeout t is
estimated either empirically (fraction of observed durations strictly above
t) or with Tolhurst's finite-sample analog of Cantelli's one-sided
inequality, which needs only the sample mean, the rescaled deviation q_n and
the sample size.

The cost of running a test with timeout t (seconds) is modeled as

    cost(t) = tm(t) + reruns * p(t) * tm(t) + breakage * t * (reruns + 1)

where tm(t) is the truncated mean (every run capped at t), p(t) the timeout
probability, and each timeout charges the full rerun budget at the truncated
mean. The optimal timeout is the exhaustive argmin of cost over the integer
grid [ceil(mean), ceil(2 * max)] in grid units of ``GRID_SECONDS`` (one
minute); ties go to the smallest timeout so blocked runs are interrupted
sooner. The search, the static sweep and held-out scoring read
tm(t) and the empirical p(t) from one sorted copy of each sample, exactly
equal to the ``truncated_mean`` and ``empirical_exceedance`` references.
The static sweep rescores a sample only while its max is above the
previous grid point: once the max is at most t, p is 0 and tm is the exact
mean at every larger t, so the sample's cost changes only through the
breakage term.

All operations are pure; per-test optimizations are independent.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .model import GRID_SECONDS, ExecutionDataset, SampleStats, TestSample, sample_stats

TOLHURST_BOUND = "tolhurst_bound"
EMPIRICAL_ECDF = "empirical_ecdf"
PROBABILITY_METHODS = (TOLHURST_BOUND, EMPIRICAL_ECDF)


@dataclass(frozen=True, slots=True)
class OptimizationConfig:
    """Knobs of the cost model and the timeout search.

    Timeouts are searched in integer grid units of ``GRID_SECONDS``. Samples
    smaller than ``min_samples`` get the static ``fallback_timeout`` (grid
    units) instead of an unstable data-driven value.
    """

    rerun_count: int = 3
    breakage_probability: float = 0.0
    probability_method: str = TOLHURST_BOUND
    min_samples: int = 30
    fallback_timeout: int = 120

    def __post_init__(self) -> None:
        if self.rerun_count < 0:
            raise ValueError("rerun_count must be >= 0")
        if not 0.0 <= self.breakage_probability <= 1.0:
            raise ValueError("breakage_probability must be in [0, 1]")
        if self.probability_method not in PROBABILITY_METHODS:
            raise ValueError(
                f"probability_method must be one of {PROBABILITY_METHODS}, "
                f"got {self.probability_method!r}"
            )
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if self.fallback_timeout < 1:
            raise ValueError("fallback_timeout must be >= 1")


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    """Cost-optimal timeout for one test, in grid units."""

    test_id: str
    optimal_timeout: int
    expected_cost_at_optimum: float
    timeout_probability_at_optimum: float
    search_range: tuple[int, int]
    method_used: str
    fallback_applied: bool = False


@dataclass(frozen=True)
class CostCurve:
    """Average cost (seconds) per candidate timeout, timeouts increasing."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        timeouts = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(timeouts, timeouts[1:])):
            raise ValueError("timeouts must be strictly increasing")


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Cost curve of a static-timeout sweep plus its grid minimum."""

    curve: CostCurve
    optimal_timeout: int
    average_cost_at_optimum: float


def tolhurst_bound(stats: SampleStats, threshold: float) -> float:
    """Upper bound on P(T >= threshold) from sample statistics alone.

    With lam = (threshold - mean) / q_n the bound is

        floor((n + 1) / (k^2 + 1)) / (n + 1),  k^2 = n lam^2 / (n - 1 + lam^2)

    valid for n >= 2 and lam > 1; it approaches Cantelli's 1 / (1 + lam^2)
    as n grows. Outside the validity region (lam <= 1, or a degenerate
    zero-spread sample with threshold <= mean) the trivial bound 1.0 is
    returned; a zero-spread sample with threshold > mean yields 0.0.

    Raises:
        ValueError: if stats.n < 2.
    """
    if stats.n < 2:
        raise ValueError("insufficient sample: the bound requires n >= 2")
    if stats.q_n == 0.0:
        return 0.0 if threshold > stats.mean else 1.0
    lam = (threshold - stats.mean) / stats.q_n
    if lam <= 1.0:
        return 1.0
    n = stats.n
    if math.isinf(n * lam * lam):
        k_sq = n  # the limit of the expression below as lam grows
    else:
        k_sq = n * lam * lam / (n - 1 + lam * lam)
    bound = math.floor((n + 1) / (k_sq + 1)) / (n + 1)
    return min(1.0, max(0.0, bound))


def empirical_exceedance(sample: TestSample, threshold: float) -> float:
    """Fraction of observed durations strictly greater than the threshold."""
    if sample.n == 0:
        raise ValueError("empty sample")
    return sum(1 for d in sample.durations if d > threshold) / sample.n


def truncated_mean(sample: TestSample, threshold: float) -> float:
    """Mean duration when every run is capped at the threshold.

    A run that would exceed the threshold consumes exactly the threshold.
    """
    if sample.n == 0:
        raise ValueError("empty sample")
    return math.fsum(min(d, threshold) for d in sample.durations) / sample.n


def timeout_probability(
    sample: TestSample, threshold: float, config: OptimizationConfig
) -> float:
    """Timeout probability at a threshold, using the configured method."""
    if config.probability_method == EMPIRICAL_ECDF:
        return empirical_exceedance(sample, threshold)
    return tolhurst_bound(sample_stats(sample), threshold)


def expected_cost(
    sample: TestSample, timeout_seconds: float, config: OptimizationConfig
) -> float:
    """Average cost in seconds of one scheduled execution under a timeout.

    Truncated mean for the initial run, plus the full rerun budget at the
    truncated mean for every timeout, plus the breakage term
    breakage_probability * t * (reruns + 1) when breakage is modeled.
    """
    if sample.n == 0:
        raise ValueError("empty sample")
    if timeout_seconds <= 0:
        raise ValueError("timeout must be positive")
    tm = truncated_mean(sample, timeout_seconds)
    p = timeout_probability(sample, timeout_seconds, config)
    return _cost(tm, p, timeout_seconds, config)


class _SortedSample:
    """One sample's durations sorted once, for O(log n) scoring of any timeout.

    Durations are kept as exact integer prefix sums over a common
    power-of-two denominator (every finite float is an integer over a power
    of two). At threshold t, with k = bisect_right(sorted, t), the capped
    sum is the integer (prefix[k] + (n - k) * t) over that denominator, and
    Python's int / int division rounds it correctly, exactly as math.fsum
    rounds the same sum. So ``at`` returns what ``truncated_mean`` and
    ``empirical_exceedance`` return, bit for bit. Durations must be finite,
    and ``at`` needs at least one.
    """

    __slots__ = ("ordered", "n", "prefix", "denominator")

    def __init__(self, durations: Sequence[float]) -> None:
        self.ordered = sorted(durations)
        self.n = len(self.ordered)
        ratios = [d.as_integer_ratio() for d in self.ordered]
        self.denominator = max((q for _, q in ratios), default=1)
        self.prefix = [0]
        total = 0
        for p, q in ratios:
            total += p * (self.denominator // q)
            self.prefix.append(total)

    def at(self, threshold: float) -> tuple[float, int]:
        """(truncated mean, number of durations strictly above) at a threshold."""
        n = self.n
        k = bisect_right(self.ordered, threshold)
        p, q = threshold.as_integer_ratio()
        if q <= self.denominator:
            numerator = self.prefix[k] + (n - k) * p * (self.denominator // q)
            denominator = self.denominator
        else:
            numerator = self.prefix[k] * (q // self.denominator) + (n - k) * p
            denominator = q
        return numerator / denominator / n, n - k

    def empirical_cost(self, threshold: float, config: OptimizationConfig) -> tuple[float, int]:
        """(``expected_cost`` with empirical probabilities, overruns) at a threshold."""
        tm, over = self.at(threshold)
        return _cost(tm, over / self.n, threshold, config), over


def _cost(tm: float, p: float, threshold: float, config: OptimizationConfig) -> float:
    cost = tm + config.rerun_count * p * tm
    if config.breakage_probability > 0.0:
        cost += config.breakage_probability * threshold * (config.rerun_count + 1)
    return cost


def search_grid(stats: SampleStats) -> tuple[int, int]:
    """Integer search range [ceil(mean), ceil(2 * max)] in grid units."""
    lower = max(1, math.ceil(stats.mean / GRID_SECONDS))
    upper = max(lower, math.ceil(2.0 * stats.max / GRID_SECONDS))
    return lower, upper


def optimize_timeout(sample: TestSample, config: OptimizationConfig) -> OptimizationResult:
    """Exhaustively search the timeout grid for the smallest expected cost.

    Samples with fewer than ``config.min_samples`` executions receive the
    static fallback timeout instead; their reported cost and probability are
    empirical diagnostics at the fallback value (NaN for an empty sample).
    Ties in cost resolve to the smallest timeout.
    """
    n = sample.n
    kernel = _SortedSample(sample.durations)
    if n < config.min_samples:
        t_units = config.fallback_timeout
        if n >= 1:
            t_seconds = t_units * GRID_SECONDS
            cost, over = kernel.empirical_cost(t_seconds, config)
            probability = over / n
            lower, upper = search_grid(sample_stats(sample))
        else:
            probability = float("nan")
            cost = float("nan")
            lower = upper = t_units
        return OptimizationResult(
            test_id=sample.test_id,
            optimal_timeout=t_units,
            expected_cost_at_optimum=cost,
            timeout_probability_at_optimum=probability,
            search_range=(lower, upper),
            method_used=config.probability_method,
            fallback_applied=True,
        )

    stats = sample_stats(sample)
    lower, upper = search_grid(stats)
    empirical = config.probability_method == EMPIRICAL_ECDF
    best_t = lower
    best_cost = best_p = math.inf
    for t_units in range(lower, upper + 1):
        threshold = t_units * GRID_SECONDS
        tm, over = kernel.at(threshold)
        p = over / n if empirical else tolhurst_bound(stats, threshold)
        cost = _cost(tm, p, threshold, config)
        if cost < best_cost:
            best_cost = cost
            best_t = t_units
            best_p = p
    return OptimizationResult(
        test_id=sample.test_id,
        optimal_timeout=best_t,
        expected_cost_at_optimum=best_cost,
        timeout_probability_at_optimum=best_p,
        search_range=(lower, upper),
        method_used=config.probability_method,
        fallback_applied=False,
    )


def static_sweep(
    dataset: ExecutionDataset,
    sweep_range: tuple[int, int],
    config: OptimizationConfig,
) -> SweepResult:
    """Average cost of one global static timeout across the whole fleet.

    For every candidate t in [lo, hi] grid units, each (test, revision)
    sample contributes its expected cost with *empirical* probabilities: a
    run counts as timed out whenever its recorded duration exceeds t, even
    if it was never actually interrupted. Returns the averaged curve and the
    grid minimum (smallest timeout on ties).

    Only samples still running past the previous point are rescored. Once a
    sample's max is at most t it is saturated: its p is 0 and its truncated
    mean is its exact mean at t and at every larger t, so its cost is left
    as it is, or, with breakage, recomputed from that mean without the
    kernel. Each point is the ``fsum`` of all costs in sample order, so the
    curve is bit-equal to scoring every sample at every point.
    """
    lo, hi = sweep_range
    if lo >= hi:
        raise ValueError(f"sweep range must satisfy lo < hi, got ({lo}, {hi})")
    if lo < 1:
        raise ValueError("sweep range must start at a positive grid value")
    kernels = [_SortedSample(s.durations) for s in dataset.samples.values()]
    if not kernels:
        raise ValueError("empty dataset")

    costs = [0.0] * len(kernels)
    running = range(len(kernels))
    saturated: list[tuple[int, float]] = []  # (sample position, mean)
    points: list[tuple[int, float]] = []
    best_t = lo
    best_cost = math.inf
    for t_units in range(lo, hi + 1):
        t_seconds = t_units * GRID_SECONDS
        if config.breakage_probability > 0.0:
            for i, mean in saturated:
                costs[i] = _cost(mean, 0.0, t_seconds, config)
        still_running = []
        for i in running:
            kernel = kernels[i]
            tm, over = kernel.at(t_seconds)
            costs[i] = _cost(tm, over / kernel.n, t_seconds, config)
            if over:
                still_running.append(i)
            else:
                saturated.append((i, tm))
        running = still_running
        average = math.fsum(costs) / len(kernels)
        points.append((t_units, average))
        if average < best_cost:
            best_cost = average
            best_t = t_units
    return SweepResult(
        curve=CostCurve(points=tuple(points)),
        optimal_timeout=best_t,
        average_cost_at_optimum=best_cost,
    )


class TimeoutOptimizer:
    """Per-test timeout estimator with a fit/predict interface.

    ``fit`` pools each test's executions across revisions and stores one
    ``OptimizationResult`` per test, in test-id order; ``predict`` returns
    learned timeouts (grid units) for test ids.

    >>> opt = TimeoutOptimizer(OptimizationConfig(probability_method="empirical_ecdf"))
    >>> timeouts = opt.fit(dataset).timeouts_
    """

    def __init__(self, config: OptimizationConfig = OptimizationConfig()) -> None:
        self.config = config

    def fit(self, dataset: ExecutionDataset) -> "TimeoutOptimizer":
        self.results_ = {
            test_id: optimize_timeout(dataset.pooled_sample(test_id), self.config)
            for test_id in dataset.test_ids()
        }
        self.timeouts_ = {tid: res.optimal_timeout for tid, res in self.results_.items()}
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "timeouts_"):
            raise RuntimeError("TimeoutOptimizer is not fitted yet; call fit() first")

    def predict(self, test_ids: Sequence[str]) -> list[int]:
        """Learned timeout (grid units) for each test id, in order."""
        self._check_fitted()
        missing = [tid for tid in test_ids if tid not in self.timeouts_]
        if missing:
            raise ValueError(f"no fitted timeout for tests: {missing}")
        return [self.timeouts_[tid] for tid in test_ids]
