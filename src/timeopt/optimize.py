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
mean. The optimal timeout is the argmin of cost over the integer grid
[ceil(mean), ceil(2 * max)] in grid units of ``GRID_SECONDS`` (one minute);
ties go to the smallest timeout so blocked runs are interrupted sooner. Only
the candidate timeouts are scored: the first grid point of each run of equal
p. Along such a run the float cost never falls as t grows, since tm(t) is
the correctly rounded value of a non-decreasing exact function and every
float operation of the cost is monotone in tm, p and t. So scanning the
candidates in decreasing order, keeping a cost at most the best, returns the
exhaustive argmin, ties included. The candidates are the first grid point of
each step of p: empirically, the first point at or above each duration, at
most n + 1; for the Tolhurst bound, whose steps are found in exact integers,
at most (n + 1) // 2 + 1, however far the grid reaches. Durations lie in
``[0, DURATION_LIMIT]`` (``model``), so no statistic overflows and the
search reads only exact floats. Below a candidate of
probability p, every one has p, tm and t at least p, tm(lower) and lower; by
the same monotonicity, the scan stops exactly once the cost of those three
exceeds the best. The search, the static sweep and held-out scoring read the
sample statistics, tm(t) and the empirical p(t) from one kernel per sample;
``truncated_mean``, ``empirical_exceedance``, ``timeout_probability`` and
``expected_cost`` are adapters over a kernel, and the tests hold the ``fsum``
definitions. The kernel alone decides saturation: at a t at or above the
sample's max, p is 0 and tm is the exact mean, sorted or not, and a kernel
only ever asked such thresholds is never sorted. The static
sweep rescores a sample only until its kernel reports no overrun; past that,
its cost changes only through the breakage term.

All operations are pure; per-test optimizations are independent.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterable, Iterator, Sequence

from .model import (
    GRID_SECONDS, ExecutionDataset, SampleStats, TestSample, stats_of, valid_minutes,
)

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
        if not 0 <= self.rerun_count <= sys.float_info.max:  # the cost takes m + 1 as a float
            raise ValueError("rerun_count must be in [0, sys.float_info.max]")
        if not 0.0 <= self.breakage_probability <= 1.0:
            raise ValueError("breakage_probability must be in [0, 1]")
        if self.probability_method not in PROBABILITY_METHODS:
            raise ValueError(
                f"probability_method must be one of {PROBABILITY_METHODS}, "
                f"got {self.probability_method!r}"
            )
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if not valid_minutes(self.fallback_timeout):
            raise ValueError("fallback_timeout must be >= 1 and finite in seconds")


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
    as n grows. For lam <= 1 the trivial bound 1.0 is returned. The floor is
    exact (``_TolhurstSteps``), so the bound never rises as the threshold
    grows, and for q_n > 0 it is never 0: it ends at 1 / (n + 1), its value at
    inf. A zero-spread sample yields 1.0 up to its mean and 0.0 past it.

    Raises:
        ValueError: if stats.n < 2.
    """
    if stats.n < 2:
        raise ValueError("insufficient sample: the bound requires n >= 2")
    if threshold == math.inf:  # the limit: the floor of a ratio falling to 1 from above
        return 1 / (stats.n + 1) if stats.q_n else 0.0
    return _TolhurstSteps(stats).index(threshold) / (stats.n + 1)


class _TolhurstSteps:
    """The numerator j of ``tolhurst_bound`` for one sample, in integers.

    Every finite float is an integer over a power of two, so the mean and
    q_n are put over one denominator once, and the gap threshold - mean
    over the threshold's as well. Up to lam = 1 (gap <= q_n), j = n + 1.
    Past it, with D = gap^2 and A = (n - 1) q_n^2,

        (n + 1) / (k^2 + 1) = (n + 1) (A + D) / ((n + 1) D + A),

    which falls as D grows and stays above 1 for q_n > 0. So its floor j
    never rises and never reaches 0, and j < J >= 2 exactly when gap > q_n
    and D (J - 1) (n + 1) > A (n + 1 - J).
    """

    __slots__ = ("n", "scale", "mean", "q_n", "a")

    def __init__(self, stats: SampleStats) -> None:
        mean, mean_denominator = stats.mean.as_integer_ratio()
        q_n, q_n_denominator = stats.q_n.as_integer_ratio()
        self.n = stats.n
        self.scale = max(mean_denominator, q_n_denominator)
        self.mean = mean * (self.scale // mean_denominator)
        self.q_n = q_n * (self.scale // q_n_denominator)
        self.a = (stats.n - 1) * self.q_n * self.q_n

    def index(self, threshold: float) -> int:
        n = self.n
        t, denominator = threshold.as_integer_ratio()
        gap, q_n = t * self.scale - self.mean * denominator, self.q_n * denominator
        if gap <= q_n:
            return n + 1
        if not q_n:
            return 0
        d, a = gap * gap, self.a * denominator * denominator
        return (n + 1) * (a + d) // ((n + 1) * d + a)

    def end(self, j: int) -> float:
        """The least float threshold in whole seconds whose j is below j >= 2.

        Grid points are whole seconds, where the gap is an integer. The least
        integer gap past the step is g = max(q_n, isqrt(A (n + 1 - j) //
        ((j - 1) (n + 1)))) + 1; (mean + g) / scale is rounded up to whole
        seconds, a float exactly wherever the walk reads it (``DURATION_LIMIT``).
        """
        n = self.n
        g = max(self.q_n, math.isqrt(self.a * (n + 1 - j) // ((j - 1) * (n + 1)))) + 1
        return float(-(-(self.mean + g) // self.scale))


class _SortedSample:
    """One sample's kernel: its statistics, and O(log n) scoring of any timeout.

    The kernel alone decides saturation, by one rule whether sorted or not:
    at a threshold at or above the max, kept from construction, ``at``
    returns the exact mean, computed once, and ``at`` and ``above`` no
    overrun. Until a threshold below the max is asked for, the durations stay
    unsorted and that mean is their ``fsum``. The first threshold below the
    max, or a ``split``, sorts them once into exact integer prefix sums over
    a common power-of-two denominator (every finite float is an integer over
    a power of two), and the mean becomes prefix[n] / denominator / n. At
    threshold t = p / q, with k = bisect_right(sorted, t), the capped sum is
    (prefix[k] q + (n - k) p denominator) / (denominator q), and Python's
    int / int division rounds it correctly, exactly as math.fsum rounds the
    same sum. So ``at`` returns the fsum definitions of the truncated mean
    and the overrun count, bit for bit, in any order of thresholds, and
    ``stats`` is ``stats_of`` the durations, which no order changes.
    Durations lie in ``[0, DURATION_LIMIT]``; ``at`` and ``stats`` need at least one.
    """

    __slots__ = ("test_id", "ordered", "n", "scaled", "prefix", "denominator", "_stats", "_top",
                 "_mean")

    def __init__(self, durations: Iterable[float], test_id: str = "") -> None:
        self.test_id = test_id
        self.ordered = list(durations)  # in input order until _sort
        self.n = len(self.ordered)
        self.prefix: list[int] | None = None
        self._stats: SampleStats | None = None
        self._top = max(self.ordered) if self.ordered else -math.inf  # the one saturation bound
        self._mean: float | None = None  # kept once read

    def _sort(self) -> None:
        self.ordered.sort()
        ratios = [d.as_integer_ratio() for d in self.ordered]
        denominator = max((q for _, q in ratios), default=1)
        self._fill([p * (denominator // q) for p, q in ratios], denominator)

    def _fill(self, scaled: list[int], denominator: int) -> None:
        self.scaled = scaled  # each sorted duration times the denominator
        self.prefix = list(accumulate(scaled, initial=0))
        self.denominator = denominator

    def split(self, keep: Sequence[bool]) -> tuple["_SortedSample", "_SortedSample"]:
        """(kept, rest): kernels of the durations whose position in sorted
        order is true, or false, in ``keep``; the parts are born sorted."""
        if self.prefix is None:
            self._sort()
        return self._subset(keep), self._subset([not k for k in keep])

    def _subset(self, mask: Sequence[bool]) -> "_SortedSample":
        part = _SortedSample(compress(self.ordered, mask), self.test_id)
        part._fill(list(compress(self.scaled, mask)), self.denominator)
        return part

    @property
    def stats(self) -> SampleStats:
        """``sample_stats`` of the sample, bit for bit, with its ValueErrors."""
        if self._stats is None:
            self._stats = stats_of(self.ordered)
        return self._stats

    def at(self, threshold: float) -> tuple[float, int]:
        """(truncated mean, number of durations strictly above) at a threshold."""
        n = self.n
        if threshold >= self._top:  # saturated, sorted or not
            if self._mean is None:  # the exact sum, rounded once either way
                prefix = self.prefix
                exact = prefix[n] / self.denominator if prefix else math.fsum(self.ordered)
                self._mean = exact / n
            return self._mean, 0
        if self.prefix is None:
            self._sort()
        k = bisect_right(self.ordered, threshold)
        p, q = threshold.as_integer_ratio()
        denominator = self.denominator
        return (self.prefix[k] * q + (n - k) * p * denominator) / (denominator * q) / n, n - k

    def above(self, threshold: float) -> int:
        """``at``'s number of durations strictly above a threshold, with no mean."""
        if threshold >= self._top:
            return 0
        if self.prefix is None:
            self._sort()
        return self.n - bisect_right(self.ordered, threshold)

    def probability(self, threshold: float, config: OptimizationConfig) -> float:
        """p at a threshold under the configured method."""
        if config.probability_method == EMPIRICAL_ECDF:
            return self.above(threshold) / self.n
        return tolhurst_bound(self.stats, threshold)

    def empirical_cost(self, threshold: float, config: OptimizationConfig) -> tuple[float, int]:
        """(``expected_cost`` with empirical probabilities, overruns) at a threshold."""
        tm, over = self.at(threshold)
        return _cost(tm, over / self.n, threshold, config), over


def _cost(tm: float, p: float, threshold: float, config: OptimizationConfig) -> float:
    cost = tm + config.rerun_count * p * tm
    if config.breakage_probability > 0.0:
        cost += config.breakage_probability * threshold * (config.rerun_count + 1)
    return cost


def _kernel_of(sample: TestSample) -> _SortedSample:
    """The kernel of a sample; ValueError for an empty one."""
    if sample.n == 0:
        raise ValueError("empty sample")
    return _SortedSample(sample.durations, sample.test_id)


def empirical_exceedance(sample: TestSample, threshold: float) -> float:
    """Fraction of observed durations strictly greater than the threshold."""
    return _kernel_of(sample).above(threshold) / sample.n


def truncated_mean(sample: TestSample, threshold: float) -> float:
    """Mean duration when every run is capped at the threshold.

    A run that would exceed the threshold consumes exactly the threshold.
    """
    return _kernel_of(sample).at(threshold)[0]


def timeout_probability(
    sample: TestSample, threshold: float, config: OptimizationConfig
) -> float:
    """Timeout probability at a threshold, using the configured method."""
    return _kernel_of(sample).probability(threshold, config)


def expected_cost(
    sample: TestSample, timeout_seconds: float, config: OptimizationConfig
) -> float:
    """Average cost in seconds of one scheduled execution under a timeout.

    Truncated mean for the initial run, plus the full rerun budget at the
    truncated mean for every timeout, plus the breakage term
    breakage_probability * t * (reruns + 1) when breakage is modeled.
    """
    kernel = _kernel_of(sample)
    if not timeout_seconds > 0:
        raise ValueError("timeout must be positive")
    tm = kernel.at(timeout_seconds)[0]
    return _cost(tm, kernel.probability(timeout_seconds, config), timeout_seconds, config)


def search_grid(stats: SampleStats) -> tuple[int, int]:
    """Integer search range [ceil(mean), ceil(2 * max)] in grid units."""
    lower = max(1, math.ceil(stats.mean / GRID_SECONDS))
    upper = max(lower, math.ceil(2.0 * stats.max / GRID_SECONDS))
    return lower, upper


def optimize_timeout(
    sample: TestSample | _SortedSample, config: OptimizationConfig
) -> OptimizationResult:
    """The grid timeout of smallest expected cost, found among the candidates.

    The sample may be a ``TestSample`` or a kernel; its statistics come from
    the kernel. The candidates, the first grid point of every step of p, are
    visited from ``upper`` down to ``lower`` in one walk (``_walk``); keeping
    a cost at most the best returns the exhaustive argmin, ties going to the
    smallest timeout. The scan stops at a candidate whose p costs more than
    the best even at tm(lower) and ``lower``: none left can cost less.

    Samples with fewer than ``config.min_samples`` executions receive the
    static fallback timeout instead; their reported cost and probability are
    empirical diagnostics at the fallback value (NaN for an empty sample).
    """
    if isinstance(sample, _SortedSample):
        kernel = sample
    else:
        kernel = _SortedSample(sample.durations, sample.test_id)
    n = kernel.n
    if n < config.min_samples:
        t = config.fallback_timeout
        if n:
            cost, over = kernel.empirical_cost(t * GRID_SECONDS, config)
            p = over / n
            lower, upper = search_grid(kernel.stats)
        else:
            cost = p = math.nan
            lower = upper = t
    else:
        lower, upper = search_grid(kernel.stats)
        floor = lower * GRID_SECONDS
        tm_floor = kernel.at(floor)[0]
        empirical = config.probability_method == EMPIRICAL_ECDF
        t, cost, p = lower, math.inf, math.inf
        for unit, unit_p in _walk(kernel, lower, upper, empirical):
            if _cost(tm_floor, unit_p, floor, config) > cost:
                break
            threshold = unit * GRID_SECONDS
            tm = kernel.at(threshold)[0] if unit > lower else tm_floor
            unit_cost = _cost(tm, unit_p, threshold, config)
            if unit_cost <= cost and unit_cost < math.inf:  # an infinite cost is never kept
                t, cost, p = unit, unit_cost, unit_p
    return OptimizationResult(
        test_id=kernel.test_id,
        optimal_timeout=t,
        expected_cost_at_optimum=cost,
        timeout_probability_at_optimum=p,
        search_range=(lower, upper),
        method_used=config.probability_method,
        fallback_applied=n < config.min_samples,
    )


def _walk(
    kernel: _SortedSample, lower: int, upper: int, empirical: bool
) -> Iterator[tuple[int, float]]:
    """(unit, p) at the first unit in [lower, upper] of each step of p, from
    the step that holds ``upper`` down to the one that holds ``lower``.

    A step starts at the first unit at or above its least threshold: with k
    < n durations above, the (n - k)th smallest duration (the max at k = 0,
    so no sort there); for the Tolhurst numerator j <= n, the end of step
    j + 1 (of step 2 at j = 0, where a zero-spread sample's p drops from 1
    to 0); else 0. The unit below a start lies in the next step down.
    """
    n, stats = kernel.n, kernel.stats
    steps = None if empirical else _TolhurstSteps(stats)
    u = upper
    while u >= lower:
        if steps is None:
            over = kernel.above(u * GRID_SECONDS)
            start = 0.0 if over == n else kernel.ordered[n - over - 1] if over else stats.max
            p = over / n
        else:
            j = steps.index(u * GRID_SECONDS)
            p, start = j / (n + 1), (steps.end(max(j + 1, 2)) if j <= n else 0.0)
        u = max(lower, _unit_at_least(start))
        yield u, p
        u -= 1


def _unit_at_least(seconds: float) -> int:
    """The smallest grid unit u with u * GRID_SECONDS >= seconds, exactly.

    The walk asks at most 2 * DURATION_LIMIT + GRID_SECONDS, where u * GRID_SECONDS is
    exact and the rounded quotient's ceiling is the answer or one short of it.
    """
    u = math.ceil(seconds / GRID_SECONDS)
    return u + (u * GRID_SECONDS < seconds)


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

    Every sample gets a kernel, and only samples still running past the
    previous point are rescored. Once the kernel reports no overrun at t
    the sample is saturated: its p is 0 and its truncated mean is its exact
    mean at t and at every larger t, so its cost is left as it is, or, with
    breakage, recomputed from that mean without the kernel. The kernel
    decides saturation, so a sample saturated at lo is never sorted. Each
    point is the ``fsum`` of all costs in sample order, so the curve is
    bit-equal to scoring every sample at every point.
    """
    lo, hi = sweep_range
    if lo >= hi:
        raise ValueError(f"sweep range must satisfy lo < hi, got ({lo}, {hi})")
    if lo < 1:
        raise ValueError("sweep range must start at a positive grid value")
    column = dataset.durations
    kernels = [_SortedSample([column[i] for i in rows]) for rows in dataset.sample_index.values()]
    if not kernels:
        raise ValueError("empty dataset")

    costs = [0.0] * len(kernels)
    running = list(enumerate(kernels))
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
        for i, kernel in running:
            tm, over = kernel.at(t_seconds)
            costs[i] = _cost(tm, over / kernel.n, t_seconds, config)
            if over:
                still_running.append((i, kernel))
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
        durations, index = dataset.durations, dataset.test_index
        kernels = (_SortedSample([durations[i] for i in index[t]], t) for t in dataset.test_ids())
        self.results_ = {k.test_id: optimize_timeout(k, self.config) for k in kernels}
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
