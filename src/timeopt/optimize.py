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
ties go to the smallest timeout so blocked runs are interrupted sooner.
Only the candidate timeouts are scored: the first grid point of each run of
equal p. Along such a run the float cost never falls as t grows, since
tm(t) is the correctly rounded value of a non-decreasing exact function and
every float operation of the cost is monotone in tm and t. So scanning the
candidates in increasing order, keeping a strictly smaller cost, returns
the exhaustive argmin, ties included. Empirically the candidates are the
lower end and the first grid point at or above each duration, at most
n + 1 however far the grid reaches; for the Tolhurst bound they are the
points around each of its steps. The search, the static sweep and held-out
scoring read the sample statistics, tm(t) and the empirical p(t) from one
sorted copy of each sample, exactly equal to the ``sample_stats``,
``truncated_mean`` and ``empirical_exceedance`` references.
The static sweep rescores a sample only while its max is above the
previous grid point: once the max is at most t, p is 0 and tm is the exact
mean at every larger t, so the sample's cost changes only through the
breakage term. A sample already saturated at the first point gets no
kernel at all, only its ``fsum`` mean.

All operations are pure; per-test optimizations are independent.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterable, Sequence

from .model import GRID_SECONDS, ExecutionDataset, SampleStats, TestSample, sample_stats, stats_of

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
    """One sample sorted once: its statistics, and O(log n) scoring of any timeout.

    Durations are kept as exact integer prefix sums over a common
    power-of-two denominator (every finite float is an integer over a power
    of two). At threshold t, with k = bisect_right(sorted, t), the capped
    sum is the integer (prefix[k] + (n - k) * t) over that denominator, and
    Python's int / int division rounds it correctly, exactly as math.fsum
    rounds the same sum. So ``at`` returns what ``truncated_mean`` and
    ``empirical_exceedance`` return, bit for bit, and ``stats`` is
    ``stats_of`` the sorted durations, which no order changes. Durations
    must be finite, and ``at`` and ``stats`` need at least one.
    """

    __slots__ = ("test_id", "ordered", "n", "scaled", "prefix", "denominator", "_stats")

    def __init__(self, durations: Iterable[float], test_id: str = "") -> None:
        ordered = sorted(durations)
        ratios = [d.as_integer_ratio() for d in ordered]
        denominator = max((q for _, q in ratios), default=1)
        self._fill(test_id, ordered, [p * (denominator // q) for p, q in ratios], denominator)

    def _fill(
        self, test_id: str, ordered: list[float], scaled: list[int], denominator: int
    ) -> None:
        self.test_id = test_id
        self.ordered = ordered
        self.n = len(ordered)
        self.scaled = scaled  # each duration times the denominator
        self.prefix = list(accumulate(scaled, initial=0))
        self.denominator = denominator
        self._stats: SampleStats | None = None

    def split(self, keep: Sequence[bool]) -> tuple["_SortedSample", "_SortedSample"]:
        """(kept, rest): kernels of the durations whose position in
        ``ordered`` is true, or false, in ``keep``; no sort, no float
        conversion."""
        return self._subset(keep), self._subset([not k for k in keep])

    def _subset(self, mask: Sequence[bool]) -> "_SortedSample":
        part = _SortedSample.__new__(_SortedSample)
        ordered, scaled = compress(self.ordered, mask), compress(self.scaled, mask)
        part._fill(self.test_id, list(ordered), list(scaled), self.denominator)
        return part

    @property
    def stats(self) -> SampleStats:
        """``sample_stats`` of the sample, bit for bit, with its ValueErrors."""
        if self._stats is None:
            self._stats = stats_of(self.test_id, self.ordered)
        return self._stats

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


def optimize_timeout(
    sample: TestSample | _SortedSample, config: OptimizationConfig
) -> OptimizationResult:
    """The grid timeout of smallest expected cost, found among the candidates.

    The sample may be a ``TestSample`` or an already sorted kernel; either
    way it is sorted once and its statistics come from the kernel. The
    candidates are ``lower`` and every grid point where p can change
    (``_candidates``); between two candidates the cost never falls, so
    scanning them in increasing order and keeping a strictly smaller cost
    returns the exhaustive argmin of the search range, ties going to the
    smallest timeout.

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
        t_units = config.fallback_timeout
        if n >= 1:
            t_seconds = t_units * GRID_SECONDS
            cost, over = kernel.empirical_cost(t_seconds, config)
            probability = over / n
            lower, upper = search_grid(kernel.stats)
        else:
            probability = float("nan")
            cost = float("nan")
            lower = upper = t_units
        return OptimizationResult(
            test_id=kernel.test_id,
            optimal_timeout=t_units,
            expected_cost_at_optimum=cost,
            timeout_probability_at_optimum=probability,
            search_range=(lower, upper),
            method_used=config.probability_method,
            fallback_applied=True,
        )

    stats = kernel.stats
    lower, upper = search_grid(stats)
    empirical = config.probability_method == EMPIRICAL_ECDF
    best_t = lower
    best_cost = best_p = math.inf
    for t_units in _candidates(kernel, lower, upper, empirical):
        threshold = t_units * GRID_SECONDS
        tm, over = kernel.at(threshold)
        p = over / n if empirical else tolhurst_bound(stats, threshold)
        cost = _cost(tm, p, threshold, config)
        if cost < best_cost:
            best_cost = cost
            best_t = t_units
            best_p = p
    return OptimizationResult(
        test_id=kernel.test_id,
        optimal_timeout=best_t,
        expected_cost_at_optimum=best_cost,
        timeout_probability_at_optimum=best_p,
        search_range=(lower, upper),
        method_used=config.probability_method,
        fallback_applied=False,
    )


def _candidates(
    kernel: _SortedSample, lower: int, upper: int, empirical: bool
) -> Sequence[int]:
    """Increasing grid units: ``lower`` and every unit in (lower, upper]
    whose float p may differ from the unit before's; the whole grid when
    that is no shorter."""
    grid, size = range(lower, upper + 1), upper - lower + 1  # len() stops at 2^63
    if empirical:
        # over(u) falls at the first unit whose threshold reaches a duration
        ordered = kernel.ordered
        above = ordered[bisect_right(ordered, lower * GRID_SECONDS) :]
        if len(above) >= size:
            return grid
        steps: Iterable[int] = map(_unit_at_least, above)
    else:
        tolhurst = _tolhurst_steps(kernel.stats, size, upper)
        if tolhurst is None:
            return grid
        steps = tolhurst
    chosen = sorted({u for u in steps if lower < u <= upper})
    return grid if len(chosen) >= size - 1 else [lower, *chosen]


def _tolhurst_steps(stats: SampleStats, grid_size: int, upper: int) -> list[int] | None:
    """Grid units around every step of the float ``tolhurst_bound``, or
    None when the whole grid is to be scanned.

    Past lam = 1 the bound is j / (n + 1) with j = floor((n + 1) / (k^2 + 1)),
    and j >= J exactly when k^2 <= K = (n + 1) / J - 1, that is when
    lam^2 <= K (n - 1) / (n - K). So the bound steps at lam = 1 and at these
    lam_J for J = 2 .. (n + 1) // 2, and it is constant between steps. Each
    exact threshold mean + lam_J * q_n is computed in floats, and the units
    u - 1, u, u + 1 around u = ceil(threshold / GRID_SECONDS) are kept.

    Why one unit either side suffices: every float operation in the bound
    and in the threshold formula has a relative error of at most 2^-53. At a
    step with J >= 2, the elasticity of (n + 1) / (k^2 + 1) in lam is at
    least 1/2, so these errors move the place where the float bound steps,
    and the computed threshold, by less than 2^-45 of its size in seconds.
    While every grid point is below 2^40 s (35,000 years), that is under
    1/32 s, far inside one 60 s grid unit, so the float bound changes only
    at the kept units. Above it, or when there are at least as many steps
    as grid points, the whole grid is scanned.

    The float bound also steps where the exact one does not: far past the
    last step, k^2 is n (n - 1) / (n - 1 + lam^2) short of n, and once that
    gap is within rounding (lam^2 near (n - 1) 2^49) the computed k^2 can
    reach n, and the bound flips between 1 / (n + 1) and 0 from one grid
    point to the next. A grid that reaches lam^2 >= (n - 1) 2^46, which
    takes a spread of well under a second, is scanned whole too.
    """
    mean, q_n, n = stats.mean, stats.q_n, stats.n
    if q_n == 0.0:
        # the bound is 1 up to the mean and 0 past it
        return [_unit_at_least(math.nextafter(mean, math.inf))]
    top = (n + 1) // 2
    end = upper * GRID_SECONDS
    if top >= grid_size or end > 2.0**40 or end >= mean + q_n * math.sqrt(n - 1) * 2.0**23:
        return None
    thresholds = [mean + q_n]
    for j in range(2, top + 1):
        k_sq = (n + 1) / j - 1
        thresholds.append(mean + q_n * math.sqrt(k_sq * (n - 1) / (n - k_sq)))
    return [u + d for u in (math.ceil(t / GRID_SECONDS) for t in thresholds) for d in (-1, 0, 1)]


def _unit_at_least(seconds: float) -> int:
    """The smallest grid unit u with u * GRID_SECONDS >= seconds, exactly.

    ceil(seconds / GRID_SECONDS) is the answer or one short of it while
    u * GRID_SECONDS is exact (u below 2^53 / 60); above that the product
    rounds, and the answer lies further off. u * GRID_SECONDS never falls as
    u grows, so bracket the answer by doubling steps from the estimate,
    then bisect.
    """
    guess = math.ceil(seconds / GRID_SECONDS)
    low, high, step = guess - 1, guess, 1
    while low * GRID_SECONDS >= seconds or high * GRID_SECONDS < seconds:
        low, high, step = low - step, high + step, step * 2
    while high - low > 1:  # low * GRID_SECONDS < seconds <= high * GRID_SECONDS
        middle = (low + high) // 2
        if middle * GRID_SECONDS >= seconds:
            high = middle
        else:
            low = middle
    return high


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
    kernel. A sample saturated at lo is never sorted into a kernel. Each
    point is the ``fsum`` of all costs in sample order, so the curve is
    bit-equal to scoring every sample at every point.
    """
    lo, hi = sweep_range
    if lo >= hi:
        raise ValueError(f"sweep range must satisfy lo < hi, got ({lo}, {hi})")
    if lo < 1:
        raise ValueError("sweep range must start at a positive grid value")
    column = dataset.durations
    samples = [[column[i] for i in rows] for rows in dataset.sample_index.values()]
    if not samples:
        raise ValueError("empty dataset")

    # A sample saturated at lo needs only its mean, which is the kernel's
    # truncated mean there: fsum / n, both rounding the exact sum once.
    lo_seconds = lo * GRID_SECONDS
    costs = [0.0] * len(samples)
    running: list[tuple[int, _SortedSample]] = []
    saturated: list[tuple[int, float]] = []  # (sample position, mean)
    for i, durations in enumerate(samples):
        if max(durations) <= lo_seconds:
            mean = math.fsum(durations) / len(durations)
            saturated.append((i, mean))
            costs[i] = _cost(mean, 0.0, lo_seconds, config)
        else:
            running.append((i, _SortedSample(durations)))
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
        average = math.fsum(costs) / len(samples)
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
