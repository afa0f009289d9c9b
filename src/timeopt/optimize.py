"""Timeout-exceedance estimation and cost-optimal timeout search.

The probability that a test execution overruns a candidate timeout t is
estimated either empirically (fraction of observed runs that overrun t) or
with Tolhurst's finite-sample analog of Cantelli's one-sided inequality,
which needs only the sample mean, the rescaled deviation q_n and the sample
size.

A censored run (one an enforced timeout interrupted) is a hang, a run that
never ends, as in the Kaplan-Meier view of censoring: at every t it is an
overrun that consumes t, whatever duration it was recorded with. With c of
a sample's n runs censored, n_nat = n - c natural, and k natural durations
at most t, tm(t) = (the sum of those k + (n - k) t) / n and the overruns
are n - k: the empirical p is (n - k) / n, and the Tolhurst p is
(c + n_nat p_nat) / n, where p_nat is the bound of the natural runs. The
statistics, and so the bound and the search grid, describe the natural
runs alone, and a sample with fewer than 2 of them gets the fallback.

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
exhaustive argmin, ties included. Each estimator is one steps object,
``_EmpiricalSteps`` or ``_TolhurstSteps``, that the search builds and reads
alone: ``count`` is the count of the natural runs behind p at a threshold,
``start(x)`` the first grid unit whose count is below x, ``terms`` p's exact
ratio of a count, and ``top`` the largest count. The candidates are the first
grid point of each step of p: empirically, the first point at or above each
natural duration, at most n_nat + 1; for the Tolhurst bound, whose steps are
found in exact integers, at most (n_nat + 1) // 2 + 1, however far the grid
reaches. Durations lie in ``[0, DURATION_LIMIT]`` (``model``), so no statistic
overflows and the search reads only exact floats. The scan keeps a floor f, a
unit whose tm it has read, lower at first: every unit at or above f has tm and
t at least tm(f) and f. So below a candidate of probability p, every unit at
or above f costs at least the cost of p, tm(f) and f, and the scan stops
exactly once that exceeds the best. Each time the best cost falls, the floor
rises: p grows with ``count``, bisection finds the least count whose p costs
more than the best even at tm(f) and f, and every unit below the first unit of
a smaller count then costs more than the best. The floor moves to that unit
and tm is read there, once, until the floor stops rising; the scan ends once
the floor reaches the best candidate. Pruning needs a strict excess, so ties
still go to the smallest timeout. The search,
the static sweep and held-out scoring read the sample statistics, tm(t) and
the empirical p(t) from one kernel per sample (``_SortedSample``, which
alone decides saturation and holds exact integer prefix sums); the public
``sample_stats``, ``truncated_mean``, ``empirical_exceedance``,
``timeout_probability`` and ``expected_cost`` are adapters over a kernel,
and the tests hold the ``fsum`` definitions. The static sweep, ``evaluate``'s
policy totals and its cross-validation rows share one scorer, the kernel's
``empirical_cost``, whose breakage term is written once (``_breakage``), and
one fleet average, ``_average``: the ``fsum`` of the costs over their count.
``fit`` builds, searches and frees one test's kernel at a time;
``cross_validate`` sorts each fold's natural runs once, merges them into the
test's kernel (``_SortedSample.of_parts``) and builds each fold's held-out and
training kernels from the sorted parts (``fold``), while ``evaluate``'s policy
totals build a kernel for each (test, revision) sample and sort it when some
policy's timeout cuts it. Every kernel is built from rows, by
``_SortedSample.of`` or ``of_parts``, which keep the natural durations and
count c, the censored runs among them, for the whole and for each part.

All operations are pure; per-test optimizations are independent.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple, Sequence

# the config and the estimator names live in model, so cli parses flags without this module
from .model import (
    DURATION_LIMIT, EMPIRICAL_ECDF, GRID_SECONDS, PROBABILITY_METHODS, TOLHURST_BOUND,
    ExecutionDataset, OptimizationConfig, SampleStats, TestSample, _Frozen, row_slice,
)

class OptimizationResult(NamedTuple):
    """Cost-optimal timeout for one test, in grid units."""

    test_id: str
    optimal_timeout: int
    expected_cost_at_optimum: float
    timeout_probability_at_optimum: float
    search_range: tuple[int, int]
    method_used: str
    fallback_applied: bool = False


class CostCurve(_Frozen):
    """Average cost (seconds) per candidate timeout, timeouts increasing."""

    __slots__ = _fields = ("points",)
    points: tuple[tuple[int, float], ...]

    def __init__(self, points: tuple[tuple[int, float], ...]) -> None:
        timeouts = [t for t, _ in points]
        if any(b <= a for a, b in zip(timeouts, timeouts[1:])):
            raise ValueError("timeouts must be strictly increasing")
        self._set(points)


class SweepResult(NamedTuple):
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
    return _TolhurstSteps(stats).count(threshold) / (stats.n + 1)


class _EmpiricalSteps:
    """The empirical p of one kernel as steps: the count x behind p is its
    natural overruns, and p = (c + x) / n. It has ``_TolhurstSteps``' four
    members, and refers to its kernel, so no kernel keeps one."""

    __slots__ = ("kernel", "terms", "top")

    def __init__(self, kernel: _SortedSample) -> None:
        self.kernel, self.terms, self.top = kernel, (kernel.c, 1, kernel.n), kernel.n_nat

    def count(self, threshold: float) -> int:
        return self.kernel.above(threshold) - self.kernel.c

    def start(self, x: int) -> int:
        """The least unit whose count is below x >= 1, 0 if every one is: the
        first at or above the (n_nat - x + 1)th smallest natural duration, the
        max at x = 1, so no sort there; a larger x is asked only once a read
        below it has sorted the kernel."""
        kernel, n = self.kernel, self.top
        if x > n:
            return 0
        return _unit_at_least(kernel.ordered[n - x] if x > 1 else kernel.stats.max)


class _TolhurstSteps:
    """The Tolhurst p of one sample as steps, in integers: ``count`` is the
    numerator j of ``tolhurst_bound`` for the n natural runs, and with c
    censored runs beside them p = (c + n j / (n + 1)) / (n + c), the exact
    ratio of ``terms``, which is bit-equal to j / (n + 1) when c = 0.

    Every finite float is an integer over a power of two, so the mean and
    q_n are put over one denominator once, and the gap threshold - mean
    over the threshold's as well. Up to lam = 1 (gap <= q_n), j = n + 1.
    Past it, with D = gap^2 and A = (n - 1) q_n^2,

        (n + 1) / (k^2 + 1) = (n + 1) (A + D) / ((n + 1) D + A),

    which falls as D grows and stays above 1 for q_n > 0. So its floor j
    never rises and never reaches 0, and j < J >= 2 exactly when gap > q_n
    and D (J - 1) (n + 1) > A (n + 1 - J).
    """

    __slots__ = ("n", "scale", "mean", "q_n", "a", "terms", "top")

    def __init__(self, stats: SampleStats, c: int = 0) -> None:
        n = self.n = stats.n
        mean, mean_denominator = stats.mean.as_integer_ratio()
        q_n, q_n_denominator = stats.q_n.as_integer_ratio()
        self.scale = max(mean_denominator, q_n_denominator)
        self.mean = mean * (self.scale // mean_denominator)
        self.q_n = q_n * (self.scale // q_n_denominator)
        self.a = (n - 1) * self.q_n * self.q_n
        self.terms = c * (n + 1), n, (n + c) * (n + 1)
        self.top = n + 1

    def count(self, threshold: float) -> int:
        n = self.n
        if n < 2:
            raise ValueError("insufficient sample: the bound requires n >= 2")
        if threshold == math.inf:  # the limit: the floor of a ratio falling to 1 from above
            return 1 if self.q_n else 0
        t, denominator = threshold.as_integer_ratio()
        gap, q_n = t * self.scale - self.mean * denominator, self.q_n * denominator
        if gap <= q_n:
            return n + 1
        if not q_n:
            return 0
        d, a = gap * gap, self.a * denominator * denominator
        return (n + 1) * (a + d) // ((n + 1) * d + a)

    def start(self, x: int) -> int:
        """The least unit whose j is below x >= 1, 0 past n + 1. With J =
        max(x, 2) (at x = 1 a zero-spread sample's j drops from n + 1 to 0),
        the least integer gap past step J, as grid points are whole seconds,
        is g = max(q_n, isqrt(A (n + 1 - J) // ((J - 1) (n + 1)))) + 1, and
        (mean + g) / scale is rounded up to whole seconds, a float exactly
        wherever the walk reads it (``DURATION_LIMIT``)."""
        n = self.n
        if x > n + 1:
            return 0
        j = max(x, 2)
        g = max(self.q_n, math.isqrt(self.a * (n + 1 - j) // ((j - 1) * (n + 1)))) + 1
        return _unit_at_least(float(-(-(self.mean + g) // self.scale)))


def _steps(kernel: _SortedSample, method: str) -> _EmpiricalSteps | _TolhurstSteps:
    """The kernel's steps of p under a probability method, built afresh."""
    if method == EMPIRICAL_ECDF:
        return _EmpiricalSteps(kernel)
    return _TolhurstSteps(kernel.stats, kernel.c)


# The largest shift s at which DURATION_LIMIT * 2**s is a finite float: past it, _sort
# takes the largest of the durations' integer-ratio denominators, and _fill scales by
# exact integer ratios past 2**s.
_FAST_SHIFT = sys.float_info.max_exp - math.frexp(DURATION_LIMIT)[1]
_FAST_DENOMINATOR = 1 << _FAST_SHIFT


class _SortedSample:
    """One sample's kernel: its statistics, and O(log n) scoring of any timeout.

    It holds the natural durations and ``c``, the number of censored runs
    beside them, so n = n_nat + c. Every caller builds it from rows with
    ``of``, or with ``of_parts``, whose ``fold`` builds each part's kernels;
    a bare ``_SortedSample(durations)`` has no censored run. A censored run
    overruns every threshold, so with k natural durations at most t, ``at``
    charges the n - k overruns t each. The kernel alone decides saturation,
    by one rule whether sorted or not: at a threshold at or above ``_top``,
    the max kept from construction, ``at`` returns the exact mean, computed
    once, and ``at`` and ``above`` no overrun. A kernel with c > 0 never
    saturates (``_top`` is inf): at an infinite threshold its tm is inf and
    its overruns are c. Until a threshold below the max is asked for, the
    durations stay unsorted and the mean is their ``fsum``. The first
    threshold below the max, or ``of_parts``, sorts them once into exact
    integer prefix sums (``_fill``) over a common power-of-two denominator; a
    fold's held-out kernel is born sorted over its test kernel's. The
    denominator is 2**(53 - e), where e is the ``frexp`` exponent of the
    smallest nonzero duration: every duration is then an integer times
    2**(e - 53), and each product d * 2.0**(53 - e) is that integer as an
    exact float. Where DURATION_LIMIT * 2**(53 - e) would
    overflow (a smallest nonzero duration below 2**-923 s), the denominator
    is the largest of the durations' ``as_integer_ratio`` denominators
    instead. At threshold t = p / q, with k = bisect_right(sorted, t), the
    capped sum is (prefix[k] q + (n - k) p denominator) / (denominator q),
    and Python's int / int division rounds it correctly, exactly as math.fsum
    rounds the same sum, whatever common denominator holds it. So ``at``
    returns the fsum definitions of the truncated mean and the overrun count,
    bit for bit, in any order of thresholds. Once sorted, the mean is
    prefix[n] / denominator / n, equal to the ``fsum`` mean, and ``stats``
    (the one builder of ``SampleStats``) takes the min from the sorted start,
    which can differ from min() only in the sign of a zero, a value no output
    reads; only the variance is an ``fsum`` pass. The statistics and the
    mean describe the natural runs. Durations lie in ``[0, DURATION_LIMIT]``;
    ``at`` needs at least one run, and ``stats`` at least one natural one.
    """

    __slots__ = ("test_id", "ordered", "n_nat", "c", "n", "prefix", "denominator", "_stats",
                 "_max", "_top", "_mean")

    def __init__(self, durations: Iterable[float], test_id: str = "", c: int = 0) -> None:
        self.test_id = test_id
        self.ordered = list(durations)  # the natural runs, in input order until _sort
        self.n_nat = len(self.ordered)
        self.c = c  # censored runs beside them, each a run that never ends
        self.n = self.n_nat + c
        self.denominator: int | None = None  # set once sorted
        self._stats: SampleStats | None = None
        self._max = max(self.ordered) if self.ordered else -math.inf
        self._top = math.inf if c else self._max  # the one saturation bound
        self._mean: float | None = None  # kept once read

    def _sort(self) -> None:
        ordered = self.ordered
        ordered.sort()
        nonzero = bisect_right(ordered, 0.0)
        shift = 53 - math.frexp(ordered[nonzero])[1] if nonzero < self.n_nat else 0
        if shift <= _FAST_SHIFT:
            denominator = 1 << shift
        else:
            denominator = max(d.as_integer_ratio()[1] for d in ordered)
        self._fill(denominator)

    def _fill(self, denominator: int) -> None:
        """The exact integer prefix sums of the sorted durations over a power
        of two that makes each one an integer: a float product each where
        DURATION_LIMIT times it is finite, else each one's integer ratio."""
        if denominator <= _FAST_DENOMINATOR:
            scaled = map(int, map(float(denominator).__mul__, self.ordered))
        else:
            scaled = (p * (denominator // q) for p, q in map(float.as_integer_ratio, self.ordered))
        self.prefix = list(accumulate(scaled, initial=0))
        self.denominator = denominator

    def _below(self, threshold: float) -> tuple[int, int]:
        """(k, the sum of the k durations at most the threshold, times the
        denominator), sorting first."""
        if self.denominator is None:
            self._sort()
        k = bisect_right(self.ordered, threshold)
        return k, self.prefix[k]

    @classmethod
    def of(
        cls, runs: ExecutionDataset | TestSample, rows: Sequence[int], test_id: str = ""
    ) -> "_SortedSample":
        """The kernel of the runs at ``rows``: the natural durations in that
        order, and ``c`` the number of those runs that are censored. A block of
        rows with no censored run is one slice of the durations column."""
        durations, censored = runs.durations, runs.censored
        span = row_slice(rows, len(durations))
        if span is not None and not any(censored[span]):
            return cls(durations[span], test_id)
        natural = [durations[i] for i in rows if not censored[i]]
        return cls(natural, test_id, len(rows) - len(natural))

    @classmethod
    def of_parts(
        cls, runs: ExecutionDataset | TestSample, parts: Sequence[Sequence[int]], test_id: str = ""
    ) -> tuple["_SortedSample", list[tuple[list[float], int]]]:
        """(the kernel of every part's runs, each part's sorted natural
        durations and censored count) for disjoint row lists. Each part is
        sorted once, and the kernel sorts their concatenation, which merges the
        sorted runs; ``fold`` builds a part's kernels from the pieces."""
        durations, censored = runs.durations, runs.censored
        pieces = []
        for rows in parts:
            natural = [durations[i] for i in rows if not censored[i]]
            natural.sort()
            pieces.append((natural, len(rows) - len(natural)))
        kernel = cls(chain.from_iterable(p for p, _ in pieces), test_id, sum(c for _, c in pieces))
        kernel._sort()
        return kernel, pieces

    def fold(
        self, pieces: Sequence[tuple[list[float], int]], i: int
    ) -> tuple["_SortedSample", "_SortedSample"]:
        """(held-out, training) for piece i of this sorted kernel's pieces
        (``of_parts``): the held-out kernel is born sorted from the piece, with
        prefix sums over this kernel's denominator; the training kernel is a
        ``_Difference`` of this kernel and it, holding the other pieces
        merged, and keeps both alive while it is."""
        natural, c = pieces[i]
        held_out = _SortedSample(natural, self.test_id, c)
        held_out._fill(self.denominator)
        rest = chain.from_iterable(p for j, (p, _) in enumerate(pieces) if j != i)
        return held_out, _Difference(self, held_out, rest)

    @property
    def mean(self) -> float:
        """The exact mean of the natural durations, rounded once: their
        ``fsum`` until sorted, then their exact integer sum over the denominator."""
        if self._mean is None:
            if self.denominator is None:
                self._mean = math.fsum(self.ordered) / self.n_nat
            else:
                self._mean = self._below(math.inf)[1] / self.denominator / self.n_nat
        return self._mean

    @property
    def stats(self) -> SampleStats:
        """The one builder of ``SampleStats``, which describes the natural runs:
        their mean and max, the min (the sorted start once sorted), and the
        variance, an ``fsum`` that no order changes. ValueError if none is natural."""
        if self._stats is None:
            if not self.n_nat:
                raise ValueError("no natural run: every run of the sample is censored")
            ordered, n, mean = self.ordered, self.n_nat, self.mean
            variance = math.fsum((d - mean) ** 2 for d in ordered) / (n - 1) if n > 1 else 0.0
            q_n = math.sqrt((n + 1) / n * variance)
            bottom = min(ordered) if self.denominator is None else ordered[0]
            self._stats = SampleStats(n, mean, variance, q_n, self._max, bottom)
        return self._stats

    def at(self, threshold: float) -> tuple[float, int]:
        """(truncated mean, overruns) at a threshold: every censored run, and
        every natural duration strictly above it, is an overrun charged the
        threshold."""
        n = self.n
        if threshold >= self._top:  # saturated, sorted or not; with c > 0 only at inf
            return (math.inf if self.c else self.mean), self.c
        k, total = self._below(threshold)
        p, q = threshold.as_integer_ratio()
        denominator = self.denominator
        return (total * q + (n - k) * p * denominator) / (denominator * q) / n, n - k

    def above(self, threshold: float) -> int:
        """``at``'s overruns at a threshold, with no mean."""
        if threshold >= self._top:
            return self.c
        return self.n - self._below(threshold)[0]

    def probability(self, threshold: float, config: OptimizationConfig) -> float:
        """p at a threshold under the configured method, from its steps."""
        steps = _steps(self, config.probability_method)
        base, step, d = steps.terms
        return (base + step * steps.count(threshold)) / d

    def empirical_cost(self, threshold: float, config: OptimizationConfig) -> tuple[float, int]:
        """(``expected_cost`` with empirical probabilities, overruns) at a threshold."""
        tm, over = self.at(threshold)
        return _cost(tm, over / self.n, threshold, config), over


class _Difference(_SortedSample):
    """The kernel of a sorted kernel's durations minus those of its kept
    part, born sorted, with no integers or prefix sums of its own. Both
    kernels share one denominator, so below any threshold its count is
    k_full - k_kept and its scaled sum prefix_full[k_full] -
    prefix_kept[k_kept]: the exact integers a kernel of its own would hold.
    So ``at``, ``above`` and the mean are bit-equal to that kernel's. Its
    sorted durations, merged from the sorted runs it is given, serve the
    variance and the order statistics."""

    __slots__ = ("full", "kept")

    def __init__(self, full: _SortedSample, kept: _SortedSample, rest: Iterable[float]) -> None:
        super().__init__(rest, full.test_id, full.c - kept.c)
        self.ordered.sort()  # merges the sorted runs it is given
        self.full, self.kept = full, kept
        self.denominator = full.denominator

    def _below(self, threshold: float) -> tuple[int, int]:
        k, total = self.full._below(threshold)
        k_kept, kept_total = self.kept._below(threshold)
        return k - k_kept, total - kept_total


def _cost(tm: float, p: float, threshold: float, config: OptimizationConfig) -> float:
    """tm + m p tm, plus ``_breakage`` when pb > 0; tm alone when m p is 0,
    so hangs at an infinite timeout cost inf, not inf + 0 * inf = NaN."""
    reruns = config.rerun_count * p
    cost = tm + reruns * tm if reruns else tm
    return cost + _breakage(threshold, config) if config.breakage_probability > 0.0 else cost


def _breakage(threshold: float, config: OptimizationConfig) -> float:
    """The cost's breakage term, pb * t * (m + 1), which ``_cost`` adds when pb > 0."""
    return config.breakage_probability * threshold * (config.rerun_count + 1)


def _average(costs: Sequence[float]) -> float:
    """The one fleet average: the ``fsum`` of the costs, exact in any order, over their count."""
    return math.fsum(costs) / len(costs)


def _kernel_of(sample: TestSample) -> _SortedSample:
    """The kernel of a sample; ValueError for an empty one."""
    if sample.n == 0:
        raise ValueError("empty sample")
    return _SortedSample.of(sample, range(sample.n), sample.test_id)


def sample_stats(sample: TestSample) -> SampleStats:
    """The statistics of a sample, from its kernel; ValueError for an empty one."""
    return _kernel_of(sample).stats


def empirical_exceedance(sample: TestSample, threshold: float) -> float:
    """Fraction of runs that time out at the threshold: every censored run
    and every natural duration above it."""
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
    smallest timeout. Every unit below a floor, ``lower`` at first, costs
    more than the best; each time the best cost falls, ``_raised_floor``
    lifts the floor by inverting p's steps. The scan stops at a candidate
    whose p costs more than the best even at the floor's tm and t, or once
    the floor reaches the best candidate: none left can cost less, and no
    tie is pruned.

    Samples with fewer than ``config.min_samples`` runs, censored ones
    included, or fewer than 2 natural runs receive the static fallback
    timeout instead; their reported cost and probability are empirical
    diagnostics at the fallback value (NaN for an empty sample), and their
    search range is that value's alone when no run is natural.
    """
    if isinstance(sample, _SortedSample):
        kernel = sample
    else:
        kernel = _SortedSample.of(sample, range(sample.n), sample.test_id)
    n = kernel.n
    fallback = n < config.min_samples or kernel.n_nat < 2
    if fallback:
        t = config.fallback_timeout
        if n:
            cost, over = kernel.empirical_cost(t * GRID_SECONDS, config)
            p = over / n
        else:
            cost = p = math.nan
        lower, upper = search_grid(kernel.stats) if kernel.n_nat else (t, t)
    else:
        lower, upper = search_grid(kernel.stats)
        steps = _steps(kernel, config.probability_method)
        floor, tm_floor = lower, kernel.at(lower * GRID_SECONDS)[0]
        t, cost, p = lower, math.inf, math.inf
        for unit, unit_p in _walk(steps, lower, upper):
            if _cost(tm_floor, unit_p, floor * GRID_SECONDS, config) > cost:
                break
            threshold = unit * GRID_SECONDS
            tm = kernel.at(threshold)[0] if unit > floor else tm_floor
            unit_cost = _cost(tm, unit_p, threshold, config)
            if unit_cost <= cost and unit_cost < math.inf:  # an infinite cost is never kept
                if unit_cost < cost and unit > floor:
                    floor, tm_floor = _raised_floor(
                        kernel, steps, (floor, tm_floor), (unit, tm), unit_cost, config
                    )
                t, cost, p = unit, unit_cost, unit_p
                if floor == unit:  # every candidate left lies below the floor
                    break
    return OptimizationResult(
        test_id=kernel.test_id,
        optimal_timeout=t,
        expected_cost_at_optimum=cost,
        timeout_probability_at_optimum=p,
        search_range=(lower, upper),
        method_used=config.probability_method,
        fallback_applied=fallback,
    )


def _walk(
    steps: _EmpiricalSteps | _TolhurstSteps, lower: int, upper: int
) -> Iterator[tuple[int, float]]:
    """(unit, p) at the first unit in [lower, upper] of each step of p, from
    the step that holds ``upper`` down to the one that holds ``lower``.

    p is the ratio ``steps.terms`` of a count of the natural runs: their
    overruns, or their Tolhurst numerator j. A step with count x starts at
    ``steps.start(x + 1)``, and the unit below a start lies in the next step
    down.
    """
    base, step, d = steps.terms
    u = upper
    while u >= lower:
        count = steps.count(u * GRID_SECONDS)
        u = max(lower, steps.start(count + 1))
        yield u, (base + step * count) / d
        u -= 1


def _raised_floor(
    kernel: _SortedSample,
    steps: _EmpiricalSteps | _TolhurstSteps,
    floor: tuple[int, float],
    best: tuple[int, float],
    cost: float,
    config: OptimizationConfig,
) -> tuple[int, float]:
    """The floor (unit, tm there) raised past every unit that must cost more
    than ``cost``, the cost of ``best``, the best candidate's (unit, tm).

    Units at or above the floor have tm and t at least the floor's, so the
    least natural count x whose p costs more than ``cost`` even there, found
    by bisection, prices out every unit below ``steps.start(x)``. No count up
    to the best's own does, so x >= 1 (c + 1 overruns, empirically: no unit
    has fewer than the c censored ones) and no start passes the best. The
    floor moves to the start and reads tm there, until it stops rising or
    reaches the best; a higher floor can only lower x, so each bisection
    searches up to the last one's x.
    """
    unit, tm = floor
    base, step, d = steps.terms
    hi = steps.top + 1  # none: every count costs at most the best at the floor
    while True:
        lo, seconds = 1, unit * GRID_SECONDS
        while lo < hi:
            mid = (lo + hi) // 2
            if _cost(tm, (base + step * mid) / d, seconds, config) > cost:
                hi = mid
            else:
                lo = mid + 1
        start = steps.start(hi)
        if start <= unit:
            return unit, tm
        if start >= best[0]:
            return best
        unit, tm = start, kernel.at(start * GRID_SECONDS)[0]


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
    natural run counts as timed out whenever its recorded duration exceeds
    t, even if it was never actually interrupted, and a censored run at
    every t. Returns the averaged curve and the grid minimum (smallest
    timeout on ties).

    Every sample gets a kernel and is scored by its ``empirical_cost``, and
    each point is the one fleet average, ``_average``: the scorer and the
    ``fsum`` average of ``evaluate``'s totals and cross-validation rows, so
    the point at t is bit-equal to ``compare_policies``' average cost of
    the static policy t. Only samples still running past the previous point
    are rescored, as a sample with a censored run always is. Once the kernel
    reports no overrun at t the sample is saturated: its p is 0 and its
    truncated mean is its exact mean at every larger t, so its cost is left
    as it is, or, with breakage, set to that mean plus the point's
    ``_breakage``, exactly what ``_cost`` adds to it at p = 0. The kernel
    decides saturation, so a sample saturated at lo is never sorted.
    """
    lo, hi = sweep_range
    if lo >= hi:
        raise ValueError(f"sweep range must satisfy lo < hi, got ({lo}, {hi})")
    if lo < 1:
        raise ValueError("sweep range must start at a positive grid value")
    kernels = [_SortedSample.of(dataset, rows) for rows in dataset.sample_index.values()]
    if not kernels:
        raise ValueError("empty dataset")

    costs = [0.0] * len(kernels)
    running = list(enumerate(kernels))
    saturated: list[tuple[int, float]] = []  # (sample position, mean)
    points: list[tuple[int, float]] = []
    for t_units in range(lo, hi + 1):
        t_seconds = t_units * GRID_SECONDS
        if config.breakage_probability > 0.0:
            breakage = _breakage(t_seconds, config)
            for i, mean in saturated:
                costs[i] = mean + breakage
        still_running = []
        for i, kernel in running:
            costs[i], over = kernel.empirical_cost(t_seconds, config)
            if over:
                still_running.append((i, kernel))
            else:
                saturated.append((i, kernel.mean))
        running = still_running
        points.append((t_units, _average(costs)))
    best_t, best_cost = min(points, key=operator.itemgetter(1))  # the first of equal minima
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
        """Fit every test of the dataset. Each test's kernel is built,
        searched and freed before the next is built, so no two are alive at
        once."""
        config = self.config
        self.results_ = {
            t: optimize_timeout(_SortedSample.of(dataset, dataset.test_index[t], t), config)
            for t in dataset.test_ids()
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
