"""Independent reference definitions that the tests check the program against.

Each number of the cost model and of the flakiness analytics is written
here the straightforward way: a ``math.fsum`` or a count over every
duration, a loop over every verdict, or exact fractions. The program
computes each of them once, in its sorted-sample kernel or its verdict
tally, and its public functions of the same names are adapters over those.
So this module shares no code with them: it imports only the standard
library and value types from ``timeopt.model``, which
``test_reference_imports_no_program_code`` checks.

A censored run is a hang, a run that never ends: at every timeout it is
an overrun that consumes the timeout, whatever duration it was recorded
with. The statistics, and so the Tolhurst bound of the natural runs,
describe the natural (uncensored) runs alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from timeopt.model import SampleStats, TestSample, Verdict

EMPIRICAL_ECDF = "empirical_ecdf"  # the configuration's method name


def natural_durations(sample: TestSample) -> list[float]:
    """The durations of the sample's runs that are not censored."""
    return [d for d, hung in zip(sample.durations, sample.censored) if not hung]


def sample_stats(sample: TestSample) -> SampleStats:
    """n, mean, unbiased variance, q_n and extremes of a sample's natural
    runs, as ``fsum``s. A sample's durations are at most 2**48 s, so neither
    sum overflows.

    Raises:
        ValueError: for a sample with no natural run.
    """
    durations = natural_durations(sample)
    n = len(durations)
    if not n:
        raise ValueError(
            "no natural run: every run of the sample is censored" if sample.n else "empty sample"
        )
    mean = math.fsum(durations) / n
    if n == 1:
        variance = 0.0
    else:
        variance = math.fsum((d - mean) ** 2 for d in durations) / (n - 1)
    q_n = math.sqrt((n + 1) / n * variance)
    return SampleStats(n, mean, variance, q_n, max(durations), min(durations))


def count_timeouts(sample: TestSample, timeout_seconds: float) -> int:
    """Runs that time out: every censored run, and every natural duration
    strictly greater than the timeout."""
    runs = zip(sample.durations, sample.censored)
    return sum(1 for d, hung in runs if hung or d > timeout_seconds)


def count_flaky_timeouts(sample: TestSample, timeout_seconds: float) -> int:
    """Natural durations strictly greater than the timeout: a hang is a
    blocked run, not a flaky timeout."""
    return sum(1 for d in natural_durations(sample) if d > timeout_seconds)


def empirical_exceedance(sample: TestSample, threshold: float) -> float:
    """Fraction of runs that time out at the threshold."""
    if sample.n == 0:
        raise ValueError("empty sample")
    return count_timeouts(sample, threshold) / sample.n


def truncated_mean(sample: TestSample, threshold: float) -> float:
    """Mean consumed time when every run is capped at the threshold: a
    natural run consumes its duration up to it, a censored run all of it."""
    if sample.n == 0:
        raise ValueError("empty sample")
    consumed = (
        threshold if hung else min(d, threshold)
        for d, hung in zip(sample.durations, sample.censored)
    )
    return math.fsum(consumed) / sample.n


def tolhurst_bound(stats: SampleStats, threshold: float) -> float:
    """floor((n + 1) / (k^2 + 1)) / (n + 1), k^2 = n lam^2 / (n - 1 + lam^2),
    lam = (threshold - mean) / q_n, in exact fractions; 1.0 for lam <= 1. At
    an infinite threshold, its limit as lam grows: k^2 rises towards n but
    stays below it, so the floor is 1 with spread; with none, lam is infinite
    past the mean and the bound 0."""
    return float(_tolhurst_fraction(stats, threshold))


def _tolhurst_fraction(stats: SampleStats, threshold: float) -> Fraction:
    """``tolhurst_bound`` as an exact fraction."""
    n = stats.n
    if n < 2:
        raise ValueError("insufficient sample: the bound requires n >= 2")
    if math.isinf(threshold) and threshold > 0:
        return Fraction(0 if stats.q_n == 0 else 1, n + 1)
    gap, q_n = Fraction(threshold) - Fraction(stats.mean), Fraction(stats.q_n)
    if gap <= q_n:
        return Fraction(1)
    if not q_n:
        return Fraction(0)
    lam_sq = (gap / q_n) ** 2
    k_sq = n * lam_sq / (n - 1 + lam_sq)
    return Fraction(math.floor((n + 1) / (k_sq + 1)), n + 1)


def timeout_probability(sample: TestSample, threshold: float, config) -> float:
    """Timeout probability at a threshold, using the configured method. The
    Tolhurst bound p_nat covers the natural runs; with c of the n runs
    censored, p = (c + n_nat p_nat) / n, in exact fractions, rounded once."""
    if config.probability_method == EMPIRICAL_ECDF:
        return empirical_exceedance(sample, threshold)
    stats = sample_stats(sample)
    hung = sample.n - stats.n
    return float((hung + stats.n * _tolhurst_fraction(stats, threshold)) / sample.n)


def cost(tm: float, p: float, threshold: float, config) -> float:
    """tm + m p tm, plus pb t (m + 1) when breakage is modeled; tm alone
    when m p is 0, so an infinite tm costs inf."""
    total = tm + config.rerun_count * p * tm if config.rerun_count * p else tm
    if config.breakage_probability > 0.0:
        total += config.breakage_probability * threshold * (config.rerun_count + 1)
    return total


def expected_cost(sample: TestSample, timeout_seconds: float, config) -> float:
    """Average cost in seconds of one scheduled execution under a timeout."""
    if sample.n == 0:
        raise ValueError("empty sample")
    if timeout_seconds <= 0:
        raise ValueError("timeout must be positive")
    tm = truncated_mean(sample, timeout_seconds)
    p = timeout_probability(sample, timeout_seconds, config)
    return cost(tm, p, timeout_seconds, config)


def is_flaky(verdicts: Sequence[Verdict]) -> bool:
    """True iff the verdicts mix at least one pass and at least one failure."""
    if not verdicts:
        raise ValueError("empty verdict list")
    saw_pass = saw_failure = False
    for v in verdicts:
        if Verdict(v).is_failure:
            saw_failure = True
        else:
            saw_pass = True
        if saw_pass and saw_failure:
            return True
    return False


def failure_rate(verdicts: Sequence[Verdict]) -> float:
    """Fraction of non-pass verdicts."""
    if not verdicts:
        raise ValueError("empty verdict list")
    return sum(1 for v in verdicts if Verdict(v).is_failure) / len(verdicts)
