"""Descriptive flakiness analytics over execution datasets.

A test is flaky on a revision when its repeated executions mix passes and
failures; the failure rate is the per-test fraction of failing runs. Flaky
tests are binned by failure rate into five intervals: (0, 0.2], (0.2, 0.4],
(0.4, 0.6], (0.6, 0.8] and the open (0.8, 1.0). A failure rate of exactly 1.0
means the test is not flaky and is counted in no bin.

Each function reads every (test, revision) group of ``sample_index`` once,
into one tally (``model._tallies``, which ``is_flaky`` and ``failure_rate``
also read): runs, failures, timeouts and ``mixed_at``, the length of the
shortest prefix (in start-time order) that holds a pass and a failure, or 0.
A group is flaky when ``mixed_at > 0``, and its first k runs when ``0 < mixed_at <= k``.

All functions are pure and safe to run in parallel across revisions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

from .model import ExecutionDataset, TimeoutChangeRecord, _Frozen, _tallies

BIN_UPPER_EDGES = (0.2, 0.4, 0.6, 0.8)


class FlakinessReport(NamedTuple):
    """Flakiness rate and failure-rate bins for one revision."""

    revision_id: str
    repetition_count: int
    unique_tests: int
    flaky_tests: int
    flakiness_rate: float
    bin_counts: tuple[int, int, int, int, int]


class EvolutionSeries(_Frozen):
    """Flakiness rate as a function of how many repetitions are considered."""

    __slots__ = _fields = ("revision_id", "points")
    revision_id: str
    points: tuple[tuple[int, float], ...]

    def __init__(self, revision_id: str, points: tuple[tuple[int, float], ...]) -> None:
        ks = [k for k, _ in points]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("repetitions_used must be strictly increasing")
        self._set(revision_id, points)


class FlakinessComparison(NamedTuple):
    """Two revision reports side by side, with the relative rate change."""

    report_a: FlakinessReport
    report_b: FlakinessReport
    absolute_change: float
    relative_change: float
    warnings: tuple[str, ...] = ()


class TimeoutChangeStats(NamedTuple):
    """How developers adjusted timeout values over time.

    Ratio quartiles are (q1, median, q3) of new/old, computed separately for
    increases (> 1) and decreases (< 1); unchanged values are ignored.
    Quartile triples are None when there is no data on that side.
    """

    tests_with_changes: int
    changes_per_test_median: float
    increase_count: int
    decrease_count: int
    increase_ratios: tuple[float, float, float] | None
    decrease_ratios: tuple[float, float, float] | None


def bin_index(rate: float) -> int:
    """Index of the failure-rate bin for a flaky test's rate in (0, 1)."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"failure rate {rate} is outside (0, 1); not a flaky test")
    return bisect_left(BIN_UPPER_EDGES, rate)


def flakiness_report(dataset: ExecutionDataset, revision_id: str) -> FlakinessReport:
    """Per-revision flakiness rate and failure-rate bin counts.

    ``repetition_count`` is the largest per-test execution count observed on
    the revision. Raises ValueError for an unknown revision.
    """
    tallies = _tallies(dataset.verdicts, dataset.revision_rows(revision_id).values())
    bins = [0, 0, 0, 0, 0]
    for runs, failures, _, mixed_at in tallies:
        if mixed_at:
            bins[bin_index(failures / runs)] += 1
    flaky = sum(bins)
    return FlakinessReport(
        revision_id=revision_id,
        repetition_count=max(runs for runs, *_ in tallies),
        unique_tests=len(tallies),
        flaky_tests=flaky,
        flakiness_rate=flaky / len(tallies),
        bin_counts=tuple(bins),
    )


def flakiness_evolution(
    dataset: ExecutionDataset, revision_id: str, step: int
) -> EvolutionSeries:
    """Flakiness rate over growing execution prefixes.

    For k = step, 2*step, ... the rate counts tests whose first k executions
    (in start-time order) already mix passes and failures, divided by the
    number of executed tests. The series is pointwise non-decreasing.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    tallies = _tallies(dataset.verdicts, dataset.revision_rows(revision_id).values())
    unique = len(tallies)
    max_n = max(runs for runs, *_ in tallies)
    mixed = sorted(mixed_at for *_, mixed_at in tallies if mixed_at)
    points = ((k, bisect_right(mixed, k) / unique) for k in range(step, max_n + step, step))
    return EvolutionSeries(revision_id=revision_id, points=tuple(points))


def timeout_failure_share(dataset: ExecutionDataset) -> tuple[float, tuple[str, ...]]:
    """Fraction of flaky failures that are timeouts, and its notes.

    Counts non-pass executions belonging to flaky (test, revision) samples
    and returns the share with a timeout verdict. The share is 0.0, with a
    note saying so, when the dataset contains no flaky failures at all.
    """
    tallies = _tallies(dataset.verdicts, dataset.sample_index.values())
    failures = sum(failed for _, failed, _, mixed_at in tallies if mixed_at)
    timeouts = sum(timed_out for _, _, timed_out, mixed_at in tallies if mixed_at)
    if failures == 0:
        return 0.0, ("dataset contains no flaky failures; share is 0.0",)
    return timeouts / failures, ()


def compare_flakiness(
    dataset_a: ExecutionDataset,
    dataset_b: ExecutionDataset,
    revision_a: str,
    revision_b: str,
) -> FlakinessComparison:
    """Compare flakiness of two revisions, possibly across datasets.

    Notes in ``warnings`` when the repetition counts differ: rates measured
    with different repetition counts are not meaningfully comparable.
    """
    report_a = flakiness_report(dataset_a, revision_a)
    report_b = flakiness_report(dataset_b, revision_b)
    notes: list[str] = []
    if report_a.repetition_count != report_b.repetition_count:
        notes.append(
            f"repetition counts differ ({report_a.repetition_count} vs "
            f"{report_b.repetition_count}); flakiness rates are not comparable"
        )
    absolute = report_b.flakiness_rate - report_a.flakiness_rate
    if report_a.flakiness_rate > 0:
        relative = absolute / report_a.flakiness_rate
    else:
        relative = 0.0 if report_b.flakiness_rate == 0 else float("inf")
    return FlakinessComparison(
        report_a=report_a,
        report_b=report_b,
        absolute_change=absolute,
        relative_change=relative,
        warnings=tuple(notes),
    )


def _quartiles(values: Sequence[float]) -> tuple[float, float, float] | None:
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        only = ordered[0]
        return (only, only, only)
    import statistics  # loads fractions and decimal; flakiness and compare never call this
    q1, q2, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return (q1, q2, q3)


def timeout_change_stats(changes: Sequence[TimeoutChangeRecord]) -> TimeoutChangeStats:
    """Summarize modification records into increase/decrease ratio quartiles.

    Only records with an old value (true modifications) contribute; the
    ratio new/old partitions them into increases (> 1) and decreases (< 1),
    and ratios exactly 1 are ignored. Quartiles use linear interpolation.
    """
    import statistics  # loads fractions and decimal; flakiness and compare never call this
    per_test: dict[str, int] = {}
    increases: list[float] = []
    decreases: list[float] = []
    for change in changes:
        if change.old_value is None:
            continue
        per_test[change.test_id] = per_test.get(change.test_id, 0) + 1
        ratio = change.new_value / change.old_value
        if ratio > 1.0:
            increases.append(ratio)
        elif ratio < 1.0:
            decreases.append(ratio)
    counts = list(per_test.values())
    return TimeoutChangeStats(
        tests_with_changes=len(per_test),
        changes_per_test_median=statistics.median(counts) if counts else 0.0,
        increase_count=len(increases),
        decrease_count=len(decreases),
        increase_ratios=_quartiles(increases),
        decrease_ratios=_quartiles(decreases),
    )
