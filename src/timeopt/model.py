"""Core domain types for test-execution analytics.

Execution records, per-(test, revision) samples, and the summary statistics
that feed the probability and cost machinery. Everything in this module is an
immutable value and every operation is a pure function, so instances can be
shared across threads without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

GRID_SECONDS = 60.0  # one grid unit: timeouts and policies are integer minutes


class Verdict(str, Enum):
    """Outcome of a single test execution."""

    PASS = "pass"
    FAIL = "fail"
    TIMEOUT = "timeout"

    @property
    def is_failure(self) -> bool:
        """Fail and timeout both count as failures."""
        return self is not Verdict.PASS


@dataclass(frozen=True, slots=True)
class ExecutionRecord:
    """One observed test execution.

    ``interrupted`` records whether the framework actually killed the run.
    A timeout verdict with ``interrupted=False`` is possible: unresponsive
    machines can let an execution run far past its configured limit.
    """

    test_id: str
    revision_id: str
    started_at: datetime
    duration: float  # seconds
    verdict: Verdict
    interrupted: bool = False

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative, got {self.duration}")

    @property
    def censored(self) -> bool:
        """True when the recorded duration was capped by an enforced timeout."""
        return self.interrupted and self.verdict is Verdict.TIMEOUT


@dataclass(frozen=True)
class TestSample:
    """All executions of one test on one revision, in start-time order.

    The unit of statistical analysis: durations and verdicts are parallel
    sequences of equal length. ``censored_count`` is the number of runs whose
    duration was capped by an enforced timeout rather than ending naturally.
    """

    __test__ = False  # domain type, not a pytest class

    test_id: str
    revision_id: str
    durations: tuple[float, ...]
    verdicts: tuple[Verdict, ...]
    censored_count: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "durations", tuple(float(d) for d in self.durations))
        object.__setattr__(self, "verdicts", tuple(Verdict(v) for v in self.verdicts))
        if len(self.durations) != len(self.verdicts):
            raise ValueError("durations and verdicts must have equal length")
        if any(d < 0 for d in self.durations):
            raise ValueError("durations must be non-negative")
        if not 0 <= self.censored_count <= len(self.durations):
            raise ValueError("censored_count must be between 0 and the sample size")

    @property
    def n(self) -> int:
        return len(self.durations)


@dataclass(frozen=True, slots=True)
class SampleStats:
    """Summary statistics of one duration sample.

    ``variance`` is the unbiased sample variance (divisor n - 1, zero for a
    singleton sample) and ``q_n`` is its rescaling with
    q_n^2 = ((n + 1) / n) * variance, so q_n >= the sample standard deviation.
    """

    n: int
    mean: float
    variance: float
    q_n: float
    max: float
    min: float


def sample_stats(sample: TestSample) -> SampleStats:
    """Compute n, mean, unbiased variance, q_n, and extremes of a sample.

    Raises:
        ValueError: for an empty sample, or durations so large that their
            sum or squared deviations overflow a float.
    """
    n = sample.n
    if n == 0:
        raise ValueError("empty sample")
    durations = sample.durations
    try:
        mean = math.fsum(durations) / n
        if n == 1:
            variance = 0.0
        else:
            variance = math.fsum((d - mean) ** 2 for d in durations) / (n - 1)
    except OverflowError:
        raise ValueError(
            f"durations of test {sample.test_id!r} are too large: "
            "their mean or variance overflows a float"
        ) from None
    q_n = math.sqrt((n + 1) / n * variance)
    return SampleStats(
        n=n,
        mean=mean,
        variance=variance,
        q_n=q_n,
        max=max(durations),
        min=min(durations),
    )


def is_flaky(verdicts: Sequence[Verdict]) -> bool:
    """True iff the verdicts mix at least one pass and at least one failure.

    All-pass and all-fail sequences are not flaky. Raises ValueError on an
    empty sequence.
    """
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
    """Fraction of non-pass verdicts. Raises ValueError on an empty sequence."""
    if not verdicts:
        raise ValueError("empty verdict list")
    failures = sum(1 for v in verdicts if Verdict(v).is_failure)
    return failures / len(verdicts)


@dataclass(frozen=True)
class ExecutionDataset:
    """An immutable collection of execution records, indexed into samples.

    Every record belongs to exactly one ``TestSample`` keyed by
    ``(test_id, revision_id)``; sample sizes sum to the total record count.
    """

    records: tuple[ExecutionRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def test_index(self) -> Mapping[str, tuple[int, ...]]:
        """test_id -> indices of its records in (started_at, index) order.

        The one grouping of the records: samples, pooled samples and
        cross-validation folds are all read from it.
        """
        groups: dict[str, list[int]] = {}
        for i, rec in enumerate(self.records):
            groups.setdefault(rec.test_id, []).append(i)
        started = [rec.started_at for rec in self.records]
        # a stable sort of ascending indices orders ties by index
        return {
            test_id: tuple(sorted(indices, key=started.__getitem__))
            for test_id, indices in groups.items()
        }

    def subsample(self, test_id: str, revision_id: str, indices: Sequence[int]) -> TestSample:
        """The records at ``indices``, in that order, as one sample."""
        ordered = [self.records[i] for i in indices]
        return TestSample(
            test_id=test_id,
            revision_id=revision_id,
            durations=tuple(r.duration for r in ordered),
            verdicts=tuple(r.verdict for r in ordered),
            censored_count=sum(1 for r in ordered if r.censored),
        )

    @cached_property
    def samples(self) -> Mapping[tuple[str, str], TestSample]:
        """(test_id, revision_id) -> TestSample, durations in start-time order."""
        groups: dict[tuple[str, str], list[int]] = {}
        for test_id, indices in self.test_index.items():
            for i in indices:
                groups.setdefault((test_id, self.records[i].revision_id), []).append(i)
        return {key: self.subsample(*key, groups[key]) for key in sorted(groups)}

    def test_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.test_index))

    def revision_ids(self) -> tuple[str, ...]:
        return tuple(sorted({r.revision_id for r in self.records}))

    def sample(self, test_id: str, revision_id: str) -> TestSample:
        try:
            return self.samples[(test_id, revision_id)]
        except KeyError:
            raise ValueError(
                f"no sample for test {test_id!r} on revision {revision_id!r}"
            ) from None

    def samples_for_revision(self, revision_id: str) -> Mapping[str, TestSample]:
        """test_id -> TestSample for one revision; error on unknown revision."""
        found = {
            tid: sample
            for (tid, rid), sample in self.samples.items()
            if rid == revision_id
        }
        if not found:
            raise ValueError(f"unknown revision {revision_id!r}")
        return found

    def pooled_sample(self, test_id: str) -> TestSample:
        """All executions of one test pooled across revisions, by start time."""
        try:
            indices = self.test_index[test_id]
        except KeyError:
            raise ValueError(f"unknown test {test_id!r}") from None
        return self.subsample(test_id, "*", indices)
