"""Core domain types for test-execution analytics.

The execution dataset, per-(test, revision) samples, the record of a
sample's statistics (which only ``optimize``'s kernel fills), timeout
policies, timeout-change records and the optimizer's config
(``OptimizationConfig``, with the estimator names), with their checks; no
statistic or verdict tally is computed here. The config lives here so the
command line parses every flag without loading ``optimize``. This module
imports no other module of the package, and it is the one the algorithm
modules share. The dataset holds its runs as parallel columns, one tuple per
field, each built once at ingest;
``ExecutionRecord`` is the one-row view that API users and tests build
datasets from and read them back as. Commands read the columns through the
dataset's grouping index; a ``TestSample`` is built only when asked for.
Verdicts given as members or as their string values are coerced through one
dict lookup. Everything in this module is an immutable value and every
operation is a pure function, so instances can be shared across threads
without coordination.

Record types are built by two mechanisms, neither of which generates code at
import: a plain record is a ``typing.NamedTuple``, and a type that checks its
fields is a ``_Frozen`` subclass whose ``__init__`` holds the checks.
"""

from __future__ import annotations

import math
import sys
from datetime import datetime
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

GRID_SECONDS = 60.0  # one grid unit: timeouts and policies are integer minutes
# simulate's base duration shapes, kept here so the CLI parser needs no simulate import
DISTRIBUTIONS = ("lognormal", "exponential", "constant")
DURATION_LIMIT = 2.0**48
"""The largest duration in seconds, about 8.9 million years, that a record, a sample, a
loaded row, a written file or a generated run may hold. Two facts follow. (1) No mean or
variance overflows: each duration, and its distance from a mean, is at most 2**48, so for
n < 2**64 runs the sum and the sum of squared deviations stay below n * 2**96 < 2**160.
(2) The search reads only exact floats: its grid ends at unit ceil(2 * max / GRID_SECONDS)
<= 2**49 / 60 + 1, and the walk reads no unit above it and no Tolhurst step end past its
seconds, so each is a whole number of seconds at most 2**49 + 60 < 2**53."""
_IN_RANGE = "must be non-negative and finite, at most 2**48 s"  # every duration's rule


class _Frozen:
    """Immutable value semantics for the types that check their fields.

    A subclass names its fields in ``_fields``, as a ``NamedTuple`` does (and in
    ``__slots__`` unless it needs a ``__dict__``), and its ``__init__`` checks
    them and stores them once with ``_set``. Assigning or deleting an attribute
    raises AttributeError; equality (same type only), hashing, the repr and
    pickling read the fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: Any) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple[Any, ...]:
        return self._values()

    def __setstate__(self, state: tuple[Any, ...]) -> None:
        self._set(*state)


def valid_minutes(minutes: float) -> bool:
    """Whether a timeout in grid units is valid: at least 1, and
    ``minutes * GRID_SECONDS`` a finite float (an int past the float range
    is not)."""
    try:
        return minutes >= 1 and math.isfinite(minutes * GRID_SECONDS)
    except OverflowError:
        return False


class Verdict(str, Enum):
    """Outcome of a single test execution."""

    PASS = "pass"
    FAIL = "fail"
    TIMEOUT = "timeout"

    @property
    def is_failure(self) -> bool:
        """Fail and timeout both count as failures."""
        return self is not Verdict.PASS


# A str-valued member hashes and compares equal to its value, so this one
# dict maps members and strings alike to the member.
_VERDICT_OF: Mapping[str, Verdict] = {v.value: v for v in Verdict}


def verdict_of(value: Any) -> Verdict:
    """The ``Verdict`` for a member or its string value; ValueError otherwise."""
    try:
        return _VERDICT_OF[value]
    except (KeyError, TypeError):
        raise ValueError(f"{value!r} is not a valid Verdict") from None


def _check_durations(dataset: ExecutionDataset, action: str) -> None:
    """ValueError, led by ``action``, at the first duration outside ``[0, DURATION_LIMIT]``."""
    for test_id, d in zip(dataset.tests, dataset.durations):
        if not 0.0 <= d <= DURATION_LIMIT:
            raise ValueError(f"{action} duration {d} of test {test_id}: durations {_IN_RANGE}")


class ExecutionRecord(_Frozen):
    """One observed test execution.

    ``interrupted`` records whether the framework actually killed the run.
    A timeout verdict with ``interrupted=False`` is possible: unresponsive
    machines can let an execution run far past its configured limit.
    """

    __slots__ = _fields = (
        "test_id", "revision_id", "started_at", "duration", "verdict", "interrupted"
    )
    test_id: str
    revision_id: str
    started_at: datetime
    duration: float  # seconds
    verdict: Verdict
    interrupted: bool

    def __init__(
        self, test_id: str, revision_id: str, started_at: datetime, duration: float,
        verdict: Verdict, interrupted: bool = False,
    ) -> None:
        if not 0 <= duration <= DURATION_LIMIT:
            raise ValueError(f"duration {_IN_RANGE}, got {duration}")
        self._set(test_id, revision_id, started_at, duration, verdict, interrupted)

    @property
    def censored(self) -> bool:
        """True when the recorded duration was capped by an enforced timeout."""
        return self.interrupted and self.verdict is Verdict.TIMEOUT


class TimeoutChangeRecord(_Frozen):
    """One change to a test's configured timeout value.

    ``old_value`` is absent for the record that created the timeout entry.
    Values are positive integer minutes.
    """

    __slots__ = _fields = ("test_id", "changed_at", "new_value", "old_value")
    test_id: str
    changed_at: datetime
    new_value: int
    old_value: int | None

    def __init__(
        self, test_id: str, changed_at: datetime, new_value: int, old_value: int | None = None
    ) -> None:
        if new_value < 1:
            raise ValueError("new_value must be >= 1")
        if old_value is not None and old_value < 1:
            raise ValueError("old_value must be >= 1 when present")
        self._set(test_id, changed_at, new_value, old_value)

    @property
    def is_creation(self) -> bool:
        return self.old_value is None


class TestSample(_Frozen):
    """All executions of one test on one revision, in start-time order.

    The unit of statistical analysis: durations, verdicts and censored flags
    are parallel sequences of equal length. ``censored[i]`` says run i's
    duration was capped by an enforced timeout rather than ending naturally;
    left out, no run was. Its constructor, which coerces and checks every
    field, is the one way in; no command builds a sample.
    """

    __test__ = False  # domain type, not a pytest class
    __slots__ = _fields = ("test_id", "revision_id", "durations", "verdicts", "censored")
    test_id: str
    revision_id: str
    durations: tuple[float, ...]
    verdicts: tuple[Verdict, ...]
    censored: tuple[bool, ...]

    def __init__(
        self, test_id: str, revision_id: str, durations: Iterable[float],
        verdicts: Iterable[Any], censored: Iterable[bool] | None = None,
    ) -> None:
        durations = tuple(map(float, durations))
        verdicts = tuple(map(verdict_of, verdicts))
        censored = tuple(map(bool, (False,) * len(durations) if censored is None else censored))
        if not len(durations) == len(verdicts) == len(censored):
            raise ValueError("durations, verdicts and censored flags must have equal length")
        if not all(0.0 <= d <= DURATION_LIMIT for d in durations):
            raise ValueError(f"durations {_IN_RANGE}")
        self._set(test_id, revision_id, durations, verdicts, censored)

    @property
    def n(self) -> int:
        return len(self.durations)

    @property
    def censored_count(self) -> int:
        """The number of runs capped by an enforced timeout."""
        return sum(self.censored)


class SampleStats(NamedTuple):
    """Summary statistics of one duration sample.

    ``variance`` is the unbiased sample variance (divisor n - 1, zero for a
    singleton sample) and ``q_n`` is its rescaling with
    q_n^2 = ((n + 1) / n) * variance, so q_n >= the sample standard deviation.
    One place builds it: ``optimize``'s kernel (``_SortedSample.stats``).
    """

    n: int
    mean: float
    variance: float
    q_n: float
    max: float
    min: float


class ExecutionDataset(_Frozen):
    """An immutable collection of test executions, held as parallel columns.

    Row i is the run ``(tests[i], revisions[i], started_at[i], durations[i],
    verdicts[i], interrupted[i])``, in input order; ``censored[i]`` is derived
    from the last two. Ingest and the generator fill the columns directly
    through ``from_columns``, with no per-row object. The constructor,
    ``ExecutionDataset(records=...)``, is the adapter for
    ``ExecutionRecord``s and fills the same columns, so both have one
    grouping path; ``records`` is the reverse view, built only when asked
    for. Equality compares the columns. The cached views live in the
    instance ``__dict__``, which ``functools.cached_property`` needs.

    Every row belongs to exactly one ``(test_id, revision_id)`` group of
    ``sample_index``; group sizes sum to the row count.
    """

    _fields = ("tests", "revisions", "started_at", "durations", "verdicts", "interrupted")
    tests: tuple[str, ...]
    revisions: tuple[str, ...]
    started_at: tuple[datetime, ...]
    durations: tuple[float, ...]  # seconds
    verdicts: tuple[Verdict, ...]
    interrupted: tuple[bool, ...]

    def __init__(self, records: Iterable[ExecutionRecord] = ()) -> None:
        records = tuple(records)
        self._set_columns(
            [r.test_id for r in records],
            [r.revision_id for r in records],
            [r.started_at for r in records],
            [float(r.duration) for r in records],
            [verdict_of(r.verdict) for r in records],
            [bool(r.interrupted) for r in records],
        )

    @classmethod
    def from_columns(
        cls,
        tests: Iterable[str],
        revisions: Iterable[str],
        started_at: Iterable[datetime],
        durations: Iterable[float],
        verdicts: Iterable[Verdict],
        interrupted: Iterable[bool],
    ) -> "ExecutionDataset":
        """The dataset of already validated columns: verdicts are members, durations floats
        in ``[0, DURATION_LIMIT]``, unchecked here. Raises ValueError on unequal lengths."""
        dataset = cls.__new__(cls)
        dataset._set_columns(tests, revisions, started_at, durations, verdicts, interrupted)
        return dataset

    def _set_columns(self, *columns: Iterable[Any]) -> None:
        held = [tuple(column) for column in columns]
        if len({len(column) for column in held}) > 1:
            raise ValueError("columns must have equal length")
        self._set(*held)

    def __len__(self) -> int:
        return len(self.tests)

    @cached_property
    def censored(self) -> tuple[bool, ...]:
        """Per row: the duration was capped by an enforced timeout."""
        timeout = Verdict.TIMEOUT
        return tuple(i and v is timeout for i, v in zip(self.interrupted, self.verdicts))

    def rows(self) -> Iterator[tuple[str, str, datetime, float, Verdict, bool]]:
        """Each row's values in ``ExecutionRecord`` field order, in input order."""
        return zip(
            self.tests, self.revisions, self.started_at, self.durations,
            self.verdicts, self.interrupted,
        )

    @cached_property
    def records(self) -> tuple[ExecutionRecord, ...]:
        """The rows as ``ExecutionRecord``s, built on first use."""
        return tuple(ExecutionRecord(*row) for row in self.rows())

    @cached_property
    def test_index(self) -> Mapping[str, tuple[int, ...]]:
        """test_id -> indices of its rows in (started_at, index) order.

        The one grouping of the rows: the fit, pooled samples,
        cross-validation folds and ``sample_index`` are all read from it.
        """
        groups: dict[str, list[int]] = {}
        for i, test_id in enumerate(self.tests):
            groups.setdefault(test_id, []).append(i)
        started = self.started_at
        # a stable sort of ascending indices orders ties by index
        return {
            test_id: tuple(sorted(indices, key=started.__getitem__))
            for test_id, indices in groups.items()
        }

    @cached_property
    def sample_index(self) -> Mapping[tuple[str, str], tuple[int, ...]]:
        """(test_id, revision_id) -> row indices in (started_at, index) order,
        keys sorted: ``test_index`` refined by revision. The sweep, policy
        totals and flakiness read the columns through it."""
        revisions = self.revisions
        groups: dict[tuple[str, str], list[int]] = {}
        for test_id, indices in self.test_index.items():
            for i in indices:
                groups.setdefault((test_id, revisions[i]), []).append(i)
        return {key: tuple(groups[key]) for key in sorted(groups)}

    def subsample(self, test_id: str, revision_id: str, indices: Sequence[int]) -> TestSample:
        """The rows at ``indices``, in that order, as one sample."""
        durations, verdicts, censored = self.durations, self.verdicts, self.censored
        return TestSample(
            test_id,
            revision_id,
            tuple([durations[i] for i in indices]),
            tuple([verdicts[i] for i in indices]),
            tuple([censored[i] for i in indices]),
        )

    @cached_property
    def samples(self) -> Mapping[tuple[str, str], TestSample]:
        """(test_id, revision_id) -> TestSample, durations in start-time order."""
        return {key: self.subsample(*key, rows) for key, rows in self.sample_index.items()}

    def test_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.test_index))

    def revision_ids(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.revisions)))

    def sample(self, test_id: str, revision_id: str) -> TestSample:
        """The one (test_id, revision_id) group of ``sample_index`` as a sample."""
        try:
            rows = self.sample_index[(test_id, revision_id)]
        except KeyError:
            raise ValueError(
                f"no sample for test {test_id!r} on revision {revision_id!r}"
            ) from None
        return self.subsample(test_id, revision_id, rows)

    def revision_rows(self, revision_id: str) -> Mapping[str, tuple[int, ...]]:
        """test_id -> its ``sample_index`` rows on one revision, test ids
        sorted; error on unknown revision."""
        found = {tid: rows for (tid, rid), rows in self.sample_index.items() if rid == revision_id}
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


class TimeoutPolicy(_Frozen):
    """A labeled policy: per-test timeouts in grid units, or one global static value."""

    __slots__ = _fields = ("label", "values", "default")
    label: str
    values: Mapping[str, int] | None
    default: int | None

    def __init__(
        self, label: str, values: Mapping[str, int] | None = None, default: int | None = None
    ) -> None:
        if values is None and default is None:
            raise ValueError("policy needs per-test values or a default")
        if values is not None and not all(map(valid_minutes, values.values())):
            raise ValueError("timeout values must be >= 1 and finite in seconds")
        if default is not None and not valid_minutes(default):
            raise ValueError("default timeout must be >= 1 and finite in seconds")
        self._set(label, values, default)

    @classmethod
    def static(cls, value: int, label: str = "static") -> "TimeoutPolicy":
        return cls(label, default=value)

    def value_for(self, test_id: str) -> int:
        if self.values is not None and test_id in self.values:
            return self.values[test_id]
        if self.default is not None:
            return self.default
        raise ValueError(f"policy {self.label!r} has no timeout for test {test_id!r}")

    def seconds(self, test_ids: Sequence[str]) -> dict[str, float]:
        """test_id -> timeout in seconds; ``value_for``'s error on the first gap."""
        return {tid: self.value_for(tid) * GRID_SECONDS for tid in test_ids}

    def median_value(self, test_ids: Sequence[str]) -> float:
        """The median of the tests' values, as ``statistics.median`` gives it:
        the middle value, or the mean of the two middle ones."""
        values = sorted(self.value_for(tid) for tid in test_ids)
        middle = len(values) // 2
        if len(values) % 2:
            return values[middle]
        return (values[middle - 1] + values[middle]) / 2


TOLHURST_BOUND = "tolhurst_bound"
EMPIRICAL_ECDF = "empirical_ecdf"
PROBABILITY_METHODS = (TOLHURST_BOUND, EMPIRICAL_ECDF)


class OptimizationConfig(_Frozen):
    """Knobs of the cost model and the timeout search.

    Timeouts are searched in integer grid units of ``GRID_SECONDS``. Samples
    smaller than ``min_samples`` get the static ``fallback_timeout`` (grid
    units) instead of an unstable data-driven value.
    """

    __slots__ = _fields = (
        "rerun_count", "breakage_probability", "probability_method", "min_samples",
        "fallback_timeout",
    )
    rerun_count: int
    breakage_probability: float
    probability_method: str
    min_samples: int
    fallback_timeout: int

    def __init__(
        self, rerun_count: int = 3, breakage_probability: float = 0.0,
        probability_method: str = TOLHURST_BOUND, min_samples: int = 30,
        fallback_timeout: int = 120,
    ) -> None:
        if not 0 <= rerun_count <= sys.float_info.max:  # the cost takes m + 1 as a float
            raise ValueError("rerun_count must be in [0, sys.float_info.max]")
        if not 0.0 <= breakage_probability <= 1.0:
            raise ValueError("breakage_probability must be in [0, 1]")
        if probability_method not in PROBABILITY_METHODS:
            raise ValueError(
                f"probability_method must be one of {PROBABILITY_METHODS}, "
                f"got {probability_method!r}"
            )
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if not valid_minutes(fallback_timeout):
            raise ValueError("fallback_timeout must be >= 1 and finite in seconds")
        self._set(
            rerun_count, breakage_probability, probability_method, min_samples, fallback_timeout
        )
