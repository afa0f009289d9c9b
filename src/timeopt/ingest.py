"""Loading, validating, and summarizing execution data from files.

Two row formats are supported, with identical field names:

* JSONL: one object per line with keys ``test_id``, ``revision_id``,
  ``started_at`` (ISO-8601, UTC), ``duration_seconds`` (number), ``verdict``
  (``"pass"`` | ``"fail"`` | ``"timeout"``) and optional ``interrupted``
  (boolean, default false).
* CSV: the same names as header columns.

Malformed rows are rejected and counted; only an unreadable file or a
malformed CSV header is fatal, and no input line crashes the loader. Files
are read as UTF-8 with ``surrogateescape``, so an undecodable byte costs
only its row: a test or revision id that holds a lone surrogate (such a
byte, or a ``\\udcXX`` JSON escape) is rejected, since no UTF-8 output
could hold it. Each JSONL line is decoded by one ``raw_decode`` call. A
JSONL row in the writer's canonical shape (``_typed_values``) goes straight
into the dataset's columns; every other row, each CSV row included, goes
through ``_record_from_row``, which alone decides whether a row is rejected
and why. No per-row record object is built, verdict strings map to members
through one dict lookup, and repeated test and revision ids share one
string, checked once. Loading groups nothing beyond what the censored-fraction warnings
count. Loading is single-threaded per file; the resulting dataset is
immutable and shareable.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .model import _VERDICT_OF, ExecutionDataset, Verdict, valid_minutes, verdict_of

EXECUTION_FIELDS = (
    "test_id",
    "revision_id",
    "started_at",
    "duration_seconds",
    "verdict",
    "interrupted",
)

DEFAULT_CENSORED_WARN_THRESHOLD = 0.05

_TRUE_STRINGS = {"true", "1", "yes"}
_FALSE_STRINGS = {"false", "0", "no", ""}


@dataclass(frozen=True, slots=True)
class DatasetSummary:
    """Headline counts of a dataset."""

    test_count: int
    execution_count: int
    revision_count: int
    censored_fraction: float


@dataclass(frozen=True, slots=True)
class TimeoutChangeRecord:
    """One change to a test's configured timeout value.

    ``old_value`` is absent for the record that created the timeout entry.
    Values are positive integer minutes.
    """

    test_id: str
    changed_at: datetime
    new_value: int
    old_value: int | None = None

    def __post_init__(self) -> None:
        if self.new_value < 1:
            raise ValueError("new_value must be >= 1")
        if self.old_value is not None and self.old_value < 1:
            raise ValueError("old_value must be >= 1 when present")

    @property
    def is_creation(self) -> bool:
        return self.old_value is None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of loading one file: accepted + rejected = total input rows."""

    accepted: int
    rejected: int
    reasons: Mapping[str, int] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def parse_timestamp(raw: Any) -> datetime:
    """Parse an ISO-8601 timestamp, naive as UTC; else ValueError("bad timestamp")."""
    if not isinstance(raw, str) or not raw:
        raise ValueError("bad timestamp")
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError("bad timestamp") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


def format_timestamp(value: datetime) -> str:
    """Render a timestamp in the on-disk UTC format that ``parse_timestamp`` reads.

    Whole seconds are written without a fraction. Otherwise the fraction
    has 3 digits, or 6 when the microseconds need them: the two widths
    ``datetime.fromisoformat`` reads on every supported Python.
    """
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    value = value.astimezone(timezone.utc).replace(tzinfo=None)
    if not value.microsecond:
        timespec = "seconds"
    elif value.microsecond % 1000 == 0:
        timespec = "milliseconds"
    else:
        timespec = "microseconds"
    return value.isoformat(timespec=timespec) + "Z"


def _parse_bool(raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    if raw is None:
        return False
    if isinstance(raw, str):
        lowered = raw.strip().lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
    raise ValueError(f"bad boolean {raw!r}")


def _shared_id(value: str, ids: dict[str, str]) -> str:
    """The entry of non-empty id ``value`` in ``ids``, added on first sight:
    ``value`` itself, or "" when it holds a lone surrogate (UTF-8 cannot
    encode it). So each distinct id is checked once per load."""
    shared = ids.get(value)
    if shared is None:
        try:
            value.encode("utf-8")
            shared = value
        except UnicodeEncodeError:
            shared = ""
        ids[value] = shared
    return shared


def _record_from_row(
    row: Mapping[str, Any], ids: dict[str, str]
) -> tuple[str, str, datetime, float, Verdict, bool]:
    """The validated values of one parsed row, in ``ExecutionRecord`` field
    order, each id as its one shared string in ``ids``; raises ValueError
    with a reason."""
    test_id = row.get("test_id")
    revision_id = row.get("revision_id")
    if not test_id or not isinstance(test_id, str):
        raise ValueError("missing id")
    if not revision_id or not isinstance(revision_id, str):
        raise ValueError("missing id")
    test_id = _shared_id(test_id, ids)
    revision_id = _shared_id(revision_id, ids)
    if not (test_id and revision_id):
        raise ValueError("bad id")

    started_at = parse_timestamp(row.get("started_at"))

    raw_duration = row.get("duration_seconds")
    try:
        duration = float(raw_duration)
    except (TypeError, ValueError, OverflowError):  # an int past the float range
        raise ValueError("bad duration") from None
    if not math.isfinite(duration):
        raise ValueError("bad duration")
    if duration < 0:
        raise ValueError("negative duration")

    try:
        verdict = verdict_of(row.get("verdict"))
    except ValueError:
        raise ValueError("unknown verdict") from None

    try:
        interrupted = _parse_bool(row.get("interrupted"))
    except ValueError:
        raise ValueError("bad boolean") from None
    return test_id, revision_id, started_at, duration, verdict, interrupted


def _typed_values(
    row: Mapping[str, Any], ids: dict[str, str]
) -> tuple[str, str, datetime, float, Verdict, bool] | None:
    """``_record_from_row(row, ids)`` for a row in the canonical shape, else None.

    The shape: non-empty ``str`` ids with no lone surrogate, a ``float``
    duration that is finite and >= 0, a verdict string in ``_VERDICT_OF``,
    ``interrupted`` absent or a bool, and a stamp that
    ``datetime.fromisoformat`` reads with ``timezone.utc`` as its zone once
    a trailing ``Z`` is spelled ``+00:00``; ``parse_timestamp``'s strip,
    ``Z`` rewrite and ``astimezone`` give such a stamp the same value, and a
    property test pins the two paths together. None rejects nothing: the row takes the
    full check. CSV rows, whose values are all strings, never come here.
    """
    try:
        test_id = row["test_id"]
        revision_id = row["revision_id"]
        stamp = row["started_at"]
        duration = row["duration_seconds"]
        verdict = _VERDICT_OF[row["verdict"]]
    except (KeyError, TypeError):
        return None
    interrupted = row.get("interrupted", False)
    if not (
        type(test_id) is str
        and test_id
        and type(revision_id) is str
        and revision_id
        and type(duration) is float
        and 0.0 <= duration < math.inf
        and type(stamp) is str
        and (interrupted is True or interrupted is False)
    ):
        return None
    # one dict lookup per known id; _shared_id runs on first sight only
    test_id = ids.get(test_id) or _shared_id(test_id, ids)
    revision_id = ids.get(revision_id) or _shared_id(revision_id, ids)
    if not (test_id and revision_id):
        return None
    if stamp[-1:] == "Z":  # as parse_timestamp does; fromisoformat reads no Z before 3.11
        stamp = stamp[:-1] + "+00:00"
    try:
        started_at = datetime.fromisoformat(stamp)
    except ValueError:
        return None
    if started_at.tzinfo is not timezone.utc:
        return None
    return test_id, revision_id, started_at, duration, verdict, interrupted


_DECODE = json.JSONDecoder().raw_decode


def _iter_jsonl_rows(path: Path) -> Iterator[tuple[Mapping[str, Any] | None, str | None]]:
    """Each non-blank line's object. On a stripped line, one ``raw_decode``
    that must end at the line's end accepts exactly what ``json.loads``
    does. An integer literal past Python's digit limit (ValueError) or
    nesting past the recursion limit counts as invalid JSON."""
    with path.open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _DECODE(line)
            except (ValueError, RecursionError):
                yield None, "invalid json"
                continue
            if end != len(line) or not isinstance(obj, dict):
                yield None, "invalid json"
                continue
            yield obj, None


def _iter_csv_rows(
    path: Path, required: Iterable[str]
) -> Iterator[tuple[Mapping[str, Any] | None, str | None]]:
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            header = reader.fieldnames
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"malformed header: {exc}") from None
        missing = [name for name in required if header is None or name not in header]
        if missing:
            raise ValueError(f"malformed header: missing columns {missing}")
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error:  # an over-long field; the reader resumes at the next line
                row = None
            if row is None or None in row or any(value is None for value in row.values()):
                yield None, "malformed row"
            else:
                yield row, None


def _iter_rows(path: Path, fmt: str, required: Iterable[str]):
    if fmt == "jsonl":
        return _iter_jsonl_rows(path)
    if fmt == "csv":
        return _iter_csv_rows(path, required)
    raise ValueError(f"unknown format {fmt!r}; expected 'jsonl' or 'csv'")


def load_executions(
    path: str | Path,
    fmt: str = "jsonl",
) -> tuple[ExecutionDataset, ValidationReport]:
    """Load execution records from a JSONL or CSV file.

    Rows with a non-finite or negative duration, an unknown verdict, or
    missing ids are rejected and counted per reason. A warning is recorded
    for every (test, revision) sample whose censored fraction exceeds
    ``DEFAULT_CENSORED_WARN_THRESHOLD``.

    Returns:
        The dataset of accepted records and a validation report. Loading the
        same file twice yields equal datasets.

    Raises:
        OSError: if the file cannot be read.
        ValueError: on a malformed CSV header or unknown format.
    """
    path = Path(path)
    tests: list[str] = []
    revisions: list[str] = []
    started: list[datetime] = []
    durations: list[float] = []
    verdicts: list[Verdict] = []
    interrupted: list[bool] = []
    ids: dict[str, str] = {}  # each distinct id -> its one shared string, "" if rejected
    rejected = 0
    reasons: dict[str, int] = {}
    jsonl = fmt == "jsonl"  # a CSV value is always a str: only the full check can take it

    for row, row_error in _iter_rows(path, fmt, ("test_id", "revision_id", "started_at", "duration_seconds", "verdict")):
        if row_error is not None:
            rejected += 1
            reasons[row_error] = reasons.get(row_error, 0) + 1
            continue
        values = _typed_values(row, ids) if jsonl else None
        if values is None:
            try:
                values = _record_from_row(row, ids)
            except ValueError as exc:
                rejected += 1
                reasons[str(exc)] = reasons.get(str(exc), 0) + 1
                continue
        test_id, revision_id, started_at, duration, verdict, was_interrupted = values
        tests.append(test_id)
        revisions.append(revision_id)
        started.append(started_at)
        durations.append(duration)
        verdicts.append(verdict)
        interrupted.append(was_interrupted)

    dataset = ExecutionDataset.from_columns(
        tests, revisions, started, durations, verdicts, interrupted
    )
    report = ValidationReport(
        accepted=len(dataset),
        rejected=rejected,
        reasons=reasons,
        warnings=_censored_warnings(dataset),
    )
    return dataset, report


def _censored_warnings(dataset: ExecutionDataset) -> tuple[str, ...]:
    """One note per (test, revision) whose censored fraction exceeds the
    threshold, in key order; counted from the columns, with no samples."""
    keys = zip(dataset.tests, dataset.revisions)
    hung = Counter(key for key, censored in zip(keys, dataset.censored) if censored)
    if not hung:
        return ()
    totals = Counter(zip(dataset.tests, dataset.revisions))
    notes = []
    for test_id, revision_id in sorted(hung):
        fraction = hung[test_id, revision_id] / totals[test_id, revision_id]
        if fraction > DEFAULT_CENSORED_WARN_THRESHOLD:
            notes.append(
                f"test {test_id} revision {revision_id}: censored fraction "
                f"{fraction:.2f} exceeds {DEFAULT_CENSORED_WARN_THRESHOLD:g}"
            )
    return tuple(notes)


def _minutes_value(raw: Any) -> int:
    """A change row's value as int minutes that ``valid_minutes`` takes, else "bad
    value": a bool, a float with a fraction and non-integer text are not."""
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError("bad value")  # is_integer is False for inf and nan too
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ValueError("bad value") from None
    if not valid_minutes(value):
        raise ValueError("bad value")
    return value


def _change_from_row(row: Mapping[str, Any]) -> TimeoutChangeRecord:
    test_id = row.get("test_id")
    if not test_id or not isinstance(test_id, str):
        raise ValueError("missing id")
    changed_at = parse_timestamp(row.get("changed_at"))
    raw_old = row.get("old_value")
    old_value = None if raw_old in (None, "") else _minutes_value(raw_old)
    new_value = _minutes_value(row.get("new_value"))
    return TimeoutChangeRecord(
        test_id=test_id, changed_at=changed_at, new_value=new_value, old_value=old_value
    )


def load_timeout_changes(
    path: str | Path, fmt: str = "jsonl"
) -> tuple[list[TimeoutChangeRecord], ValidationReport]:
    """Load pre-extracted timeout-change records, sorted by (test, time).

    Returns the accepted changes and a validation report: rows with
    non-positive values or unparseable fields are rejected and counted per
    reason, as ``load_executions`` counts them.
    """
    changes: list[TimeoutChangeRecord] = []
    reasons: dict[str, int] = {}
    for row, reason in _iter_rows(Path(path), fmt, ("test_id", "changed_at", "new_value")):
        if reason is None:
            try:
                changes.append(_change_from_row(row))
                continue
            except ValueError as exc:
                reason = str(exc)
        reasons[reason] = reasons.get(reason, 0) + 1
    changes.sort(key=lambda c: (c.test_id, c.changed_at))
    return changes, ValidationReport(len(changes), sum(reasons.values()), reasons)


def summarize(dataset: ExecutionDataset) -> DatasetSummary:
    """Count distinct tests, executions, revisions, and the censored fraction."""
    total = len(dataset)
    return DatasetSummary(
        test_count=len(set(dataset.tests)),
        execution_count=total,
        revision_count=len(set(dataset.revisions)),
        censored_fraction=sum(dataset.censored) / total if total else 0.0,
    )


def record_to_row(row: tuple[str, str, datetime, float, Verdict, bool]) -> dict[str, Any]:
    """Serialize one dataset row (``ExecutionDataset.rows``) into the on-disk
    field names."""
    test_id, revision_id, started_at, duration, verdict, interrupted = row
    return {
        "test_id": test_id,
        "revision_id": revision_id,
        "started_at": format_timestamp(started_at),
        "duration_seconds": duration,
        "verdict": verdict.value,
        "interrupted": interrupted,
    }


_VERDICT_JSON = {verdict: json.dumps(verdict.value) for verdict in Verdict}


def _jsonl_lines(dataset: ExecutionDataset) -> Iterator[str]:
    """Each row as ``json.dumps(record_to_row(row), sort_keys=True)`` writes
    it, plus a newline, from one template with the keys in sorted order.

    Every distinct id and start time is encoded once. Start times are keyed
    by value, so equal instants in different zones share one entry: the
    output is UTC either way. A finite float's JSON text is its ``repr``.
    """
    quoted = {value: json.dumps(value) for value in {*dataset.tests, *dataset.revisions}}
    stamps = {value: json.dumps(format_timestamp(value)) for value in set(dataset.started_at)}
    number = float.__repr__
    for test_id, revision_id, started_at, duration, verdict, interrupted in dataset.rows():
        yield (
            f'{{"duration_seconds": {number(duration)}, '
            f'"interrupted": {"true" if interrupted else "false"}, '
            f'"revision_id": {quoted[revision_id]}, "started_at": {stamps[started_at]}, '
            f'"test_id": {quoted[test_id]}, "verdict": {_VERDICT_JSON[verdict]}}}\n'
        )


def write_executions(dataset: ExecutionDataset, path: str | Path, fmt: str = "jsonl") -> None:
    """Write a dataset in the standard JSONL or CSV format.

    Raises:
        ValueError: before opening the file, when a duration is not finite
            (neither format could be loaded back), or on an unknown format.
    """
    path = Path(path)
    if not all(map(math.isfinite, dataset.durations)):
        index = next(i for i, d in enumerate(dataset.durations) if not math.isfinite(d))
        raise ValueError(
            f"cannot write duration {dataset.durations[index]} of test "
            f"{dataset.tests[index]}: durations must be finite"
        )
    if fmt == "jsonl":
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(_jsonl_lines(dataset))
        return
    if fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=EXECUTION_FIELDS)
            writer.writeheader()
            for row in dataset.rows():
                writer.writerow(record_to_row(row))
        return
    raise ValueError(f"unknown format {fmt!r}; expected 'jsonl' or 'csv'")
