"""Loading, validating, and summarizing execution data from files.

Two row formats are supported, with identical field names:

* JSONL: one object per line with keys ``test_id``, ``revision_id``,
  ``started_at`` (ISO-8601, UTC), ``duration_seconds`` (number), ``verdict``
  (``"pass"`` | ``"fail"`` | ``"timeout"``) and optional ``interrupted``
  (boolean, default false).
* CSV: the same names as header columns.

Malformed rows are rejected and counted; only an unreadable file or a
malformed CSV header is fatal. Loading is single-threaded per file; the
resulting dataset is immutable and shareable.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .model import ExecutionDataset, ExecutionRecord, Verdict

EXECUTION_FIELDS = (
    "test_id",
    "revision_id",
    "started_at",
    "duration_seconds",
    "verdict",
    "interrupted",
)

TIMEOUT_CHANGE_FIELDS = ("test_id", "changed_at", "old_value", "new_value")

DEFAULT_CENSORED_WARN_THRESHOLD = 0.05

_VERDICTS = {v.value for v in Verdict}
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
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    if not isinstance(raw, str) or not raw:
        raise ValueError(f"bad timestamp {raw!r}")
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"bad timestamp {raw!r}") from None
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


def _record_from_row(row: Mapping[str, Any]) -> ExecutionRecord:
    """Build a record from one parsed row; raises ValueError with a reason."""
    test_id = row.get("test_id")
    revision_id = row.get("revision_id")
    if not test_id or not isinstance(test_id, str):
        raise ValueError("missing id")
    if not revision_id or not isinstance(revision_id, str):
        raise ValueError("missing id")

    try:
        started_at = parse_timestamp(row.get("started_at"))
    except ValueError:
        raise ValueError("bad timestamp") from None

    raw_duration = row.get("duration_seconds")
    try:
        duration = float(raw_duration)
    except (TypeError, ValueError):
        raise ValueError("bad duration") from None
    if not math.isfinite(duration):
        raise ValueError("bad duration")
    if duration < 0:
        raise ValueError("negative duration")

    verdict = row.get("verdict")
    if not isinstance(verdict, str) or verdict not in _VERDICTS:
        raise ValueError("unknown verdict")

    try:
        interrupted = _parse_bool(row.get("interrupted"))
    except ValueError:
        raise ValueError("bad boolean") from None
    return ExecutionRecord(
        test_id=test_id,
        revision_id=revision_id,
        started_at=started_at,
        duration=duration,
        verdict=Verdict(verdict),
        interrupted=interrupted,
    )


def _iter_jsonl_rows(path: Path) -> Iterator[tuple[Mapping[str, Any] | None, str | None]]:
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                yield None, "invalid json"
                continue
            if not isinstance(obj, dict):
                yield None, "invalid json"
                continue
            yield obj, None


def _iter_csv_rows(
    path: Path, required: Iterable[str]
) -> Iterator[tuple[Mapping[str, Any] | None, str | None]]:
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        missing = [name for name in required if header is None or name not in header]
        if missing:
            raise ValueError(f"malformed header: missing columns {missing}")
        for row in reader:
            if None in row or any(value is None for value in row.values()):
                yield None, "malformed row"
                continue
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
    records: list[ExecutionRecord] = []
    rejected = 0
    reasons: dict[str, int] = {}

    for row, row_error in _iter_rows(path, fmt, ("test_id", "revision_id", "started_at", "duration_seconds", "verdict")):
        if row_error is not None:
            rejected += 1
            reasons[row_error] = reasons.get(row_error, 0) + 1
            continue
        try:
            records.append(_record_from_row(row))
        except ValueError as exc:
            rejected += 1
            reasons[str(exc)] = reasons.get(str(exc), 0) + 1

    dataset = ExecutionDataset(records=tuple(records))
    notes: list[str] = []
    for (test_id, revision_id), sample in dataset.samples.items():
        fraction = sample.censored_count / sample.n
        if fraction > DEFAULT_CENSORED_WARN_THRESHOLD:
            notes.append(
                f"test {test_id} revision {revision_id}: censored fraction "
                f"{fraction:.2f} exceeds {DEFAULT_CENSORED_WARN_THRESHOLD:g}"
            )

    report = ValidationReport(
        accepted=len(records),
        rejected=rejected,
        reasons=reasons,
        warnings=tuple(notes),
    )
    return dataset, report


def _change_from_row(row: Mapping[str, Any]) -> TimeoutChangeRecord:
    test_id = row.get("test_id")
    if not test_id or not isinstance(test_id, str):
        raise ValueError("missing id")
    changed_at = parse_timestamp(row.get("changed_at"))

    raw_old = row.get("old_value")
    if raw_old in (None, ""):
        old_value = None
    else:
        try:
            old_value = int(raw_old)
        except (TypeError, ValueError):
            raise ValueError("bad value") from None

    raw_new = row.get("new_value")
    try:
        new_value = int(raw_new)
    except (TypeError, ValueError):
        raise ValueError("bad value") from None

    return TimeoutChangeRecord(
        test_id=test_id, changed_at=changed_at, new_value=new_value, old_value=old_value
    )


def load_timeout_changes(path: str | Path, fmt: str = "jsonl") -> list[TimeoutChangeRecord]:
    """Load pre-extracted timeout-change records, sorted by (test, time).

    Rows with non-positive values or unparseable fields are dropped; a single
    summary warning is emitted when anything was rejected.
    """
    path = Path(path)
    changes: list[TimeoutChangeRecord] = []
    dropped = 0
    for row, row_error in _iter_rows(path, fmt, ("test_id", "changed_at", "new_value")):
        if row_error is not None:
            dropped += 1
            continue
        try:
            changes.append(_change_from_row(row))
        except ValueError:
            dropped += 1
    if dropped:
        warnings.warn(f"rejected {dropped} timeout-change rows from {path}", stacklevel=2)
    changes.sort(key=lambda c: (c.test_id, c.changed_at))
    return changes


def summarize(dataset: ExecutionDataset) -> DatasetSummary:
    """Count distinct tests, executions, revisions, and the censored fraction."""
    tests: set[str] = set()
    revisions: set[str] = set()
    censored = 0
    for record in dataset.records:
        tests.add(record.test_id)
        revisions.add(record.revision_id)
        if record.censored:
            censored += 1
    total = len(dataset.records)
    return DatasetSummary(
        test_count=len(tests),
        execution_count=total,
        revision_count=len(revisions),
        censored_fraction=censored / total if total else 0.0,
    )


def record_to_row(record: ExecutionRecord) -> dict[str, Any]:
    """Serialize a record into the on-disk field names."""
    return {
        "test_id": record.test_id,
        "revision_id": record.revision_id,
        "started_at": format_timestamp(record.started_at),
        "duration_seconds": record.duration,
        "verdict": record.verdict.value,
        "interrupted": record.interrupted,
    }


def write_executions(dataset: ExecutionDataset, path: str | Path, fmt: str = "jsonl") -> None:
    """Write a dataset in the standard JSONL or CSV format."""
    path = Path(path)
    if fmt == "jsonl":
        with path.open("w", encoding="utf-8") as handle:
            for record in dataset.records:
                handle.write(json.dumps(record_to_row(record), sort_keys=True))
                handle.write("\n")
        return
    if fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=EXECUTION_FIELDS)
            writer.writeheader()
            for record in dataset.records:
                writer.writerow(record_to_row(record))
        return
    raise ValueError(f"unknown format {fmt!r}; expected 'jsonl' or 'csv'")
