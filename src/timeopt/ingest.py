"""Every file format: loading, validating, writing and summarizing execution
data, timeout-change files and per-test policy files. No other module but
the command line touches a file.

Execution rows come in two formats, with identical field names:

* JSONL: one object per line with keys ``test_id``, ``revision_id``,
  ``started_at`` (ISO-8601, UTC), ``duration_seconds`` (number), ``verdict``
  (``"pass"`` | ``"fail"`` | ``"timeout"``) and optional ``interrupted``
  (boolean, default false).
* CSV: the same names as header columns.

Malformed rows are rejected and counted; only an unreadable file or a
malformed CSV header is fatal, and no input line crashes the loader. Files
are read as UTF-8 with ``surrogateescape``, so an undecodable byte costs
only its row: a test or revision id that holds a lone surrogate (such a
byte, or a ``\\udcXX`` JSON escape) is rejected, since no UTF-8 output could
hold it. JSONL lines spelled as the writer spells them (``_WRITER_LINE``)
are read by a regex match up to the first line that is not, or fails a
check; each line from there on is decoded by one ``raw_decode``, and a row
in the canonical shape (``_typed_values``) goes straight into the columns.
Both take ``_typed_row``'s checks. Any other row, each CSV row included, goes
through ``_record_from_row``, which alone decides whether a row is rejected
and why. No per-row record object is built, verdict strings map to members
through one dict lookup, and repeated ids share one string, checked once.
Loading groups nothing beyond what the censored-fraction warnings count and
is single-threaded per file; the dataset is immutable and shareable.
Timeout-change files take the same per-row rejection. A policy file
(``test_id,timeout_minutes``) is read all-or-nothing, unlike row files: a
malformed header or row fails the whole file with ValueError.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from .model import (
    _VERDICT_OF, DURATION_LIMIT, ExecutionDataset, TimeoutChangeRecord, TimeoutPolicy, Verdict,
    _check_durations, valid_minutes, verdict_of,
)

EXECUTION_FIELDS = (
    "test_id",
    "revision_id",
    "started_at",
    "duration_seconds",
    "verdict",
    "interrupted",
)

TIMEOUT_POLICY_FIELDS = ("test_id", "timeout_minutes")
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')  # a policy file quotes an id holding one

DEFAULT_CENSORED_WARN_THRESHOLD = 0.05

_TRUE_STRINGS = {"true", "1", "yes"}
_FALSE_STRINGS = {"false", "0", "no", ""}


class DatasetSummary(NamedTuple):
    """Headline counts of a dataset."""

    test_count: int
    execution_count: int
    revision_count: int
    censored_fraction: float


class ValidationReport(NamedTuple):
    """Outcome of loading one file: accepted + rejected = total input rows.

    ``reasons`` defaults to one shared empty mapping, which is read-only.
    """

    accepted: int
    rejected: int
    reasons: Mapping[str, int] = MappingProxyType({})
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
        return parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError:  # e.g. 0001-01-01T00:00:00+01:00, whose UTC form is before year 1
        raise ValueError("bad timestamp") from None


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
    if not (math.isfinite(duration) and duration <= DURATION_LIMIT):
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

    The shape: ``str`` ids, a ``float`` duration, a verdict string in
    ``_VERDICT_OF``, ``interrupted`` absent or a bool, a ``str`` stamp, and
    values that pass ``_typed_row``. None rejects nothing: the row takes the
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
        and type(revision_id) is str
        and type(duration) is float
        and type(stamp) is str
        and (interrupted is True or interrupted is False)
    ):
        return None
    return _typed_row(test_id, revision_id, stamp, duration, verdict, interrupted, ids)


def _typed_row(
    test_id: str, revision_id: str, stamp: str, duration: float, verdict: Verdict,
    interrupted: bool, ids: dict[str, str],
) -> tuple[str, str, datetime, float, Verdict, bool] | None:
    """The checks both fast paths share: the values in field order, ids shared through
    ``ids``, if both ids are non-empty with no lone surrogate, the duration is in ``[0,
    DURATION_LIMIT]``, and ``fromisoformat`` reads the stamp, a trailing ``Z`` spelled
    ``+00:00``, with ``timezone.utc`` as its zone (as ``parse_timestamp`` reads it); else None."""
    if not 0.0 <= duration <= DURATION_LIMIT:
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
# The line ``json.dumps(row, sort_keys=True)`` writes (``_jsonl_lines``) with an unsigned
# float in ASCII digits, as JSON requires, and strings with no escape: each text is its value.
_TEXT = r'"([^"\\\x00-\x1f]+)"'
_WRITER_LINE = re.compile(
    r'\{"duration_seconds": ((?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)), '
    rf'"interrupted": (true|false), "revision_id": {_TEXT}, "started_at": {_TEXT}, '
    rf'"test_id": {_TEXT}, "verdict": "({"|".join(_VERDICT_OF)})"\}}\n?'
)


def _jsonl_rows(lines: Iterable[str]) -> Iterator[tuple[Mapping[str, Any] | None, str | None]]:
    """Each non-blank line's object. On a stripped line, one ``raw_decode``
    that must end at the line's end accepts exactly what ``json.loads``
    does. An integer literal past Python's digit limit (ValueError) or
    nesting past the recursion limit counts as invalid JSON."""
    for line in lines:
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


def _iter_jsonl_rows(path: Path) -> Iterator[tuple[Mapping[str, Any] | None, str | None]]:
    with path.open("r", encoding="utf-8", errors="surrogateescape") as handle:
        yield from _jsonl_rows(handle)


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


def _keep_rows(rows: Iterable[tuple[Any, str | None]], typed: bool, flat: list[Any],
               ids: dict[str, str], reasons: dict[str, int]) -> None:
    """Add each row's values to ``flat``, by ``_typed_values`` if ``typed`` and it
    takes the row, else by ``_record_from_row``; or count its reason in ``reasons``."""
    for row, reason in rows:
        if reason is None:
            try:
                flat += typed and _typed_values(row, ids) or _record_from_row(row, ids)
                continue
            except ValueError as exc:
                reason = str(exc)
        reasons[reason] = reasons.get(reason, 0) + 1


def load_executions(
    path: str | Path,
    fmt: str = "jsonl",
) -> tuple[ExecutionDataset, ValidationReport]:
    """Load execution records from a JSONL or CSV file.

    Rows with a duration that is negative, non-finite or above ``DURATION_LIMIT``,
    an unknown verdict, or missing ids are rejected and counted per reason. A
    warning is recorded for every (test, revision) sample whose censored
    fraction exceeds ``DEFAULT_CENSORED_WARN_THRESHOLD``.

    Returns:
        The dataset of accepted records and a validation report. Loading the
        same file twice yields equal datasets.

    Raises:
        OSError: if the file cannot be read.
        ValueError: on a malformed CSV header or unknown format.
    """
    path = Path(path)
    flat: list[Any] = []  # each accepted row's values in field order, row after row
    ids: dict[str, str] = {}  # each distinct id -> its one shared string, "" if rejected
    reasons: dict[str, int] = {}
    if fmt == "jsonl":
        with path.open("r", encoding="utf-8", errors="surrogateescape") as handle:
            # no JSON decode up to the first line the match or its checks miss
            lines, writer_line = handle, _WRITER_LINE.fullmatch
            for line in handle:
                match = writer_line(line)
                if match:
                    duration, flag, revision_id, stamp, test_id, verdict = match.groups()
                    values = _typed_row(test_id, revision_id, stamp, float(duration),
                                        _VERDICT_OF[verdict], flag == "true", ids)
                if not match or values is None:
                    lines = chain((line,), handle)
                    break
                flat += values
            _keep_rows(_jsonl_rows(lines), True, flat, ids, reasons)
    else:  # a CSV value is always a str, so only the full check; "interrupted" is optional
        _keep_rows(_iter_rows(path, fmt, EXECUTION_FIELDS[:-1]), False, flat, ids, reasons)

    # one stride per column, in EXECUTION_FIELDS order; the rows go before the copy to tuples
    columns = [flat[k::6] for k in range(6)]
    del flat
    dataset = ExecutionDataset.from_columns(*columns)
    report = ValidationReport(
        accepted=len(dataset),
        rejected=sum(reasons.values()),
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


def record_to_row(
    row: tuple[str, str, datetime, float, Verdict, bool],
    stamps: Mapping[datetime, str] | None = None,
) -> dict[str, Any]:
    """Serialize one dataset row (``ExecutionDataset.rows``) into the on-disk
    field names, its start time's text read from ``stamps`` if given."""
    test_id, revision_id, started_at, duration, verdict, interrupted = row
    return {
        "test_id": test_id,
        "revision_id": revision_id,
        "started_at": format_timestamp(started_at) if stamps is None else stamps[started_at],
        "duration_seconds": duration,
        "verdict": verdict.value,
        "interrupted": interrupted,
    }


_VERDICT_JSON = {verdict: json.dumps(verdict.value) for verdict in Verdict}


def _stamp_texts(dataset: ExecutionDataset) -> dict[datetime, str]:
    """Each distinct start time -> ``format_timestamp``'s text, formatted once. Start times
    are keyed by value, so equal instants in different zones share one entry: the text is
    UTC either way. ValueError at the first row whose start time has no UTC form in
    ``datetime``'s range, such as ``0001-01-01T00:00:00+01:00``."""
    texts = dict.fromkeys(dataset.started_at, "")  # in row order of first sight
    for value in texts:
        try:
            texts[value] = format_timestamp(value)
        except OverflowError:
            test_id = dataset.tests[dataset.started_at.index(value)]
            raise ValueError(
                f"cannot write start time {value.isoformat()} of test {test_id}: "
                "its UTC time is outside datetime's range"
            ) from None
    return texts


def _jsonl_lines(dataset: ExecutionDataset, stamps: Mapping[datetime, str]) -> Iterator[str]:
    """Each row as ``json.dumps(record_to_row(row), sort_keys=True)`` writes
    it, plus a newline, from one template with the keys in sorted order.

    Every distinct id is encoded once, and each start time's text comes from
    ``stamps`` (``_stamp_texts``), which JSON writes unescaped. A finite
    float's JSON text is its ``repr``.
    """
    quoted = {value: json.dumps(value) for value in {*dataset.tests, *dataset.revisions}}
    number = float.__repr__
    for test_id, revision_id, started_at, duration, verdict, interrupted in dataset.rows():
        yield (
            f'{{"duration_seconds": {number(duration)}, '
            f'"interrupted": {"true" if interrupted else "false"}, '
            f'"revision_id": {quoted[revision_id]}, "started_at": "{stamps[started_at]}", '
            f'"test_id": {quoted[test_id]}, "verdict": {_VERDICT_JSON[verdict]}}}\n'
        )


def write_executions(dataset: ExecutionDataset, path: str | Path, fmt: str = "jsonl") -> None:
    """Write a dataset in the standard JSONL or CSV format.

    Raises:
        ValueError: before opening the file, when a duration is outside ``[0,
            DURATION_LIMIT]`` (no loader reads it back), when a start time has no
            UTC form in ``datetime``'s range, or on an unknown format.
    """
    path = Path(path)
    _check_durations(dataset, "cannot write")
    stamps = _stamp_texts(dataset)
    if fmt == "jsonl":
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(_jsonl_lines(dataset, stamps))
        return
    if fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=EXECUTION_FIELDS)
            writer.writeheader()
            for row in dataset.rows():
                writer.writerow(record_to_row(row, stamps))
        return
    raise ValueError(f"unknown format {fmt!r}; expected 'jsonl' or 'csv'")


def timeout_policy_csv(timeouts: Mapping[str, int]) -> str:
    """The policy file of ``test id -> minutes``, rows in id order, lines ending in ``\\n``.
    An id holding ``,``, ``"``, ``\\r`` or ``\\n`` is quoted, ``"`` doubled: ``csv.writer``
    with ``\\n`` line ends leaves a ``\\r`` bare on Python 3.10-3.12."""
    lines = [",".join(TIMEOUT_POLICY_FIELDS)]
    for test_id in sorted(timeouts):
        cell = '"' + test_id.replace('"', '""') + '"' if _NEEDS_QUOTES.search(test_id) else test_id
        lines.append(f"{cell},{timeouts[test_id]}")
    return "\n".join(lines) + "\n"


def load_timeout_policy(path: str | Path, label: str = "original") -> TimeoutPolicy:
    """Read a per-test timeout CSV (``timeout_policy_csv``'s format) as a policy; a
    malformed header or row is a ValueError for the whole file."""
    values: dict[str, int] = {}
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        try:
            rows = list(csv.reader(handle))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"malformed policy file: {exc}") from None
    if not rows or len(rows[0]) < 2:
        raise ValueError(f"malformed header: expected {','.join(TIMEOUT_POLICY_FIELDS)}")
    for row in rows[1:] if rows[0][0].strip() == TIMEOUT_POLICY_FIELDS[0] else rows:
        if len(row) < 2:
            raise ValueError(f"malformed policy row: {row!r}")
        values[row[0]] = int(row[1])
    return TimeoutPolicy(label, values=values)


def write_timeout_policy(policy: TimeoutPolicy, path: str | Path) -> None:
    """Write a per-test policy as ``timeout_policy_csv`` renders it.

    The file is rendered and encoded before it is opened, so an id that UTF-8
    cannot encode (one holding a lone surrogate) is a ValueError naming the
    first such id in row order, and no file is created.
    """
    if policy.values is None:
        raise ValueError("cannot write a purely static policy as per-test CSV")
    text = timeout_policy_csv(policy.values)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        # rows are in id order, so the first id holding the failing character is its row's
        char = exc.object[exc.start]
        test_id = min(tid for tid in policy.values if char in tid)
        raise ValueError(f"test id {test_id!r} cannot be encoded as UTF-8") from None
    Path(path).write_bytes(data)
