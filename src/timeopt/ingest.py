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
malformed CSV header is fatal, and no input line crashes the loader. Row
files are opened by ``_open_rows`` alone, as UTF-8 with ``surrogateescape``
and a leading byte-order mark dropped, so an undecodable byte costs only its
row: a test or revision id that holds a lone surrogate (such a byte, or a
``\\udcXX`` JSON escape) is rejected, since no UTF-8 output could hold it.
JSONL is read in chunks of ``_CHUNK`` characters, each run on to the end of
its line. Two decoders turn a chunk into six raw columns: one ``findall`` of
``_WRITER_LINE`` (the writer's spelling, whose one string escape is the
writer's ``\\uXXXX``), tried when the chunk's first line starts as a writer
line, and otherwise one ``raw_decode`` per line. One validator,
``_take_columns``, checks the columns at C speed and adds them; the rows of a
chunk it refuses go through ``_record_from_row``, as each CSV row does, which
alone decides whether a row is rejected and why. The next chunk is matched
again. No per-row record object is built, verdict strings map to members
through one dict lookup, repeated ids share one string, checked once, and an
escaped id is decoded once. The loader appends to one list per field and
turns each into its tuple in turn, freeing the list, so each column is built
once.
Loading groups nothing beyond what the censored-fraction warnings count and
is single-threaded per file; the dataset is immutable and shareable.
Timeout-change files take the same per-row rejection. A policy file
(``test_id,timeout_minutes``) is read all-or-nothing, unlike row files: a
malformed header or row, a bad value (named with its line and test id), or
an empty or repeated test id fails the whole file with ValueError.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from datetime import datetime, timezone
from itertools import compress, repeat
from json.decoder import scanstring
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

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


_DECODE = json.JSONDecoder().raw_decode
# The line ``json.dumps(row, sort_keys=True)`` writes (``_jsonl_lines``) with an unsigned
# float in ASCII digits, as JSON requires. An id's one escape is ``\uXXXX``, as the writer
# spells a non-ASCII or control character; a stamp has none, so its text is its value.
# Anchored to a line's ends, so ``findall`` over a chunk matches whole lines only.
_TEXT = r'"([^"\\\x00-\x1f]*(?:\\u[0-9a-fA-F]{4}[^"\\\x00-\x1f]*)*)"'
_STAMP = r'"([^"\\\x00-\x1f]+)"'
_WRITER_LINE = re.compile(
    r'(?m)^\{"duration_seconds": '
    r'((?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)), '
    rf'"interrupted": (true|false), "revision_id": {_TEXT}, "started_at": {_STAMP}, '
    rf'"test_id": {_TEXT}, "verdict": "({"|".join(_VERDICT_OF)})"\}}$\n?'
)
_WRITER_START = '{"duration_seconds": '  # how each writer line starts
_CHUNK = 1 << 16  # characters read at a time; a chunk then runs on to the end of its line
_FLAG = {"true": True, "false": False}
_TZINFO = attrgetter("tzinfo")


def _id_of(text: str, escapes: dict[str, str]) -> str:
    """The id a writer-line text spells: the text itself, or, if it holds a ``\\uXXXX``
    escape, the text as JSON decodes it, decoded once per distinct text in ``escapes``.
    A ``\\udcXX`` escape decodes to a lone surrogate, which ``_shared_id`` rejects."""
    if "\\" not in text:
        return text
    value = escapes.get(text)
    if value is None:
        value = escapes[text] = scanstring(text + '"', 0)[0]
    return value


def _shared_column(values: Sequence[Any], ids: dict[str, str]) -> list[str] | None:
    """Each id as its one shared string in ``ids``, each distinct id checked once; None if
    one is not a ``str``, is empty or holds a lone surrogate (TypeError if unhashable)."""
    distinct = set(values)
    for value in distinct.difference(ids):  # every key of ids is a str
        if type(value) is not str:
            return None
        _shared_id(value, ids)
    if not all(map(ids.__getitem__, distinct)):
        return None
    return list(map(ids.__getitem__, values))


def _take_columns(
    batch: list[Iterable[Any]], columns: list[list[Any]], ids: dict[str, str]
) -> bool:
    """Add a batch of rows, given as a list of six columns in ``EXECUTION_FIELDS`` order,
    to ``columns`` if every row passes these checks, made a column at a time; else add
    none and return False. Ids are ``str``, non-empty with no lone surrogate, and shared
    through ``ids``; ``float`` reads each duration, which is in ``[0, DURATION_LIMIT]``;
    ``fromisoformat`` reads each stamp, a trailing ``Z`` spelled ``+00:00``, with
    ``timezone.utc`` as its zone; each verdict is in ``_VERDICT_OF``. Flags are ``bool``,
    as both decoders give them. A row that passes gets the values ``_record_from_row``
    gives it, so the rows of a refused batch go to that row by row. ``batch`` is emptied,
    so each column read is freed once its values are made, and they can reuse its memory."""
    tests, revisions, stamps, durations, verdicts, flags = batch
    batch.clear()
    try:
        durations = list(map(float, durations))
        # a trailing Z spelled +00:00, as parse_timestamp spells it: one replace over the
        # stamps joined by newlines, so a stamp holding one adds to the count (and an
        # empty batch gives one empty text, which fromisoformat refuses)
        stamps = ("\n".join(stamps) + "\n").replace("Z\n", "+00:00\n").split("\n")[:-1]
        started = list(map(datetime.fromisoformat, stamps))
        # checked on the distinct verdicts; each member is looked up as its column is
        # extended, with no list per chunk
        unknown = set(verdicts).difference(_VERDICT_OF)
        tests, revisions = _shared_column(tests, ids), _shared_column(revisions, ids)
    except (TypeError, ValueError, OverflowError):
        return False
    if not (
        tests is not None
        and revisions is not None
        and not unknown
        and len(started) == len(durations)
        and 0.0 <= min(durations)
        and max(durations) <= DURATION_LIMIT
        and not math.isnan(sum(durations))  # min and max may pass over a NaN
        and all(map(is_, map(_TZINFO, started), repeat(timezone.utc)))
    ):
        return False
    verdicts = map(_VERDICT_OF.__getitem__, verdicts)
    for column, values in zip(columns, (tests, revisions, started, durations, verdicts, flags)):
        column += values
    return True


def _writer_columns(chunk: str, escapes: dict[str, str]) -> list[Iterable[Any]] | None:
    """The six raw columns of ``chunk`` if each of its lines is a writer line or blank
    (``str.strip`` empties it), each escaped id decoded through ``escapes``; else None.
    One ``findall``: a match spans one whole line."""
    found = _WRITER_LINE.findall(chunk)
    if len(found) != chunk.count("\n") + (chunk[-1] != "\n") and len(found) != sum(
        map(bool, map(str.strip, chunk.split("\n")))
    ):
        return None
    durations, flags, revisions, stamps, tests, verdicts = zip(*found)
    if "\\" in chunk:
        tests = [_id_of(text, escapes) for text in tests]
        revisions = [_id_of(text, escapes) for text in revisions]
    return [tests, revisions, stamps, durations, verdicts, map(_FLAG.__getitem__, flags)]


_FIELD_OF = [itemgetter(name) for name in EXECUTION_FIELDS[:-1]]


def _object_columns(rows: list[tuple[Any, str | None]]) -> list[list[Any]] | None:
    """The six columns of ``_jsonl_rows``' rows if each is an object holding every field
    but ``interrupted``, which is a ``bool`` or absent (False); else None."""
    objects = [row for row, _ in rows]
    try:  # a row that is not an object is None, which no field getter takes
        columns = [list(map(field, objects)) for field in _FIELD_OF]
    except (KeyError, TypeError):
        return None
    flags = list(map(dict.get, objects, repeat("interrupted"), repeat(False)))
    if list(map(type, flags)).count(bool) != len(flags):
        return None
    columns.append(flags)
    return columns


def _jsonl_chunks(
    handle: TextIO, columns: list[list[Any]], ids: dict[str, str], reasons: dict[str, int]
) -> None:
    """Read ``handle``'s JSONL rows into ``columns`` a chunk at a time, or count their
    reasons in ``reasons``.

    A chunk is ``_CHUNK`` characters run on to the end of its line, so chunks cut no line;
    its lines are split at ``\\n`` alone, as iterating over the file splits them
    (``str.splitlines`` also splits at ``\\x85`` and ``\\u2028``). A chunk whose first
    line starts as a writer line is tried by ``_writer_columns``; any other, or one it
    refuses, is decoded line by line, each line once, for ``_object_columns``.
    ``_take_columns`` checks the batch. The rows of a chunk that gives no batch, or whose
    batch it refuses, go through ``_record_from_row``; the next chunk is matched again."""
    escapes: dict[str, str] = {}  # each escaped id text -> its id
    while chunk := handle.read(_CHUNK):
        if chunk[-1] != "\n":
            chunk += handle.readline()
        rows = None
        batch = _writer_columns(chunk, escapes) if chunk.startswith(_WRITER_START) else None
        if batch is None:
            rows = list(_jsonl_rows(chunk.split("\n")))
            batch = _object_columns(rows)
        if batch is None or not _take_columns(batch, columns, ids):
            # a writer batch refused is decoded for the row check alone: decoded, its
            # columns would hold the same values
            _keep_rows(_jsonl_rows(chunk.split("\n")) if rows is None else rows,
                       columns, ids, reasons)


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


def _csv_rows(
    lines: Iterable[str], required: Iterable[str]
) -> Iterator[tuple[Mapping[str, Any] | None, str | None]]:
    """Each CSV row as a mapping, or "malformed row". ValueError, on the first
    read, for a header that misses a ``required`` column or that the reader rejects."""
    reader = csv.DictReader(lines)
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


def _open_rows(path: str | Path, fmt: str) -> TextIO:
    """A row file (``jsonl`` or ``csv``) opened for reading, the one way every row
    loader opens one: UTF-8 with ``surrogateescape``, and a leading byte-order mark
    dropped (``utf-8-sig``), as spreadsheet tools save CSV. A CSV file keeps its line
    ends for the ``csv`` reader. ValueError for another format, before any open."""
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {fmt!r}; expected 'jsonl' or 'csv'")
    return Path(path).open(
        "r", encoding="utf-8-sig", errors="surrogateescape", newline="" if fmt == "csv" else None
    )


def _keep_rows(rows: Iterable[tuple[Any, str | None]], columns: list[list[Any]],
               ids: dict[str, str], reasons: dict[str, int]) -> None:
    """Add each row's values, by ``_record_from_row``, to ``columns``, or count its
    reason in ``reasons``. Each value goes straight into its column."""
    add_test, add_revision, add_start, add_duration, add_verdict, add_flag = (
        column.append for column in columns
    )
    for row, reason in rows:
        if reason is None:
            try:
                values = _record_from_row(row, ids)
            except ValueError as exc:
                reason = str(exc)
            else:
                test_id, revision_id, started_at, duration, verdict, interrupted = values
                add_test(test_id)
                add_revision(revision_id)
                add_start(started_at)
                add_duration(duration)
                add_verdict(verdict)
                add_flag(interrupted)
                continue
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
    columns: list[Any] = [[] for _ in EXECUTION_FIELDS]  # the accepted rows, field by field
    ids: dict[str, str] = {}  # each distinct id -> its one shared string, "" if rejected
    reasons: dict[str, int] = {}
    with _open_rows(path, fmt) as handle:
        if fmt == "csv":  # "interrupted" is optional
            _keep_rows(_csv_rows(handle, EXECUTION_FIELDS[:-1]), columns, ids, reasons)
        else:
            _jsonl_chunks(handle, columns, ids, reasons)

    for k in range(len(columns)):  # one column at a time: each list goes as its tuple comes
        columns[k] = tuple(columns[k])
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
    censored = dataset.censored
    hung = Counter(zip(compress(dataset.tests, censored), compress(dataset.revisions, censored)))
    if not hung:
        return ()
    totals = dataset.sample_sizes(hung)
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


def _change_from_row(row: Mapping[str, Any], ids: dict[str, str]) -> TimeoutChangeRecord:
    """The change of one parsed row, its test id as its one shared string in
    ``ids``; raises ValueError with a reason, as ``_record_from_row`` does."""
    test_id = row.get("test_id")
    if not test_id or not isinstance(test_id, str):
        raise ValueError("missing id")
    test_id = _shared_id(test_id, ids)
    if not test_id:
        raise ValueError("bad id")
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
    non-positive values, unparseable fields or a test id holding a lone
    surrogate are rejected and counted per reason, as ``load_executions``
    counts them.
    """
    changes: list[TimeoutChangeRecord] = []
    reasons: dict[str, int] = {}
    ids: dict[str, str] = {}
    with _open_rows(path, fmt) as handle:
        if fmt == "csv":
            rows = _csv_rows(handle, ("test_id", "changed_at", "new_value"))
        else:
            rows = _jsonl_rows(handle)
        for row, reason in rows:
            if reason is None:
                try:
                    changes.append(_change_from_row(row, ids))
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
    """Read a per-test timeout CSV (``timeout_policy_csv``'s format) as a policy. The
    file is strict UTF-8, a leading byte-order mark dropped. The header may be left
    out: a first row whose id is ``test_id`` is the header, which must name
    ``timeout_minutes`` next, and any other first row whose value is not a number is a
    malformed header. A malformed header or row, a value that is not a valid whole
    number of minutes (named with its line and test id), or a test id that is empty or
    named twice is a ValueError for the whole file."""
    expected = ",".join(TIMEOUT_POLICY_FIELDS)
    with Path(path).open("r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:  # each row with the line it ends on
            rows = [(reader.line_num, row) for row in reader]
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"malformed policy file: {exc}") from None
    if not rows or len(rows[0][1]) < 2:
        raise ValueError(f"malformed header: expected {expected}")
    first = rows[0][1]
    if first[0].strip() == TIMEOUT_POLICY_FIELDS[0]:  # a header, naming both fields
        if first[1].strip() != TIMEOUT_POLICY_FIELDS[1]:
            raise ValueError(f"malformed header: expected {expected}")
        del rows[0]
    else:
        try:
            float(rows[0][1][1])  # a number: a data row, in a file with no header
        except ValueError:
            raise ValueError(f"malformed header: expected {expected}") from None
    values: dict[str, int] = {}
    for line, row in rows:
        if len(row) < 2:
            raise ValueError(f"line {line}: malformed policy row: {row!r}")
        test_id, raw = row[0], row[1]
        if not test_id or test_id in values:
            what = "duplicate" if test_id else "empty"
            raise ValueError(f"{what} test id {test_id!r} in policy file")
        try:
            minutes = int(raw)
        except ValueError:
            minutes = 0  # not a whole number: as invalid as 0
        if not valid_minutes(minutes):
            raise ValueError(
                f"line {line}, test {test_id!r}: timeout_minutes {raw!r} is not a whole "
                "number of minutes >= 1 and finite in seconds"
            )
        values[test_id] = minutes
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
