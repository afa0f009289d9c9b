import json
import math
import re
from datetime import datetime, timedelta, timezone

import pytest

from helpers import EPOCH, dataset_of, record
from timeopt import cli, ingest
from timeopt.ingest import (
    DatasetSummary,
    _change_from_row,
    format_timestamp,
    load_executions,
    load_timeout_changes,
    load_timeout_policy,
    parse_timestamp,
    summarize,
    write_executions,
    write_timeout_policy,
)
from timeopt.model import (
    DURATION_LIMIT, ExecutionDataset, ExecutionRecord, TimeoutChangeRecord, TimeoutPolicy,
    Verdict,
)

ABOVE_LIMIT = math.nextafter(DURATION_LIMIT, math.inf)
# valid ISO-8601 stamps whose UTC form lies before year 1 or after year 9999
OUT_OF_RANGE_STAMPS = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]


def jsonl_row(
    test_id="t1",
    revision_id="r1",
    started_at="2024-01-01T00:00:00Z",
    duration_seconds=60.0,
    verdict="pass",
    **extra,
):
    row = {
        "test_id": test_id,
        "revision_id": revision_id,
        "started_at": started_at,
        "duration_seconds": duration_seconds,
        "verdict": verdict,
    }
    row.update(extra)
    return row


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class TestLoadExecutions:
    def test_three_valid_rows(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [jsonl_row(duration_seconds=d) for d in (1, 2, 3)])
        dataset, report = load_executions(path)
        assert len(dataset) == 3
        assert report.accepted == 3
        assert report.rejected == 0

    def test_negative_duration_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [jsonl_row(), jsonl_row(duration_seconds=-4)])
        dataset, report = load_executions(path)
        assert len(dataset) == 1
        assert report.rejected == 1
        assert report.reasons == {"negative duration": 1}

    @pytest.mark.parametrize(
        "row, reason",
        [
            (jsonl_row(verdict="skipped"), "unknown verdict"),
            (jsonl_row(test_id=""), "missing id"),
            ({"revision_id": "r1"}, "missing id"),
            (jsonl_row(started_at="not a time"), "bad timestamp"),
            *[(jsonl_row(started_at=text), "bad timestamp") for text in OUT_OF_RANGE_STAMPS],
            (jsonl_row(duration_seconds="soon"), "bad duration"),
            (jsonl_row(verdict="PASS"), "unknown verdict"),
            (jsonl_row(verdict=1), "unknown verdict"),
            (jsonl_row(verdict=["pass"]), "unknown verdict"),
            (jsonl_row(verdict=None), "unknown verdict"),
        ],
    )
    def test_rejection_reasons(self, tmp_path, row, reason):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [row])
        _, report = load_executions(path)
        assert report.reasons == {reason: 1}

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", repr(ABOVE_LIMIT)])
    def test_non_finite_jsonl_duration_is_bad_duration(self, tmp_path, text):
        path = tmp_path / "runs.jsonl"
        line = json.dumps(jsonl_row(duration_seconds=0.5)).replace("0.5", text)
        path.write_text(json.dumps(jsonl_row()) + "\n" + line + "\n", encoding="utf-8")
        dataset, report = load_executions(path)
        assert len(dataset) == 1
        assert report.reasons == {"bad duration": 1}

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999", repr(ABOVE_LIMIT)])
    def test_non_finite_csv_duration_is_bad_duration(self, tmp_path, text):
        path = tmp_path / "runs.csv"
        path.write_text(
            "test_id,revision_id,started_at,duration_seconds,verdict\n"
            "t1,r1,2024-01-01T00:00:00Z,60,pass\n"
            f"t1,r1,2024-01-01T00:01:00Z,{text},pass\n",
            encoding="utf-8",
        )
        dataset, report = load_executions(path, "csv")
        assert len(dataset) == 1
        assert report.reasons == {"bad duration": 1}

    def test_invalid_json_line_is_not_fatal(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(jsonl_row()) + "\n{broken\n", encoding="utf-8")
        dataset, report = load_executions(path)
        assert len(dataset) == 1
        assert report.reasons == {"invalid json": 1}

    @pytest.mark.parametrize(
        "line", ['{} {}', '{"a": 1}x', '{"a": 1}]', "[]", '"text"', "NaN", "{'a': 1}"]
    )
    def test_a_line_that_is_not_one_json_object_is_invalid_json(self, tmp_path, line):
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(jsonl_row()) + "\n  " + line + "\t\n", encoding="utf-8")
        dataset, report = load_executions(path)
        assert len(dataset) == 1
        assert report.reasons == {"invalid json": 1}

    def test_duration_past_the_float_range_is_bad_duration(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        line = json.dumps(jsonl_row(duration_seconds=0.5)).replace("0.5", "1" + "0" * 400)
        path.write_text(json.dumps(jsonl_row()) + "\n" + line + "\n", encoding="utf-8")
        dataset, report = load_executions(path)
        assert len(dataset) == 1
        assert report.reasons == {"bad duration": 1}

    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        line = json.dumps(jsonl_row(duration_seconds=0.5)).replace("0.5", "7" * 5_000)
        path.write_text(line + "\n" + json.dumps(jsonl_row()) + "\n", encoding="utf-8")
        dataset, report = load_executions(path)
        assert len(dataset) == 1
        assert report.reasons == {"invalid json": 1}

    def test_deep_nesting_is_invalid_json(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("[" * 100_000 + "\n" + json.dumps(jsonl_row()) + "\n", encoding="utf-8")
        dataset, report = load_executions(path)
        assert len(dataset) == 1
        assert report.reasons == {"invalid json": 1}

    def test_undecodable_bytes_reject_only_their_jsonl_rows(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        good = json.dumps(jsonl_row()).encode()
        path.write_bytes(
            b"\xff\xfe" + good + b"\n"  # a UTF-16 byte-order mark
            + good.replace(b'"t1"', b'"t\xff"') + b"\n"
            + good.replace(b'"r1"', b'"r\\udc80"') + b"\n"
            + good.replace(b'"t1"', b'"t\\ud800"') + b"\n"
            + good + b"\n"
        )
        dataset, report = load_executions(path)
        assert (report.accepted, report.rejected) == (1, 4)
        assert report.reasons == {"invalid json": 1, "bad id": 3}
        assert dataset.test_ids() == ("t1",)

    def test_undecodable_bytes_reject_only_their_csv_rows(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_bytes(
            b"test_id,revision_id,started_at,duration_seconds,verdict\n"
            b"t1,r1,2024-01-01T00:00:00Z,60,pass\n"
            b"t\xff,r1,2024-01-01T00:01:00Z,60,pass\n"
            b"t1,r\xc3,2024-01-01T00:02:00Z,60,pass\n"
            b"t1,r1,2024-01-01T00:03:00Z,60,pass\xff\n"
            b"t1,r1,2024-01-01T00:04:00Z,60,pass\n"
        )
        dataset, report = load_executions(path, "csv")
        assert (report.accepted, report.rejected) == (2, 3)
        assert report.reasons == {"bad id": 2, "unknown verdict": 1}
        assert dataset.test_ids() == ("t1",)

    def test_censored_fraction_warning(self, tmp_path):
        rows = [
            jsonl_row(started_at=f"2024-01-01T00:{i:02d}:00Z", verdict="timeout", interrupted=True)
            for i in range(6)
        ] + [jsonl_row(started_at=f"2024-01-01T01:{i:02d}:00Z") for i in range(4)]
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, rows)
        _, report = load_executions(path)
        assert len(report.warnings) == 1
        assert "censored fraction 0.60 exceeds 0.05" in report.warnings[0]

    def test_censored_fraction_warnings_come_in_key_order(self, tmp_path):
        # (t2, r1) comes first in the file and (t1, r1) last; keys sort the other way
        rows = [
            jsonl_row(test_id="t2", verdict="timeout", interrupted=True),
            jsonl_row(test_id="t2"),
            jsonl_row(test_id="t1", revision_id="r9"),
            jsonl_row(test_id="t1", verdict="timeout", interrupted=True),
        ]
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, rows)
        _, report = load_executions(path)
        assert report.warnings == (
            "test t1 revision r1: censored fraction 1.00 exceeds 0.05",
            "test t2 revision r1: censored fraction 0.50 exceeds 0.05",
        )

    def test_loading_groups_no_samples(self, tmp_path):
        rows = [
            jsonl_row(started_at=f"2024-01-01T00:{i:02d}:00Z", verdict="timeout", interrupted=True)
            for i in range(3)
        ] + [jsonl_row(test_id="t2")]
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, rows)
        dataset, report = load_executions(path)
        assert len(report.warnings) == 1
        assert "samples" not in dataset.__dict__
        assert "records" not in dataset.__dict__

    def test_interrupted_defaults_to_false(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [jsonl_row(verdict="timeout")])
        dataset, _ = load_executions(path)
        assert dataset.records[0].interrupted is False
        assert dataset.records[0].censored is False

    def test_csv_round_trip(self, tmp_path):
        original = dataset_of(
            {
                ("a", "r1"): [(10.5, "pass"), (20.0, "timeout")],
                ("b", "r1"): [(30.0, "fail")],
            }
        )
        path = tmp_path / "runs.csv"
        write_executions(original, path, "csv")
        loaded, report = load_executions(path, "csv")
        assert report.rejected == 0
        assert loaded == original

    def test_jsonl_round_trip(self, tmp_path):
        original = dataset_of({("a", "r1"): [(10.0, "pass"), (20.0, "fail")]})
        path = tmp_path / "runs.jsonl"
        write_executions(original, path, "jsonl")
        loaded, _ = load_executions(path, "jsonl")
        assert loaded == original

    def test_truthy_interrupted_of_a_record_round_trips(self, tmp_path):
        original = ExecutionDataset(records=[record("a", verdict="timeout", interrupted=1)])
        assert original.interrupted == (True,)
        path = tmp_path / "runs.jsonl"
        write_executions(original, path, "jsonl")
        loaded, report = load_executions(path, "jsonl")
        assert (report.accepted, report.rejected) == (1, 0)
        assert loaded == original
        assert loaded.censored == (True,)

    @pytest.mark.parametrize("bad", [math.inf, ABOVE_LIMIT])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_non_finite_duration_is_not_written(self, tmp_path, fmt, bad):
        # no record holds one, but columns filled through from_columns can
        a, b = record("a"), record("b")
        original = ExecutionDataset.from_columns(
            ["a", "b"], ["r1", "r1"], [a.started_at, b.started_at], [a.duration, bad],
            [a.verdict, b.verdict], [False, False],
        )
        path = tmp_path / f"runs.{fmt}"
        with pytest.raises(ValueError, match="durations must be non-negative and finite"):
            write_executions(original, path, fmt)
        assert not path.exists()

    @pytest.mark.parametrize("text", OUT_OF_RANGE_STAMPS)
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_start_time_without_a_utc_form_is_not_written(self, tmp_path, fmt, text):
        stamp = datetime.fromisoformat(text)
        original = ExecutionDataset(
            records=[record("a"), ExecutionRecord("b", "r1", stamp, 60.0, Verdict.PASS)]
        )
        path = tmp_path / f"runs.{fmt}"
        with pytest.raises(ValueError, match=re.escape(f"start time {stamp.isoformat()} of test b:")):
            write_executions(original, path, fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_sub_second_start_times_survive_a_round_trip(self, tmp_path, fmt):
        # All three start in the same second, not in file order; dropping
        # the fractions would tie them and replay them in file order.
        starts = {10.0: 500_000, 20.0: 0, 30.0: 123_456}
        original = ExecutionDataset(
            records=tuple(
                ExecutionRecord("a", "r1", EPOCH + timedelta(microseconds=us), d, Verdict.PASS)
                for d, us in starts.items()
            )
        )
        path = tmp_path / f"runs.{fmt}"
        write_executions(original, path, fmt)
        text = path.read_text(encoding="utf-8")
        assert "2024-01-01T00:00:00.500Z" in text
        assert "2024-01-01T00:00:00Z" in text
        assert "2024-01-01T00:00:00.123456Z" in text
        loaded, report = load_executions(path, fmt)
        assert report.rejected == 0
        assert loaded == original
        assert [r.started_at.microsecond for r in loaded.records] == [500000, 0, 123456]
        assert loaded.pooled_sample("a").durations == (20.0, 30.0, 10.0)

    def test_malformed_csv_header_is_fatal(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("foo,bar\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            load_executions(path, "csv")

    def test_over_long_csv_field_rejects_its_row(self, tmp_path):
        path = tmp_path / "runs.csv"
        write_executions(dataset_of({("a", "r1"): [(10.0, "pass")] * 3}), path, "csv")
        header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        long_row = "x" * 200_000 + first[first.index(",") :]
        path.write_text("".join([header, first, long_row, *rest]), encoding="utf-8")
        dataset, report = load_executions(path, "csv")
        assert (report.accepted, report.rejected) == (3, 1)
        assert report.reasons == {"malformed row": 1}
        assert dataset.test_ids() == ("a",)

    def test_over_long_csv_header_is_fatal(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("x" * 200_000 + ",bar\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            load_executions(path, "csv")

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_executions(tmp_path / "absent.jsonl")

    def test_loading_twice_yields_equal_datasets(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl(path, [jsonl_row(duration_seconds=d) for d in (5, 6)])
        first, _ = load_executions(path)
        second, _ = load_executions(path)
        assert first == second


@pytest.fixture
def runs_file(tmp_path):
    """Two tests on two revisions with hangs, fails and passes."""
    rows = []
    for t, test_id in enumerate(("alpha", "beta")):
        for i in range(12):
            hang = i % 5 == t
            rows.append(
                jsonl_row(
                    test_id=test_id,
                    revision_id=f"r{i % 2}",
                    started_at=f"2024-01-01T00:{i:02d}:00Z",
                    duration_seconds=600.0 if hang else 60.0 * (2 + i % 4),
                    verdict="timeout" if hang else ("fail" if i % 7 == 3 else "pass"),
                    interrupted=hang,
                )
            )
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, rows)
    return path


COMMANDS = pytest.mark.parametrize(
    "args",
    [
        ["optimize"],
        ["sweep", "--lo", "1", "--hi", "12"],
        ["evaluate", "--k", "3", "--seed", "1", "--static", "5"],
        ["flakiness", "--revision", "r0", "--step", "2"],
    ],
    ids=lambda args: args[0],
)


class TestNoRecordObjects:
    """No command builds an ``ExecutionRecord``: every one runs on the columns."""

    @COMMANDS
    def test_command_builds_none(self, runs_file, tmp_path, monkeypatch, capsys, args):
        built = []
        monkeypatch.setattr(ExecutionRecord, "__init__", lambda self, *row: built.append(row))
        argv = [*args, "--input", str(runs_file), "--out", str(tmp_path / "out")]
        assert cli.run(argv) == 0
        assert "censored fraction" in capsys.readouterr().err
        assert built == []

    def test_simulate_builds_none(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(ExecutionRecord, "__init__", lambda self, *row: built.append(row))
        argv = [
            "simulate", "--tests", "2", "--runs", "30", "--hang-prob", "0.2", "--seed", "3",
            "--out", str(tmp_path / "runs.jsonl"), "--report-out", str(tmp_path / "report.json"),
        ]
        assert cli.run(argv) == 0
        assert '"interrupted": true' in (tmp_path / "runs.jsonl").read_text(encoding="utf-8")
        assert built == []


class TestSamplesOnlyOnRequest:
    """Commands read the columns through the grouping index: none builds a
    ``TestSample``."""

    @COMMANDS
    def test_command_subsamples(self, runs_file, tmp_path, monkeypatch, capsys, args):
        subsample = ExecutionDataset.subsample
        built = []

        def counting(self, test_id, revision_id, indices):
            built.append((test_id, revision_id))
            return subsample(self, test_id, revision_id, indices)

        monkeypatch.setattr(ExecutionDataset, "subsample", counting)
        argv = [*args, "--input", str(runs_file), "--out", str(tmp_path / "out")]
        assert cli.run(argv) == 0
        assert built == []


class NoZ(datetime):
    """``datetime`` as on Python 3.10, whose fromisoformat rejects a trailing "Z"."""

    @classmethod
    def fromisoformat(cls, text):
        if text.endswith("Z"):
            raise ValueError(f"Invalid isoformat string: {text!r}")
        return datetime.fromisoformat(text)


class TestTypedPath:
    """Which rows skip the full check: the ones the column validator takes;
    ``test_properties`` pins its values to the full check's."""

    @staticmethod
    def must_not_run(*args):
        raise AssertionError(f"unexpected call on {args[0]}")

    def test_writer_rows_take_it_where_fromisoformat_reads_no_z(
        self, runs_file, monkeypatch
    ):
        expected, _ = load_executions(runs_file)
        monkeypatch.setattr(ingest, "datetime", NoZ)
        monkeypatch.setattr(ingest, "_record_from_row", self.must_not_run)
        dataset, report = load_executions(runs_file)
        assert report.accepted == 24
        assert dataset.started_at == expected.started_at
        assert all(stamp.tzinfo is timezone.utc for stamp in dataset.started_at)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_each_distinct_id_is_checked_once(self, runs_file, tmp_path, monkeypatch, fmt):
        expected, _ = load_executions(runs_file)
        path = tmp_path / f"runs.{fmt}"
        write_executions(expected, path, fmt)
        checked = []
        shared = ingest._shared_id

        def shared_id(value, ids):
            if value not in ids:
                checked.append(value)
            return shared(value, ids)

        monkeypatch.setattr(ingest, "_shared_id", shared_id)
        dataset, _ = load_executions(path, fmt)
        assert dataset == expected
        assert sorted(checked) == sorted({*expected.tests, *expected.revisions})

    def test_csv_rows_never_try_it(self, runs_file, tmp_path, monkeypatch):
        expected, _ = load_executions(runs_file)
        path = tmp_path / "runs.csv"
        write_executions(expected, path, "csv")
        monkeypatch.setattr(ingest, "_take_columns", self.must_not_run)
        dataset, report = load_executions(path, "csv")
        assert dataset == expected
        assert report.rejected == 0


class TestWriterLinePath:
    """Every line this program writes is read by one regex ``findall`` per chunk,
    its values checked and converted a column at a time by the validator, with
    no JSON decode and no row checked on its own; ``test_properties`` pins that
    path to the full check."""

    @staticmethod
    def no_decode(line):
        raise AssertionError(f"unexpected JSON decode of {line!r}")

    @staticmethod
    def no_row_check(row, ids):
        raise AssertionError(f"unexpected check of one row, {row!r}")

    def load_without_decode(self, path, monkeypatch, no_z):
        expected, expected_report = load_executions(path)
        if no_z:
            monkeypatch.setattr(ingest, "datetime", NoZ)
        taken = []
        take_columns = ingest._take_columns

        def counted(batch, columns, ids):
            taken.append(take_columns(batch, columns, ids))
            return taken[-1]

        monkeypatch.setattr(ingest, "_DECODE", self.no_decode)
        monkeypatch.setattr(ingest, "_record_from_row", self.no_row_check)
        monkeypatch.setattr(ingest, "_take_columns", counted)
        dataset, report = load_executions(path)
        assert taken and all(taken)  # the validator took every batch it saw
        assert (report.accepted, report.rejected, report.reasons) == (len(expected), 0, {})
        assert report.warnings == expected_report.warnings
        assert dataset == expected
        assert [repr(d) for d in dataset.durations] == [repr(d) for d in expected.durations]
        assert all(stamp.tzinfo is timezone.utc for stamp in dataset.started_at)
        return dataset

    @pytest.mark.parametrize("no_z", [False, True], ids=["fromisoformat", "no-z"])
    def test_write_executions_lines_take_it(self, runs_file, tmp_path, monkeypatch, no_z):
        written, _ = load_executions(runs_file)
        path = tmp_path / "written.jsonl"
        write_executions(written, path)
        assert self.load_without_decode(path, monkeypatch, no_z) == written

    @pytest.mark.parametrize("no_z", [False, True], ids=["fromisoformat", "no-z"])
    def test_simulate_out_lines_take_it(self, tmp_path, monkeypatch, no_z):
        path = tmp_path / "runs.jsonl"
        argv = [
            "simulate", "--tests", "3", "--runs", "40", "--hang-prob", "0.2",
            "--outlier-prob", "0.1", "--seed", "5", "--out", str(path),
        ]
        assert cli.run(argv) == 0
        dataset = self.load_without_decode(path, monkeypatch, no_z)
        assert len(dataset) == 120 and any(dataset.censored)

    def test_escaped_ids_take_it_and_are_decoded_once(self, tmp_path, monkeypatch):
        # the writer escapes every non-ASCII or control character of an id as \uXXXX
        names = ["é", "日本", "😀", "a\x85b", "c\u2028d", "t\x01"]
        written = dataset_of(
            {(test_id, "r1"): [(60.0 * (k + 1), "pass") for k in range(3)] for test_id in names}
        )
        path = tmp_path / "escaped.jsonl"
        write_executions(written, path)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        assert all("\\u" in line for line in lines)
        expected = [ingest._record_from_row(json.loads(line), {}) for line in lines]
        decoded = []
        scanstring = ingest.scanstring

        def counted(text, end):
            decoded.append(text)
            return scanstring(text, end)

        monkeypatch.setattr(ingest, "_DECODE", self.no_decode)
        monkeypatch.setattr(ingest, "scanstring", counted)
        dataset, report = load_executions(path)
        assert (report.accepted, report.rejected) == (len(lines), 0)
        assert list(dataset.rows()) == expected
        assert len(decoded) == len(set(decoded)) == len(names)  # each escaped id, once

    @pytest.mark.parametrize("chunk", [1, ingest._CHUNK], ids=["line-chunks", "default-chunks"])
    def test_matching_resumes_after_a_chunk_in_another_layout(
        self, runs_file, tmp_path, monkeypatch, chunk
    ):
        expected, _ = load_executions(runs_file)
        written = tmp_path / "written.jsonl"
        write_executions(expected, written)

        def block(path):
            """The file's lines, repeated until they fill a chunk: its last line is the
            first to reach the chunk's end, so the block is a chunk of its own."""
            lines = path.read_text().splitlines(keepends=True)
            taken = lines[:]
            while sum(map(len, taken)) < chunk:
                taken.append(lines[len(taken) % len(lines)])
            return taken

        writer_lines, other_layout = block(written), block(runs_file)
        lines = writer_lines + other_layout + writer_lines
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("".join(lines))
        decoded, tried = [], []
        decode, pattern = ingest._DECODE, ingest._WRITER_LINE

        def counted(line):
            decoded.append(line)
            return decode(line)

        class Counted:
            @staticmethod
            def findall(text):
                tried.append(text)
                return pattern.findall(text)

        monkeypatch.setattr(ingest, "_DECODE", counted)
        monkeypatch.setattr(ingest, "_WRITER_LINE", Counted)
        monkeypatch.setattr(ingest, "_CHUNK", chunk)
        dataset, report = load_executions(mixed)
        rows = [ingest._record_from_row(json.loads(line), {}) for line in lines]
        assert list(dataset.rows()) == rows
        assert report.rejected == 0
        # only the other layout's lines are decoded, each once: the writer lines after
        # them take the regex again
        assert decoded == [line.rstrip("\n") for line in other_layout]
        # one findall per writer chunk, none on a chunk whose first line is not a writer line
        assert "".join(tried) == "".join(writer_lines) * 2
        assert len(tried) == (2 * len(writer_lines) if chunk == 1 else 2)


class TestTimestamps:
    def test_z_suffix(self):
        parsed = parse_timestamp("2024-01-01T12:30:45Z")
        assert parsed == datetime(2024, 1, 1, 12, 30, 45, tzinfo=timezone.utc)

    def test_offset_normalized_to_utc(self):
        parsed = parse_timestamp("2024-01-01T12:00:00+02:00")
        assert parsed.hour == 10
        assert parsed.tzinfo == timezone.utc

    def test_naive_taken_as_utc(self):
        parsed = parse_timestamp("2024-01-01T12:00:00")
        assert parsed.tzinfo == timezone.utc

    @pytest.mark.parametrize(
        "value, text",
        [
            (datetime(2024, 1, 1, 12, 30, 45), "2024-01-01T12:30:45Z"),
            (datetime(2024, 1, 1, 0, 0, 0, 500_000), "2024-01-01T00:00:00.500Z"),
            (datetime(2024, 1, 1, 0, 0, 0, 1), "2024-01-01T00:00:00.000001Z"),
            (datetime(999, 12, 31, 23, 59, 59), "0999-12-31T23:59:59Z"),
        ],
    )
    def test_format_is_read_back_exactly(self, value, text):
        value = value.replace(tzinfo=timezone.utc)
        assert format_timestamp(value) == text
        assert parse_timestamp(text) == value

    @pytest.mark.parametrize("text", OUT_OF_RANGE_STAMPS)
    def test_csv_row_with_no_utc_form_in_range_is_a_bad_timestamp(self, tmp_path, text):
        path = tmp_path / "runs.csv"
        path.write_text(
            "test_id,revision_id,started_at,duration_seconds,verdict\n"
            f"t1,r1,{text},60,pass\nt1,r1,2024-01-01T00:00:00Z,60,pass\n",
            encoding="utf-8",
        )
        dataset, report = load_executions(path, "csv")
        assert len(dataset) == 1
        assert report.reasons == {"bad timestamp": 1}

    @pytest.mark.parametrize("text", OUT_OF_RANGE_STAMPS)
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_change_with_no_utc_form_in_range_costs_only_its_row(self, tmp_path, fmt, text):
        path = tmp_path / f"changes.{fmt}"
        if fmt == "jsonl":
            write_jsonl(
                path,
                [
                    {"test_id": "A", "changed_at": text, "new_value": 5},
                    {"test_id": "B", "changed_at": "2021-01-01T00:00:00Z", "new_value": 10},
                ],
            )
        else:
            path.write_text(
                f"test_id,changed_at,new_value\nA,{text},5\nB,2021-01-01T00:00:00Z,10\n",
                encoding="utf-8",
            )
        changes, report = load_timeout_changes(path, fmt)
        assert [c.test_id for c in changes] == ["B"]
        assert report.reasons == {"bad timestamp": 1}

    @pytest.mark.parametrize("text", OUT_OF_RANGE_STAMPS)
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_commands_warn_on_a_stamp_with_no_utc_form(self, tmp_path, capsys, fmt, text):
        runs, changes = tmp_path / f"runs.{fmt}", tmp_path / f"changes.{fmt}"
        if fmt == "jsonl":
            write_jsonl(runs, [jsonl_row(started_at=text)])
            write_jsonl(changes, [{"test_id": "A", "changed_at": text, "new_value": 5}])
        else:
            header = "test_id,revision_id,started_at,duration_seconds,verdict\n"
            runs.write_text(f"{header}t1,r1,{text},60,pass\n", encoding="utf-8")
            changes.write_text(f"test_id,changed_at,new_value\nA,{text},5\n", encoding="utf-8")
        assert cli.run(["summarize", "--input", str(runs)]) == 0
        assert cli.run(["timeout-history", "--input", str(changes)]) == 0
        err = capsys.readouterr().err
        assert err.count("rejected 1 rows: {'bad timestamp': 1}") == 2


class TestLoadTimeoutChanges:
    def test_creation_then_modification(self, tmp_path):
        path = tmp_path / "changes.jsonl"
        write_jsonl(
            path,
            [
                {"test_id": "A", "changed_at": "2021-01-02T00:00:00Z", "old_value": 15, "new_value": 25},
                {"test_id": "A", "changed_at": "2021-01-01T00:00:00Z", "new_value": 15},
            ],
        )
        changes, report = load_timeout_changes(path)
        assert (report.accepted, report.rejected, report.reasons) == (2, 0, {})
        assert [c.is_creation for c in changes] == [True, False]
        assert changes[0].new_value == 15
        assert changes[1].old_value == 15

    def test_lone_surrogate_id_rejected(self, tmp_path):
        # load_executions rejects such an id, since no UTF-8 output could hold it
        path = tmp_path / "changes.jsonl"
        path.write_bytes(
            b'{"test_id": "\\ud800", "changed_at": "2021-01-01T00:00:00Z", "new_value": 15}\n'
            b'{"test_id": "B", "changed_at": "2021-01-01T00:00:00Z", "new_value": 10}\n'
        )
        changes, report = load_timeout_changes(path)
        assert (report.accepted, report.rejected, report.reasons) == (1, 1, {"bad id": 1})
        assert [c.test_id for c in changes] == ["B"]

    def test_non_positive_value_rejected(self, tmp_path):
        path = tmp_path / "changes.jsonl"
        write_jsonl(
            path,
            [
                {"test_id": "A", "changed_at": "2021-01-01T00:00:00Z", "new_value": 0},
                {"test_id": "B", "changed_at": "2021-01-01T00:00:00Z", "new_value": 10},
            ],
        )
        changes, report = load_timeout_changes(path)
        assert report.rejected == 1 and report.reasons == {"bad value": 1}
        assert [c.test_id for c in changes] == ["B"]

    @pytest.mark.parametrize("field", ["new_value", "old_value"])
    def test_infinite_value_rejected(self, tmp_path, field):
        path = tmp_path / "changes.jsonl"
        write_jsonl(
            path,
            [
                {"test_id": "A", "changed_at": "2021-01-01T00:00:00Z", "new_value": 3, field: math.inf},
                {"test_id": "B", "changed_at": "2021-01-01T00:00:00Z", "new_value": 10},
            ],
        )
        changes, report = load_timeout_changes(path)
        assert report.rejected == 1 and report.reasons == {"bad value": 1}
        assert [c.test_id for c in changes] == ["B"]

    @pytest.mark.parametrize("value", [10**400, 10**307], ids=["past-float-range", "inf-seconds"])
    @pytest.mark.parametrize("field", ["new_value", "old_value"])
    def test_over_large_value_rejected(self, tmp_path, field, value):
        path = tmp_path / "changes.jsonl"
        row = {"test_id": "A", "changed_at": "2021-01-01T00:00:00Z", "old_value": 5, "new_value": 7}
        write_jsonl(path, [{**row, field: value}, {**row, "test_id": "B"}])
        with pytest.raises(ValueError, match="bad value"):
            _change_from_row({**row, field: value}, {})
        changes, report = load_timeout_changes(path)
        assert report.rejected == 1 and report.reasons == {"bad value": 1}
        assert [c.test_id for c in changes] == ["B"]

    @pytest.mark.parametrize("value", [True, 5.9, "10.0"], ids=["bool", "fraction", "float-text"])
    @pytest.mark.parametrize("field", ["new_value", "old_value"])
    def test_bool_or_fractional_value_rejected(self, tmp_path, field, value):
        path = tmp_path / "changes.jsonl"
        row = {"test_id": "A", "changed_at": "2021-01-01T00:00:00Z", "old_value": 5, "new_value": 7}
        write_jsonl(path, [{**row, field: value}, {**row, "test_id": "B"}])
        with pytest.raises(ValueError, match="bad value"):
            _change_from_row({**row, field: value}, {})
        changes, report = load_timeout_changes(path)
        assert report.rejected == 1 and report.reasons == {"bad value": 1}
        assert [c.test_id for c in changes] == ["B"]

    def test_integral_float_value_parses(self, tmp_path):
        path = tmp_path / "changes.jsonl"
        write_jsonl(path, [{"test_id": "A", "changed_at": "2021-01-01T00:00:00Z", "old_value": 5.0, "new_value": 10.0}])
        (change,), report = load_timeout_changes(path)
        assert report.rejected == 0
        assert (change.old_value, change.new_value) == (5, 10)
        assert type(change.old_value) is int and type(change.new_value) is int

    def test_rejections_are_counted_per_reason(self, tmp_path):
        path = tmp_path / "changes.jsonl"
        row = {"test_id": "A", "changed_at": "2021-01-01T00:00:00Z", "new_value": 7}
        write_jsonl(path, [row, {**row, "changed_at": "soon"}, {**row, "test_id": ""}, {**row, "new_value": 0}])
        path.write_text(path.read_text() + "not json\n")
        changes, report = load_timeout_changes(path)
        assert [c.test_id for c in changes] == ["A"]
        assert (report.accepted, report.rejected, report.warnings) == (1, 4, ())
        assert report.reasons == {"bad timestamp": 1, "missing id": 1, "bad value": 1, "invalid json": 1}

    def test_unsorted_input_sorted_output(self, tmp_path):
        path = tmp_path / "changes.jsonl"
        write_jsonl(
            path,
            [
                {"test_id": "B", "changed_at": "2021-06-01T00:00:00Z", "new_value": 9},
                {"test_id": "A", "changed_at": "2021-07-01T00:00:00Z", "old_value": 5, "new_value": 7},
                {"test_id": "A", "changed_at": "2021-05-01T00:00:00Z", "new_value": 5},
            ],
        )
        changes, _ = load_timeout_changes(path)
        assert [(c.test_id, c.new_value) for c in changes] == [("A", 5), ("A", 7), ("B", 9)]

    def test_validation_in_constructor(self):
        with pytest.raises(ValueError):
            TimeoutChangeRecord(test_id="A", changed_at=EPOCH, new_value=0)
        with pytest.raises(ValueError):
            TimeoutChangeRecord(test_id="A", changed_at=EPOCH, new_value=5, old_value=0)


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet tools save CSV, is
    dropped by every loader, and no writer writes one."""

    @pytest.mark.parametrize(
        "fmt, rewrite",
        [("jsonl", False), ("jsonl", True), ("csv", True)],
        ids=["jsonl", "jsonl-writer-lines", "csv"],
    )
    def test_execution_file_loads_as_without_it(self, runs_file, tmp_path, fmt, rewrite):
        path = runs_file
        if rewrite:
            path = tmp_path / f"written.{fmt}"
            write_executions(load_executions(runs_file)[0], path, fmt)
        plain = path.read_bytes()
        assert not plain.startswith(BOM)
        expected = load_executions(path, fmt)
        assert (expected[1].accepted, expected[1].rejected) == (24, 0)
        path.write_bytes(BOM + plain)
        assert load_executions(path, fmt) == expected

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_change_file_loads_as_without_it(self, tmp_path, fmt):
        path = tmp_path / f"changes.{fmt}"
        rows = [("A", "2021-01-01T00:00:00Z", "", 15), ("A", "2021-01-02T00:00:00Z", 15, 25)]
        fields = ("test_id", "changed_at", "old_value", "new_value")
        if fmt == "jsonl":
            write_jsonl(path, [dict(zip(fields, row)) for row in rows])
        else:
            lines = [",".join(fields)] + [",".join(map(str, row)) for row in rows]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = load_timeout_changes(path, fmt)
        assert expected[1].accepted == 2
        path.write_bytes(BOM + path.read_bytes())
        assert load_timeout_changes(path, fmt) == expected

    def test_policy_file_loads_as_without_it(self, tmp_path):
        path = tmp_path / "timeouts.csv"
        write_timeout_policy(TimeoutPolicy("original", values={"a": 5, "b,c": 7}), path)
        plain = path.read_bytes()
        assert not plain.startswith(BOM)
        path.write_bytes(BOM + plain)
        assert load_timeout_policy(path).values == {"a": 5, "b,c": 7}


class TestLoadTimeoutPolicy:
    @pytest.mark.parametrize(
        "body, message",
        [
            ("a,5\na,7\n,3\n", "duplicate test id 'a' in policy file"),
            ('"x,y",5\nb,6\n"x,y",5\n', "duplicate test id 'x,y' in policy file"),
            ("a,5\n,3\n", "empty test id '' in policy file"),
            ('a,5\n"",3\n', "empty test id '' in policy file"),
        ],
        ids=["repeated", "repeated-quoted", "empty", "empty-quoted"],
    )
    def test_empty_or_repeated_id_fails_the_file(self, tmp_path, body, message):
        path = tmp_path / "timeouts.csv"
        path.write_text("test_id,timeout_minutes\n" + body, encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            load_timeout_policy(path)
        assert str(raised.value) == message

    @pytest.mark.parametrize("text", ["test_id,foo\na,5\n", "test_id,5\na,7\n"])
    def test_header_must_name_timeout_minutes(self, tmp_path, text):
        # a first row whose id is test_id is a header, so it names both fields
        path = tmp_path / "timeouts.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            load_timeout_policy(path)
        assert str(raised.value) == "malformed header: expected test_id,timeout_minutes"

    @pytest.mark.parametrize(
        "text", [" test_id , timeout_minutes \na,5\n", "test_id,timeout_minutes\na,5\n", "a,5\n"]
    )
    def test_stripped_or_absent_header_loads(self, tmp_path, text):
        path = tmp_path / "timeouts.csv"
        path.write_text(text, encoding="utf-8")
        assert load_timeout_policy(path).values == {"a": 5}


class TestSummarize:
    def test_empty_dataset(self):
        assert summarize(ExecutionDataset(records=())) == DatasetSummary(0, 0, 0, 0.0)

    def test_small_grid(self):
        dataset = dataset_of(
            {
                (t, r): [(60.0, "pass")] * 5
                for t in ("a", "b")
                for r in ("r1", "r2")
            }
        )
        summary = summarize(dataset)
        assert (summary.test_count, summary.execution_count, summary.revision_count) == (2, 20, 2)

    def test_mass_testing_shaped_fixture(self):
        # 744 tests x 17 revisions with uneven sample sizes summing to 558423.
        tests, revisions, target = 744, 17, 558423
        pair_count = tests * revisions
        base, remainder = divmod(target, pair_count)
        started = EPOCH
        records = []
        pair = 0
        for t in range(tests):
            test_id = f"t{t:03d}"
            for r in range(revisions):
                n = base + (1 if pair < remainder else 0)
                pair += 1
                for _ in range(n):
                    records.append(
                        record(test_id, f"rev{r:02d}", minute=0, duration=1.0)
                    )
        dataset = ExecutionDataset(records=tuple(records))
        summary = summarize(dataset)
        assert summary.test_count == 744
        assert summary.execution_count == 558423
        assert summary.revision_count == 17
        assert summary.censored_fraction == 0.0

    def test_execution_count_matches_sample_sizes(self):
        dataset = dataset_of(
            {
                ("a", "r1"): [(1, "pass"), (2, "fail")],
                ("b", "r2"): [(3, "timeout")],
            }
        )
        assert summarize(dataset).execution_count == sum(
            s.n for s in dataset.samples.values()
        )

    def test_censored_fraction(self):
        records = (
            record("a", "r1", 0, verdict="timeout", interrupted=True),
            record("a", "r1", 1, verdict="pass"),
        )
        assert summarize(ExecutionDataset(records=records)).censored_fraction == 0.5
