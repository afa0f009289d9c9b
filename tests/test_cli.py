import hashlib
import json
import math
import os
import re

import pytest

from helpers import MINUTE, dataset_of, sweep_fixture_dataset, verdict_dataset
from timeopt.cli import _config_from_args, build_parser, run
from timeopt import ingest
from timeopt.ingest import write_executions
from timeopt.optimize import OptimizationConfig


@pytest.fixture
def runs_file(tmp_path):
    dataset = dataset_of(
        {
            ("alpha", "r1"): [(m * MINUTE, "pass") for m in [1, 2, 3, 4, 5] * 8],
            ("beta", "r1"): [(7 * MINUTE, "pass")] * 40,
        }
    )
    path = tmp_path / "runs.jsonl"
    write_executions(dataset, path)
    return path


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["summarize"]) == 1

    def test_unknown_flag_is_usage_error(self, runs_file, capsys):
        assert run(["summarize", "--input", str(runs_file), "--frob"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run(["summarize", "--input", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_revision_is_data_error(self, runs_file, capsys):
        code = run(
            ["flakiness", "--input", str(runs_file), "--revision", "missing"]
        )
        assert code == 2

    def test_success_is_zero(self, runs_file, capsys):
        assert run(["summarize", "--input", str(runs_file)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--m", "-1"],
            ["sweep", "--lo", "1", "--hi", "9", "--m", "-1"],
            ["optimize", "--pb", "2"],
            ["optimize", "--pb", "nan"],
            ["evaluate", "--seed", "0", "--k", "1"],
            ["flakiness", "--revision", "r1", "--step", "0"],
            ["optimize", "--min-samples", "1"],
            ["optimize", "--fallback", "0"],
            ["simulate", "--tests", "1", "--runs", "5", "--seed", "0", "--m", "-1"],
            ["evaluate", "--seed", "0", "--static", "0"],
            ["sweep", "--lo", "0", "--hi", "9"],
            ["sweep", "--lo", "1", "--hi", "0"],
            ["simulate", "--tests", "0", "--runs", "5", "--seed", "0"],
            ["simulate", "--tests", "1", "--runs", "0", "--seed", "0"],
            ["simulate", "--tests", "1", "--runs", "5", "--seed", "0", "--hang-prob", "1.5"],
            ["simulate", "--tests", "1", "--runs", "5", "--seed", "0", "--outlier-prob", "-0.1"],
            ["simulate", "--tests", "1", "--runs", "5", "--seed", "0", "--sigma", "-1"],
        ],
    )
    def test_out_of_range_number_is_usage_error(self, runs_file, capsys, argv):
        if argv[0] != "simulate":
            argv = argv + ["--input", str(runs_file)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --" in captured.err


    def test_sweep_has_no_method_flag(self, runs_file, capsys):
        argv = ["sweep", "--lo", "1", "--hi", "9", "--method", "empirical"]
        assert run([*argv, "--input", str(runs_file)]) == 1
        assert "unrecognized arguments: --method" in capsys.readouterr().err


class TestFlagDefaults:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--input", "runs.jsonl"],
            ["sweep", "--input", "runs.jsonl", "--lo", "1", "--hi", "9"],
            ["evaluate", "--input", "runs.jsonl", "--seed", "0"],
        ],
    )
    def test_flag_defaults_are_the_config_defaults(self, argv):
        assert _config_from_args(build_parser().parse_args(argv)) == OptimizationConfig()


def _one_test_file(tmp_path, durations):
    path = tmp_path / "runs.jsonl"
    write_executions(dataset_of({("t", "r1"): [(d, "pass") for d in durations]}), path)
    return path


class TestExtremeDurations:
    def test_tiny_spread_gets_a_timeout(self, tmp_path, capsys):
        path = _one_test_file(tmp_path, [0.0] * 39 + [1e-157])
        assert run(["optimize", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "test_id,timeout_minutes\nt,1\n"

    @pytest.mark.parametrize("method", ["empirical", "tolhurst"])
    def test_one_huge_run_ends_the_search(self, tmp_path, capsys, method):
        # the grid reaches ceil(2e150 / 60) units; the empirical candidates
        # are two, the Tolhurst ones one per step of the bound
        path = _one_test_file(tmp_path, [60.0] * 39 + [1e150])
        assert run(["optimize", "--method", method, "--input", str(path)]) == 0
        mean = (60.0 * 39 + 1e150) / 40
        assert capsys.readouterr().out == f"test_id,timeout_minutes\nt,{math.ceil(mean / 60)}\n"

    @pytest.mark.parametrize("argv", [["optimize"], ["evaluate", "--seed", "0"]])
    def test_overflowing_variance_is_data_error(self, tmp_path, capsys, argv):
        path = _one_test_file(tmp_path, [60.0] * 39 + [1e160])
        assert run(argv + ["--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too large" in err


class TestSummarize:
    def test_json_payload(self, runs_file, capsys):
        assert run(["summarize", "--input", str(runs_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "test_count": 2,
            "execution_count": 80,
            "revision_count": 1,
            "censored_fraction": 0.0,
        }

    def test_table_output(self, runs_file, capsys):
        assert run(["summarize", "--input", str(runs_file), "--output-format", "table"]) == 0
        out = capsys.readouterr().out
        assert "test_count" in out and "80" in out


class TestFlakiness:
    def test_report_fields(self, tmp_path, capsys):
        dataset = verdict_dataset(
            {"a": ["pass", "timeout"] * 10, "b": ["pass"] * 20}
        )
        path = tmp_path / "flaky.jsonl"
        write_executions(dataset, path)
        assert run(
            ["flakiness", "--input", str(path), "--revision", "r1", "--step", "5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["unique_tests"] == 2
        assert payload["report"]["flaky_tests"] == 1
        assert payload["report"]["bin_counts"] == [0, 0, 1, 0, 0]
        assert payload["timeout_failure_share"] == 1.0
        assert payload["evolution"]["points"][0][0] == 5


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestCompare:
    def test_increase_from_zero_rate_is_null_not_infinity(self, tmp_path, capsys):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        write_executions(verdict_dataset({"t": ["pass"] * 4}), path_a)
        write_executions(verdict_dataset({"t": ["pass", "fail"] * 2}), path_b)
        argv = ["compare", "--input-a", str(path_a), "--input-b", str(path_b)]
        assert run(argv + ["--revision-a", "r1", "--revision-b", "r1"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert payload["absolute_change"] == 1.0
        assert payload["relative_change"] is None


class TestOptimize:
    def test_csv_contract(self, runs_file, tmp_path, capsys):
        out = tmp_path / "timeouts.csv"
        code = run(
            [
                "optimize",
                "--input",
                str(runs_file),
                "--method",
                "empirical",
                "--m",
                "3",
                "--min-samples",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "test_id,timeout_minutes"
        rows = dict(line.split(",") for line in lines[1:])
        assert set(rows) == {"alpha", "beta"}
        assert rows["beta"] == "7"

    def test_lone_surrogate_id_is_rejected_not_written(self, runs_file, tmp_path, capsys):
        line = runs_file.read_text(encoding="utf-8").splitlines()[0]
        bad = line.replace('"alpha"', '"t\\udc80"')
        with runs_file.open("a", encoding="utf-8") as handle:
            handle.write(bad + "\n")
        out = tmp_path / "timeouts.csv"
        code = run(["optimize", "--input", str(runs_file), "--min-samples", "2", "--out", str(out)])
        assert code == 0
        assert "{'bad id': 1}" in capsys.readouterr().err
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["alpha", "beta"]

    def test_json_records(self, runs_file, capsys):
        code = run(
            [
                "optimize",
                "--input",
                str(runs_file),
                "--method",
                "tolhurst",
                "--min-samples",
                "2",
                "--output-format",
                "json",
            ]
        )
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["test_id"] for r in records] == ["alpha", "beta"]
        for entry in records:
            assert set(entry) == {
                "test_id",
                "optimal_timeout_minutes",
                "expected_cost_seconds",
                "probability_method",
                "fallback_applied",
            }
            assert entry["probability_method"] == "tolhurst_bound"


class TestSweep:
    def test_reports_fixture_minimum(self, tmp_path, capsys):
        path = tmp_path / "fleet.jsonl"
        write_executions(sweep_fixture_dataset(), path)
        code = run(
            ["sweep", "--input", str(path), "--lo", "75", "--hi", "180"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimal_timeout_minutes"] == 115
        assert len(payload["curve"]) == 180 - 75 + 1

    def test_bad_range_is_data_error(self, runs_file, capsys):
        assert run(["sweep", "--input", str(runs_file), "--lo", "9", "--hi", "9"]) == 2


class TestEvaluate:
    def test_requires_seed(self, runs_file, capsys):
        assert run(["evaluate", "--input", str(runs_file), "--k", "5"]) == 1

    def test_prints_table_and_writes_json(self, runs_file, tmp_path, capsys):
        out = tmp_path / "cv.json"
        code = run(
            [
                "evaluate",
                "--input",
                str(runs_file),
                "--k",
                "5",
                "--seed",
                "7",
                "--static",
                "120",
                "--min-samples",
                "2",
                "--method",
                "empirical",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "optimized" in table and "static" in table
        payload = json.loads(out.read_text())
        assert payload["k"] == 5
        assert payload["seed"] == 7
        assert {row["policy"] for row in payload["folds"]} == {"static", "optimized"}
        assert len(payload["folds"]) == 10

    def test_original_policy_from_csv(self, runs_file, tmp_path, capsys):
        timeouts = tmp_path / "orig.csv"
        timeouts.write_text("test_id,timeout_minutes\nalpha,4\nbeta,7\n")
        code = run(
            [
                "evaluate",
                "--input",
                str(runs_file),
                "--k",
                "4",
                "--seed",
                "1",
                "--timeouts",
                str(timeouts),
                "--min-samples",
                "2",
            ]
        )
        assert code == 0
        assert "original" in capsys.readouterr().out


class TestSimulate:
    def test_writes_dataset_policy_and_report(self, tmp_path, capsys):
        data_out = tmp_path / "fleet.jsonl"
        policy_out = tmp_path / "orig.csv"
        code = run(
            [
                "simulate",
                "--tests",
                "3",
                "--runs",
                "50",
                "--scale",
                "5",
                "--seed",
                "11",
                "--out",
                str(data_out),
                "--timeouts-out",
                str(policy_out),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["initial_runs"] == 150
        assert data_out.read_text().count("\n") == 150
        assert policy_out.read_text().startswith("test_id,timeout_minutes")

    def test_requires_seed(self, capsys):
        assert run(["simulate", "--tests", "2", "--runs", "5"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scale", "inf"],
            ["--scale", "1e307"],  # finite minutes, infinite seconds
            ["--scale", "nan"],
            ["--spread", "inf"],
            ["--outlier-prob", "0.5", "--outlier-hi", "inf"],
            ["--sigma", "inf"],
        ],
    )
    def test_non_finite_flag_is_data_error(self, capsys, flags):
        assert run(["simulate", "--tests", "2", "--runs", "5", "--seed", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err

    def test_overflowing_sigma_is_data_error(self, capsys):
        argv = ["simulate", "--tests", "2", "--runs", "5", "--seed", "1", "--sigma", "1e308"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: sigma ") and err.count("\n") == 1

    def test_infinite_duration_is_not_written(self, tmp_path, capsys):
        out = tmp_path / "fleet.jsonl"
        argv = ["simulate", "--tests", "1", "--runs", "50", "--outlier-prob", "1"]
        argv += ["--outlier-lo", "1e306", "--outlier-hi", "1e308", "--seed", "1"]
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "durations must be finite" in err
        assert not out.exists()

    def test_seeded_runs_are_byte_identical(self, tmp_path, capsys):
        argv = ["simulate", "--tests", "2", "--runs", "30", "--seed", "3"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second


_DIGITS_401 = "9" * 401  # an int past the float range


class TestOverLargeMinutes:
    """A timeout in minutes whose seconds are not a finite float ends in one
    error line, or costs only its row."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--seed", "1", "--static", "1" + "0" * 307],
            ["optimize", "--min-samples", "1000", "--fallback", _DIGITS_401],
            ["sweep", "--lo", _DIGITS_401, "--hi", _DIGITS_401 + "9"],
        ],
        ids=["evaluate-static", "optimize-fallback", "sweep-lo"],
    )
    def test_flag_is_usage_error(self, runs_file, capsys, argv):
        assert run(argv + ["--input", str(runs_file)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"timeopt {argv[0]}: error: argument --")
        assert err.splitlines()[-1].endswith(" minutes")

    @pytest.mark.parametrize(
        "body",
        ["alpha,4\n" + "t" * 200_000 + ",7\n", f"alpha,{_DIGITS_401}\nbeta,7\n"],
        ids=["long-id", "large-value"],
    )
    def test_policy_file_is_data_error(self, runs_file, tmp_path, capsys, body):
        timeouts = tmp_path / "orig.csv"
        timeouts.write_text("test_id,timeout_minutes\n" + body)
        argv = ["evaluate", "--input", str(runs_file), "--seed", "1", "--timeouts", str(timeouts)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_history_row_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "changes.jsonl"
        rows = [
            {"test_id": "a", "changed_at": "2021-01-01T00:00:00Z", "old_value": 5, "new_value": int(_DIGITS_401)},
            {"test_id": "b", "changed_at": "2021-01-01T00:00:00Z", "old_value": 5, "new_value": 10},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert run(["timeout-history", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert re.search("rejected 1", captured.err)
        payload = json.loads(captured.out)
        assert payload["tests_with_changes"] == 1
        assert payload["increase_ratios"] == [2.0, 2.0, 2.0]


def test_commands_load_through_the_module_attribute(runs_file, monkeypatch, capsys):
    # The benchmark's tracer wraps ingest.load_executions in place, so every
    # command must call what the module holds when the command runs.
    calls = []
    original = ingest.load_executions
    monkeypatch.setattr(ingest, "load_executions", lambda *args: calls.append(args) or original(*args))
    assert run(["summarize", "--input", str(runs_file)]) == 0
    assert calls == [(str(runs_file), "jsonl")]


class TestTimeoutHistory:
    def test_history_stats(self, tmp_path, capsys):
        path = tmp_path / "changes.jsonl"
        rows = [
            {"test_id": "a", "changed_at": "2021-01-01T00:00:00Z", "new_value": 15},
            {"test_id": "a", "changed_at": "2021-02-01T00:00:00Z", "old_value": 15, "new_value": 25},
            {"test_id": "b", "changed_at": "2021-03-01T00:00:00Z", "old_value": 30, "new_value": 15},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert run(["timeout-history", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tests_with_changes"] == 2
        assert payload["increase_count"] == 1
        assert payload["decrease_count"] == 1
        assert payload["decrease_ratios"][1] == 0.5


def _flakiness_argv(tmp_path):
    path = tmp_path / "flaky.jsonl"
    verdicts = {"a": ["pass", "timeout"] * 10, "b": ["pass"] * 20, "c": ["fail", "pass", "pass"] * 6}
    write_executions(verdict_dataset(verdicts), path)
    return ["flakiness", "--input", str(path), "--revision", "r1", "--step", "5"]


def _compare_argv(tmp_path, rise_from_zero):
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    first = ["pass"] * 4 if rise_from_zero else ["pass", "fail", "pass"] * 3
    write_executions(verdict_dataset({"t": first, "u": ["pass"] * 4}), path_a)
    write_executions(verdict_dataset({"t": ["pass", "fail"] * 2, "u": ["fail", "pass"] * 3}), path_b)
    argv = ["compare", "--input-a", str(path_a), "--input-b", str(path_b)]
    return argv + ["--revision-a", "r1", "--revision-b", "r1"]


def _history_argv(tmp_path, with_decrease):
    path = tmp_path / "changes.jsonl"
    rows = [
        {"test_id": "a", "changed_at": "2021-01-01T00:00:00Z", "new_value": 15},
        {"test_id": "a", "changed_at": "2021-02-01T00:00:00Z", "old_value": 15, "new_value": 25},
        {"test_id": "a", "changed_at": "2021-03-01T00:00:00Z", "old_value": 25, "new_value": 70},
        {"test_id": "b", "changed_at": "2021-03-01T00:00:00Z", "old_value": 30, "new_value": 15},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows[: 4 if with_decrease else 3]) + "\n")
    return ["timeout-history", "--input", str(path)]


def _sweep_argv(tmp_path):
    path = tmp_path / "fleet.jsonl"
    write_executions(sweep_fixture_dataset(), path)
    return ["sweep", "--input", str(path), "--lo", "75", "--hi", "180", "--pb", "0.001"]


def _evaluate_argv(tmp_path, runs_file):
    timeouts = tmp_path / "orig.csv"
    timeouts.write_text("test_id,timeout_minutes\nalpha,4\nbeta,7\n")
    argv = ["evaluate", "--input", str(runs_file), "--k", "4", "--seed", "1", "--static", "3"]
    return argv + ["--timeouts", str(timeouts), "--min-samples", "2"]


def _simulate_argv():
    argv = ["simulate", "--tests", "3", "--runs", "50", "--seed", "11", "--hang-prob", "0.05"]
    return argv + ["--outlier-prob", "0.1"]


# The first 16 hex digits of the sha256 of each command's JSON output, recorded
# from the code that re-wrapped tuples with list() and dict() before json.dumps.
@pytest.mark.parametrize(
    "build, digest",
    [
        pytest.param(lambda tmp, _: _flakiness_argv(tmp), "4cb74efae3f2ab62", id="flakiness"),
        pytest.param(
            lambda tmp, _: _flakiness_argv(tmp)[:-1] + ["1"],
            "3a6506c1dd512eb0",
            id="flakiness-step-1",
        ),
        pytest.param(
            lambda tmp, _: _compare_argv(tmp, True), "e10f725ba25e95a5", id="compare-rise-from-zero"
        ),
        pytest.param(
            lambda tmp, _: _compare_argv(tmp, False),
            "dbc3d785a0727726",
            id="compare-unequal-repetitions",
        ),
        pytest.param(lambda tmp, _: _history_argv(tmp, True), "8826723d5428b67a", id="timeout-history"),
        pytest.param(
            lambda tmp, _: _history_argv(tmp, False),
            "034179ca5c835b03",
            id="timeout-history-no-decrease",
        ),
        pytest.param(lambda tmp, _: _sweep_argv(tmp), "5d25115790d9347d", id="sweep"),
        pytest.param(_evaluate_argv, "af000518dda7ae42", id="evaluate"),
        pytest.param(lambda tmp, _: _simulate_argv(), "5947f26cb5e7bf61", id="simulate"),
    ],
)
def test_json_outputs_are_pinned(build, digest, runs_file, tmp_path, capsys):
    argv = build(tmp_path, runs_file)
    out = tmp_path / "out.json"
    assert run(argv + ["--report-out" if argv[0] == "simulate" else "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def _rejecting_history_argv(tmp_path):
    path = tmp_path / "changes.jsonl"
    rows = [
        {"test_id": "a", "changed_at": "2021-01-01T00:00:00Z", "new_value": 0},
        {"test_id": "a", "changed_at": "not a time", "new_value": 15},
        {"test_id": "b", "changed_at": "2021-03-01T00:00:00Z", "old_value": 30, "new_value": 15},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return ["timeout-history", "--input", str(path)]


def _excluding_evaluate_argv(tmp_path):
    path = tmp_path / "runs.jsonl"
    runs = {("alpha", "r1"): [(m * MINUTE, "pass") for m in [1, 2, 3, 4, 5] * 8]}
    write_executions(dataset_of({**runs, ("tiny", "r1"): [(2 * MINUTE, "pass")] * 3}), path)
    return ["evaluate", "--input", str(path), "--seed", "1"]


def _rejecting_compare_argv(tmp_path):
    argv = _compare_argv(tmp_path, True)
    path_a = tmp_path / "a.jsonl"
    row = json.loads(path_a.read_text(encoding="utf-8").splitlines()[0])
    with path_a.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({**row, "started_at": "x"}) + "\n")
    return argv


def _all_pass_flakiness_argv(tmp_path):
    path = tmp_path / "passing.jsonl"
    write_executions(verdict_dataset({"a": ["pass"] * 4, "b": ["pass"] * 4}), path)
    return ["flakiness", "--input", str(path), "--revision", "r1"]


# Every diagnostic is one "warning: " line on stderr, with no source path, line
# number or warning category: the same bytes on every install. A loader's note
# names its input file, written here as <tmp>/ for the test's directory.
@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(
            lambda tmp: _compare_argv(tmp, True),
            "warning: repetition counts differ (4 vs 6); flakiness rates are not comparable\n",
            id="compare-unequal-repetitions",
        ),
        pytest.param(
            _rejecting_history_argv,
            "warning: <tmp>/changes.jsonl: "
            "rejected 2 rows: {'bad value': 1, 'bad timestamp': 1}\n",
            id="timeout-history-rejections",
        ),
        pytest.param(
            _rejecting_compare_argv,
            "warning: <tmp>/a.jsonl: rejected 1 rows: {'bad timestamp': 1}\n"
            "warning: repetition counts differ (4 vs 6); flakiness rates are not comparable\n",
            id="compare-rejection-in-input-a",
        ),
        pytest.param(
            _excluding_evaluate_argv,
            "warning: excluded 1 tests with fewer than 5 executions: ['tiny']\n",
            id="evaluate-excluded-test",
        ),
        pytest.param(
            _all_pass_flakiness_argv,
            "warning: dataset contains no flaky failures; share is 0.0\n",
            id="flakiness-no-flaky-failures",
        ),
    ],
)
def test_stderr_is_pinned(build, expected, tmp_path, capsys):
    assert run(build(tmp_path)) == 0
    assert capsys.readouterr().err == expected.replace("<tmp>/", f"{tmp_path}{os.sep}")
