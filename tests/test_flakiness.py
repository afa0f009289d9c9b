import random
import re

import pytest

import reference
from helpers import EPOCH, verdict_dataset
from timeopt.flakiness import (
    bin_index,
    compare_flakiness,
    flakiness_evolution,
    flakiness_report,
    timeout_change_stats,
    timeout_failure_share,
)
from timeopt.model import TimeoutChangeRecord, Verdict


def rate_verdicts(rate: float, n: int = 10) -> list[str]:
    failures = round(rate * n)
    return ["fail"] * failures + ["pass"] * (n - failures)


class TestFlakinessReport:
    def test_table_shaped_fixture(self):
        # 673 tests of which 333 are flaky: rate rounds to 0.49.
        verdicts = {}
        for i in range(333):
            verdicts[f"flaky{i:03d}"] = ["pass", "fail"]
        for i in range(340):
            verdicts[f"stable{i:03d}"] = ["pass", "pass"]
        report = flakiness_report(verdict_dataset(verdicts), "r1")
        assert report.unique_tests == 673
        assert report.flaky_tests == 333
        assert round(report.flakiness_rate, 2) == 0.49
        assert sum(report.bin_counts) == report.flaky_tests

    def test_all_pass_revision(self):
        dataset = verdict_dataset({f"t{i}": ["pass"] * 3 for i in range(4)})
        report = flakiness_report(dataset, "r1")
        assert report.flakiness_rate == 0.0
        assert report.bin_counts == (0, 0, 0, 0, 0)

    def test_direct_binning(self):
        dataset = verdict_dataset(
            {
                "a": rate_verdicts(0.1),
                "b": rate_verdicts(0.5),
                "c": rate_verdicts(0.9),
            }
        )
        report = flakiness_report(dataset, "r1")
        assert report.bin_counts == (1, 0, 1, 0, 1)

    def test_bin_edges_left_open_right_closed(self):
        assert bin_index(0.2) == 0
        assert bin_index(0.2000001) == 1
        assert bin_index(0.8) == 3
        assert bin_index(0.99) == 4
        with pytest.raises(ValueError):
            bin_index(1.0)
        with pytest.raises(ValueError):
            bin_index(0.0)

    def test_always_failing_test_is_not_flaky_and_not_binned(self):
        dataset = verdict_dataset({"a": ["fail"] * 5, "b": ["pass", "fail"]})
        report = flakiness_report(dataset, "r1")
        assert report.flaky_tests == 1
        assert sum(report.bin_counts) == 1

    def test_unknown_revision(self):
        dataset = verdict_dataset({"a": ["pass"]})
        with pytest.raises(ValueError, match="unknown revision"):
            flakiness_report(dataset, "missing")

    def test_bins_partition_flaky_tests(self):
        rng = random.Random(5)
        verdicts = {}
        for i in range(80):
            n = rng.randint(1, 20)
            verdicts[f"t{i}"] = [rng.choice(["pass", "fail", "timeout"]) for _ in range(n)]
        dataset = verdict_dataset(verdicts)
        report = flakiness_report(dataset, "r1")
        flaky = sum(
            1 for v in verdicts.values() if reference.is_flaky([Verdict(x) for x in v])
        )
        assert report.flaky_tests == flaky
        assert sum(report.bin_counts) == flaky


class TestFlakinessEvolution:
    def test_single_late_failure_appears_at_covering_prefix(self):
        verdicts = ["pass"] * 100
        verdicts[89] = "timeout"  # execution 90, 1-based
        series = flakiness_evolution(verdict_dataset({"a": verdicts}), "r1", step=20)
        rates = dict(series.points)
        assert rates[80] == 0.0
        assert rates[100] > 0.0
        assert [k for k, _ in series.points] == [20, 40, 60, 80, 100]

    def test_deterministic_tests_stay_flat(self):
        dataset = verdict_dataset({"a": ["pass"] * 50, "b": ["fail"] * 50})
        series = flakiness_evolution(dataset, "r1", step=10)
        assert all(rate == 0.0 for _, rate in series.points)

    def test_matches_brute_force_recomputation(self):
        dataset = verdict_dataset(
            {
                "a": ["pass", "pass", "fail", "pass", "pass", "fail", "pass"],
                "b": ["pass", "pass", "pass", "pass", "timeout", "pass", "pass"],
            }
        )
        step = 2
        series = flakiness_evolution(dataset, "r1", step=step)

        samples = {
            tid: dataset.subsample(tid, "r1", rows)
            for tid, rows in dataset.revision_rows("r1").items()
        }
        expected = []
        k = step
        max_n = max(s.n for s in samples.values())
        while True:
            flaky = 0
            for s in samples.values():
                prefix = s.verdicts[: min(k, s.n)]
                outcomes = {v.is_failure for v in prefix}
                if outcomes == {True, False}:
                    flaky += 1
            expected.append((k, flaky / len(samples)))
            if k >= max_n:
                break
            k += step
        assert list(series.points) == expected

    def test_pointwise_non_decreasing(self):
        rng = random.Random(17)
        for trial in range(20):
            verdicts = {
                f"t{i}": [rng.choice(["pass", "fail"]) for _ in range(rng.randint(1, 60))]
                for i in range(10)
            }
            series = flakiness_evolution(verdict_dataset(verdicts), "r1", step=7)
            rates = [rate for _, rate in series.points]
            assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            flakiness_evolution(verdict_dataset({"a": ["pass"]}), "r1", step=0)


class TestTimeoutFailureShare:
    def test_seventy_percent_fixture(self):
        # 100 flaky failures, 70 of them timeouts.
        verdicts = {}
        for i in range(70):
            verdicts[f"to{i}"] = ["pass", "timeout"]
        for i in range(30):
            verdicts[f"ff{i}"] = ["pass", "fail"]
        assert timeout_failure_share(verdict_dataset(verdicts)) == (pytest.approx(0.70), ())

    def test_plain_fail_flakiness(self):
        dataset = verdict_dataset({"a": ["pass", "fail", "fail"]})
        assert timeout_failure_share(dataset) == (0.0, ())

    def test_three_timeouts_one_fail(self):
        dataset = verdict_dataset(
            {"a": ["pass", "timeout", "timeout", "timeout", "fail"]}
        )
        assert timeout_failure_share(dataset) == (pytest.approx(0.75), ())

    def test_non_flaky_failures_do_not_count(self):
        # The always-failing test contributes nothing; only the flaky one does.
        dataset = verdict_dataset(
            {"always": ["fail", "fail"], "flaky": ["pass", "timeout"]}
        )
        assert timeout_failure_share(dataset) == (1.0, ())

    def test_no_flaky_failures_warns_and_returns_zero(self):
        dataset = verdict_dataset({"a": ["pass", "pass"]})
        share, notes = timeout_failure_share(dataset)
        assert share == 0.0
        assert len(notes) == 1 and re.search("no flaky failures", notes[0])


class TestCompareFlakiness:
    def build(self, flaky: int, total: int, runs: int = 2):
        verdicts = {}
        for i in range(flaky):
            verdicts[f"f{i:03d}"] = ["pass", "fail"] * (runs // 2)
        for i in range(total - flaky):
            verdicts[f"s{i:03d}"] = ["pass"] * runs
        return verdict_dataset(verdicts)

    def test_tenfold_timeout_fixture(self):
        dataset_a = self.build(333, 673)
        dataset_b = self.build(114, 673)  # rate 0.169...
        cmp = compare_flakiness(dataset_a, dataset_b, "r1", "r1")
        assert round(cmp.report_a.flakiness_rate, 2) == 0.49
        assert round(cmp.report_b.flakiness_rate, 2) == 0.17
        assert cmp.relative_change == pytest.approx(-0.6577, abs=1e-3)
        assert cmp.warnings == ()

    def test_identical_datasets(self):
        dataset = self.build(5, 10)
        cmp = compare_flakiness(dataset, dataset, "r1", "r1")
        assert cmp.absolute_change == 0.0
        assert cmp.relative_change == 0.0

    def test_differing_repetition_counts_warn(self):
        dataset_a = self.build(2, 4, runs=100)
        dataset_b = self.build(2, 4, runs=150)
        cmp = compare_flakiness(dataset_a, dataset_b, "r1", "r1")
        assert len(cmp.warnings) == 1
        assert re.search("repetition counts differ", cmp.warnings[0])
        assert "100 vs 150" in cmp.warnings[0]


def change(test_id, old, new, when=0):
    from datetime import timedelta

    return TimeoutChangeRecord(
        test_id=test_id,
        changed_at=EPOCH + timedelta(days=when),
        old_value=old,
        new_value=new,
    )


class TestTimeoutChangeStats:
    def test_increase_quartiles(self):
        changes = [
            change("a", 100, 133),
            change("b", 100, 167),
            change("c", 100, 200),
        ]
        stats = timeout_change_stats(changes)
        assert stats.increase_count == 3
        assert stats.increase_ratios[1] == pytest.approx(1.67)
        assert stats.decrease_ratios is None

    def test_single_increase(self):
        stats = timeout_change_stats([change("a", 15, 25)])
        assert stats.increase_count == 1
        assert stats.increase_ratios == pytest.approx((5 / 3, 5 / 3, 5 / 3))

    def test_decrease_median(self):
        stats = timeout_change_stats([change("a", 30, 15), change("b", 20, 10)])
        assert stats.decrease_count == 2
        assert stats.decrease_ratios[1] == pytest.approx(0.50)
        assert all(r < 1 for r in stats.decrease_ratios)

    def test_creations_and_unchanged_are_ignored(self):
        changes = [
            TimeoutChangeRecord(test_id="a", changed_at=EPOCH, new_value=10),
            change("a", 10, 10, when=1),
            change("a", 10, 20, when=2),
        ]
        stats = timeout_change_stats(changes)
        assert stats.tests_with_changes == 1
        assert stats.increase_count == 1
        assert stats.decrease_count == 0

    def test_changes_per_test_median(self):
        changes = [
            change("a", 10, 20, 1),
            change("a", 20, 30, 2),
            change("a", 30, 40, 3),
            change("b", 10, 20, 1),
        ]
        stats = timeout_change_stats(changes)
        assert stats.tests_with_changes == 2
        assert stats.changes_per_test_median == 2.0

    def test_empty_input(self):
        stats = timeout_change_stats([])
        assert stats.tests_with_changes == 0
        assert stats.changes_per_test_median == 0.0
        assert stats.increase_ratios is None
        assert stats.decrease_ratios is None
