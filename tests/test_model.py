import math
import random

import pytest

from helpers import EPOCH, dataset_of, minutes_sample, record, sample_of
from timeopt.model import (
    DURATION_LIMIT,
    ExecutionDataset,
    ExecutionRecord,
    TestSample,
    TimeoutPolicy,
    Verdict,
    valid_minutes,
)
from timeopt.flakiness import failure_rate, is_flaky
from timeopt.optimize import OptimizationConfig, sample_stats


@pytest.mark.parametrize(
    "minutes, valid",
    [(1, True), (10**300, True), (0, False), (0.5, False), (10**307, False), (10**400, False), (math.nan, False)],
)
def test_valid_minutes_is_the_rule_of_every_timeout(minutes, valid):
    assert valid_minutes(minutes) is valid
    if valid:
        assert math.isfinite(TimeoutPolicy.static(minutes).default * 60.0)
    else:
        for build in (TimeoutPolicy.static, lambda m: TimeoutPolicy("original", {"t": m})):
            with pytest.raises(ValueError, match="finite in seconds"):
                build(minutes)
        with pytest.raises(ValueError, match="finite in seconds"):
            OptimizationConfig(fallback_timeout=minutes)


class TestSampleStats:
    def test_one_to_five_minutes(self):
        stats = sample_stats(minutes_sample([1, 2, 3, 4, 5]))
        assert stats.n == 5
        assert stats.mean == pytest.approx(3 * 60.0)
        assert stats.variance == pytest.approx(2.5 * 60.0**2)
        assert stats.q_n == pytest.approx(math.sqrt(3) * 60.0)
        assert stats.min == 60.0
        assert stats.max == 300.0

    def test_constant_sample(self):
        stats = sample_stats(minutes_sample([7, 7, 7]))
        assert stats.mean == 7 * 60.0
        assert stats.variance == 0.0
        assert stats.q_n == 0.0

    def test_singleton_variance_convention(self):
        stats = sample_stats(sample_of([5.0]))
        assert stats.n == 1
        assert stats.mean == 5.0
        assert stats.variance == 0.0

    def test_empty_sample_errors(self):
        with pytest.raises(ValueError, match="empty sample"):
            sample_stats(sample_of([]))

    @pytest.mark.parametrize(
        "durations",
        [[60.0] * 39 + [DURATION_LIMIT], [DURATION_LIMIT] * 40, [0.0, DURATION_LIMIT] * 20],
    )
    def test_durations_at_the_limit_have_finite_stats(self, durations):
        # the widest squared deviations and the largest sum the limit allows
        stats = sample_stats(sample_of(durations))
        assert stats.mean == math.fsum(durations) / len(durations)
        assert all(map(math.isfinite, (stats.variance, stats.q_n)))
        assert stats.max == DURATION_LIMIT

    def test_permutation_invariant(self):
        rng = random.Random(7)
        for _ in range(50):
            durations = [rng.uniform(0, 500) for _ in range(rng.randint(1, 40))]
            shuffled = durations[:]
            rng.shuffle(shuffled)
            a = sample_stats(sample_of(durations))
            b = sample_stats(sample_of(shuffled))
            assert a.n == b.n
            assert a.mean == pytest.approx(b.mean)
            assert a.variance == pytest.approx(b.variance)
            assert (a.min, a.max) == (b.min, b.max)

    def test_q_n_dominates_standard_deviation(self):
        rng = random.Random(11)
        for _ in range(50):
            durations = [rng.expovariate(1 / 120) for _ in range(rng.randint(2, 60))]
            stats = sample_stats(sample_of(durations))
            assert stats.q_n >= math.sqrt(stats.variance)
            assert stats.q_n == pytest.approx(
                math.sqrt((stats.n + 1) / stats.n * stats.variance)
            )


class TestVerdictPredicates:
    @pytest.mark.parametrize(
        "verdicts, expected",
        [
            (("pass", "pass", "pass"), False),
            (("fail", "fail"), False),
            (("pass", "timeout", "pass"), True),
            (("timeout",), False),
            (("fail", "pass"), True),
        ],
    )
    def test_is_flaky(self, verdicts, expected):
        assert is_flaky([Verdict(v) for v in verdicts]) is expected

    @pytest.mark.parametrize(
        "verdicts, expected",
        [
            (("pass", "fail", "pass", "fail"), 0.5),
            (("pass",) * 10, 0.0),
            (("timeout",) * 3 + ("pass",) * 7, 0.3),
        ],
    )
    def test_failure_rate(self, verdicts, expected):
        assert failure_rate([Verdict(v) for v in verdicts]) == pytest.approx(expected)

    def test_empty_inputs_error(self):
        with pytest.raises(ValueError):
            is_flaky([])
        with pytest.raises(ValueError):
            failure_rate([])

    def test_members_and_strings_alike(self):
        assert is_flaky(["pass", Verdict.TIMEOUT]) is True
        assert failure_rate([Verdict.PASS, "fail", "timeout", "pass"]) == 0.5

    @pytest.mark.parametrize("bad", ["PASS", "skipped", 1, None, ["pass"]])
    def test_unknown_verdict_is_flaky(self, bad):
        with pytest.raises(ValueError, match="not a valid Verdict"):
            is_flaky([bad])

    @pytest.mark.parametrize("bad", ["PASS", "skipped", 1, None, ["pass"]])
    def test_unknown_verdict_after_the_first_mix(self, bad):
        # every verdict is tallied, so one past a pass and a failure is still checked
        with pytest.raises(ValueError, match="not a valid Verdict"):
            is_flaky(["pass", "fail", bad])

    @pytest.mark.parametrize("bad", ["PASS", "skipped", 1, None, ["pass"]])
    def test_unknown_verdict_failure_rate(self, bad):
        with pytest.raises(ValueError, match="not a valid Verdict"):
            failure_rate(["pass", bad])

    def test_flaky_iff_rate_strictly_between_zero_and_one(self):
        rng = random.Random(3)
        choices = ("pass", "fail", "timeout")
        for _ in range(200):
            verdicts = [
                Verdict(rng.choice(choices)) for _ in range(rng.randint(1, 12))
            ]
            rate = failure_rate(verdicts)
            assert is_flaky(verdicts) == (0.0 < rate < 1.0)


class TestRecordAndSampleValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ExecutionRecord(
                test_id="t",
                revision_id="r",
                started_at=EPOCH,
                duration=-1.0,
                verdict=Verdict.PASS,
            )

    def test_censored_needs_both_flags(self):
        interrupted_timeout = record(verdict="timeout", interrupted=True)
        assert interrupted_timeout.censored
        assert not record(verdict="timeout", interrupted=False).censored
        assert not record(verdict="pass", interrupted=True).censored

    def test_uninterrupted_timeout_is_allowed(self):
        rec = record(verdict="timeout", interrupted=False, duration=9000.0)
        assert rec.verdict is Verdict.TIMEOUT

    def test_sample_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TestSample("t", "r", durations=(1.0, 2.0), verdicts=(Verdict.PASS,))

    def test_sample_coerces_verdict_strings_to_members(self):
        sample = TestSample("t", "r", durations=(1, 2.5), verdicts=("timeout", Verdict.PASS))
        assert sample.verdicts == (Verdict.TIMEOUT, Verdict.PASS)
        assert all(type(v) is Verdict for v in sample.verdicts)
        assert all(type(d) is float for d in sample.durations)

    @pytest.mark.parametrize("bad", ["PASS", "skipped", 1, None, ["pass"]])
    def test_sample_unknown_verdict(self, bad):
        with pytest.raises(ValueError, match="not a valid Verdict"):
            TestSample("t", "r", durations=(1.0, 2.0), verdicts=(Verdict.PASS, bad))

    def test_sample_negative_duration(self):
        with pytest.raises(ValueError, match="non-negative"):
            TestSample("t", "r", durations=(1.0, -2.0), verdicts=("pass", "pass"))

    @pytest.mark.parametrize(
        "bad", [math.inf, math.nan, -math.inf, math.nextafter(DURATION_LIMIT, math.inf)]
    )
    def test_sample_non_finite_duration(self, bad):
        # as ingest rejects such a row; no statistic of the sample could hold it
        with pytest.raises(ValueError, match="non-negative and finite"):
            TestSample("t", "r", durations=(1.0, bad), verdicts=("pass", "pass"))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, math.nextafter(DURATION_LIMIT, math.inf)])
    def test_record_non_finite_duration(self, bad):
        with pytest.raises(ValueError, match="non-negative and finite"):
            ExecutionRecord("t", "r", EPOCH, bad, Verdict.PASS)

    def test_censored_count_bounds(self):
        # flags of another length than the durations are rejected, so the
        # count is always between 0 and the sample size
        with pytest.raises(ValueError, match="censored flags"):
            sample_of([1.0], censored=(True, True))
        with pytest.raises(ValueError, match="censored flags"):
            sample_of([1.0, 2.0], censored=(True,))

    def test_censored_count_is_the_number_of_flags(self):
        sample = sample_of([1.0, 2.0, 3.0], censored=(True, False, 1))
        assert sample.censored == (True, False, True)
        assert sample.censored_count == sum(sample.censored) == 2
        assert sample_of([1.0, 2.0]).censored == (False, False)
        assert sample_of([]).censored_count == 0


class TestExecutionDataset:
    def test_sample_sizes_sum_to_record_count(self):
        dataset = dataset_of(
            {
                ("a", "r1"): [(10, "pass"), (20, "fail")],
                ("a", "r2"): [(30, "pass")],
                ("b", "r1"): [(40, "timeout"), (50, "pass"), (60, "pass")],
            }
        )
        assert sum(s.n for s in dataset.samples.values()) == len(dataset)
        assert dataset.test_ids() == ("a", "b")
        assert dataset.revision_ids() == ("r1", "r2")

    def test_samples_ordered_by_start_time(self):
        records = (
            record("a", "r1", minute=5, duration=3.0),
            record("a", "r1", minute=1, duration=1.0),
            record("a", "r1", minute=3, duration=2.0),
        )
        dataset = ExecutionDataset(records=records)
        assert dataset.sample("a", "r1").durations == (1.0, 2.0, 3.0)

    def test_pooled_sample_spans_revisions(self):
        dataset = dataset_of(
            {
                ("a", "r1"): [(10, "pass")],
                ("a", "r2"): [(20, "fail")],
            }
        )
        pooled = dataset.pooled_sample("a")
        assert pooled.n == 2
        assert set(pooled.durations) == {10.0, 20.0}

    def test_unknown_lookups_raise(self):
        dataset = dataset_of({("a", "r1"): [(10, "pass")]})
        with pytest.raises(ValueError, match="no sample"):
            dataset.sample("a", "nope")
        with pytest.raises(ValueError, match="unknown revision"):
            dataset.revision_rows("nope")
        with pytest.raises(ValueError, match="unknown test"):
            dataset.pooled_sample("nope")

    def test_sample_builds_one_subsample(self, monkeypatch):
        dataset = dataset_of(
            {
                ("a", "r1"): [(10, "pass"), (20, "timeout")],
                ("a", "r2"): [(30, "pass")],
                ("b", "r1"): [(40, "fail")],
            }
        )
        subsample = ExecutionDataset.subsample
        built = []

        def counting(self, test_id, revision_id, indices):
            built.append((test_id, revision_id))
            return subsample(self, test_id, revision_id, indices)

        monkeypatch.setattr(ExecutionDataset, "subsample", counting)
        assert dataset.sample("a", "r2") == TestSample("a", "r2", (30.0,), ("pass",))
        assert built == [("a", "r2")]
        with pytest.raises(ValueError, match="no sample"):
            dataset.sample("b", "r2")
        assert built == [("a", "r2")]

    def test_censored_count_from_records(self):
        records = (
            record("a", "r1", minute=0, verdict="timeout", interrupted=True),
            record("a", "r1", minute=1, verdict="timeout", interrupted=False),
            record("a", "r1", minute=2, verdict="pass"),
        )
        dataset = ExecutionDataset(records=records)
        assert dataset.sample("a", "r1").censored_count == 1

    def test_subsample_equals_the_public_constructor(self):
        records = (
            record("a", "r1", minute=2, duration=90.5, verdict="timeout", interrupted=True),
            record("a", "r2", minute=0, duration=0.0, verdict="fail"),
            record("a", "r1", minute=1, duration=60.0, verdict="pass"),
            ExecutionRecord("a", "r1", EPOCH, 7, Verdict.TIMEOUT),  # an int duration
        )
        dataset = ExecutionDataset(records=records)
        sample = dataset.subsample("a", "*", [0, 3, 1, 2])
        expected = TestSample(
            test_id="a",
            revision_id="*",
            durations=(90.5, 7, 0.0, 60.0),
            verdicts=("timeout", "timeout", "fail", "pass"),
            censored=(True, False, False, False),
        )
        assert sample == expected
        assert all(type(d) is float for d in sample.durations)
        assert all(type(v) is Verdict for v in sample.verdicts)
        assert dataset.pooled_sample("a") == TestSample(
            "a", "*", (0.0, 7.0, 60.0, 90.5), ("fail", "timeout", "pass", "timeout"),
            (False, False, False, True),
        )
        # the public constructor keeps every check the columns skip
        with pytest.raises(ValueError, match="non-negative"):
            TestSample("a", "*", durations=(1.0, -0.5), verdicts=("pass", "pass"))
        with pytest.raises(ValueError, match="not a valid Verdict"):
            TestSample("a", "*", durations=(1.0,), verdicts=("skipped",))

    def test_columns_hold_the_rows_in_input_order(self):
        records = (
            record("a", "r2", minute=3, duration=5.0, verdict="timeout", interrupted=True),
            record("b", "r1", minute=1, duration=7.0, verdict="fail"),
            record("a", "r1", minute=2, duration=9.0, verdict="timeout"),
        )
        dataset = ExecutionDataset(records=records)
        assert dataset.tests == ("a", "b", "a")
        assert dataset.revisions == ("r2", "r1", "r1")
        assert dataset.started_at == tuple(r.started_at for r in records)
        assert dataset.durations == (5.0, 7.0, 9.0)
        assert dataset.verdicts == (Verdict.TIMEOUT, Verdict.FAIL, Verdict.TIMEOUT)
        assert dataset.interrupted == (True, False, False)
        assert dataset.censored == (True, False, False)
        assert list(dataset.rows()) == [
            (r.test_id, r.revision_id, r.started_at, r.duration, r.verdict, r.interrupted)
            for r in records
        ]

    def test_from_columns_equals_the_record_adapter(self):
        records = (
            record("a", "r1", minute=1, duration=4.0, verdict="pass"),
            record("a", "r1", minute=0, duration=6.0, verdict="timeout", interrupted=True),
        )
        columns = ExecutionDataset.from_columns(
            ["a", "a"],
            ["r1", "r1"],
            [r.started_at for r in records],
            [4.0, 6.0],
            [Verdict.PASS, Verdict.TIMEOUT],
            [False, True],
        )
        adapted = ExecutionDataset(records=records)
        assert columns == adapted
        assert hash(columns) == hash(adapted)
        assert columns.test_index == adapted.test_index == {"a": (1, 0)}
        assert columns.samples == adapted.samples
        assert columns.pooled_sample("a") == adapted.pooled_sample("a")

    def test_equality_compares_every_column(self):
        base = dataset_of({("a", "r1"): [(10, "pass"), (20, "fail")]})
        changed = ExecutionDataset(records=[*base.records[:1], record("a", "r1", 1, 20, "pass")])
        assert base == ExecutionDataset(records=base.records)
        assert base != changed

    def test_records_view_is_built_on_demand(self):
        dataset = ExecutionDataset.from_columns(
            ["a"], ["r1"], [EPOCH], [3.0], [Verdict.FAIL], [False]
        )
        assert "records" not in dataset.__dict__
        assert dataset.records == (record("a", "r1", 0, 3.0, "fail"),)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ExecutionDataset.from_columns(["a", "b"], ["r1"], [EPOCH], [1.0], [Verdict.PASS], [False])

    def test_adapter_rejects_unknown_verdict(self):
        with pytest.raises(ValueError, match="not a valid Verdict"):
            ExecutionDataset(records=[ExecutionRecord("a", "r1", EPOCH, 1.0, "skipped")])
