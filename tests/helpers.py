"""Shared builders for compact test fixtures."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Iterable, Mapping, Sequence

import reference
from timeopt.evaluate import CvReport, FoldPolicyResult, make_folds
from timeopt.model import ExecutionDataset, ExecutionRecord, TestSample, TimeoutPolicy, Verdict
from timeopt.optimize import EMPIRICAL_ECDF, OptimizationConfig, optimize_timeout

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)

MINUTE = 60.0


def record(
    test_id: str = "t1",
    revision_id: str = "r1",
    minute: int = 0,
    duration: float = 60.0,
    verdict: str = "pass",
    interrupted: bool = False,
) -> ExecutionRecord:
    return ExecutionRecord(
        test_id=test_id,
        revision_id=revision_id,
        started_at=EPOCH + timedelta(minutes=minute),
        duration=float(duration),
        verdict=Verdict(verdict),
        interrupted=interrupted,
    )


def sample_of(
    durations: Sequence[float],
    verdicts: Sequence[str] | None = None,
    test_id: str = "t1",
    revision_id: str = "r1",
    censored: Sequence[bool] | None = None,
) -> TestSample:
    if verdicts is None:
        verdicts = ("pass",) * len(durations)
    return TestSample(
        test_id=test_id,
        revision_id=revision_id,
        durations=tuple(float(d) for d in durations),
        verdicts=tuple(Verdict(v) for v in verdicts),
        censored=censored,
    )


def minutes_sample(minutes: Sequence[float], **kwargs) -> TestSample:
    return sample_of([m * MINUTE for m in minutes], **kwargs)


def dataset_of(
    runs: Mapping[tuple[str, str], Iterable[tuple[float, str]]]
) -> ExecutionDataset:
    """Dataset from {(test, revision): [(duration_seconds, verdict), ...]}."""
    records: list[ExecutionRecord] = []
    minute = 0
    for (test_id, revision_id), entries in runs.items():
        for duration, verdict in entries:
            records.append(record(test_id, revision_id, minute, duration, verdict))
            minute += 1
    return ExecutionDataset(records=tuple(records))


def verdict_dataset(
    verdicts_by_test: Mapping[str, Sequence[str]], revision_id: str = "r1"
) -> ExecutionDataset:
    """Dataset where only the verdict sequence per test matters."""
    return dataset_of(
        {
            (test_id, revision_id): [(60.0, v) for v in verdicts]
            for test_id, verdicts in verdicts_by_test.items()
        }
    )


def sweep_fixture_dataset() -> ExecutionDataset:
    """Fleet whose static-sweep cost curve bottoms out at 115 minutes.

    One shaping test mixes a fast bulk, straggler pairs up to 115 minutes,
    and five far outliers whose truncated cost keeps growing past 115; two
    constant-duration tests only add a flat offset.
    """
    shaping = [(10 * MINUTE, "pass")] * 79
    for straggler in (78, 85, 90, 95, 100, 105, 110, 115):
        shaping += [(straggler * MINUTE, "pass")] * 2
    shaping += [(1000 * MINUTE, "pass")] * 5
    return dataset_of(
        {
            ("shaping", "r1"): shaping,
            ("fast", "r1"): [(5 * MINUTE, "pass")] * 20,
            ("quick", "r1"): [(2 * MINUTE, "pass")] * 20,
        }
    )


def reference_cross_validate(
    dataset: ExecutionDataset,
    policies: Sequence[TimeoutPolicy],
    config: OptimizationConfig,
    k: int,
    seed: int,
) -> CvReport:
    """``cross_validate`` the straightforward way: per fold and test, the
    training and held-out rows go through ``subsample``, the training sample
    is fitted by ``optimize_timeout``, and every policy is scored with the
    ``fsum`` reference cost and overrun count of ``reference``. Each test's
    whole-dataset timeout is ``optimize_timeout`` of its ``pooled_sample``."""
    folds = make_folds(dataset, k, seed)
    included = [tid for tid in dataset.test_ids() if tid not in folds.excluded_tests]
    empirical = OptimizationConfig(
        config.rerun_count, config.breakage_probability, EMPIRICAL_ECDF, config.min_samples,
        config.fallback_timeout,
    )
    labels = [policy.label for policy in policies] + ["optimized"]
    rows = []
    for fold in range(k):
        held_out: dict[str, TestSample] = {}
        fitted: dict[str, float] = {}
        for test_id in included:
            indices = dataset.test_index[test_id]
            train = [i for i in indices if folds.assignment[i] != fold]
            held = [i for i in indices if folds.assignment[i] == fold]
            held_out[test_id] = dataset.subsample(test_id, "*", held)
            fit = optimize_timeout(dataset.subsample(test_id, "*", train), config)
            fitted[test_id] = fit.optimal_timeout * MINUTE
        every_seconds = [policy.seconds(included) for policy in policies] + [fitted]
        for label, seconds in zip(labels, every_seconds):
            costs = [
                reference.expected_cost(s, seconds[tid], empirical) for tid, s in held_out.items()
            ]
            count = sum(reference.count_timeouts(s, seconds[tid]) for tid, s in held_out.items())
            rows.append(FoldPolicyResult(fold, label, count, sum(costs) / len(costs)))
    counts = {(row.fold, row.policy): row.flaky_timeout_count for row in rows}
    reduction: dict[str, dict[str, float | None]] = {}
    for a in labels:
        reduction[a] = {}
        for b in labels:
            ratios = [1.0 - counts[f, a] / counts[f, b] for f in range(k) if counts[f, b] > 0]
            reduction[a][b] = 0.0 if a == b else (sum(ratios) / len(ratios) if ratios else None)
    fitted_timeouts = {
        tid: optimize_timeout(dataset.pooled_sample(tid), config).optimal_timeout
        for tid in dataset.test_ids()
    }
    return CvReport(
        k, seed, tuple(labels), tuple(rows), reduction, fitted_timeouts, folds.excluded_tests
    )
