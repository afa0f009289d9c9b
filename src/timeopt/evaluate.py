"""Cross-validated evaluation of timeout policies.

Executions are split per test into k seeded folds. For each fold, the
optimizer is fitted on the other k - 1 folds and every policy is scored on
the held-out fold: flaky-timeout counts (durations strictly above the
policy's timeout) and average per-test cost with probabilities estimated
empirically from the held-out data. Folds evaluate independently and the
whole report is deterministic given (dataset, seed, config).
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import GRID_SECONDS, ExecutionDataset, TestSample, valid_minutes
from .optimize import OptimizationConfig, _SortedSample, optimize_timeout

POLICY_KINDS = ("original", "optimized", "static")
OPTIMIZED_POLICY = "optimized"


@dataclass(frozen=True)
class TimeoutPolicy:
    """Per-test timeout values in grid units, or one global static value."""

    kind: str
    values: Mapping[str, int] | None = None
    default: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        if self.values is None and self.default is None:
            raise ValueError("policy needs per-test values or a default")
        if self.values is not None and not all(map(valid_minutes, self.values.values())):
            raise ValueError("timeout values must be >= 1 and finite in seconds")
        if self.default is not None and not valid_minutes(self.default):
            raise ValueError("default timeout must be >= 1 and finite in seconds")

    @property
    def label(self) -> str:
        return self.name or self.kind

    @classmethod
    def static(cls, value: int, name: str | None = None) -> "TimeoutPolicy":
        return cls(kind="static", default=value, name=name)

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
        import statistics  # loads fractions and decimal; simulate never calls this

        return statistics.median(self.value_for(tid) for tid in test_ids)


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of execution indices into k folds, stratified per test."""

    k: int
    assignment: Mapping[int, int]
    excluded_tests: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class FoldPolicyResult:
    """Held-out score of one policy on one fold."""

    fold: int
    policy: str
    flaky_timeout_count: int
    average_cost: float


@dataclass(frozen=True)
class CvReport:
    """Per-fold, per-policy held-out scores plus mean reduction ratios.

    ``timeout_reduction[a][b]`` is the mean over folds of
    1 - count(a)/count(b): the share of policy b's held-out flaky timeouts
    that policy a avoids. Folds where b produced no timeouts are skipped;
    None means no fold was comparable. A policy against itself is 0.
    """

    k: int
    seed: int
    policies: tuple[str, ...]
    rows: tuple[FoldPolicyResult, ...]
    timeout_reduction: Mapping[str, Mapping[str, float | None]]
    excluded_tests: tuple[str, ...] = ()

    def row(self, fold: int, policy: str) -> FoldPolicyResult:
        for entry in self.rows:
            if entry.fold == fold and entry.policy == policy:
                return entry
        raise KeyError((fold, policy))


@dataclass(frozen=True, slots=True)
class PolicyTotals:
    """Whole-dataset (non cross-validated) totals for one policy."""

    policy: str
    flaky_timeout_count: int
    average_cost: float
    median_timeout: float


def count_timeouts(sample: TestSample, timeout_seconds: float) -> int:
    """Number of durations strictly greater than the timeout.

    Counts overruns even when the run was never actually interrupted.
    """
    return sum(1 for d in sample.durations if d > timeout_seconds)


def make_folds(dataset: ExecutionDataset, k: int, seed: int) -> FoldAssignment:
    """Assign execution indices to k folds, stratified per test.

    Each test's executions (pooled across revisions) are shuffled with the
    seed and split so per-test fold sizes differ by at most one, which
    guarantees every test has training data in every split. Tests with fewer
    than k executions are left out and listed in ``excluded_tests``.
    Deterministic given seed.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = random.Random(seed)
    assignment: dict[int, int] = {}
    excluded: list[str] = []
    for test_id, ordered in sorted(dataset.test_index.items()):
        indices = list(ordered)
        if len(indices) < k:
            excluded.append(test_id)
            continue
        rng.shuffle(indices)
        n = len(indices)
        base, remainder = divmod(n, k)
        cursor = 0
        for fold in range(k):
            size = base + (1 if fold < remainder else 0)
            for i in indices[cursor : cursor + size]:
                assignment[i] = fold
            cursor += size
    return FoldAssignment(k=k, assignment=assignment, excluded_tests=tuple(excluded))


def cross_validate(
    dataset: ExecutionDataset,
    policies: Sequence[TimeoutPolicy],
    config: OptimizationConfig,
    k: int = 5,
    seed: int = 0,
) -> CvReport:
    """Score baseline policies against a freshly fitted one, fold by fold.

    For every fold, cost-optimal timeouts are computed from the other k - 1
    folds and evaluated (label ``"optimized"``) next to the given baseline
    policies on the held-out fold; every fold is evaluated exactly once.
    Held-out costs use empirical probabilities from the evaluated fold,
    whatever method fitted the timeouts.

    Raises:
        ValueError: when a baseline policy misses a test, or a baseline is
            itself labeled "optimized".
    """
    folds = make_folds(dataset, k, seed)
    excluded = set(folds.excluded_tests)
    included_tests = [tid for tid in dataset.test_ids() if tid not in excluded]
    if not included_tests:
        raise ValueError("no test has enough executions for cross-validation")

    labels = [policy.label for policy in policies]
    if OPTIMIZED_POLICY in labels:
        raise ValueError(f"the label {OPTIMIZED_POLICY!r} is reserved for the fitted policy")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate policy labels: {labels}")
    baselines = [policy.seconds(included_tests) for policy in policies]

    # Each test's rows sorted by duration once (the kernel's own sort of a
    # sorted list is one linear pass); every fold filters that order.
    durations = dataset.durations
    by_test: list[tuple[str, _SortedSample, list[int]]] = []
    for test_id in included_tests:
        order = sorted(dataset.test_index[test_id], key=durations.__getitem__)
        kernel = _SortedSample([durations[i] for i in order], test_id)
        by_test.append((test_id, kernel, [folds.assignment[i] for i in order]))

    all_labels = labels + [OPTIMIZED_POLICY]
    rows: list[FoldPolicyResult] = []
    for fold in range(k):
        eval_samples: dict[str, _SortedSample] = {}
        fitted: dict[str, float] = {}
        for test_id, kernel, fold_of in by_test:
            held_out, train = kernel.split([f == fold for f in fold_of])
            eval_samples[test_id] = held_out
            fitted[test_id] = optimize_timeout(train, config).optimal_timeout * GRID_SECONDS

        for label, seconds in zip(all_labels, baselines + [fitted]):
            timeouts, average_cost = _score(eval_samples.items(), seconds, config)
            rows.append(
                FoldPolicyResult(
                    fold=fold,
                    policy=label,
                    flaky_timeout_count=timeouts,
                    average_cost=average_cost,
                )
            )

    counts: dict[tuple[int, str], int] = {
        (row.fold, row.policy): row.flaky_timeout_count for row in rows
    }
    reduction: dict[str, dict[str, float | None]] = {}
    for a in all_labels:
        reduction[a] = {}
        for b in all_labels:
            if a == b:
                reduction[a][b] = 0.0
                continue
            ratios = [
                1.0 - counts[(fold, a)] / counts[(fold, b)]
                for fold in range(k)
                if counts[(fold, b)] > 0
            ]
            reduction[a][b] = sum(ratios) / len(ratios) if ratios else None

    return CvReport(
        k=k,
        seed=seed,
        policies=tuple(all_labels),
        rows=tuple(rows),
        timeout_reduction=reduction,
        excluded_tests=folds.excluded_tests,
    )


def compare_policies(
    dataset: ExecutionDataset,
    policies: Sequence[TimeoutPolicy],
    config: OptimizationConfig,
) -> tuple[PolicyTotals, ...]:
    """Whole-dataset totals per policy: timeouts, average cost, median value.

    No cross-validation: each (test, revision) sample is scored at the
    policy's timeout for its test, with empirical probabilities, through one
    kernel per sample. A kernel is sorted only when some policy cuts its
    sample; below that, it scores the ``fsum`` mean with no overrun.

    Raises:
        ValueError: when a policy misses a test present in the dataset.
    """
    test_ids = dataset.test_ids()
    if not test_ids:
        raise ValueError("empty dataset")
    policy_seconds = [policy.seconds(test_ids) for policy in policies]

    durations = dataset.durations
    samples = [
        (test_id, _SortedSample([durations[i] for i in rows]))
        for (test_id, _), rows in dataset.sample_index.items()
    ]
    totals: list[PolicyTotals] = []
    for policy, seconds in zip(policies, policy_seconds):
        timeouts, average_cost = _score(samples, seconds, config)
        totals.append(
            PolicyTotals(
                policy=policy.label,
                flaky_timeout_count=timeouts,
                average_cost=average_cost,
                median_timeout=policy.median_value(test_ids),
            )
        )
    return tuple(totals)


def _score(
    samples: Iterable[tuple[str, _SortedSample]],
    seconds: Mapping[str, float],
    config: OptimizationConfig,
) -> tuple[int, float]:
    """(overruns, average empirical cost) of per-test timeouts over the
    samples' kernels."""
    overruns = 0
    costs: list[float] = []
    for test_id, kernel in samples:
        cost, over = kernel.empirical_cost(seconds[test_id], config)
        overruns += over
        costs.append(cost)
    return overruns, sum(costs) / len(costs)


def load_timeout_policy(
    path: str | Path, kind: str = "original", name: str | None = None
) -> TimeoutPolicy:
    """Read a two-column CSV (test_id, timeout_minutes) as a policy."""
    values: dict[str, int] = {}
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        try:
            rows = list(csv.reader(handle))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"malformed policy file: {exc}") from None
    if not rows or len(rows[0]) < 2:
        raise ValueError("malformed header: expected test_id,timeout_minutes")
    for row in rows[1:] if rows[0][0].strip() == "test_id" else rows:
        if len(row) < 2:
            raise ValueError(f"malformed policy row: {row!r}")
        values[row[0]] = int(row[1])
    return TimeoutPolicy(kind=kind, values=values, name=name)


def write_timeout_policy(policy: TimeoutPolicy, path: str | Path) -> None:
    """Write a per-test policy as a two-column CSV sorted by test id."""
    if policy.values is None:
        raise ValueError("cannot write a purely static policy as per-test CSV")
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["test_id", "timeout_minutes"])
        for test_id in sorted(policy.values):
            writer.writerow([test_id, policy.values[test_id]])
