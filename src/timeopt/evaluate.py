"""Cross-validated evaluation of timeout policies.

Executions are split per test into k seeded folds. For each fold, the
optimizer is fitted on the other k - 1 folds and every policy is scored on
the held-out fold: flaky-timeout counts (natural durations strictly above
the policy's timeout) and average per-test cost with probabilities
estimated empirically from the held-out data. A censored run is a hang: it
times out at every timeout and is charged as such in the cost, but a hang
is a blocked run, not a flaky failure, so no flaky-timeout count includes
it (the rerun simulator's timeout events count both). Folds evaluate
independently and the whole report is deterministic given (dataset, seed,
config). The report also carries each test's timeout fitted on all its
runs, from the kernel that its folds' sorted parts merge into, so
cross-validation sorts each fold's runs once and each test's once, as a
merge. The whole-dataset totals (``compare_policies``) build one kernel per
(test, revision) sample and sort it only when some policy's timeout cuts
it or it has a censored run. CV rows and totals
share ``static_sweep``'s scorer and ``fsum`` average, so a static policy's
total is the sweep's point. Policies are ``model.TimeoutPolicy`` values;
``ingest`` reads and writes policy files, and this module touches no file.
"""

from __future__ import annotations

import random
from collections import abc
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .model import GRID_SECONDS, ExecutionDataset, OptimizationConfig, TestSample
from .optimize import _average, _SortedSample, optimize_timeout

if TYPE_CHECKING:
    from .model import TimeoutPolicy

OPTIMIZED_POLICY = "optimized"


class FoldAssignment(NamedTuple):
    """Partition of execution indices into k folds, stratified per test."""

    k: int
    assignment: Mapping[int, int]
    excluded_tests: tuple[str, ...] = ()


class FoldPolicyResult(NamedTuple):
    """Held-out score of one policy on one fold."""

    fold: int
    policy: str
    flaky_timeout_count: int
    average_cost: float


class CvReport(NamedTuple):
    """Per-fold, per-policy held-out scores plus mean reduction ratios, and
    the whole-dataset fit.

    ``timeout_reduction[a][b]`` is the mean over folds of
    1 - count(a)/count(b): the share of policy b's held-out flaky timeouts
    that policy a avoids. Folds where b produced no timeouts are skipped;
    None means no fold was comparable. A policy against itself is 0.
    ``fitted_timeouts`` maps every test, excluded ones too, to its timeout
    (grid units) fitted on all its runs, equal to ``TimeoutOptimizer.fit``'s
    ``timeouts_``.
    """

    k: int
    seed: int
    policies: tuple[str, ...]
    rows: tuple[FoldPolicyResult, ...]
    timeout_reduction: Mapping[str, Mapping[str, float | None]]
    fitted_timeouts: Mapping[str, int]
    excluded_tests: tuple[str, ...] = ()

    def row(self, fold: int, policy: str) -> FoldPolicyResult:
        for entry in self.rows:
            if entry.fold == fold and entry.policy == policy:
                return entry
        raise KeyError((fold, policy))


class PolicyTotals(NamedTuple):
    """Whole-dataset (non cross-validated) totals for one policy."""

    policy: str
    flaky_timeout_count: int
    average_cost: float
    median_timeout: float


def count_timeouts(sample: TestSample, timeout_seconds: float) -> int:
    """Number of runs that time out: every censored run, and every natural
    duration strictly greater than the timeout.

    Counts overruns even when the run was never actually interrupted; an
    empty sample has none.
    """
    return _SortedSample.of(sample, range(sample.n)).above(timeout_seconds)


def make_folds(dataset: ExecutionDataset, k: int, seed: int) -> FoldAssignment:
    """Assign execution indices to k folds, stratified per test.

    Each test's executions (pooled across revisions) are shuffled with the
    seed and split so per-test fold sizes differ by at most one, which
    guarantees every test has training data in every split. Tests with fewer
    than k executions are left out and listed in ``excluded_tests``.
    Deterministic given seed. Each test's folds are kept as k row lists, its
    parts; ``assignment`` builds the row → fold mapping from them when read.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = random.Random(seed)
    parts: dict[str, tuple[list[int], ...]] = {}
    excluded: list[str] = []
    for test_id, ordered in sorted(dataset.test_index.items()):
        n = len(ordered)
        if n < k:
            excluded.append(test_id)
            continue
        indices = list(ordered)
        rng.shuffle(indices)
        base, remainder = divmod(n, k)
        cuts = [fold * base + min(fold, remainder) for fold in range(k + 1)]
        parts[test_id] = tuple(indices[a:b] for a, b in zip(cuts, cuts[1:]))
    return FoldAssignment(k=k, assignment=_FoldMap(parts), excluded_tests=tuple(excluded))


class _FoldMap(abc.Mapping):
    """``make_folds``' row → fold mapping over its per-test ``parts``, each
    test's k row lists in fold order. The dict is built on the first read and
    kept; ``cross_validate`` reads only the parts."""

    def __init__(self, parts: Mapping[str, tuple[list[int], ...]]) -> None:
        self.parts = parts

    @cached_property
    def _folds(self) -> dict[int, int]:
        return {
            i: fold
            for test_parts in self.parts.values()
            for fold, rows in enumerate(test_parts)
            for i in rows
        }

    def __getitem__(self, row: int) -> int:
        return self._folds[row]

    def __iter__(self) -> Iterator[int]:
        return iter(self._folds)

    def __len__(self) -> int:
        return len(self._folds)

    def __repr__(self) -> str:
        return repr(self._folds)


def cross_validate(
    dataset: ExecutionDataset,
    policies: Sequence[TimeoutPolicy],
    config: OptimizationConfig,
    k: int = 5,
    seed: int = 0,
) -> CvReport:
    """Score baseline policies against a freshly fitted one, fold by fold,
    and fit every test on the whole dataset.

    For every fold, cost-optimal timeouts are computed from the other k - 1
    folds and evaluated (label ``"optimized"``) next to the given baseline
    policies on the held-out fold; every fold is evaluated exactly once.
    Held-out costs use empirical probabilities from the evaluated fold,
    whatever method fitted the timeouts. ``fitted_timeouts`` holds every
    test's whole-dataset timeout, as ``TimeoutOptimizer.fit`` gives it.

    Tests are visited one at a time, so one test's kernels are alive at
    once. An included test's natural runs are sorted once per fold, from
    ``make_folds``' parts, and its kernel merges the sorted parts and is
    scaled once (``_SortedSample.of_parts``). Each fold's held-out kernel,
    with the fold's censored runs, is born sorted from its part over the
    kernel's denominator, and its training kernel is a ``_Difference`` (full
    minus held-out) over the other parts merged; the whole-dataset fit then
    reads the same kernel. A test with fewer than k runs gets a kernel for
    its whole fit only.

    Raises:
        ValueError: when a baseline policy misses a test, or a baseline is
            itself labeled "optimized".
    """
    folds = make_folds(dataset, k, seed)
    excluded = set(folds.excluded_tests)
    test_ids = dataset.test_ids()
    included_tests = [tid for tid in test_ids if tid not in excluded]
    if not included_tests:
        raise ValueError("no test has enough executions for cross-validation")

    labels = [policy.label for policy in policies]
    if OPTIMIZED_POLICY in labels:
        raise ValueError(f"the label {OPTIMIZED_POLICY!r} is reserved for the fitted policy")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate policy labels: {labels}")
    baselines = [policy.seconds(included_tests) for policy in policies]

    all_labels = labels + [OPTIMIZED_POLICY]
    # per fold and policy: held-out overruns, and each included test's cost in test order
    totals = [_Totals(len(all_labels)) for _ in range(k)]
    fitted_timeouts: dict[str, int] = {}
    parts = folds.assignment.parts
    for test_id in test_ids:
        if test_id in excluded:
            kernel = _SortedSample.of(dataset, dataset.test_index[test_id], test_id)
        else:
            kernel, pieces = _SortedSample.of_parts(dataset, parts[test_id], test_id)
            baseline_seconds = [baseline[test_id] for baseline in baselines]
            for fold, fold_totals in enumerate(totals):
                held_out, train = kernel.fold(pieces, fold)
                fitted = optimize_timeout(train, config).optimal_timeout * GRID_SECONDS
                fold_totals.add(held_out, baseline_seconds + [fitted], config)
            del held_out, train, pieces
        fitted_timeouts[test_id] = optimize_timeout(kernel, config).optimal_timeout
        del kernel  # freed before the next test's is built

    rows = [
        FoldPolicyResult(fold, label, *result)
        for fold, fold_totals in enumerate(totals)
        for label, result in zip(all_labels, fold_totals.results())
    ]
    counts = {(row.fold, row.policy): row.flaky_timeout_count for row in rows}
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
        fitted_timeouts=fitted_timeouts,
        excluded_tests=folds.excluded_tests,
    )


def compare_policies(
    dataset: ExecutionDataset,
    policies: Sequence[TimeoutPolicy],
    config: OptimizationConfig,
) -> tuple[PolicyTotals, ...]:
    """Whole-dataset totals per policy: flaky timeouts, average cost, median value.

    No cross-validation: each (test, revision) sample is scored at every
    policy's timeout for its test, with empirical probabilities, through one
    kernel, freed before the next sample's is built. A kernel is sorted only
    when some policy cuts its sample or it has a censored run; otherwise it
    scores the ``fsum`` mean with no overrun.

    Raises:
        ValueError: when a policy misses a test present in the dataset.
    """
    test_ids = dataset.test_ids()
    if not test_ids:
        raise ValueError("empty dataset")
    policy_seconds = [policy.seconds(test_ids) for policy in policies]
    seconds = {tid: [timeouts[tid] for timeouts in policy_seconds] for tid in test_ids}

    totals = _Totals(len(policies))
    for (test_id, _), rows in dataset.sample_index.items():
        totals.add(_SortedSample.of(dataset, rows), seconds[test_id], config)
    return tuple(
        PolicyTotals(policy.label, *result, policy.median_value(test_ids))
        for policy, result in zip(policies, totals.results())
    )


class _Totals:
    """Per policy, the flaky timeouts (natural overruns) and the empirical
    costs of the samples scored so far, the costs in scoring order."""

    def __init__(self, policies: int) -> None:
        self.overruns = [0] * policies
        self.costs: list[list[float]] = [[] for _ in range(policies)]

    def add(
        self, kernel: _SortedSample, seconds: Sequence[float], config: OptimizationConfig
    ) -> None:
        """Add the kernel's natural overruns and empirical cost at each
        policy's timeout, ``seconds[i]``, to that policy's totals."""
        for i, timeout in enumerate(seconds):
            cost, over = kernel.empirical_cost(timeout, config)
            self.overruns[i] += over - kernel.c
            self.costs[i].append(cost)

    def results(self) -> list[tuple[int, float]]:
        """(overruns, average cost) per policy, the average ``static_sweep``'s."""
        return [(over, _average(costs)) for over, costs in zip(self.overruns, self.costs)]
