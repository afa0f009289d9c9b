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
runs, from the same kernel, so cross-validation sorts each test's runs
once. The whole-dataset totals (``compare_policies``) build one kernel per
(test, revision) sample and sort it only when some policy's timeout cuts
it or it has a censored run. CV rows and totals
share ``static_sweep``'s scorer and ``fsum`` average, so a static policy's
total is the sweep's point. Policies are ``model.TimeoutPolicy`` values;
``ingest`` reads and writes policy files, and this module touches no file.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .model import GRID_SECONDS, ExecutionDataset, TestSample
from .optimize import OptimizationConfig, _average, _SortedSample, optimize_timeout

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
    """Score baseline policies against a freshly fitted one, fold by fold,
    and fit every test on the whole dataset.

    For every fold, cost-optimal timeouts are computed from the other k - 1
    folds and evaluated (label ``"optimized"``) next to the given baseline
    policies on the held-out fold; every fold is evaluated exactly once.
    Held-out costs use empirical probabilities from the evaluated fold,
    whatever method fitted the timeouts. ``fitted_timeouts`` holds every
    test's whole-dataset timeout, as ``TimeoutOptimizer.fit`` gives it.

    Tests are visited one at a time, so one test's kernels are alive at
    once. Every test's kernel is built from its runs in duration order, so
    its natural runs are in the order every fold masks, and is sorted and
    scaled once. Each fold splits an included test's kernel into a held-out
    kernel, with the fold's censored runs, and a training ``_Difference``
    (full minus held-out) with the others; the whole-dataset fit then reads
    the same kernel. A test with fewer than k runs gets a kernel for its
    whole fit only.

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
    durations, censored, assignment = dataset.durations, dataset.censored, folds.assignment
    for test_id in test_ids:
        # Both stable sorts of the same durations in test_index order, so
        # this order is the kernel's sorted one, ties included.
        order = sorted(dataset.test_index[test_id], key=durations.__getitem__)
        kernel = _SortedSample.of(dataset, order, test_id)
        if test_id not in excluded:
            fold_of = [assignment[i] for i in order if not censored[i]]
            hung_fold_of = [assignment[i] for i in order if censored[i]]
            baseline_seconds = [baseline[test_id] for baseline in baselines]
            for fold, fold_totals in enumerate(totals):
                in_fold = [f == fold for f in fold_of]
                held_out, train = kernel.split(in_fold, hung_fold_of.count(fold))
                fitted = optimize_timeout(train, config).optimal_timeout * GRID_SECONDS
                fold_totals.add(held_out, baseline_seconds + [fitted], config)
            del held_out, train
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
