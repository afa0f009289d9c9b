"""Property tests: the sorted-sample kernel, the candidate search, the
sweep, the grouping index, flakiness, the replay and the file round trip.

The kernel, its statistics, the public adapters over it and the static
sweep are checked bit for bit against the ``math.fsum`` definitions of
``reference`` (which shares no code with the program), the candidate
search against the brute-force scan of the whole grid, scored with those
definitions, the Tolhurst bound for monotonicity and a positive floor, the
grouping index against the brute-force regroup that ``ExecutionDataset``
and ``make_folds`` used before the index existed, the folds against their
size rule, every kernel's censored count against the rows it was built
from, the flakiness report, evolution and timeout share against the
reference ``is_flaky`` of every prefix and ``failure_rate`` of each
regrouped sample, the rerun
simulator against a record-by-record replay, a write and reload, in
both file formats, against the record adapter, the JSONL writer's
bytes against ``json.dumps`` of each row, the loader's writer-line
and typed paths against ``json.loads`` of each line and its full row check,
every number two commands print for one input against each other, the
kernel against the rerun simulator's outcome table, and mutated policy,
timeout-change and execution files against their loaders and commands.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
import tempfile
from contextlib import nullcontext
from pathlib import Path
from datetime import timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from helpers import EPOCH, MINUTE, dataset_of, record, sample_of
from timeopt import cli, evaluate, flakiness, ingest, optimize
from timeopt.ingest import (
    _record_from_row,
    _typed_values,
    format_timestamp,
    load_executions,
    load_timeout_policy,
    record_to_row,
    write_executions,
    write_timeout_policy,
)
from timeopt.evaluate import compare_policies, count_timeouts, cross_validate, make_folds
from timeopt.flakiness import (
    FlakinessReport, flakiness_evolution, flakiness_report, timeout_failure_share,
)
from timeopt.model import (
    DURATION_LIMIT, ExecutionDataset, ExecutionRecord, SampleStats, TestSample, TimeoutPolicy,
    Verdict,
)
from timeopt.optimize import (
    EMPIRICAL_ECDF,
    PROBABILITY_METHODS,
    OptimizationConfig,
    TimeoutOptimizer,
    _kernel_of,
    _SortedSample,
    _steps,
    _walk,
    optimize_timeout,
    search_grid,
    static_sweep,
    tolhurst_bound,
)
from timeopt.simulate import SimulationReport, TestSimulation, _outcomes, simulate_rerun_policy

# Every duration a sample may hold, the limit itself included; subnormals,
# zero and non-integer values are all drawn.
durations_st = st.one_of(
    st.floats(min_value=0.0, max_value=DURATION_LIMIT), st.just(DURATION_LIMIT)
)
samples_st = st.lists(durations_st, min_size=1, max_size=50)
PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(durations=samples_st, data=st.data())
def test_kernel_is_bit_equal_to_fsum_reference(durations, data):
    sample = sample_of(durations)
    kernel = _SortedSample(sample.durations)
    thresholds = data.draw(
        st.lists(st.one_of(durations_st, st.sampled_from(durations)), min_size=1, max_size=10)
    )
    for t in thresholds:
        tm, over = kernel.at(t)
        assert tm == reference.truncated_mean(sample, t)
        assert over / sample.n == reference.empirical_exceedance(sample, t)
        assert over == reference.count_timeouts(sample, t)


def reference_answers(sample: TestSample, thresholds) -> tuple[list, SampleStats]:
    """(truncated mean, overruns) at each threshold and the statistics of a
    non-empty sample, from the ``fsum`` references."""
    answers = [(reference.truncated_mean(sample, t), reference.count_timeouts(sample, t))
               for t in thresholds]
    return answers, reference.sample_stats(sample)


def kernel_answers(kernel: _SortedSample, thresholds) -> tuple[list, SampleStats]:
    return [kernel.at(t) for t in thresholds], kernel.stats


@PROPERTY
@given(durations=samples_st, data=st.data())
def test_kernel_answers_do_not_depend_on_threshold_order(durations, data):
    # Thresholds at or above the max leave a kernel unsorted; the first one
    # below sorts it. Either way, in any order, the answers are the fsum
    # references, and so are the statistics, read before or after. An
    # infinite threshold saturates a sorted kernel as it does an unsorted one.
    sample = sample_of(durations)
    top = max(sample.durations)
    drawn = data.draw(st.lists(st.one_of(durations_st, st.sampled_from(durations)), max_size=8))
    high = [top, math.inf] + [t for t in drawn if t >= top]
    low = [t for t in drawn if t < top]
    for thresholds in (high + low, low + high):
        expected_at, expected_stats = reference_answers(sample, thresholds)
        stats_first = _SortedSample(durations)
        assert kernel_answers(stats_first, [])[1] == expected_stats
        assert kernel_answers(stats_first, thresholds) == (expected_at, expected_stats)
        assert kernel_answers(_SortedSample(durations), thresholds) == (
            expected_at,
            expected_stats,
        )


@PROPERTY
@given(durations=samples_st, data=st.data())
def test_fold_kernels_equal_the_kernels_of_their_rows(durations, data):
    # Runs, some censored, are dealt into k parts, as make_folds deals a
    # test's shuffled rows; each fold's held-out kernel and training kernel
    # answer as the kernel built from its rows, with its sorted durations, and
    # as the fsum references where a run is natural.
    n = len(durations)
    censored = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    k = data.draw(st.integers(2, 5))
    fold_of = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    thresholds = data.draw(
        st.lists(st.one_of(durations_st, st.sampled_from(durations)), min_size=1, max_size=6)
    )
    runs = sample_of(durations, censored=censored)
    parts = [[i for i in range(n) if fold_of[i] == fold] for fold in range(k)]
    kernel, pieces = _SortedSample.of_parts(runs, parts)
    assert (kernel.n, kernel.c) == (n, sum(censored))
    for fold in range(k):
        others = [i for i in range(n) if fold_of[i] != fold]
        for part, rows in zip(kernel.fold(pieces, fold), (parts[fold], others)):
            own = _SortedSample.of(runs, rows)
            assert (part.n, part.c) == (own.n, own.c)
            assert part.ordered == sorted(own.ordered)
            if not rows:
                continue
            answers = [(part.at(t), part.above(t)) for t in thresholds]
            assert answers == [(own.at(t), own.above(t)) for t in thresholds]
            subsample = sample_of([durations[i] for i in rows], censored=[censored[i] for i in rows])
            assert [at for at, _ in answers] == [
                (reference.truncated_mean(subsample, t), reference.count_timeouts(subsample, t))
                for t in thresholds
            ]
            if part.n_nat:
                assert part.stats == own.stats == reference.sample_stats(subsample)


def outcome(function, *args):
    """A call's value, or the type and message of its ValueError or OverflowError."""
    try:
        return function(*args)
    except (ValueError, OverflowError) as error:
        return type(error), str(error)


def assert_as_reference(module, name, *args):
    """``module.name`` gives the value of ``reference.name``, or raises its error."""
    assert outcome(getattr(module, name), *args) == outcome(getattr(reference, name), *args), name


config_st = st.builds(
    OptimizationConfig,
    rerun_count=st.integers(0, 4),
    breakage_probability=st.sampled_from([0.0, 0.01]),
    probability_method=st.sampled_from(PROBABILITY_METHODS),
)
verdicts_st = st.lists(st.sampled_from([*Verdict, *(v.value for v in Verdict)]), max_size=12)


@PROPERTY
@given(
    durations=st.lists(durations_st, max_size=50),
    data=st.data(),
    config=config_st,
    verdicts=verdicts_st,
)
def test_public_adapters_equal_the_reference(durations, data, config, verdicts):
    # Each public name is an adapter over the kernel or the verdict tally: it
    # answers the reference's value, or raises its error, on every input the
    # sample and verdict types accept, censored runs (hangs) among them.
    n = len(durations)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    hung = data.draw(st.one_of(st.just([False] * n), flags))
    sample = sample_of(durations, test_id="x", censored=hung)
    threshold_st = st.one_of(durations_st, st.sampled_from([0.0, -1.0, math.inf, *durations]))
    for t in data.draw(st.lists(threshold_st, min_size=1, max_size=6)):
        assert_as_reference(optimize, "truncated_mean", sample, t)
        assert_as_reference(optimize, "empirical_exceedance", sample, t)
        assert_as_reference(optimize, "timeout_probability", sample, t, config)
        assert_as_reference(optimize, "expected_cost", sample, t, config)
        assert_as_reference(evaluate, "count_timeouts", sample, t)
    assert_as_reference(optimize, "sample_stats", sample)
    assert_as_reference(flakiness, "is_flaky", verdicts)
    assert_as_reference(flakiness, "failure_rate", verdicts)


@PROPERTY
@given(durations=samples_st, thresholds=st.lists(durations_st, min_size=2, max_size=20))
def test_kernel_is_monotone_and_bounded_by_the_mean(durations, thresholds):
    kernel = _SortedSample(durations)
    mean = math.fsum(durations) / len(durations)
    curve = [kernel.at(t) for t in sorted(thresholds)]
    for (tm_a, over_a), (tm_b, over_b) in zip(curve, curve[1:]):
        assert tm_a <= tm_b
        assert over_a >= over_b
    assert all(tm <= mean for tm, _ in curve)


def brute_force_argmin(sample: TestSample, config: OptimizationConfig) -> tuple[int, float]:
    """Criterion 4's naive argmin, scored with the fsum reference cost."""
    stats = reference.sample_stats(sample)
    lower = max(1, math.ceil(stats.mean / MINUTE))
    upper = max(lower, math.ceil(2 * stats.max / MINUTE))
    best_t, best_cost = None, None
    for t_units in range(lower, upper + 1):
        cost = reference.expected_cost(sample, t_units * MINUTE, config)
        if best_cost is None or cost < best_cost:
            best_t, best_cost = t_units, cost
    return best_t, best_cost


def with_hangs(durations: list[float], hung: list[float]) -> TestSample:
    """A sample of natural runs of ``durations`` and censored runs recorded at ``hung``."""
    return sample_of(durations + hung, censored=[False] * len(durations) + [True] * len(hung))


# No hang, or 1-30 censored runs whose recorded durations no rule reads.
hangs_st = st.one_of(
    st.just([]), st.lists(st.floats(min_value=0.0, max_value=3600.0), min_size=1, max_size=30)
)


@PROPERTY
@given(
    durations=st.lists(st.floats(min_value=0.0, max_value=3600.0), min_size=2, max_size=60),
    method=st.sampled_from(PROBABILITY_METHODS),
    reruns=st.integers(min_value=0, max_value=5),
    breakage=st.sampled_from([0.0, 0.001, 0.01]),
    hung=hangs_st,
)
def test_optimizer_equals_brute_force_argmin(durations, method, reruns, breakage, hung):
    config = OptimizationConfig(
        rerun_count=reruns,
        breakage_probability=breakage,
        probability_method=method,
        min_samples=2,
    )
    sample = with_hangs(durations, hung)
    result = optimize_timeout(sample, config)
    assert (result.optimal_timeout, result.expected_cost_at_optimum) == brute_force_argmin(
        sample, config
    )


def tolhurst_thresholds(durations: list[float]) -> list[float]:
    """Seconds where the exact Tolhurst bound steps: lam = 1, then lam_J."""
    stats = reference.sample_stats(sample_of(durations))
    n, thresholds = stats.n, [stats.mean + stats.q_n]
    for j in range(2, (n + 1) // 2 + 1):
        k_sq = (n + 1) / j - 1
        thresholds.append(stats.mean + stats.q_n * math.sqrt(k_sq * (n - 1) / (n - k_sq)))
    return thresholds


@st.composite
def candidate_case_st(draw) -> list[float]:
    """2-300 durations of up to 40 minutes: anywhere, on grid points, one ulp
    above them, all equal, or shifted so that a Tolhurst step threshold
    lands on a grid point or one ulp to either side of it."""
    n = draw(st.one_of(st.integers(2, 8), st.integers(2, 300)))
    on_grid = st.integers(0, 40).map(lambda u: u * MINUTE)
    duration_st = st.one_of(
        st.floats(min_value=0.0, max_value=40 * MINUTE),
        on_grid,
        on_grid.map(lambda d: math.nextafter(d, math.inf)),
    )
    shape = draw(st.sampled_from(["zero spread", "as drawn", "shifted", "shifted"]))
    if shape == "zero spread":
        return [draw(duration_st)] * n
    durations = draw(st.lists(duration_st, min_size=n, max_size=n))
    if shape == "shifted":
        nudge = draw(st.sampled_from([-math.inf, 0.0, math.inf]))
        last = len(tolhurst_thresholds(durations)) - 1
        j = draw(st.one_of(st.sampled_from([0, last]), st.integers(0, last)))
        for _ in range(3):  # the shift moves the mean, and so the threshold
            threshold = tolhurst_thresholds(durations)[j]
            target = math.ceil(threshold / MINUTE) * MINUTE
            if nudge:
                target = math.nextafter(target, nudge)
            durations = [max(0.0, d + (target - threshold)) for d in durations]
    return durations


@PROPERTY
@given(
    durations=candidate_case_st(),
    method=st.sampled_from(PROBABILITY_METHODS),
    reruns=st.integers(0, 5),
    breakage=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
    hung=hangs_st,
)
def test_candidate_search_equals_brute_force_argmin(durations, method, reruns, breakage, hung):
    # With hangs, p and tm never fall as t grows, so the walk's stop and the
    # raised floor stay exact: the search is the exhaustive argmin.
    config = OptimizationConfig(
        rerun_count=reruns,
        breakage_probability=breakage,
        probability_method=method,
        min_samples=2,
    )
    sample = with_hangs(durations, hung)
    result = optimize_timeout(sample, config)
    assert (result.optimal_timeout, result.expected_cost_at_optimum) == brute_force_argmin(
        sample, config
    )
    # The walk yields lower and exactly the grid points where p changes,
    # with p there, from the top down.
    lower, upper = result.search_range
    walk = _walk(_steps(_kernel_of(sample), method), lower, upper)
    grid = range(lower, upper + 1)
    p = [reference.timeout_probability(sample, u * MINUTE, config) for u in grid]
    steps = [lower] + [lower + i for i in range(1, len(p)) if p[i] != p[i - 1]]
    assert list(walk) == list(reversed([(u, p[u - lower]) for u in steps]))


@PROPERTY
@given(
    durations=candidate_case_st(),
    method=st.sampled_from(PROBABILITY_METHODS),
    hung=st.lists(st.floats(min_value=0.0, max_value=3600.0), max_size=3),
)
def test_steps_start_where_the_count_falls_below_x(durations, method, hung):
    """``_raised_floor`` asks an estimator's steps where the count behind p
    falls below any x, which for the Tolhurst bound can lie far past the
    search grid: ``start(x)`` is the least unit whose count is below x, for
    every x from 2 to ``top + 1``, and x = 1 where some count is 0. On the
    grid, ``terms`` maps the count to the reference p."""
    sample = with_hangs(durations, hung)
    kernel = _kernel_of(sample)
    steps = _steps(kernel, method)

    def count(unit: int) -> int:
        return steps.count(unit * MINUTE)

    for x in range(1 if steps.count(math.inf) == 0 else 2, steps.top + 2):
        start = steps.start(x)
        assert count(start) < x
        assert start == 0 or count(start - 1) >= x
    base, step, d = steps.terms
    config = OptimizationConfig(probability_method=method)
    for unit in range(1, search_grid(kernel.stats)[1] + 1):
        p = reference.timeout_probability(sample, unit * MINUTE, config)
        assert (base + step * count(unit)) / d == p


@st.composite
def near_equal_durations_st(draw) -> list[float]:
    """2-60 durations that are all equal, or equal but for a few one ulp
    above: a spread tiny beside the mean, so that lam grows huge."""
    base = draw(st.floats(min_value=0.0, max_value=1e6))
    equal, above = draw(st.integers(2, 60)), draw(st.integers(0, 3))
    return [base] * equal + [math.nextafter(base, math.inf)] * above


@PROPERTY
@given(
    durations=st.one_of(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=60),
        near_equal_durations_st(),
    ),
    thresholds=st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=2e6), durations_st, st.just(math.inf)),
        min_size=2,
        max_size=30,
    ),
)
def test_tolhurst_bound_never_rises_and_is_positive_with_spread(durations, thresholds):
    stats = reference.sample_stats(sample_of(durations))
    bounds = [tolhurst_bound(stats, t) for t in sorted(thresholds)]
    assert all(b <= a for a, b in zip(bounds, bounds[1:]))
    if stats.q_n > 0:
        assert min(bounds) >= 1 / (stats.n + 1)


@PROPERTY
@given(durations=st.lists(durations_st, min_size=1, max_size=50))
def test_kernel_stats_equal_sample_stats(durations):
    assert _SortedSample(durations).stats == reference.sample_stats(sample_of(durations))


@st.composite
def sweep_case_st(draw) -> tuple[tuple[int, int], list[list[float]], list[int]]:
    """A sweep range, 1-8 samples of 1-6 durations each, and 0-2 hangs
    (censored runs) per sample.

    Durations sit on grid points of the range and just beyond it, one ulp
    above them, or anywhere from 0 to one point past the range. A sample
    with a hang never saturates, so it is scored past its natural max too.
    """
    lo = draw(st.integers(1, 5))
    hi = draw(st.integers(lo + 1, lo + 10))
    on_grid = st.integers(lo - 1, hi + 1).map(lambda u: u * MINUTE)
    duration_st = st.one_of(
        on_grid,
        on_grid.map(lambda d: math.nextafter(d, math.inf)),
        st.floats(min_value=0.0, max_value=(hi + 1) * MINUTE),
    )
    samples = draw(
        st.lists(st.lists(duration_st, min_size=1, max_size=6), min_size=1, max_size=8)
    )
    hangs = draw(st.lists(st.integers(0, 2), min_size=len(samples), max_size=len(samples)))
    return (lo, hi), samples, hangs


@PROPERTY
@given(case=sweep_case_st(), m=st.integers(0, 4), pb=st.sampled_from([0.0, 0.01]))
def test_sweep_is_bit_equal_to_fsum_reference(case, m, pb):
    (lo, hi), durations, hangs = case
    runs = [(i, d, "pass") for i, ds in enumerate(durations) for d in ds]
    runs += [(i, (hi + 1) * MINUTE, "timeout") for i, h in enumerate(hangs) for _ in range(h)]
    dataset = ExecutionDataset(records=tuple(
        record(f"t{i}", "r1", minute, d, verdict, interrupted=verdict == "timeout")
        for minute, (i, d, verdict) in enumerate(runs)
    ))
    config = OptimizationConfig(
        rerun_count=m, breakage_probability=pb, probability_method=EMPIRICAL_ECDF
    )
    result = static_sweep(dataset, (lo, hi), config)
    samples = list(dataset.samples.values())
    n = len(samples)
    expected = [
        (t, math.fsum(reference.expected_cost(s, t * MINUTE, config) for s in samples) / n)
        for t in range(lo, hi + 1)
    ]
    assert list(result.curve.points) == expected
    costs = [cost for _, cost in expected]
    first_minimum = costs.index(min(costs))
    assert result.optimal_timeout == lo + first_minimum
    assert result.average_cost_at_optimum == costs[first_minimum]


record_st = st.builds(
    ExecutionRecord,
    test_id=st.sampled_from("abcd"),
    revision_id=st.sampled_from(["r1", "r2", "r3"]),
    started_at=st.integers(0, 5).map(lambda minute: EPOCH + timedelta(minutes=minute)),
    duration=st.floats(min_value=0.0, max_value=1e4),
    verdict=st.sampled_from(list(Verdict)),
    interrupted=st.booleans(),
)
# Records of a few tests and revisions, in shuffled order, many sharing a
# start time.
records_st = st.lists(record_st, max_size=40).flatmap(st.permutations).map(tuple)


def regroup(dataset: ExecutionDataset, keep) -> list[tuple[str, str, list[int]]]:
    """(test, revision, indices) per group of ``keep(record)``, by (started_at, index)."""
    groups: dict[tuple[str, str], list[tuple[object, int]]] = {}
    for i, rec in enumerate(dataset.records):
        groups.setdefault(keep(rec), []).append((rec.started_at, i))
    return [(*key, [i for _, i in sorted(groups[key])]) for key in sorted(groups)]


def as_sample(dataset: ExecutionDataset, test_id: str, revision_id: str, indices) -> TestSample:
    ordered = [dataset.records[i] for i in indices]
    return TestSample(
        test_id=test_id,
        revision_id=revision_id,
        durations=tuple(r.duration for r in ordered),
        verdicts=tuple(r.verdict for r in ordered),
        censored=tuple(r.censored for r in ordered),
    )


def brute_force_folds(dataset: ExecutionDataset, k: int, seed: int) -> tuple[dict, list]:
    rng = random.Random(seed)
    assignment: dict[int, int] = {}
    excluded: list[str] = []
    for test_id, _, indices in regroup(dataset, lambda r: (r.test_id, "*")):
        if len(indices) < k:
            excluded.append(test_id)
            continue
        rng.shuffle(indices)
        base, remainder = divmod(len(indices), k)
        cursor = 0
        for fold in range(k):
            size = base + (1 if fold < remainder else 0)
            for i in indices[cursor : cursor + size]:
                assignment[i] = fold
            cursor += size
    return assignment, excluded


@PROPERTY
@given(records=records_st, k=st.integers(2, 5), seed=st.integers(0, 2**32))
def test_grouping_index_equals_brute_force_regroup(records, k, seed):
    dataset = ExecutionDataset(records=records)
    by_sample = regroup(dataset, lambda r: (r.test_id, r.revision_id))
    assert list(dataset.sample_index.items()) == [
        ((tid, rid), tuple(idx)) for tid, rid, idx in by_sample
    ]
    assert list(dataset.samples.items()) == [
        ((tid, rid), as_sample(dataset, tid, rid, idx)) for tid, rid, idx in by_sample
    ]
    for test_id, _, indices in regroup(dataset, lambda r: (r.test_id, "*")):
        assert dataset.pooled_sample(test_id) == as_sample(dataset, test_id, "*", indices)
    censored = dataset.censored
    for (test_id, revision_id), rows in dataset.sample_index.items():
        sample = dataset.sample(test_id, revision_id)
        assert sample.censored == tuple(censored[i] for i in rows)
        assert sample.censored_count == sum(sample.censored)
    for test_id, rows in dataset.test_index.items():
        assert dataset.pooled_sample(test_id).censored == tuple(censored[i] for i in rows)
    picked = list(range(len(dataset)))[::-2]
    assert dataset.subsample("*", "*", picked).censored == tuple(censored[i] for i in picked)

    assignment, excluded = brute_force_folds(dataset, k, seed)
    folds = make_folds(dataset, k, seed)
    assert list(folds.assignment.items()) == list(assignment.items())
    assert folds.excluded_tests == tuple(excluded)


@PROPERTY
@given(records=records_st, k=st.integers(2, 5), seed=st.integers(0, 2**32))
def test_folds_split_every_large_enough_test_evenly(records, k, seed):
    dataset = ExecutionDataset(records=records)
    folds = make_folds(dataset, k, seed)
    per_test: dict[str, list[int]] = {}
    for i, rec in enumerate(dataset.records):
        per_test.setdefault(rec.test_id, []).append(i)
    small = sorted(t for t, indices in per_test.items() if len(indices) < k)
    assert list(folds.excluded_tests) == small
    assert set(folds.assignment.values()) <= set(range(k))
    assigned = []
    for test_id, indices in per_test.items():
        if test_id in small:
            continue
        sizes = [0] * k
        for i in indices:
            sizes[folds.assignment[i]] += 1
        assert max(sizes) - min(sizes) <= 1
        assigned += indices
    assert sorted(assigned) == sorted(folds.assignment)


def built_kernels(call) -> list[tuple[str, int, int]]:
    """(test_id, n, c) of every kernel that ``call()`` builds, in build order."""
    built = []
    init = _SortedSample.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    with mock.patch.object(_SortedSample, "__init__", recording_init):
        call()
    return [(kernel.test_id, kernel.n, kernel.c) for kernel in built]


@PROPERTY
@given(records=records_st, k=st.integers(2, 5), seed=st.integers(0, 2**32))
def test_every_kernel_counts_the_censored_runs_of_its_rows(records, k, seed):
    # Every place that builds a kernel gives it c, the censored count of the
    # rows it was built from; a fold's held-out and training kernels count
    # the test's censored runs in and out of that fold.
    assume(records)
    dataset = ExecutionDataset(records=records)
    config = OptimizationConfig(min_samples=2)
    censored = [r.censored for r in dataset.records]

    def entry(test_id, indices):
        return test_id, len(indices), sum(censored[i] for i in indices)

    tests = regroup(dataset, lambda r: (r.test_id, "*"))
    samples = regroup(dataset, lambda r: (r.test_id, r.revision_id))
    policies = [TimeoutPolicy.static(3)]
    assert built_kernels(lambda: TimeoutOptimizer(config).fit(dataset)) == [
        entry(tid, idx) for tid, _, idx in tests
    ]
    per_sample = [entry("", idx) for _, _, idx in samples]
    assert built_kernels(lambda: static_sweep(dataset, (1, 3), config)) == per_sample
    assert built_kernels(lambda: compare_policies(dataset, policies, config)) == per_sample
    for tid, _, idx in tests:
        sample = dataset.pooled_sample(tid)
        assert _kernel_of(sample).c == sample.censored_count
        assert built_kernels(lambda: optimize_timeout(sample, config)) == [entry(tid, idx)]
        assert built_kernels(lambda: count_timeouts(sample, 60.0)) == [entry("", idx)]

    assignment, excluded = brute_force_folds(dataset, k, seed)
    if len(excluded) == len(tests):
        with pytest.raises(ValueError, match="no test has enough executions"):
            cross_validate(dataset, policies, config, k, seed)
        return
    expected = []
    for tid, _, idx in tests:
        expected.append(entry(tid, idx))
        if tid not in excluded:
            for fold in range(k):
                held = [i for i in idx if assignment[i] == fold]
                expected.append(entry(tid, held))
                expected.append(entry(tid, [i for i in idx if assignment[i] != fold]))
    assert built_kernels(lambda: cross_validate(dataset, policies, config, k, seed)) == expected


# Few (test, revision) groups, so groups run long enough for a pass and a
# failure to first meet late; start times tie often.
flaky_records_st = st.lists(
    st.builds(
        ExecutionRecord,
        test_id=st.sampled_from("abc"),
        revision_id=st.sampled_from(["r1", "r2"]),
        started_at=st.integers(0, 5).map(lambda minute: EPOCH + timedelta(minutes=minute)),
        duration=st.just(60.0),
        verdict=st.sampled_from([Verdict.PASS, Verdict.PASS, Verdict.FAIL, Verdict.TIMEOUT]),
        interrupted=st.just(False),
    ),
    min_size=1,
    max_size=80,
).map(tuple)


@PROPERTY
@given(records=flaky_records_st, step=st.integers(1, 90))
def test_flakiness_equals_prefix_brute_force(records, step):
    dataset = ExecutionDataset(records=records)
    groups = [
        (rid, dataset.subsample(tid, rid, idx).verdicts)
        for tid, rid, idx in regroup(dataset, lambda r: (r.test_id, r.revision_id))
    ]
    for revision_id in dataset.revision_ids():
        runs = [verdicts for rid, verdicts in groups if rid == revision_id]
        flaky = [verdicts for verdicts in runs if reference.is_flaky(verdicts)]
        bins = [0] * 5
        for verdicts in flaky:  # bin i holds rates above i of the upper edges
            rate = reference.failure_rate(verdicts)
            bins[sum(rate > edge for edge in (0.2, 0.4, 0.6, 0.8))] += 1
        assert flakiness_report(dataset, revision_id) == FlakinessReport(
            revision_id=revision_id,
            repetition_count=max(map(len, runs)),
            unique_tests=len(runs),
            flaky_tests=len(flaky),
            flakiness_rate=len(flaky) / len(runs),
            bin_counts=tuple(bins),
        )
        points, k = [], step
        while True:
            flaky_k = sum(reference.is_flaky(verdicts[:k]) for verdicts in runs)
            points.append((k, flaky_k / len(runs)))
            if k >= max(map(len, runs)):
                break
            k += step
        assert flakiness_evolution(dataset, revision_id, step).points == tuple(points)
    failures = [
        v for _, verdicts in groups if reference.is_flaky(verdicts) for v in verdicts if v.is_failure
    ]
    timeouts = sum(v is Verdict.TIMEOUT for v in failures)
    share, notes = timeout_failure_share(dataset)
    assert share == (timeouts / len(failures) if failures else 0.0)
    assert bool(notes) == (not failures)


@PROPERTY
@given(records=records_st, timeouts=st.lists(st.integers(1, 200), min_size=4, max_size=4))
def test_held_out_scoring_equals_fsum_reference(records, timeouts):
    assume(records)
    dataset = ExecutionDataset(records=records)
    config = OptimizationConfig(rerun_count=2, breakage_probability=0.01)
    policy = TimeoutPolicy("original", values=dict(zip("abcd", timeouts)))
    (totals,) = compare_policies(dataset, [policy], config)
    empirical = OptimizationConfig(
        rerun_count=2, breakage_probability=0.01, probability_method=EMPIRICAL_ECDF
    )
    costs = []
    overruns = 0
    for sample in dataset.samples.values():
        t = policy.value_for(sample.test_id) * MINUTE
        costs.append(reference.expected_cost(sample, t, empirical))
        overruns += reference.count_flaky_timeouts(sample, t)
    assert totals.average_cost == math.fsum(costs) / len(costs)
    assert totals.flaky_timeout_count == overruns


@PROPERTY
@given(
    records=records_st,
    method=st.sampled_from(PROBABILITY_METHODS),
    m=st.integers(0, 4),
    pb=st.sampled_from([0.0, 0.01]),
    k=st.integers(2, 3),
)
def test_commands_give_one_number_for_one_input(records, method, m, pb, k):
    # Where two commands print a number for the same input, they print the
    # same float: the sweep's point at t and compare's static-t average,
    # cross-validation's whole-data fit and the optimizer's, and one revision's
    # flakiness report alone and as one side of a comparison.
    assume(records)
    dataset = ExecutionDataset(records=records)
    config = OptimizationConfig(m, pb, method, min_samples=2)
    lo, hi = 1, 40  # a sample saturates inside the range or stays running past it
    statics = [TimeoutPolicy.static(t, f"static-{t}") for t in range(lo, hi + 1)]
    totals = compare_policies(dataset, statics, config)
    assert static_sweep(dataset, (lo, hi), config).curve.points == tuple(
        (t, row.average_cost) for t, row in zip(range(lo, hi + 1), totals)
    )
    if max(map(len, dataset.test_index.values())) >= k:
        report = cross_validate(dataset, statics[:1], config, k=k, seed=0)
        assert report.fitted_timeouts == TimeoutOptimizer(config).fit(dataset).timeouts_
    for revision_id in {r.revision_id for r in records}:
        comparison = flakiness.compare_flakiness(dataset, dataset, revision_id, revision_id)
        assert comparison.report_a == flakiness_report(dataset, revision_id)


# One run: start minute (ties are common), duration (often exactly on a
# grid value), verdict and interrupted flag (a timeout that was interrupted
# is a censored hang).
run_st = st.tuples(
    st.integers(0, 5),
    st.one_of(
        st.floats(min_value=0.0, max_value=900.0), st.integers(1, 10).map(lambda u: u * MINUTE)
    ),
    st.sampled_from(list(Verdict)),
    st.booleans(),
)


@st.composite
def replay_records_st(draw) -> tuple[ExecutionRecord, ...]:
    """1-4 tests x 1-30 runs each, in shuffled order."""
    records = []
    for test_id in "abcd"[: draw(st.integers(1, 4))]:
        runs = draw(st.lists(run_st, min_size=1, max_size=30))
        for minute, duration, verdict, interrupted in runs:
            records.append(
                ExecutionRecord(
                    test_id=test_id,
                    revision_id="r1",
                    started_at=EPOCH + timedelta(minutes=minute),
                    duration=duration,
                    verdict=verdict,
                    interrupted=interrupted,
                )
            )
    return tuple(draw(st.permutations(records)))


def brute_force_replay(
    dataset: ExecutionDataset, policy: TimeoutPolicy, m: int, seed: int
) -> SimulationReport:
    """The replay before the outcome table: each draw re-judges its record."""
    per_test = []
    for index, (test_id, _, indices) in enumerate(regroup(dataset, lambda r: (r.test_id, "*"))):
        rng = np.random.default_rng((seed, index))
        records = [dataset.records[i] for i in indices]
        timeout_seconds = policy.value_for(test_id) * MINUTE

        def run_once(record: ExecutionRecord) -> tuple[float, bool]:
            if record.censored:
                return timeout_seconds, True
            if record.duration > timeout_seconds:
                return timeout_seconds, True
            return record.duration, False

        timeout_events = reruns = accepted = 0
        machine_seconds = 0.0
        for record in records:
            consumed, timed_out = run_once(record)
            machine_seconds += consumed
            if not timed_out:
                accepted += 1
                continue
            timeout_events += 1
            chain_succeeded = False
            for _ in range(m):
                consumed, rerun_timed_out = run_once(records[int(rng.integers(len(records)))])
                machine_seconds += consumed
                reruns += 1
                if not rerun_timed_out:
                    chain_succeeded = True
            if chain_succeeded:
                accepted += 1
        per_test.append(
            TestSimulation(
                test_id=test_id,
                initial_runs=len(records),
                timeout_events=timeout_events,
                rerun_count=reruns,
                total_machine_seconds=machine_seconds,
                accepted=accepted,
                rejected=len(records) - accepted,
            )
        )
    return SimulationReport(
        per_test=tuple(per_test),
        initial_runs=sum(t.initial_runs for t in per_test),
        timeout_events=sum(t.timeout_events for t in per_test),
        rerun_count=sum(t.rerun_count for t in per_test),
        total_machine_seconds=math.fsum(t.total_machine_seconds for t in per_test),
        accepted=sum(t.accepted for t in per_test),
        rejected=sum(t.rejected for t in per_test),
    )


@PROPERTY
@given(
    records=replay_records_st(),
    timeouts=st.lists(st.integers(1, 10), min_size=4, max_size=4),
    m=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_replay_equals_brute_force_replay(records, timeouts, m, seed):
    dataset = ExecutionDataset(records=records)
    policy = TimeoutPolicy("original", values=dict(zip("abcd", timeouts)))
    report = simulate_rerun_policy(dataset, policy, rerun_count=m, seed=seed)
    expected = brute_force_replay(dataset, policy, m, seed)
    for field in SimulationReport._fields:
        assert getattr(report, field) == getattr(expected, field), field
    assert report.rerun_count == m * report.timeout_events
    assert report.accepted + report.rejected == report.initial_runs


@PROPERTY
@given(
    records=replay_records_st(),
    timeouts=st.lists(st.integers(1, 10), min_size=4, max_size=4),
)
def test_kernel_equals_the_simulator_outcome_table(records, timeouts):
    # One rule for a hang in the cost model and the rerun simulator: at each
    # test's policy timeout, the kernel's tm and overrun share are the mean
    # consumed seconds and the timed-out share of the simulator's outcome
    # table, each an fsum, and its overruns are the replay's timeout events.
    dataset = ExecutionDataset(records=records)
    policy = TimeoutPolicy("original", values=dict(zip("abcd", timeouts)))
    report = simulate_rerun_policy(dataset, policy, rerun_count=0)
    for test_id, simulated in zip(dataset.test_ids(), report.per_test):
        rows, t = dataset.test_index[test_id], policy.value_for(test_id) * MINUTE
        table = _outcomes(dataset.durations, dataset.censored, rows, t)
        tm, over = _SortedSample.of(dataset, rows).at(t)
        assert tm == math.fsum(consumed for consumed, _ in table) / len(table)
        assert over / len(rows) == math.fsum(timed_out for _, timed_out in table) / len(table)
        assert over == simulated.timeout_events


# Start times on a few whole seconds, many tied, with whole-second,
# millisecond and microsecond fractions; censored hangs, uninterrupted
# timeouts and interrupted passes all occur.
round_trip_record_st = st.builds(
    ExecutionRecord,
    test_id=st.sampled_from(["a", "b", "c,d"]),
    revision_id=st.sampled_from(["r1", "r2", "r3"]),
    started_at=st.builds(
        lambda second, micros: EPOCH + timedelta(seconds=second, microseconds=micros),
        st.integers(0, 3),
        st.sampled_from([0, 0, 1_000, 500_000, 123_456, 999_999]),
    ),
    duration=durations_st,
    verdict=st.sampled_from(list(Verdict)),
    interrupted=st.booleans(),
)


@PROPERTY
@given(
    records=st.lists(round_trip_record_st, max_size=30).map(tuple),
    fmt=st.sampled_from(["jsonl", "csv"]),
)
def test_write_then_load_equals_the_record_adapter(records, fmt):
    original = ExecutionDataset(records=records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"runs.{fmt}"
        write_executions(original, path, fmt)
        loaded, report = load_executions(path, fmt)
    assert (report.accepted, report.rejected) == (len(records), 0)
    assert loaded == original
    assert loaded.censored == original.censored
    assert loaded.test_index == original.test_index
    assert loaded.samples == original.samples
    for test_id in original.test_ids():
        assert loaded.pooled_sample(test_id) == original.pooled_sample(test_id)


# Ids the policy CSV must quote (commas, quotes, either line end) beside
# spaces and non-ASCII text. NUL is left out: csv.reader rejects it before
# Python 3.11.
policy_id_st = st.one_of(
    st.sampled_from(
        ["test_x[1,2]", 'a"b', '","', "c\rd", "e\nf", "g\r\n", "\r", " ", " h ", "é", "日本"]
    ),
    st.text(
        st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), min_size=1, max_size=8
    ),
)


@PROPERTY
@given(values=st.dictionaries(policy_id_st, st.integers(1, 10**9), min_size=1, max_size=6))
def test_every_policy_file_reads_back(values):
    # write_timeout_policy's file and optimize's CSV of the same timeouts are
    # one file, and load_timeout_policy reads back every id of either
    dataset = dataset_of(
        {(tid, "r1"): [(i * MINUTE + m, "pass") for m in (1.0, 2.0, 9.0)]
         for i, tid in enumerate(values)}
    )
    fitted = TimeoutOptimizer(OptimizationConfig(min_samples=2)).fit(dataset).timeouts_
    with tempfile.TemporaryDirectory() as tmp:
        runs, written, fit_written, optimized = (
            Path(tmp) / name for name in ("runs.jsonl", "w.csv", "f.csv", "o.csv")
        )
        write_timeout_policy(TimeoutPolicy("original", values=values), written)
        loaded = load_timeout_policy(written).values
        assert (loaded, list(loaded)) == (values, sorted(values))
        write_executions(dataset, runs)
        argv = ["optimize", "--input", str(runs), "--min-samples", "2", "--out", str(optimized)]
        assert cli.run(argv) == 0
        write_timeout_policy(TimeoutPolicy("optimized", values=fitted), fit_written)
        assert optimized.read_bytes() == fit_written.read_bytes()
        assert load_timeout_policy(optimized).values == fitted


# A valid file of each small format, its loader, and the command that reads it.
SMALL_FILES = {
    "policy-csv": (
        b"test_id,timeout_minutes\nalpha,4\nbeta,7\n",
        load_timeout_policy,
        ["evaluate", "--k", "2", "--seed", "1", "--min-samples", "2", "--timeouts"],
    ),
    "changes-jsonl": (
        b'{"test_id": "a", "changed_at": "2021-01-01T00:00:00Z", "new_value": 15}\n'
        b'{"test_id": "a", "changed_at": "2021-02-01T00:00:00Z", "old_value": 15, "new_value": 25}\n'
        b'{"test_id": "b", "changed_at": "2021-03-01T00:00:00Z", "old_value": 30, "new_value": 15}\n',
        lambda path: ingest.load_timeout_changes(path, "jsonl"),
        ["timeout-history", "--format", "jsonl", "--input"],
    ),
    "changes-csv": (
        b"test_id,changed_at,old_value,new_value\na,2021-01-01T00:00:00Z,,15\n"
        b"a,2021-02-01T00:00:00Z,15,25\nb,2021-03-01T00:00:00Z,30,15\n",
        lambda path: ingest.load_timeout_changes(path, "csv"),
        ["timeout-history", "--format", "csv", "--input"],
    ),
}
# Tokens put anywhere or in place of a value: an overflowing and a non-numeric
# float, a lone surrogate as a JSON escape and as UTF-8 bytes, a BOM and NUL.
MUTATION_TOKENS = [b"1e400", b"nan", b"\\ud800", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00"]
# A timeout value: digits after a comma or colon, ending a cell or a JSON value.
VALUE = re.compile(rb"(?<=[,:]) ?\d+(?=[,}\r\n])")


@st.composite
def mutated_st(draw, text: bytes) -> bytes:
    """``text`` after 1-3 mutations: a flipped bit, a cut at any byte, a
    dropped line, or a token inserted anywhere or in place of a value."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(0, len(text) - 1)))
        kind = draw(st.sampled_from(["flip", "cut", "drop", "insert", "value"]))
        lines, values = text.splitlines(keepends=True), list(VALUE.finditer(text))
        if kind == "flip" and text:
            text = text[:at] + bytes([text[at] ^ 1 << draw(st.integers(0, 7))]) + text[at + 1 :]
        elif kind == "cut":
            text = text[:at]
        elif kind == "drop" and lines:
            text = b"".join(lines[: at % len(lines)] + lines[at % len(lines) + 1 :])
        elif kind == "insert":
            text = text[:at] + draw(st.sampled_from(MUTATION_TOKENS)) + text[at:]
        elif kind == "value" and values:
            value = values[at % len(values)]
            token = draw(st.sampled_from(MUTATION_TOKENS))
            text = text[: value.start()] + token + text[value.end() :]
    return text


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(SMALL_FILES)), data=st.data())
def test_mutated_small_files_never_crash(name, data):
    # No policy or timeout-change file crashes its loader or its command: the
    # loader returns or raises ValueError, and the command exits 0, 1 or 2
    # with no exception, on exit 2 with one "error:" line as its last.
    text, loader, argv = SMALL_FILES[name]
    mutated = data.draw(mutated_st(text))
    runs = dataset_of({(tid, "r1"): [(m * MINUTE, "pass") for m in (1, 2, 3, 4)]
                       for tid in ("alpha", "beta")})
    with tempfile.TemporaryDirectory() as tmp:
        path, runs_path = Path(tmp) / "mutated", Path(tmp) / "runs.jsonl"
        path.write_bytes(mutated)
        write_executions(runs, runs_path)
        try:
            loader(path)
        except ValueError:
            pass
        inputs = ["--input", str(runs_path)] if argv[0] == "evaluate" else []
        assert_runs_cleanly(argv + [str(path)] + inputs)


def assert_runs_cleanly(argv: list[str]) -> None:
    """``cli.run(argv)`` exits 0, 1 or 2 with no exception and stdout a
    strict UTF-8 stream, as a terminal's; on exit 2, stderr's last line is
    its one "error:" line."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with mock.patch("sys.stdout", stdout), mock.patch("sys.stderr", stderr):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    lines = stderr.getvalue().splitlines()
    if code == 2:
        assert [line for line in lines if line.startswith("error: ")] == lines[-1:]


# A valid execution file of each format: two tests on two revisions, with
# passes, failures, a censored hang and an uninterrupted timeout; integer
# durations, so that a mutation can put a token in place of one.
_EXECUTION_ROWS = [
    ("a", "r1", "00", 60, "pass", False),
    ("a", "r1", "01", 90, "fail", False),
    ("a", "r1", "02", 600, "timeout", True),
    ("a", "r2", "03", 75, "pass", False),
    ("a", "r2", "04", 80, "pass", False),
    ("b", "r1", "05", 30, "pass", False),
    ("b", "r1", "06", 700, "timeout", False),
    ("b", "r2", "07", 45, "fail", False),
    ("b", "r2", "08", 40, "pass", False),
]
EXECUTION_FILES = {
    "jsonl": "".join(
        f'{{"test_id": "{t}", "revision_id": "{r}", "started_at": "2021-01-01T00:{m}:00Z", '
        f'"duration_seconds": {d}, "verdict": "{v}", "interrupted": {str(i).lower()}}}\n'
        for t, r, m, d, v, i in _EXECUTION_ROWS
    ).encode(),
    "csv": (
        "test_id,revision_id,started_at,duration_seconds,verdict,interrupted\n"
        + "".join(
            f"{t},{r},2021-01-01T00:{m}:00Z,{d},{v},{str(i).lower()}\n"
            for t, r, m, d, v, i in _EXECUTION_ROWS
        )
    ).encode(),
}
# Every command that reads an execution file, with small grids and folds.
EXECUTION_COMMANDS = [
    ["summarize"],
    ["optimize", "--min-samples", "2"],
    ["sweep", "--lo", "1", "--hi", "12"],
    ["evaluate", "--k", "2", "--seed", "1", "--min-samples", "2", "--static", "3"],
    ["flakiness", "--revision", "r1"],
]


@settings(max_examples=100, deadline=None)
@given(fmt=st.sampled_from(sorted(EXECUTION_FILES)), data=st.data())
def test_mutated_execution_files_never_crash(fmt, data):
    # No execution file crashes its loader or a command that reads it, with
    # the same mutations and checks as the small formats: the loader returns
    # or raises ValueError, and each command exits cleanly.
    mutated = data.draw(mutated_st(EXECUTION_FILES[fmt]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"mutated.{fmt}"
        path.write_bytes(mutated)
        try:
            load_executions(path, fmt)
        except ValueError:
            pass
        for argv in EXECUTION_COMMANDS:
            assert_runs_cleanly(argv + ["--input", str(path), "--format", fmt])
        compare = ["compare", "--input-a", str(path), "--input-b", str(path), "--format", fmt]
        assert_runs_cleanly(compare + ["--revision-a", "r1", "--revision-b", "r2"])


# Ids that json must escape (quotes, backslashes, control characters,
# non-ASCII text); start times drawn from a small pool of objects, so the
# same object repeats and one instant appears in several zones.
writer_id_st = st.one_of(
    st.sampled_from(['a"b', "c\\d", "e\x00\n\x1f\x7f", "é", "日本", " ", "😀"]),
    st.text(min_size=1, max_size=6),
)
writer_duration_st = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-309, DURATION_LIMIT]),
    durations_st,
)
writer_instant_st = st.builds(
    lambda second, micros, zone: (EPOCH + timedelta(seconds=second, microseconds=micros)).astimezone(
        timezone(timedelta(minutes=zone))
    ),
    st.integers(0, 2),
    st.sampled_from([0, 1_000, 500_000, 123_456]),
    st.sampled_from([0, 330, -480]),
)


@PROPERTY
@given(data=st.data(), pool=st.lists(writer_instant_st, min_size=1, max_size=6))
def test_jsonl_writer_equals_json_dumps_of_each_row(data, pool):
    records = data.draw(
        st.lists(
            st.builds(
                ExecutionRecord,
                test_id=writer_id_st,
                revision_id=writer_id_st,
                started_at=st.sampled_from(pool),
                duration=writer_duration_st,
                verdict=st.sampled_from(list(Verdict)),
                interrupted=st.booleans(),
            ),
            max_size=20,
        )
    )
    dataset = ExecutionDataset(records=records)
    expected = "".join(json.dumps(record_to_row(r), sort_keys=True) + "\n" for r in dataset.rows())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        write_executions(dataset, path, "jsonl")
        assert path.read_bytes() == expected.encode("utf-8")


# Rows for the loader's two paths: a canonical row (what the writer
# produces), then some fields replaced by values only the full check
# handles, or deleted. A stamp is a canonical UTC stamp with its ``Z``
# kept, spelled "+00:00", dropped (naive) or replaced by another offset,
# optionally padded, or one of a few odd spellings.
_ABSENT = object()
row_id_st = st.one_of(writer_id_st, st.just(" t "))
bad_id_st = st.sampled_from(["", None, 7, True, ["t1"], "t\udc80", _ABSENT])
canonical_stamp_st = writer_instant_st.map(format_timestamp)
stamp_st = st.one_of(
    st.builds(
        lambda stamp, zone, pad: pad + stamp[:-1] + zone + pad,
        canonical_stamp_st,
        st.sampled_from(["Z", "+00:00", "-00:00", "", "+05:30", "-08:00", " Z"]),
        st.sampled_from(["", "", " ", "\t"]),
    ),
    st.sampled_from(
        [
            "2024-01-06Z", "2024-01-06", "2024-01-06+00:00", "2024-01-01T12Z",
            "2024-01-01T00:00:00z", "2024-01-01T24:00:00Z", "not a time", "",
            0, None, ["2024-01-01T00:00:00Z"], _ABSENT,
        ]
    ),
)
bad_duration_st = st.one_of(
    st.sampled_from(
        [
            math.nan, math.inf, -math.inf, -0.0, -1.5, 0, 60, -3, 10**400, True, False,
            math.nextafter(DURATION_LIMIT, math.inf), 2**48, 2**48 + 1,
            "60", " 60 ", "1e999", "soon", None, [60.0], _ABSENT,
        ]
    ),
    st.integers(-(2**64), 2**64),
    st.floats(),
)
bad_verdict_st = st.sampled_from(["PASS", " pass", "skipped", 1, None, True, ["pass"], _ABSENT])
interrupted_st = st.sampled_from([_ABSENT, True, False])
bad_interrupted_st = st.sampled_from([None, 1, 0, 1.0, "yes", "no", "true", "", "maybe", []])
ROW_MUTATIONS = {
    "test_id": bad_id_st,
    "revision_id": bad_id_st,
    "started_at": stamp_st,
    "duration_seconds": bad_duration_st,
    "verdict": bad_verdict_st,
    "interrupted": bad_interrupted_st,
}


def _no_decode(line):
    raise AssertionError(f"unexpected JSON decode of {line!r}")


def _load_text(text, decode=True):
    """``load_executions`` of a file holding ``text``, each lone surrogate
    written as the undecodable byte it stands for; with ``decode`` false,
    any JSON decode fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with nullcontext() if decode else mock.patch.object(ingest, "_DECODE", _no_decode):
            return load_executions(path)


def _full_check(text):
    """(values, reasons) the loader must give for a file holding ``text``:
    each non-blank line, split as a text file splits it, through
    ``json.loads`` and ``_record_from_row``."""
    values, reasons, ids = [], {}, {}
    for line in io.StringIO(text, newline=None):
        if not line.strip():
            continue
        try:
            row = json.loads(line.strip())
        except ValueError:
            row = None
        if not isinstance(row, dict):
            reasons["invalid json"] = reasons.get("invalid json", 0) + 1
            continue
        try:
            values.append(_record_from_row(row, ids))
        except ValueError as exc:
            reasons[str(exc)] = reasons.get(str(exc), 0) + 1
    return values, reasons


def _assert_loads_as_full_check(text, decode=True):
    values, reasons = _full_check(text)
    dataset, report = _load_text(text, decode)
    assert (report.accepted, report.rejected, report.reasons) == (
        len(values), sum(reasons.values()), reasons
    )
    assert list(dataset.rows()) == values
    for loaded, expected in zip(dataset.rows(), values):
        assert loaded[2].tzinfo is expected[2].tzinfo
        assert repr(loaded[3]) == repr(expected[3])
    return values, reasons


@PROPERTY
@given(
    data=st.data(),
    mutated=st.sets(st.sampled_from(sorted(ROW_MUTATIONS)), max_size=3),
    pad=st.tuples(*[st.sampled_from(["", " ", "\t ", "\u2003"])] * 2),
    ending=st.sampled_from(["\n", "\r\n", ""]),
)
def test_typed_path_equals_the_full_check(data, mutated, pad, ending):
    row = {
        "test_id": data.draw(row_id_st),
        "revision_id": data.draw(row_id_st),
        "started_at": data.draw(canonical_stamp_st),
        "duration_seconds": data.draw(writer_duration_st),
        "verdict": data.draw(st.sampled_from([v.value for v in Verdict])),
        "interrupted": data.draw(interrupted_st),
    }
    for name in sorted(mutated):
        row[name] = data.draw(ROW_MUTATIONS[name], label=name)
    row = {key: value for key, value in row.items() if value is not _ABSENT}
    try:
        expected = _record_from_row(row, {})
    except ValueError as exc:
        expected = str(exc)

    typed = _typed_values(row, {})
    if not mutated:
        assert typed is not None  # the canonical shape takes the typed path
    if typed is not None:
        assert typed == expected
        assert typed[2].tzinfo is expected[2].tzinfo
        assert repr(typed[3]) == repr(expected[3])

    # the loader agrees, on the row in the writer's sorted layout and in
    # insertion order, each padded and ended as drawn
    sorted_line = json.dumps(row, sort_keys=True)
    for line in (sorted_line, json.dumps(row)):
        values, reasons = _assert_loads_as_full_check(pad[0] + line + pad[1] + ending)
        assert (values, reasons) == (([], {expected: 1}) if isinstance(expected, str) else ([expected], {}))
    # a row the writer would write so is read with no JSON decode: the writer escapes
    # quotes, backslashes and control characters, and non-ASCII ones as \uXXXX, the one
    # escape the match takes
    if (
        not mutated
        and "interrupted" in row
        and not re.search(r"\\[^u]", sorted_line)
        and math.copysign(1.0, row["duration_seconds"]) > 0
    ):
        _assert_loads_as_full_check(sorted_line + ending, decode=False)


def _writer_line(
    duration="61.5", interrupted="false", revision='"r1"',
    stamp='"2024-01-01T00:00:00Z"', test='"t1"', verdict='"pass"',
):
    """A line in the writer's layout with each value's JSON text as given."""
    return (
        f'{{"duration_seconds": {duration}, "interrupted": {interrupted}, '
        f'"revision_id": {revision}, "started_at": {stamp}, "test_id": {test}, '
        f'"verdict": {verdict}}}'
    )


_LINE = _writer_line()
_LINE_2 = _writer_line(duration="1e-05", interrupted="true", verdict='"timeout"')
_REVERSED = json.dumps(dict(reversed(json.loads(_LINE_2).items())))  # the keys in another order
# name -> (file text, whether every line is read with no JSON decode)
WRITER_LINE_EDGES = {
    "writer lines": (_LINE + "\n" + _LINE_2 + "\n", True),
    "no final newline": (_LINE, True),
    "escaped quote in an id": (_writer_line(test='"a\\"b"'), False),
    "escaped e-acute in an id": (_writer_line(test='"\\u00e9"'), True),
    "escaped surrogate pair in an id": (_writer_line(revision='"r\\uD83D\\ude00"'), True),
    "escaped control character in an id": (_writer_line(test='"t\\u0001"'), True),
    "escaped backslash before a u in an id": (_writer_line(test='"\\\\u00e9"'), False),
    "short escape in an id": (_writer_line(test='"\\u00e"'), False),
    "escaped stamp": (_writer_line(stamp='"2024-01-01T00:00:00\\u005a"'), False),
    "raw control character in an id": (_writer_line(test='"t\x01"'), False),
    "escaped lone surrogate in an id": (_writer_line(test='"t\\udc80"'), False),
    "undecodable byte in an id": (_writer_line(revision='"r\udcff"'), False),
    "non-ASCII ids": (_writer_line(test='"日本"', revision='"é"'), True),
    "Arabic-Indic digits in an id": (_writer_line(test='"٣٤"'), True),
    "Arabic-Indic digits in a duration": (_writer_line(duration="٦١.٥"), False),
    "Arabic-Indic digits after a digit": (_writer_line(duration="6١.٥"), False),
    "Arabic-Indic digits in an exponent": (_writer_line(duration="1e١"), False),
    "int duration": (_writer_line(duration="60"), False),
    "exponent duration": (_writer_line(duration="1e+14"), True),
    "capital exponent duration": (_writer_line(duration="2.5E-3"), True),
    "overflowing duration": (_writer_line(duration="1e400"), False),
    "duration at the limit": (_writer_line(duration=repr(DURATION_LIMIT)), True),
    "duration past the limit": (
        _writer_line(duration=repr(math.nextafter(DURATION_LIMIT, math.inf))), False
    ),
    "negative zero duration": (_writer_line(duration="-0.0"), False),
    "negative duration": (_writer_line(duration="-1.5"), False),
    "dot-ended duration": (_writer_line(duration="5."), False),
    "leading-zero duration": (_writer_line(duration="01.5"), False),
    "offset stamp": (_writer_line(stamp='"2024-01-01T05:30:00+05:30"'), False),
    "+00:00 stamp": (_writer_line(stamp='"2024-01-01T00:00:00+00:00"'), True),
    "naive stamp": (_writer_line(stamp='"2024-01-01T00:00:00"'), False),
    "padded stamp": (_writer_line(stamp='" 2024-01-01T00:00:00Z "'), False),
    "not a stamp": (_writer_line(stamp='"soon"'), False),
    "unknown verdict": (_writer_line(verdict='"PASS"'), False),
    "leading whitespace": (" " + _LINE, False),
    "trailing whitespace": (_LINE + " \n", False),
    "CRLF endings": (_LINE + "\r\n" + _LINE_2 + "\r\n", True),
    "final blank lines": (_LINE + "\n" + _LINE_2 + "\n\n \t\n", True),
    # matching stops at the first line in another layout: later lines are decoded
    "blank lines": ("\n" + _LINE + "\n\n \t\n" + _LINE_2 + "\n\n", False),
    "another layout first": (_REVERSED + "\n" + _LINE, False),
    "another layout after": (_LINE + "\n" + _REVERSED + "\n" + _LINE_2, False),
}


@pytest.mark.parametrize("text, without_decode", WRITER_LINE_EDGES.values(), ids=list(WRITER_LINE_EDGES))
def test_writer_line_edges_equal_the_full_check(text, without_decode):
    _assert_loads_as_full_check(text)
    if without_decode:
        _assert_loads_as_full_check(text, decode=False)


# Lines for the chunk-boundary property: writer lines, lines the match or a check misses,
# and blank ones.
CHUNK_LINES = [
    _LINE,
    _LINE_2,
    _writer_line(test='"\\u00e9"', revision='"\\ud83d\\ude00"'),  # escapes the match takes
    _REVERSED,  # another key order
    "",
    " \t",
    _writer_line(stamp='"soon"'),
    _writer_line(duration=repr(math.nextafter(DURATION_LIMIT, math.inf))),
    _writer_line(test='"t\\udc80"'),  # an escaped lone surrogate
    _writer_line(revision='"r\udcff"'),  # an undecodable byte
    _LINE + "x",  # a writer line with junk after it: only the $ anchor rejects it
    "x" + _LINE,  # and with junk before it: only the ^ anchor rejects it
    _writer_line(test='"a\x85b"'),  # str.splitlines splits here, a file does not
    _writer_line(revision='"c\u2028d"'),
]
CHUNK_SIZES = [1, 7, 4096, ingest._CHUNK]


def _load_in_chunks(text, size):
    """What ``load_executions`` reads from ``text`` in chunks of ``size`` characters:
    its rows, report, duration reprs and stamp zones."""
    with mock.patch.object(ingest, "_CHUNK", size):
        dataset, report = _load_text(text)
    rows = list(dataset.rows())
    return rows, report, [repr(row[3]) for row in rows], [row[2].tzinfo for row in rows]


def _assert_chunks_never_change_a_load(text):
    values, reasons = _full_check(text)
    loads = [_load_in_chunks(text, size) for size in CHUNK_SIZES]
    for rows, report, durations, zones in loads:
        assert (report.accepted, report.rejected, report.reasons) == (
            len(values), sum(reasons.values()), reasons
        )
        assert report.warnings == loads[0][1].warnings
        assert rows == values
        assert durations == [repr(row[3]) for row in values]
        assert all(zone is row[2].tzinfo for zone, row in zip(zones, values))


@PROPERTY
@given(
    lines=st.lists(
        st.tuples(st.sampled_from(CHUNK_LINES), st.sampled_from(["\n", "\r\n"])), max_size=12
    ),
    final=st.sampled_from(["\n", "\r\n", ""]),
)
def test_chunk_boundaries_never_change_a_load(lines, final):
    text = "".join(line + ending for line, ending in lines)
    _assert_chunks_never_change_a_load(text[: len(text.rstrip("\r\n"))] + final)


def test_a_miss_in_mid_chunk_hands_on_the_rest_of_its_line():
    # the first chunk ends inside the line after the miss, which must reach the JSON
    # path whole, joined to what the file holds after the chunk
    text = "\n".join([_LINE, _LINE + "x", _LINE_2, _REVERSED, _LINE]) + "\n"
    miss_end = text.index("x\n") + 2
    for size in (miss_end + 9, miss_end - 9, len(_LINE) + 1):
        with mock.patch.object(ingest, "_CHUNK", size):
            _assert_loads_as_full_check(text)
    _assert_chunks_never_change_a_load(text)
