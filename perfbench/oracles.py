"""Output checks for every command the benchmark runs.

Each check reads what a command wrote and compares it with a brute-force
answer computed from the generated fleet, never from ``timeopt`` itself.
A check raises ``CheckError`` with the reason when an output is wrong.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from fleet import GRID_SECONDS, RERUNS, Fleet

MIN_SAMPLES = 30
OPTIMIZE_ORACLE_TESTS = 8
BIN_UPPER_EDGES = (0.2, 0.4, 0.6, 0.8)


class CheckError(Exception):
    """A command's output disagrees with the brute-force answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_timeouts(path: Path, fleet: Fleet) -> np.ndarray:
    """Per-test timeouts (minutes) from an ``optimize`` CSV, in fleet order."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    expect(rows[:1] == [["test_id", "timeout_minutes"]], f"bad optimize header {rows[:1]}")
    values = {test_id: int(minutes) for test_id, minutes in rows[1:]}
    expect(len(rows) - 1 == len(fleet.test_ids), "optimize must write one row per test")
    expect(sorted(values) == fleet.test_ids, "optimize rows must name every input test once")
    return np.array([values[t] for t in fleet.test_ids], dtype=np.int64)


def _tolhurst(n: int, mean: float, q_n: float, threshold: float) -> float:
    if q_n == 0.0:
        return 0.0 if threshold > mean else 1.0
    lam = (threshold - mean) / q_n
    if lam <= 1.0:
        return 1.0
    k_sq = n * lam * lam / (n - 1 + lam * lam)
    return min(1.0, max(0.0, math.floor((n + 1) / (k_sq + 1)) / (n + 1)))


def brute_force_timeout(durations: list[float]) -> int:
    """Paper argmin over [ceil(mean), ceil(2 max)] minutes, Tolhurst bound, m = 3.

    Every candidate is scored with ``math.fsum`` sums; ties go to the
    smallest timeout.
    """
    n = len(durations)
    mean = math.fsum(durations) / n
    variance = math.fsum((d - mean) ** 2 for d in durations) / (n - 1)
    q_n = math.sqrt((n + 1) / n * variance)
    lower = max(1, math.ceil(mean / GRID_SECONDS))
    upper = max(lower, math.ceil(2.0 * max(durations) / GRID_SECONDS))
    best_t, best_cost = lower, math.inf
    for t in range(lower, upper + 1):
        threshold = t * GRID_SECONDS
        tm = math.fsum(min(d, threshold) for d in durations) / n
        cost = tm + RERUNS * _tolhurst(n, mean, q_n, threshold) * tm
        if cost < best_cost:
            best_t, best_cost = t, cost
    return best_t


def check_optimize(fleet: Fleet, out: Path, seed: int) -> None:
    timeouts = read_timeouts(out, fleet)
    hung = np.bincount(fleet.test, weights=fleet.censored, minlength=fleet.runs.size)
    eligible = np.flatnonzero((hung == 0) & (fleet.runs >= MIN_SAMPLES))
    expect(eligible.size > 0, "no test is eligible for the optimize oracle")
    rng = np.random.default_rng(seed)
    picked = rng.choice(eligible, size=min(OPTIMIZE_ORACLE_TESTS, eligible.size), replace=False)
    for t in sorted(picked.tolist()):
        expected = brute_force_timeout(fleet.duration[fleet.test == t].tolist())
        expect(
            int(timeouts[t]) == expected,
            f"optimize gave {fleet.test_ids[t]} {timeouts[t]} min, brute force {expected}",
        )


def sweep_cost(fleet: Fleet, minutes: int) -> float:
    """Average per-(test, revision) cost of one static timeout, empirical p."""
    revisions = int(fleet.revision.max()) + 1
    _, sample = np.unique(fleet.test * revisions + fleet.revision, return_inverse=True)
    threshold = minutes * GRID_SECONDS
    n = np.bincount(sample)
    tm = np.bincount(sample, weights=np.minimum(fleet.duration, threshold)) / n
    p = np.bincount(sample, weights=fleet.duration > threshold) / n
    return float(np.mean(tm + RERUNS * p * tm))


def check_sweep(fleet: Fleet, out: Path, lo: int, hi: int) -> None:
    payload = json.loads(out.read_text(encoding="utf-8"))
    curve = payload["curve"]
    expect([t for t, _ in curve] == list(range(lo, hi + 1)), "sweep curve must cover lo..hi")
    costs = [cost for _, cost in curve]
    first_min = costs.index(min(costs))
    expect(
        payload["optimal_timeout_minutes"] == curve[first_min][0]
        and payload["average_cost_seconds"] == costs[first_min],
        "sweep optimum is not the first minimum of its curve",
    )
    if fleet.censored.any():
        return  # censored runs are scored as natural durations; ROADMAP item 3
    for index in (0, len(curve) // 2, len(curve) - 1):
        t, cost = curve[index]
        expected = sweep_cost(fleet, t)
        expect(
            math.isclose(cost, expected, rel_tol=1e-9, abs_tol=0.0),
            f"sweep cost at {t} min is {cost}, brute force {expected}",
        )


def check_evaluate(fleet: Fleet, out: Path, k: int, policies: int) -> None:
    payload = json.loads(out.read_text(encoding="utf-8"))
    labels = payload["policies"]
    expect(len(labels) == policies + 1, f"evaluate policies {labels}")
    folds = payload["folds"]
    pairs = {(row["fold"], row["policy"]) for row in folds}
    expect(
        len(folds) == k * len(labels) and pairs == {(f, p) for f in range(k) for p in labels},
        "evaluate must score every (fold, policy) pair exactly once",
    )
    included = fleet.runs[fleet.runs >= k]
    held_out = [int(np.sum(included // k + (f < included % k))) for f in range(k)]
    for row in folds:
        expect(
            0 <= row["flaky_timeout_count"] <= held_out[row["fold"]],
            f"fold {row['fold']} {row['policy']}: more timeouts than held-out runs",
        )
    for label in labels:
        expect(payload["timeout_reduction"][label][label] == 0, f"{label} reduces itself")


def check_simulate(report: Path, tests: int, runs: int) -> None:
    payload = json.loads(report.read_text(encoding="utf-8"))
    verdicts = payload["final_verdicts"]
    expect(payload["initial_runs"] == tests * runs, "simulate initial runs != tests x runs")
    expect(
        verdicts["accepted"] + verdicts["rejected"] == payload["initial_runs"],
        "simulate accepted + rejected != initial runs",
    )
    expect(
        payload["rerun_count"] == RERUNS * payload["timeout_events"],
        "simulate reruns != m x timeout events",
    )


def check_flakiness(fleet: Fleet, out: Path) -> None:
    payload = json.loads(out.read_text(encoding="utf-8"))
    report = payload["report"]
    first = fleet.revision == 0
    n = np.bincount(fleet.test[first], minlength=fleet.runs.size)
    failures = np.bincount(fleet.test[first], weights=fleet.timed_out[first], minlength=n.size)
    present = n > 0
    flaky = present & (failures > 0) & (failures < n)
    bins = [0] * 5
    for f, size in zip(failures[flaky].tolist(), n[flaky].tolist()):
        rate = f / size
        bins[next((i for i, e in enumerate(BIN_UPPER_EDGES) if rate <= e), 4)] += 1
    expect(report["unique_tests"] == int(present.sum()), "flakiness unique tests")
    expect(report["flaky_tests"] == int(flaky.sum()), "flakiness flaky count")
    expect(list(report["bin_counts"]) == bins, f"flakiness bins {report['bin_counts']} != {bins}")
    rates = [rate for _, rate in payload["evolution"]["points"]]
    expect(all(a <= b for a, b in zip(rates, rates[1:])), "flakiness evolution decreases")
    expect(rates[-1] == report["flakiness_rate"], "flakiness evolution ends off the report rate")
