"""Seeded synthetic fleets for the benchmark, generated with numpy alone.

The program under test sees only the files written here: a JSONL file of
execution records and a two-column CSV of the per-test "developer-set"
original timeouts. The arrays stay in memory so the output checks and the
machine-cost metric can be computed without going through ``timeopt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from statistics import NormalDist

import numpy as np

GRID_SECONDS = 60.0
RERUNS = 3
_EPOCH = datetime(2024, 1, 6, tzinfo=timezone.utc)
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class Fleet:
    """One generated fleet; every per-record array is in file order."""

    test_ids: list[str]
    runs: np.ndarray  # runs per test
    test: np.ndarray  # test index per record
    position: np.ndarray  # start-time position of the record within its test
    revision: np.ndarray  # revision index per record
    duration: np.ndarray  # recorded seconds; a hang is recorded at its timeout
    censored: np.ndarray  # hang killed at the original timeout
    timed_out: np.ndarray  # verdict "timeout"
    original_minutes: np.ndarray  # original timeout per test

    @property
    def records(self) -> int:
        return int(self.test.size)

    def revision_id(self, index: int) -> str:
        return f"r{index:02d}"


def generate(params: dict, seed: int) -> Fleet:
    """Draw a fleet from a workload's ``fleet`` parameters; same seed, same fleet."""
    rng = np.random.default_rng(seed)
    tests = params["tests"]
    # Run counts and per-test scales are spread evenly over their ranges and
    # paired by a fixed stride near the golden ratio, so the long tests are
    # not always the busy ones. Every seed has the same record count and the
    # same (runs, scale) pairs, which set how much each test weighs in the
    # machine cost; the seed picks which test gets which pair, and the runs.
    lo, hi = params["runs"] if isinstance(params["runs"], list) else (params["runs"],) * 2
    deal = rng.permutation(tests)
    runs = np.rint(np.linspace(lo, hi, tests)).astype(np.int64)[deal]
    span = math.log(params.get("spread", 1.0))
    stride = next(k for k in range(round(0.618 * tests), 2 * tests) if math.gcd(k, tests) == 1)
    scale = params["scale_minutes"] * GRID_SECONDS * np.exp(
        np.linspace(-span, span, tests)[deal * stride % tests]
    )

    test = np.repeat(np.arange(tests), runs)
    starts = np.concatenate(([0], np.cumsum(runs)[:-1]))
    position = np.arange(test.size) - starts[test]
    n = test.size
    # Each test's runs are stratified draws: run i in a random order gets a
    # uniform from the i-th of n equal slices, so a test's largest run, which
    # sets its search grid, varies little from seed to seed.
    order = np.lexsort((rng.random(n), test))
    stratum = np.empty(n)
    stratum[order] = position
    u = np.maximum((stratum + rng.random(n)) / runs[test], 1e-12)
    if params["distribution"] == "lognormal":
        normal = np.array([_STANDARD_NORMAL.inv_cdf(p) for p in u.tolist()])
        natural = scale[test] * np.exp(params["sigma"] * normal)
    elif params["distribution"] == "exponential":
        natural = scale[test] * -np.log1p(-u)
    else:
        raise ValueError(f"unknown distribution {params['distribution']!r}")
    # Outliers are the given share of each test's runs and take 2 to 10 times
    # the test's scale, the factors spread evenly over [2, 10], for the same
    # reason: a factor applied to a random run would let one long draw times
    # ten set a test's grid.
    outliers = _share_of_each_test(rng, runs, starts, params.get("outlier_prob", 0.0))
    factors = rng.permutation(np.linspace(2.0, 10.0, outliers.size))
    natural[outliers] = scale[test[outliers]] * factors

    # The developer timeout is a percentile of the test's own natural runs.
    original_minutes = np.empty(tests, dtype=np.int64)
    for t in range(tests):
        q = np.quantile(natural[starts[t] : starts[t] + runs[t]], params["percentile"])
        original_minutes[t] = max(1, round(q / GRID_SECONDS))
    limit = original_minutes[test] * GRID_SECONDS

    censored = np.zeros(n, dtype=bool)
    censored[rng.choice(n, round(params.get("hang_prob", 0.0) * n), replace=False)] = True
    duration = np.where(censored, limit, natural)
    return Fleet(
        test_ids=[f"t{t:04d}" for t in range(tests)],
        runs=runs,
        test=test,
        position=position,
        revision=position * params["revisions"] // runs[test],
        duration=duration,
        censored=censored,
        timed_out=censored | (natural > limit),
        original_minutes=original_minutes,
    )


def _share_of_each_test(
    rng: np.random.Generator, runs: np.ndarray, starts: np.ndarray, share: float
) -> np.ndarray:
    """Record indices of about ``share`` of each test's runs, at random positions.

    Each test gets the floor or the ceiling of its share (systematic sampling
    from one random offset), so how many a test gets varies little from seed
    to seed.
    """
    edges = np.floor(share * np.concatenate(([0], np.cumsum(runs))) + rng.random())
    counts = np.diff(edges).astype(np.int64)
    return np.concatenate(
        [start + rng.choice(size, count, replace=False)
         for start, size, count in zip(starts.tolist(), runs.tolist(), counts.tolist())]
    ).astype(np.int64)


def write_jsonl(fleet: Fleet, path: Path) -> None:
    """Write the records in the ingest JSONL format; floats round-trip exactly."""
    stamps = [
        (_EPOCH + timedelta(minutes=k)).strftime("%Y-%m-%dT%H:%M:%SZ")
        for k in range(int(fleet.runs.max()))
    ]
    revisions = [fleet.revision_id(r) for r in range(int(fleet.revision.max()) + 1)]
    lines = [
        f'{{"duration_seconds": {d!r}, "interrupted": {"true" if c else "false"}, '
        f'"revision_id": "{revisions[r]}", "started_at": "{stamps[k]}", '
        f'"test_id": "{fleet.test_ids[t]}", "verdict": "{"timeout" if o else "pass"}"}}\n'
        for t, k, r, d, c, o in zip(
            fleet.test.tolist(),
            fleet.position.tolist(),
            fleet.revision.tolist(),
            fleet.duration.tolist(),
            fleet.censored.tolist(),
            fleet.timed_out.tolist(),
        )
    ]
    path.write_text("".join(lines), encoding="utf-8")


def write_timeouts(fleet: Fleet, path: Path) -> None:
    rows = ["test_id,timeout_minutes"]
    rows += [f"{tid},{m}" for tid, m in zip(fleet.test_ids, fleet.original_minutes.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def machine_seconds_per_run(fleet: Fleet, timeout_minutes: np.ndarray) -> float:
    """Expected machine seconds per scheduled execution under per-test timeouts.

    A run times out when it hung (censored) or overran the timeout, and then
    consumes the timeout. Per test the cost is the mean consumed time times
    (1 + m * timeout share), m = 3; tests are weighted by their run count.
    """
    limit = np.asarray(timeout_minutes, dtype=np.float64)[fleet.test] * GRID_SECONDS
    out = fleet.censored | (fleet.duration > limit)
    consumed = np.where(out, limit, fleet.duration)
    runs = np.bincount(fleet.test, minlength=fleet.runs.size)
    mean_consumed = np.bincount(fleet.test, weights=consumed, minlength=runs.size) / runs
    share = np.bincount(fleet.test, weights=out, minlength=runs.size) / runs
    per_test = mean_consumed * (1.0 + RERUNS * share)
    return float(np.sum(per_test * runs) / np.sum(runs))
