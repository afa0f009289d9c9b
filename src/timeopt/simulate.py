"""Synthetic workload generation and rerun-policy simulation.

The generator produces a fleet of tests with controllable tail behavior:
a base duration distribution per test (lognormal, exponential, or constant,
with an optional per-test scale spread), rare multiplicative outliers, and
hang runs that would never finish on their own. Hangs are materialized as
censored records at the enforced timeout (verdict timeout, interrupted), so
downstream code sees realistic censoring. The hidden ground truth, one
``TestDistribution`` per test with exact exceedance probabilities and
quantiles, is returned for oracle checks.

The rerun simulator replays a dataset under a timeout policy, each test's
runs in start-time order, from one outcome table per test: a run that
overruns its timeout, or is a censored hang, consumes exactly the timeout;
any other run consumes its duration. Every timed-out initial run triggers
the full budget of m reruns drawn (with replacement, seeded) from the same
table. The change is accepted as soon as any rerun succeeds, but all m
reruns are charged, which makes the simulated mean cost per initial run
converge to the cost model's prediction. Policy values are integer grid
units of ``GRID_SECONDS``.

Each test's "developer-set" timeout is ``TestDistribution.quantile_units``:
the quantile's bisection, stopped as soon as both ends of its bracket round
to the same grid unit, since no later step can change that unit. The
``simulate`` command writes the dataset with ``ingest.write_executions``,
which fills one JSONL line template per row, and the policy with
``ingest.write_timeout_policy``. This module imports ``model`` alone from the
package, so importing it loads neither ``evaluate`` nor ``optimize``.

Draws are made in bulk where the scalar draws would be back to back: a
test's rerun picks, and its base durations when it has no hangs or
outliers. numpy fills an array by calling the scalar draw's own routine
once per element on the same generator state (bounded integers below 2**32
from the generator's buffered 32-bit stream), so one array draw gives the
values, and leaves the state, of the same number of scalar draws; a test
pins this.

Everything is deterministic under a fixed seed. Only the functions that
draw or average import numpy, so importing this module does not load it.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .model import (
    DISTRIBUTIONS, GRID_SECONDS, ExecutionDataset, TimeoutPolicy, Verdict, _check_durations,
    _Frozen,
)

if TYPE_CHECKING:
    import numpy as np

_EPOCH = datetime(2024, 1, 6, 0, 0, 0, tzinfo=timezone.utc)
_QUANTILE_CAP = 1e12  # stand-in for an unreachable quantile, seconds
_OUTLIER_GRID = 512
_PICK_CHUNK = 1 << 16  # rerun picks per array draw; one draw serves every benchmark test
_SQRT2 = math.sqrt(2.0)


class WorkloadSpec(_Frozen):
    """Shape of a synthetic fleet.

    ``scale_seconds`` is the lognormal median, the exponential mean, or the
    constant value. ``scale_spread`` >= 1 draws each test's scale
    log-uniformly from [scale/spread, scale*spread] so tests differ. Each
    run is multiplied by a uniform outlier factor with probability
    ``outlier_probability`` and hangs forever with ``hang_probability``.
    The "developer-set" timeout of each test is placed at the configured
    percentile of the test's true duration distribution, rounded to grid
    units of ``GRID_SECONDS``.
    """

    __slots__ = _fields = (
        "test_count", "executions_per_test", "base_distribution", "scale_seconds", "sigma",
        "scale_spread", "outlier_probability", "outlier_factor_range", "hang_probability",
        "original_timeout_percentile", "seed",
    )
    test_count: int
    executions_per_test: int
    base_distribution: str
    scale_seconds: float
    sigma: float
    scale_spread: float
    outlier_probability: float
    outlier_factor_range: tuple[float, float]
    hang_probability: float
    original_timeout_percentile: float
    seed: int

    def __init__(
        self, test_count: int, executions_per_test: int, base_distribution: str = "lognormal",
        scale_seconds: float = 300.0, sigma: float = 0.5, scale_spread: float = 1.0,
        outlier_probability: float = 0.0,
        outlier_factor_range: tuple[float, float] = (2.0, 10.0), hang_probability: float = 0.0,
        original_timeout_percentile: float = 0.85, seed: int = 0,
    ) -> None:
        if test_count < 1 or executions_per_test < 1:
            raise ValueError("test_count and executions_per_test must be >= 1")
        if base_distribution not in DISTRIBUTIONS:
            raise ValueError(f"base_distribution must be one of {DISTRIBUTIONS}")
        lo, hi = outlier_factor_range
        for value, label in (
            (scale_seconds, "scale_seconds"),
            (sigma, "sigma"),
            (scale_spread, "scale_spread"),
            (lo, "outlier_factor_range"),
            (hi, "outlier_factor_range"),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")
        if scale_seconds <= 0:
            raise ValueError("scale_seconds must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if scale_spread < 1.0:
            raise ValueError("scale_spread must be >= 1")
        # the largest test scale generate_workload can draw
        if not math.isfinite(scale_seconds * math.exp(math.log(scale_spread))):
            raise ValueError(
                f"scale_seconds {scale_seconds:g} times scale_spread "
                f"{scale_spread:g} must be finite"
            )
        for p, label in (
            (outlier_probability, "outlier_probability"),
            (hang_probability, "hang_probability"),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        if not 0 < lo <= hi:
            raise ValueError("outlier_factor_range must satisfy 0 < lo <= hi")
        if not 0.0 < original_timeout_percentile <= 1.0:
            raise ValueError("original_timeout_percentile must be in (0, 1]")
        self._set(
            test_count, executions_per_test, base_distribution, scale_seconds, sigma,
            scale_spread, outlier_probability, outlier_factor_range, hang_probability,
            original_timeout_percentile, seed,
        )


class TestDistribution(NamedTuple):
    """Resolved true duration distribution of one simulated test."""

    __test__ = False  # domain type, not a pytest class

    kind: str
    scale: float
    sigma: float
    outlier_probability: float
    outlier_factor_range: tuple[float, float]
    hang_probability: float

    def base_exceedance(self, t: float) -> float:
        """P(X > t) for the base distribution, before outliers and hangs."""
        return self._base_exceedances([t])[0]

    def _base_exceedances(self, ts: list[float]) -> list[float]:
        """``base_exceedance`` of each of ``ts``, with no call per value."""
        scale, sigma = self.scale, self.sigma
        if self.kind == "lognormal" and sigma != 0:
            return [
                1.0 if t <= 0 else 0.5 * math.erfc(math.log(t / scale) / sigma / _SQRT2)
                for t in ts
            ]
        if self.kind == "exponential":
            return [1.0 if t <= 0 else math.exp(-t / scale) for t in ts]
        # constant, or lognormal with no spread: a step at the scale, which is > 0
        return [1.0 if t < scale else 0.0 for t in ts]

    def exceedance(self, t: float) -> float:
        """P(natural duration > t) including outliers; hangs exceed any t."""
        base = self.base_exceedance(t)
        if self.outlier_probability > 0:
            lo, hi = self.outlier_factor_range
            if hi == lo:
                tail = self.base_exceedance(t / lo)
            else:
                import numpy as np

                factors = np.linspace(lo, hi, _OUTLIER_GRID)
                # halving a normal float is exact, and the sum cannot overflow;
                # as Python floats the midpoints divide as float64 scalars do
                mids = (factors[:-1] / 2.0 + factors[1:] / 2.0).tolist()
                tail = float(np.mean(self._base_exceedances([t / f for f in mids])))
            base = (1 - self.outlier_probability) * base + self.outlier_probability * tail
        return self.hang_probability + (1 - self.hang_probability) * base

    def quantile(self, p: float) -> float:
        """Smallest t with P(duration <= t) >= p; capped when unreachable.

        A percentile above 1 - hang_probability has no finite quantile
        (hangs never finish) and yields the cap value. The bisection stops
        once ``mid`` equals ``lo`` or ``hi``: neither moves after that.
        """
        return self._bisect(p, lambda lo, hi: False)

    def quantile_units(self, p: float) -> int:
        """``max(1, round(quantile(p) / GRID_SECONDS))``, searched only to the grid.

        The point ``quantile`` would return always lies in ``(lo, hi]`` of the
        bisection's bracket, and ``_grid_units`` is monotone, so once both ends
        round to the same unit no later step can change the answer.
        """
        return _grid_units(
            self._bisect(p, lambda lo, hi: _grid_units(lo) == _grid_units(hi))
        )

    def _bisect(self, p: float, settled: Callable[[float, float], bool]) -> float:
        """``quantile``'s search, ending early once ``settled(lo, hi)`` holds."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        if p == 0.0:
            return 0.0
        target = 1.0 - p
        hi = max(self.scale, 1.0)
        while self.exceedance(hi) > target:
            hi *= 2.0
            if hi >= _QUANTILE_CAP:
                return _QUANTILE_CAP
        lo = 0.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi or settled(lo, hi):
                break
            if self.exceedance(mid) > target:
                lo = mid
            else:
                hi = mid
        return hi


class TestSimulation(NamedTuple):
    """Rerun-policy outcome for one test."""

    __test__ = False  # domain type, not a pytest class

    test_id: str
    initial_runs: int
    timeout_events: int
    rerun_count: int
    total_machine_seconds: float
    accepted: int
    rejected: int


class SimulationReport(NamedTuple):
    """Per-test and fleet totals of a rerun-policy simulation.

    ``rerun_count`` never exceeds m * timeout_events: reruns are only ever
    triggered by a timed-out initial run.
    """

    per_test: tuple[TestSimulation, ...]
    initial_runs: int
    timeout_events: int
    rerun_count: int
    total_machine_seconds: float
    accepted: int
    rejected: int

    @property
    def mean_cost_per_initial_run(self) -> float:
        if self.initial_runs == 0:
            return 0.0
        return self.total_machine_seconds / self.initial_runs

    @property
    def final_verdicts(self) -> Mapping[str, int]:
        return {"accepted": self.accepted, "rejected": self.rejected}


def _grid_units(seconds: float) -> int:
    """A quantile in whole grid units, at least one: the generator's timeout."""
    return max(1, round(seconds / GRID_SECONDS))


def _test_ids(count: int) -> list[str]:
    width = max(3, len(str(count - 1)))
    return [f"test-{i:0{width}d}" for i in range(count)]


def _sigma_overflow(dist: TestDistribution) -> ValueError:
    return ValueError(f"sigma {dist.sigma:g} is too large: a drawn duration overflows")


def _draw_base(dist: TestDistribution, rng: np.random.Generator) -> float:
    if dist.kind == "lognormal":
        try:
            return dist.scale * math.exp(dist.sigma * rng.standard_normal())
        except OverflowError:
            raise _sigma_overflow(dist) from None
    if dist.kind == "exponential":
        return float(rng.exponential(dist.scale))
    return dist.scale


def _draw_bases(dist: TestDistribution, rng: np.random.Generator, count: int) -> list[float]:
    """``count`` successive ``_draw_base`` values, from one array draw."""
    if dist.kind == "lognormal":
        normals = rng.standard_normal(count).tolist()
        try:
            return [dist.scale * math.exp(dist.sigma * z) for z in normals]
        except OverflowError:
            raise _sigma_overflow(dist) from None
    if dist.kind == "exponential":
        return rng.exponential(dist.scale, count).tolist()
    return [dist.scale] * count


def generate_workload(
    spec: WorkloadSpec,
) -> tuple[ExecutionDataset, TimeoutPolicy, Mapping[str, TestDistribution]]:
    """Generate a fleet dataset, its "developer-set" policy, and ground truth.

    The ground truth maps each test id to its true ``TestDistribution``.
    Hang runs are emitted as censored records: duration equal to the
    enforced (original) timeout, verdict timeout, interrupted. Other runs
    keep their natural duration; the verdict is timeout (uninterrupted) when
    it overruns the original timeout and pass otherwise. Deterministic given
    the spec seed; each test draws from an independent substream so results
    do not depend on generation order. A spec with no hang and no outlier
    probability draws nothing between base durations, so each test takes
    them from one array draw, equal to the scalar draws of the other specs.
    A drawn duration outside ``[0, DURATION_LIMIT]`` is a ValueError.
    """
    import numpy as np

    tests: list[str] = []
    started: list[datetime] = []
    durations: list[float] = []
    verdicts: list[Verdict] = []
    hangs: list[bool] = []
    runs = spec.executions_per_test
    # run j of every test starts j minutes after the epoch: one shared object
    starts = [_EPOCH + timedelta(minutes=j) for j in range(runs)]
    timeouts: dict[str, int] = {}
    truths: dict[str, TestDistribution] = {}
    hang_p, outlier_p = spec.hang_probability, spec.outlier_probability
    verdict_timeout, verdict_pass = Verdict.TIMEOUT, Verdict.PASS
    lo, hi = spec.outlier_factor_range
    bulk = hang_p == 0 and outlier_p == 0

    for index, test_id in enumerate(_test_ids(spec.test_count)):
        rng = np.random.default_rng((spec.seed, index))
        scale = spec.scale_seconds
        if spec.scale_spread > 1.0:
            span = math.log(spec.scale_spread)
            scale *= math.exp(rng.uniform(-span, span))
        dist = TestDistribution(
            kind=spec.base_distribution,
            scale=scale,
            sigma=spec.sigma,
            outlier_probability=spec.outlier_probability,
            outlier_factor_range=spec.outlier_factor_range,
            hang_probability=spec.hang_probability,
        )
        truths[test_id] = dist

        timeout_units = dist.quantile_units(spec.original_timeout_percentile)
        timeout_seconds = timeout_units * GRID_SECONDS
        timeouts[test_id] = timeout_units

        if bulk:
            next_base = iter(_draw_bases(dist, rng, runs)).__next__
        else:
            next_base = partial(_draw_base, dist, rng)
        for _ in range(runs):
            hang = hang_p > 0 and rng.random() < hang_p
            if hang:
                duration = timeout_seconds
            else:
                duration = next_base()
                if outlier_p > 0 and rng.random() < outlier_p:
                    duration *= float(rng.uniform(lo, hi))
            durations.append(duration)
            verdicts.append(
                verdict_timeout if hang or duration > timeout_seconds else verdict_pass
            )
            hangs.append(hang)
        tests += [test_id] * runs
        started += starts

    dataset = ExecutionDataset.from_columns(
        tests, ["r0"] * len(tests), started, durations, verdicts, hangs
    )
    _check_durations(dataset, "drew")
    policy = TimeoutPolicy("original", values=timeouts)
    return dataset, policy, truths


def _outcomes(
    durations: Sequence[float], censored: Sequence[bool], rows: Sequence[int], t: float
) -> list[tuple[float, bool]]:
    """The outcome table of the runs at ``rows`` under timeout t: (t, True)
    for a censored hang or a natural duration above t, else (duration, False)."""
    return [(t, True) if censored[i] or durations[i] > t else (durations[i], False) for i in rows]


def simulate_rerun_policy(
    dataset: ExecutionDataset,
    policy: TimeoutPolicy,
    rerun_count: int = 3,
    seed: int = 0,
) -> SimulationReport:
    """Replay a dataset's executions under a timeout policy with reruns.

    Each test's records are replayed in start-time order (ties in file
    order), as ``ExecutionDataset.test_index`` holds them, so reordering
    rows with distinct start times does not change the report. Each record
    becomes one (consumed seconds, timed out) outcome: a run times out when
    its natural duration exceeds the policy timeout or it is a censored hang
    record (a hang overruns any timeout), and a timed-out run consumes
    exactly the timeout, other runs their own duration. Each timed-out
    initial run triggers m reruns drawn with replacement from the same
    test's outcomes; all m are charged and any success accepts the change.

    The outcome table fixes a test's timeout events before any draw, so its
    m × events rerun picks come from ``rng.integers`` array calls of
    ``_PICK_CHUNK`` picks at most, drawn as the replay reaches them: numpy
    serves a bounded draw below 2**32 from the generator's buffered 32-bit
    stream whether it is drawn alone or in an array, so the picks are those
    of m × events successive scalar draws, used in the same order, whatever
    the chunk size.

    Raises:
        ValueError: when the policy does not cover every test.
    """
    import numpy as np

    test_ids = dataset.test_ids()
    policy_seconds = policy.seconds(test_ids)
    durations, censored = dataset.durations, dataset.censored

    per_test: list[TestSimulation] = []
    for index, test_id in enumerate(test_ids):
        rng = np.random.default_rng((seed, index))
        rows, t = dataset.test_index[test_id], policy_seconds[test_id]
        outcomes = _outcomes(durations, censored, rows, t)

        timeout_events = sum(timed_out for _, timed_out in outcomes)
        draws = rerun_count * timeout_events
        picks = chain.from_iterable(
            rng.integers(len(outcomes), size=min(_PICK_CHUNK, draws - start)).tolist()
            for start in range(0, draws, _PICK_CHUNK)
        )
        machine_seconds = 0.0
        accepted = 0
        for consumed, timed_out in outcomes:
            machine_seconds += consumed
            if not timed_out:
                accepted += 1
                continue
            chain_succeeded = False
            for _ in range(rerun_count):
                rerun_seconds, rerun_timed_out = outcomes[next(picks)]
                machine_seconds += rerun_seconds
                chain_succeeded = chain_succeeded or not rerun_timed_out
            accepted += chain_succeeded
        per_test.append(
            TestSimulation(
                test_id=test_id,
                initial_runs=len(outcomes),
                timeout_events=timeout_events,
                rerun_count=rerun_count * timeout_events,
                total_machine_seconds=machine_seconds,
                accepted=accepted,
                rejected=len(outcomes) - accepted,
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
