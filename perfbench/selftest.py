"""Self-test of the benchmark's own code on tiny fleets; asserts no timings.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test suite: it checks the generator, the
oracles and the metric names, not ``timeopt``.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fleet as fleets  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from timeopt.ingest import load_executions  # noqa: E402
from timeopt.optimize import (  # noqa: E402
    EMPIRICAL_ECDF,
    OptimizationConfig,
    expected_cost,
    optimize_timeout,
    static_sweep,
)

TINY = {
    "name": "tiny",
    "cycle_s": 1.0,
    "fleet": {
        "tests": 6, "runs": [35, 70], "revisions": 3,
        "distribution": "lognormal", "scale_minutes": 2.0, "sigma": 0.4, "spread": 2.0,
        "outlier_prob": 0.05, "hang_prob": 0.0, "percentile": 0.8,
    },
    "flakiness_step": 4,
    "simulate": ["--tests", "3", "--runs", "40", "--outlier-prob", "0.05"],
}
TINY_HANGS = {
    **TINY,
    "fleet": {**TINY["fleet"], "distribution": "exponential", "hang_prob": 0.02},
}


@pytest.fixture
def workdir():
    path = run.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _write(params: dict, seed: int, path: Path) -> tuple[bytes, bytes]:
    fleet = fleets.generate(params, seed)
    fleets.write_jsonl(fleet, path / "runs.jsonl")
    fleets.write_timeouts(fleet, path / "original.csv")
    return (path / "runs.jsonl").read_bytes(), (path / "original.csv").read_bytes()


def test_same_seed_gives_the_same_files(workdir):
    first = _write(TINY_HANGS["fleet"], 5, workdir)
    assert _write(TINY_HANGS["fleet"], 5, workdir) == first
    assert _write(TINY_HANGS["fleet"], 6, workdir)[0] != first[0]


def test_files_load_without_rejections(workdir):
    fleet = fleets.generate(TINY_HANGS["fleet"], 3)
    fleets.write_jsonl(fleet, workdir / "runs.jsonl")
    dataset, report = load_executions(workdir / "runs.jsonl")
    assert report.accepted == fleet.records and report.rejected == 0
    assert sum(r.censored for r in dataset.records) == int(fleet.censored.sum())


def test_optimize_oracle_agrees_with_timeopt(workdir):
    fleet = fleets.generate(TINY["fleet"], 11)
    fleets.write_jsonl(fleet, workdir / "runs.jsonl")
    dataset, _ = load_executions(workdir / "runs.jsonl")
    config = OptimizationConfig()
    for t, test_id in enumerate(fleet.test_ids):
        expected = optimize_timeout(dataset.pooled_sample(test_id), config).optimal_timeout
        assert oracles.brute_force_timeout(fleet.duration[fleet.test == t].tolist()) == expected


def test_sweep_oracle_agrees_with_timeopt(workdir):
    fleet = fleets.generate(TINY["fleet"], 12)
    fleets.write_jsonl(fleet, workdir / "runs.jsonl")
    dataset, _ = load_executions(workdir / "runs.jsonl")
    result = static_sweep(dataset, (1, 12), OptimizationConfig())
    for t, cost in result.curve.points:
        assert math.isclose(oracles.sweep_cost(fleet, t), cost, rel_tol=1e-12)


def test_checks_reject_a_wrong_timeout(workdir):
    fleet = fleets.generate(TINY["fleet"], 13)
    rows = ["test_id,timeout_minutes"] + [
        f"{tid},{oracles.brute_force_timeout(fleet.duration[fleet.test == t].tolist())}"
        for t, tid in enumerate(fleet.test_ids)
    ]
    out = workdir / "optimize.csv"
    out.write_text("\n".join(rows) + "\n")
    oracles.check_optimize(fleet, out, seed=1)
    wrong = rows[:1] + [f"{row.split(',')[0]},{int(row.split(',')[1]) + 1}" for row in rows[1:]]
    out.write_text("\n".join(wrong) + "\n")
    with pytest.raises(oracles.CheckError):
        oracles.check_optimize(fleet, out, seed=1)


def test_machine_cost_equals_cost_model_without_hangs(workdir):
    fleet = fleets.generate(TINY["fleet"], 14)
    fleets.write_jsonl(fleet, workdir / "runs.jsonl")
    dataset, _ = load_executions(workdir / "runs.jsonl")
    timeouts = np.random.default_rng(0).integers(1, 8, size=len(fleet.test_ids))
    empirical = OptimizationConfig(rerun_count=fleets.RERUNS, probability_method=EMPIRICAL_ECDF)
    costs = [
        expected_cost(dataset.pooled_sample(tid), int(m) * fleets.GRID_SECONDS, empirical)
        for tid, m in zip(fleet.test_ids, timeouts)
    ]
    expected = float(np.sum(np.array(costs) * fleet.runs) / np.sum(fleet.runs))
    assert math.isclose(fleets.machine_seconds_per_run(fleet, timeouts), expected, rel_tol=1e-12)


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [TINY, TINY_HANGS], ids=["no-hangs", "hangs"])
def test_end_to_end_run_passes_every_check(workload):
    result = run.run(workload, run.load_settings(), seed=2, seconds=0, trace=False)
    assert result["failed"] == 0 and result["correct"] and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] is not None for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = run.run(TINY_HANGS, run.load_settings(), seed=2, seconds=0, trace=True)
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert not [name for name, m in result["metrics"].items() if "unmeasured" in m]
    # Every command loads the same file: the counts are per load.
    records = fleets.generate(TINY_HANGS["fleet"], 2).records
    assert result["metrics"]["ingest.rows"]["value"] == records


def test_missing_entry_point_is_unmeasured(monkeypatch):
    import timeopt.flakiness

    monkeypatch.delattr(timeopt.flakiness, "flakiness_evolution")
    tracer = tracing.Tracer()
    with tracing.Patches(tracer) as patches:
        pass
    metrics = tracing.layer_metrics(tracer, patches.missing, {})
    assert "not found" in metrics["flakiness.evolution_points"]["unmeasured"]
    assert "unmeasured" not in metrics["flakiness.report_s"]


def test_patches_are_restored():
    import timeopt.evaluate
    import timeopt.model

    before = (timeopt.evaluate.optimize_timeout, vars(timeopt.model.ExecutionDataset)["samples"])
    with tracing.Patches(tracing.Tracer()):
        assert timeopt.evaluate.optimize_timeout is not before[0]
    after = (timeopt.evaluate.optimize_timeout, vars(timeopt.model.ExecutionDataset)["samples"])
    assert after == before

