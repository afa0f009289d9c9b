#!/usr/bin/env python3
"""Benchmark of the ``timeopt`` CLI on seeded synthetic fleets.

    python3 perfbench/run.py --workload paper-fleet --seed 1 --seconds 30 --trace 0

Run from the repository root; ``--workload all`` runs every workload in
turn. The workload's inputs come from the benchmark's own numpy generator
(``fleet.py``); the program sees only the files and the CLI flags.

With ``--trace 0`` every command of the workload runs as a fresh
``python -m timeopt.cli`` child, one at a time (a closed loop with one
client), in cycles. The number of cycles is ``--seconds`` over the workload's
recorded cycle time (``cycle_s`` in ``workloads.json``), at least three, so
it does not depend on the speed of the code under test.

Right before each command child, and right after each set-up, a fixed
reference child (``REFERENCE``: an interpreter that imports numpy and sorts
and encodes a list, sharing no code with ``timeopt``) runs too. On a shared
host other tenants slow every process by up to 1.8x for seconds at a time,
and the reference run next to a command sees the same slowdown. So each
end-to-end time, set-up included, is the median over its repetitions of its
wall time divided by the adjacent reference's, times ``REFERENCE_S``:
host-normalised seconds, in which a change to ``timeopt`` shows in full and
most of the host's drift cancels. The raw wall times are printed alongside.

With ``--trace 1`` the commands run in-process, once untraced and once with
spans around every call into a ``timeopt`` module, for the per-layer metrics.

Every output is checked against a brute-force answer (``oracles.py``) and
hashed; repetitions of a command must hash the same. A workload's last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

sys.dont_write_bytecode = True
SINGLE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# The traced run shares this interpreter's numpy: pin its threads before
# numpy loads, as for the children, which inherit the environment.
os.environ.update(SINGLE_THREAD)

import fleet as fleets  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COMMANDS = tracing.COMMANDS
END_TO_END = {
    "setup_s": "s",
    **{f"{c}_s": "s" for c in COMMANDS},
    "peak_rss_mb": "MB",
    "machine_s_per_run": "s",
}
MIN_CYCLES = 3
SETUPS = 3
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 150.0  # stop starting cycles here so a run ends within 180 s
CHILD_LIMIT_S = 120.0
REFERENCE = (
    "import json, numpy; xs = [((i * 7919) % 10007) / 7.0 for i in range(300000)]; "
    "xs.sort(); json.dumps(xs[::10]); numpy.sort(numpy.array(xs))"
)
# The reference's median wall time on the host the workloads were sized on
# (2-CPU x86-64 Xeon, Python 3.11, numpy 2.4), so that the host-normalised
# times read as seconds on that host.
REFERENCE_S = 0.33


@dataclass
class Ledger:
    """Operations attempted and failed, with a line per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def check(self, what: str, fn: Callable[[], None]) -> None:
        try:
            fn()
        except (oracles.CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.record(False, f"check {what}: {type(exc).__name__}: {exc}")
        else:
            self.record(True, what)


@dataclass
class Workspace:
    """Input and output paths of one run inside the checkout."""

    root: Path

    @property
    def runs(self) -> Path:
        return self.root / "runs.jsonl"

    @property
    def original(self) -> Path:
        return self.root / "original.csv"

    def out(self, command: str) -> list[Path]:
        """Files a command writes, in digest order."""
        if command == "simulate":
            return [self.root / "simulate.jsonl", self.root / "simulate.json"]
        suffix = "csv" if command == "optimize" else "json"
        return [self.root / f"{command}.{suffix}"]

    def stdout(self, command: str) -> Path:
        return self.root / f"{command}.stdout"


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def command_argv(spec: dict, settings: dict, command: str, ws: Workspace, seed: int) -> list[str]:
    """CLI arguments of one command of a workload."""
    runs = str(ws.runs)
    if command == "optimize":
        return ["optimize", "--input", runs, "--out", str(ws.out(command)[0])]
    if command == "sweep":
        lo, hi = settings["sweep_range"]
        return ["sweep", "--input", runs, "--lo", str(lo), "--hi", str(hi),
                "--out", str(ws.out(command)[0])]
    if command == "evaluate":
        ev = settings["evaluate"]
        return ["evaluate", "--input", runs, "--k", str(ev["k"]), "--seed", str(seed),
                "--static", str(ev["static"]), "--timeouts", str(ws.original),
                "--out", str(ws.out(command)[0])]
    if command == "simulate":
        dataset, report = ws.out(command)
        return ["simulate", *spec["simulate"], "--seed", str(seed),
                "--out", str(dataset), "--report-out", str(report)]
    if command == "flakiness":
        return ["flakiness", "--input", runs, "--revision", "r00",
                "--step", str(spec["flakiness_step"]), "--out", str(ws.out(command)[0])]
    raise ValueError(f"unknown command {command!r}")


def spawn(argv: list[str], stdout: Path) -> tuple[float, int, float]:
    """Run one child to exit: (wall seconds, exit code, peak RSS in MB)."""
    with stdout.open("wb") as out, stdout.with_suffix(".stderr").open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def setup(spec: dict, seed: int, ws: Workspace) -> tuple[fleets.Fleet, float]:
    """Generate and write the inputs, warm the page cache, import timeopt once."""
    start = time.perf_counter()
    fleet = fleets.generate(spec["fleet"], seed)
    fleets.write_jsonl(fleet, ws.runs)
    fleets.write_timeouts(fleet, ws.original)
    ws.runs.read_bytes()
    wall, code, _ = spawn([sys.executable, "-c", "import timeopt"], ws.root / "import.stdout")
    if code != 0:
        raise RuntimeError(f"import timeopt failed; see {ws.root / 'import.stderr'}")
    return fleet, time.perf_counter() - start


def simulate_size(spec: dict) -> tuple[int, int]:
    args = spec["simulate"]
    return int(args[args.index("--tests") + 1]), int(args[args.index("--runs") + 1])


def check_outputs(
    ledger: Ledger, spec: dict, settings: dict, fleet: fleets.Fleet, ws: Workspace, seed: int
) -> None:
    """One operation per command: its output against the brute-force answer."""
    lo, hi = settings["sweep_range"]
    tests, runs = simulate_size(spec)
    checks = {
        "optimize": lambda: oracles.check_optimize(fleet, ws.out("optimize")[0], seed),
        "sweep": lambda: oracles.check_sweep(fleet, ws.out("sweep")[0], lo, hi),
        "evaluate": lambda: oracles.check_evaluate(
            fleet, ws.out("evaluate")[0], settings["evaluate"]["k"], policies=2
        ),
        "simulate": lambda: oracles.check_simulate(ws.out("simulate")[1], tests, runs),
        "flakiness": lambda: oracles.check_flakiness(fleet, ws.out("flakiness")[0]),
    }
    for command in COMMANDS:
        ledger.check(command, checks[command])


def check_determinism(ledger: Ledger, digests: dict[str, list[str]]) -> None:
    for command, seen in digests.items():
        if seen:
            ledger.record(len(set(seen)) == 1, f"{command} output differs between repetitions")
        print(f"sha256 {command:<9} {' '.join(sorted(set(seen))) or '-'}")


def machine_cost(fleet: fleets.Fleet, ws: Workspace) -> float | None:
    try:
        return fleets.machine_seconds_per_run(
            fleet, oracles.read_timeouts(ws.out("optimize")[0], fleet)
        )
    except (oracles.CheckError, OSError, ValueError):
        return None


def cycle_count(spec: dict, seconds: float) -> int:
    """Cycles a run makes: ``seconds`` over the workload's recorded cycle time.

    The count depends only on the workload and ``--seconds``, never on how
    fast the program is, so every commit is measured over the same number of
    repetitions.
    """
    return max(MIN_CYCLES, round(seconds / spec["cycle_s"]))


def timed_cycles(
    ledger: Ledger, spec: dict, settings: dict, ws: Workspace, seed: int, cycles: int,
    started: float,
) -> tuple[dict[str, list[tuple[float, float]]], float, dict[str, list[str]]]:
    """``cycles`` child-process cycles over the workload's commands.

    Returns per command its (wall, adjacent reference wall) pairs, the peak
    RSS and the output digests.
    """
    walls: dict[str, list[tuple[float, float]]] = {c: [] for c in COMMANDS}
    digests: dict[str, list[str]] = {c: [] for c in COMMANDS}
    peak = 0.0
    window = time.perf_counter()
    done = 0
    while done < cycles:
        # A program slow enough to overrun the run's time limit is still
        # reported, from the cycles that fit.
        now = time.perf_counter()
        if done and now - started + (now - window) / done > RUN_LIMIT_S:
            print(f"stopped after {done} of {cycles} cycles: run time limit")
            break
        for command in COMMANDS:
            reference = reference_wall(ws)
            argv = [sys.executable, "-m", "timeopt.cli"]
            argv += command_argv(spec, settings, command, ws, seed)
            wall, code, rss = spawn(argv, ws.stdout(command))
            if ledger.record(code == 0, f"{command} exited with {code}"):
                walls[command].append((wall, reference))
                digests[command].append(digest(ws.out(command) + [ws.stdout(command)]))
            peak = max(peak, rss)
        done += 1
    print(f"{done} cycles in {time.perf_counter() - window:.1f} s")
    return walls, peak, digests


def reference_wall(ws: Workspace) -> float:
    """Wall seconds of one reference child."""
    wall, code, _ = spawn([sys.executable, "-c", REFERENCE], ws.stdout("reference"))
    if code != 0:
        raise RuntimeError(f"reference exited with {code}; see {ws.root / 'reference.stderr'}")
    return wall


def normalised(pairs: list[tuple[float, float]]) -> float | None:
    """Median host-normalised seconds of (wall, adjacent reference wall) pairs."""
    if not pairs:
        return None
    return statistics.median(wall / reference for wall, reference in pairs) * REFERENCE_S


def end_to_end_run(
    ledger: Ledger, spec: dict, settings: dict, fleet: fleets.Fleet, ws: Workspace,
    seed: int, seconds: float, setups: list[tuple[float, float]], started: float,
) -> dict[str, Any]:
    walls, peak, digests = timed_cycles(
        ledger, spec, settings, ws, seed, cycle_count(spec, seconds), started
    )
    check_outputs(ledger, spec, settings, fleet, ws, seed)
    check_determinism(ledger, digests)
    values: dict[str, float | None] = {
        "setup_s": normalised(setups),
        **{f"{c}_s": normalised(walls[c]) for c in COMMANDS},
        "peak_rss_mb": peak or None,
        "machine_s_per_run": machine_cost(fleet, ws),
    }
    for command in COMMANDS:
        if walls[command]:
            raw, reference = zip(*walls[command])
            print(f"{command + '_s':<18} wall median {statistics.median(raw):.3f} s  "
                  f"n={len(raw)}  samples {' '.join(f'{w:.3f}' for w in raw)}  "
                  f"reference {' '.join(f'{w:.3f}' for w in reference)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_in_process(cli: Any, argv: list[str], ws: Workspace, command: str) -> tuple[float, int]:
    """Call ``timeopt.cli.run``; its stdout goes to the command's file, stderr is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        start = time.perf_counter()
        code = cli.run(argv)
        wall = time.perf_counter() - start
    ws.stdout(command).write_text(out.getvalue(), encoding="utf-8")
    return wall, code


def print_breakdown(command: str, wall: float, modules: dict[str, float]) -> None:
    """One line per command: untraced in-process seconds, then each module's
    share of the traced self time, largest first."""
    traced = sum(modules.values()) or 1.0
    shares = sorted(modules.items(), key=lambda item: -item[1])
    print(f"layers {command:<9} {wall:.3f} s  " + "  ".join(
        f"{module} {seconds:.3f} s {seconds / traced:.0%}" for module, seconds in shares
    ))


def traced_run(
    ledger: Ledger, spec: dict, settings: dict, fleet: fleets.Fleet, ws: Workspace, seed: int,
) -> dict[str, Any]:
    """Per-layer metrics from one untraced and one traced in-process cycle."""
    imports = []
    code = ("import time; t = time.perf_counter(); import timeopt.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(IMPORT_SAMPLES):
        _, status, _ = spawn([sys.executable, "-c", code], ws.root / "import.stdout")
        if ledger.record(status == 0, "import timeopt.cli failed"):
            imports.append(float((ws.root / "import.stdout").read_text()))

    sys.path.insert(0, str(SRC))
    from timeopt import cli, ingest

    extra: dict[str, float | None] = {
        "cli.import_s": statistics.median(imports) if imports else None
    }
    digests: dict[str, list[str]] = {c: [] for c in COMMANDS}
    tracer = tracing.Tracer()
    missing: dict[str, str] = {}
    if not hasattr(cli, "run"):
        missing[tracing.COMMAND_SPAN] = "timeopt.cli.run not found"
    # Each command runs untraced, then traced, back to back, so the
    # difference is the tracing overhead and not host drift.
    for command in COMMANDS:
        if tracing.COMMAND_SPAN in missing:
            ledger.record(False, f"{command}: {missing[tracing.COMMAND_SPAN]}")
            continue
        argv = command_argv(spec, settings, command, ws, seed)
        walls = []
        for traced in (False, True):
            tracer.command = command
            with contextlib.ExitStack() as stack:
                if traced:
                    missing.update(stack.enter_context(tracing.Patches(tracer)).missing)
                    index = tracer.open(tracing.COMMAND_SPAN)
                    stack.callback(tracer.close, index)
                wall, code = run_in_process(cli, argv, ws, command)
            walls.append(wall)
            if ledger.record(code == 0, f"in-process {command} returned {code}"):
                digests[command].append(digest(ws.out(command) + [ws.stdout(command)]))
        extra[f"trace.{command}_overhead_s"] = walls[1] - walls[0]
        print_breakdown(command, walls[0], tracer.module_self_seconds()[command])
    check_outputs(ledger, spec, settings, fleet, ws, seed)
    check_determinism(ledger, digests)

    if "ingest.load_executions" not in missing:
        tracemalloc.start()
        try:
            dataset = ingest.load_executions(ws.runs, "jsonl")
            extra["ingest.retained_mb"] = tracemalloc.get_traced_memory()[0] / 2**20
            del dataset
        finally:
            tracemalloc.stop()
    return tracing.layer_metrics(tracer, missing, extra)


def run(workload: dict, settings: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a workload; returns the result object."""
    started = time.perf_counter()
    ws = Workspace(WORK / f"{workload['name']}-{seed}-{os.getpid()}")
    ws.root.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        setups = []
        for _ in range(1 if trace else SETUPS):
            fleet, wall = setup(workload, seed, ws)
            setups.append((wall, reference_wall(ws)))
        print(f"workload {workload['name']} seed {seed}: {len(fleet.test_ids)} tests, "
              f"{fleet.records} records, {int(fleet.censored.sum())} censored")
        if trace:
            metrics = traced_run(ledger, workload, settings, fleet, ws, seed)
        else:
            metrics = end_to_end_run(
                ledger, workload, settings, fleet, ws, seed, seconds, setups, started
            )
    finally:
        shutil.rmtree(ws.root, ignore_errors=True)
    for note in ledger.notes:
        print(f"FAILED {note}")
    for name, metric in metrics.items():
        shown = "unmeasured: " + metric["unmeasured"] if "unmeasured" in metric else metric["value"]
        print(f"{name:<32} {shown} {metric['unit']}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def load_settings() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "timeopt" / "cli.py").is_file():
        print(f"error: no timeopt sources under {SRC}", file=sys.stderr)
        return 2
    settings = load_settings()
    workloads = {w["name"]: w for w in settings["workloads"]}
    names = list(workloads) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads):
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}",
              file=sys.stderr)
        return 2
    for name in names:
        result = run(workloads[name], settings, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
