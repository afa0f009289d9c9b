"""Paper-scale wall time and peak memory of each command, one fresh process each.

Builds the fleet of ROADMAP.md's Baseline, 744 tests x 750 runs on one
revision (``WorkloadSpec(test_count=744, executions_per_test=750,
scale_spread=3, hang_probability=0.002, outlier_probability=0.01, seed=1)``),
written by ``write_executions``. With ``--layout ci-export`` the same rows
are written in start-time order across tests, on 17 revisions (run j of 750
is on revision ``r{17 j // 750}``), with sorted keys and compact separators,
as a CI system's export might hold them. With ``--layout bad-rows`` the
writer's file has every 1,000th line's stamp made invalid, so about a third
of the loader's chunks are refused and read row by row.

Each command runs as a fresh ``python -m timeopt.cli`` child of this
script, which re-executes itself under ``python -S`` and imports little, so
each child's ``ru_maxrss`` from ``os.wait4`` is the command's own peak (a
child started from a large process counts that process's pages). One more
child, ``index``, prints the seconds the load takes, and then
``test_index`` and ``sample_index`` on a dataset of the same columns, with
none of the views the load may have built.

With ``--against DIR``, each command runs from ``DIR/src`` (the parent) and
from this tree's ``src``, alternating which goes first, and the report gives
medians and quartiles, paired ratios, wins as "k of N", and whether the
sha256 of stdout and of ``--out`` are equal in every pair.

    python tools/paper_scale.py --runs 5 --against ../parent --json out.json

Stdout gets one Markdown line per command; ``--json`` writes the full report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = {
    "optimize": ["optimize"],
    "sweep": ["sweep", "--lo", "5", "--hi", "60"],
    "evaluate": ["evaluate", "--seed", "7"],
    "flakiness": ["flakiness", "--revision", "r0"],
    "summarize": ["summarize"],
}
BUILD = """
import json, os, sys
from timeopt.ingest import format_timestamp, record_to_row, write_executions
from timeopt.simulate import WorkloadSpec, generate_workload
path, layout = sys.argv[1:]
spec = WorkloadSpec(test_count=744, executions_per_test=750, scale_spread=3,
                    hang_probability=0.002, outlier_probability=0.01, seed=1)
dataset = generate_workload(spec)[0]
if layout == "writer":
    write_executions(dataset, path)
    sys.exit()
if layout == "bad-rows":
    write_executions(dataset, path + ".tmp")
    with open(path + ".tmp", encoding="utf-8") as lines, open(path, "w", encoding="utf-8") as out:
        for number, line in enumerate(lines, 1):
            if number % 1000 == 0:  # still a writer line, with a stamp no loader reads
                line = line.replace('"started_at": "', '"started_at": "x', 1)
            out.write(line)
    os.remove(path + ".tmp")
    sys.exit()
rows, runs = list(dataset.rows()), spec.executions_per_test
stamps = {s: format_timestamp(s) for s in set(dataset.started_at)}
with open(path, "w", encoding="utf-8") as handle:
    for j in range(runs):
        for first in range(0, len(rows), runs):
            test_id, _, *rest = rows[first + j]
            row = record_to_row((test_id, f"r{17 * j // runs}", *rest), stamps)
            handle.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\\n")
"""
INDEX = """
import json, sys, time
from timeopt.ingest import load_executions
from timeopt.model import ExecutionDataset
start = time.perf_counter()
loaded = load_executions(sys.argv[1])[0]
columns = loaded.tests, loaded.revisions, loaded.started_at, loaded.durations, loaded.verdicts
dataset = ExecutionDataset.from_columns(*columns, loaded.interrupted)  # no cached view
cleared = time.perf_counter()
dataset.test_index
middle = time.perf_counter()
dataset.sample_index
end = time.perf_counter()
print(json.dumps({"load_s": cleared - start, "test_index_s": middle - cleared,
                  "sample_index_s": end - middle}))
"""


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _spawn(src: str, argv: list[str], stdout: str) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child with ``src`` on its path;
    its stderr goes to ``stdout + ".err"``, and to this script's stderr if it fails."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, create, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stdout + ".err", create, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall, code = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
    if code:
        with open(stdout + ".err", encoding="utf-8", errors="replace") as handle:
            sys.stderr.write(handle.read()[-4000:])
    return wall, usage.ru_maxrss / 1024, code


def _run(src: str, name: str, runs: str, work: str) -> dict:
    """One command's measurement: wall, peak, exit and the digests of its outputs."""
    stdout, out = os.path.join(work, "stdout"), os.path.join(work, "out")
    for path in (stdout, out):
        if os.path.exists(path):
            os.remove(path)
    if name == "index":
        argv = ["-c", INDEX, runs]
    else:
        first, *rest = COMMANDS[name]
        argv = ["-m", "timeopt.cli", first, "--input", runs, *rest, "--out", out]
    wall, peak, code = _spawn(src, argv, stdout)
    result = {"wall_s": round(wall, 4), "peak_rss_mb": round(peak, 1), "exit": code}
    if name != "index":
        result["sha256"] = [_digest(stdout), _digest(out)]
    elif code == 0:
        with open(stdout, encoding="utf-8") as handle:
            result.update({k: round(v, 4) for k, v in json.loads(handle.read()).items()})
    return result


def _spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3
    return {"median": round(statistics.median(values), 4),
            "quartiles": [round(quartiles[0], 4), round(quartiles[2], 4)]}


METRICS = ("wall_s", "peak_rss_mb", "load_s", "test_index_s", "sample_index_s")


def _report(name: str, sides: dict[str, list[dict]]) -> dict:
    report: dict = {"runs": sides}
    for metric in METRICS:
        if not all(metric in run for runs in sides.values() for run in runs):
            continue
        values = {side: [run[metric] for run in runs] for side, runs in sides.items()}
        report[metric] = {side: _spread(v) for side, v in values.items()}
        if "parent" in values:
            pairs = list(zip(values["parent"], values["change"]))
            report[metric]["ratios"] = [round(c / p, 4) if p else None for p, c in pairs]
            report[metric]["change_lower_in"] = f"{sum(c < p for p, c in pairs)} of {len(pairs)}"
    if "parent" in sides and name != "index":
        report["outputs_equal"] = [
            p["sha256"] == c["sha256"] for p, c in zip(sides["parent"], sides["change"])
        ]
    return report


def _line(name: str, report: dict) -> str:
    runs = report["runs"]
    exits = sorted({run["exit"] for side in runs.values() for run in side})
    text = f"- paper-scale `{name}` (exit {', '.join(map(str, exits))}):"
    for side in runs:
        wall, peak = report["wall_s"][side]["median"], report["peak_rss_mb"][side]["median"]
        text += f" {side} {wall:.2f} s wall, {peak:.1f} MB peak RSS"
        for metric in ("test_index_s", "sample_index_s"):
            if metric in report:
                text += f", {metric[:-2]} {report[metric][side]['median']:.3f} s"
        text += ";"
    if "parent" in runs:
        text += f" change lower in {report['wall_s']['change_lower_in']} (wall),"
        text += f" {report['peak_rss_mb']['change_lower_in']} (peak)"
        if "outputs_equal" in report:
            text += f", outputs equal in {sum(report['outputs_equal'])} of {len(runs['change'])}"
    return text.rstrip(";")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layout", choices=("writer", "ci-export", "bad-rows"), default="writer")
    parser.add_argument("--runs", type=int, default=1, help="runs (pairs) per command")
    parser.add_argument("--against", help="the parent's tree, whose src/ runs alternately")
    parser.add_argument("--json", help="write the full report here")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    work = tempfile.mkdtemp(prefix="paper-scale-")
    trees = {"change": os.path.join(ROOT, "src")}
    if args.against:
        trees = {"parent": os.path.join(os.path.abspath(args.against), "src"), **trees}
    try:
        runs = os.path.join(work, "runs.jsonl")
        _, _, code = _spawn(trees["change"], ["-c", BUILD, runs, args.layout],
                            os.path.join(work, "build"))
        if code:
            return code
        measured: dict[str, dict[str, list[dict]]] = {
            name: {side: [] for side in trees} for name in [*COMMANDS, "index"]
        }
        for i in range(args.runs):
            for name in measured:
                order = list(trees) if i % 2 == 0 else list(trees)[::-1]
                for side in order:
                    measured[name][side].append(_run(trees[side], name, runs, work))
        reports = {name: _report(name, sides) for name, sides in measured.items()}
    finally:
        shutil.rmtree(work)
    for name, report in reports.items():
        print(_line(name, report))
    if args.json:
        header = {"layout": args.layout, "runs": args.runs, "python": sys.version.split()[0],
                  "against": args.against, "commands": {n: COMMANDS.get(n) for n in reports}}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({**header, "commands_measured": reports}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    if not sys.flags.no_site:  # the launcher stays small: no site-packages
        os.execv(sys.executable, [sys.executable, "-S", *sys.argv])
    sys.exit(main(sys.argv[1:]))
