"""Command-line entry point for batch analytics and optimization runs.

Every subcommand is a thin adapter over one module operation; results are
identical to calling the operation directly. Durations on the command line
are minutes (one grid unit); internally everything is seconds. Randomized
subcommands require an explicit --seed and produce byte-identical output
across invocations. Exit codes: 0 success, 1 usage error, 2 data error.

Each subcommand imports only the modules it runs: this module loads
ingest, model and optimize, and a handler imports evaluate, flakiness or
simulate itself when it needs them. Library operations return their
diagnostics as notes, and only ``_warn`` writes them, one line each.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import ingest
from . import optimize as op
from .model import DISTRIBUTIONS, GRID_SECONDS, TimeoutPolicy, valid_minutes

if TYPE_CHECKING:
    from .evaluate import CvReport

_METHOD_ALIASES = {
    "tolhurst": op.TOLHURST_BOUND,
    "tolhurst_bound": op.TOLHURST_BOUND,
    "empirical": op.EMPIRICAL_ECDF,
    "empirical_ecdf": op.EMPIRICAL_ECDF,
}
_DEFAULTS = op.OptimizationConfig()  # the one source of every optimizer flag default
# Bounds on the work one command does: a sweep scores every sample at each of
# its --hi - --lo + 1 points, and simulate replays --m reruns per timeout event.
_MAX_SWEEP_SPAN = 10_000
_MAX_SIMULATE_M = 1_000


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors.

    ``check``, if given, reads the parsed flags and returns a usage error that
    no single flag shows, or None; this parser reports it with its own usage.
    """

    def __init__(
        self, *args: Any, check: Callable[[argparse.Namespace], str | None] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.check = check

    def parse_known_args(self, args=None, namespace=None):  # type: ignore[override]
        namespace, extras = super().parse_known_args(args, namespace)
        message = self.check(namespace) if self.check else None
        if message:
            self.error(message)
        return namespace, extras

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "csv" if Path(path).suffix.lower() == ".csv" else "jsonl"


def _warn(*notes: str) -> None:
    sys.stderr.writelines(f"warning: {note}\n" for note in notes)


def _load(path: str, fmt: str | None, loader: Callable | None = None) -> Any:
    """What ``loader`` reads from ``path``, once its report's notes and rejections
    are warned after the path as given. The default, ``ingest.load_executions``, is
    looked up at each call, so a wrapper patched in its place (the benchmark's tracer) is used."""
    result, report = (loader or ingest.load_executions)(path, _infer_format(path, fmt))
    notes = list(report.warnings)
    if report.rejected:
        notes.append(f"rejected {report.rejected} rows: {dict(report.reasons)}")
    _warn(*(f"{path}: {note}" for note in notes))
    return result


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(payload: Any, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _bounded(kind: type, low: float, high: float | None = None, minutes: bool = False):
    """An argparse type: a ``kind`` value in [low, high], and one that
    ``valid_minutes`` takes if ``minutes``; else a usage error."""

    def parse(text: str):
        value = kind(text)
        if not (low <= value and (high is None or value <= high)):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
        if minutes and not valid_minutes(value):
            raise argparse.ArgumentTypeError(f"must be finite in seconds, got {text} minutes")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_MINUTES = _bounded(int, 1, minutes=True)  # the type of every flag in minutes


def _config_from_args(args: argparse.Namespace) -> op.OptimizationConfig:
    return op.OptimizationConfig(
        rerun_count=args.m,
        breakage_probability=args.pb,
        probability_method=_METHOD_ALIASES[getattr(args, "method", _DEFAULTS.probability_method)],
        min_samples=getattr(args, "min_samples", _DEFAULTS.min_samples),
        fallback_timeout=getattr(args, "fallback", _DEFAULTS.fallback_timeout),
    )


def _result_record(result: op.OptimizationResult) -> dict[str, Any]:
    return {
        "test_id": result.test_id,
        "optimal_timeout_minutes": result.optimal_timeout,
        "expected_cost_seconds": result.expected_cost_at_optimum,
        "probability_method": result.method_used,
        "fallback_applied": result.fallback_applied,
    }


def _cmd_summarize(args: argparse.Namespace) -> int:
    dataset = _load(args.input, args.format)
    summary = ingest.summarize(dataset)
    if args.output_format == "table":
        lines = [f"{name:<18} {value}" for name, value in summary._asdict().items()]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json(summary._asdict(), args.out)
    return 0


def _cmd_flakiness(args: argparse.Namespace) -> int:
    from . import flakiness as fl
    dataset = _load(args.input, args.format)
    report = fl.flakiness_report(dataset, args.revision)
    evolution = fl.flakiness_evolution(dataset, args.revision, args.step)
    share, notes = fl.timeout_failure_share(dataset)
    _warn(*notes)
    _emit_json(
        {
            "report": report._asdict(),
            "evolution": {"revision_id": evolution.revision_id, "points": evolution.points},
            "timeout_failure_share": share,
        },
        args.out,
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import flakiness as fl
    dataset_a = _load(args.input_a, args.format)
    dataset_b = _load(args.input_b, args.format)
    comparison = fl.compare_flakiness(
        dataset_a, dataset_b, args.revision_a, args.revision_b
    )
    _warn(*comparison.warnings)
    relative = comparison.relative_change  # infinite for a rise from a zero rate
    _emit_json(
        {
            "report_a": comparison.report_a._asdict(),
            "report_b": comparison.report_b._asdict(),
            "absolute_change": comparison.absolute_change,
            "relative_change": relative if math.isfinite(relative) else None,
            "warnings": comparison.warnings,
        },
        args.out,
    )
    return 0


def _cmd_timeout_history(args: argparse.Namespace) -> int:
    from . import flakiness as fl
    changes = _load(args.input, args.format, ingest.load_timeout_changes)
    _emit_json(fl.timeout_change_stats(changes)._asdict(), args.out)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    dataset = _load(args.input, args.format)
    fitted = op.TimeoutOptimizer(_config_from_args(args)).fit(dataset)
    if args.output_format == "csv":
        _emit(ingest.timeout_policy_csv(fitted.timeouts_), args.out)
    else:
        _emit_json([_result_record(r) for r in fitted.results_.values()], args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = _load(args.input, args.format)
    config = _config_from_args(args)
    result = op.static_sweep(dataset, (args.lo, args.hi), config)
    _emit_json(
        {
            "optimal_timeout_minutes": result.optimal_timeout,
            "average_cost_seconds": result.average_cost_at_optimum,
            "curve": result.curve.points,
        },
        args.out,
    )
    return 0


def _cv_table(report: CvReport) -> str:
    lines = [f"{'fold':>4}  {'policy':<12} {'flaky_timeouts':>14} {'avg_cost_s':>12}"]
    for row in report.rows:
        lines.append(
            f"{row.fold:>4}  {row.policy:<12} {row.flaky_timeout_count:>14} "
            f"{row.average_cost:>12.2f}"
        )
    lines.append("")
    for a, against in sorted(report.timeout_reduction.items()):
        for b, ratio in sorted(against.items()):
            if a == b or ratio is None:
                continue
            lines.append(f"timeout reduction {a} vs {b}: {ratio:.1%}")
    return "\n".join(lines) + "\n"


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from . import evaluate as ev
    dataset = _load(args.input, args.format)
    config = _config_from_args(args)
    policies: list[TimeoutPolicy] = []
    if args.timeouts:
        policies.append(ingest.load_timeout_policy(args.timeouts))
    if args.static is not None:
        policies.append(TimeoutPolicy.static(args.static))
    if not policies:
        policies.append(TimeoutPolicy.static(120))
    report = ev.cross_validate(dataset, policies, config, k=args.k, seed=args.seed)
    if excluded := report.excluded_tests:
        _warn(
            f"excluded {len(excluded)} tests with fewer than {report.k} executions: "
            f"{list(excluded[:5])}{'...' if len(excluded) > 5 else ''}"
        )
    # the totals table below the per-fold one scores the whole-dataset fit;
    # nothing is written until both tables are complete
    optimized = TimeoutPolicy(ev.OPTIMIZED_POLICY, values=report.fitted_timeouts)
    entries = ev.compare_policies(dataset, policies + [optimized], config)
    lines = [
        f"total {entry.policy}: timeouts={entry.flaky_timeout_count} "
        f"avg_cost_s={entry.average_cost:.2f} median_timeout={entry.median_timeout:g}\n"
        for entry in entries
    ]
    sys.stdout.write(_cv_table(report) + "".join(lines))

    if args.out:
        payload = {
            "k": report.k,
            "seed": report.seed,
            "policies": report.policies,
            "folds": [row._asdict() for row in report.rows],
            "timeout_reduction": report.timeout_reduction,
            "excluded_tests": report.excluded_tests,
            "totals": [entry._asdict() for entry in entries],
        }
        _emit_json(payload, args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulate as sim
    spec = sim.WorkloadSpec(
        test_count=args.tests,
        executions_per_test=args.runs,
        base_distribution=args.distribution,
        scale_seconds=args.scale * GRID_SECONDS,
        sigma=args.sigma,
        scale_spread=args.spread,
        outlier_probability=args.outlier_prob,
        outlier_factor_range=(args.outlier_lo, args.outlier_hi),
        hang_probability=args.hang_prob,
        original_timeout_percentile=args.percentile,
        seed=args.seed,
    )
    dataset, policy, _ = sim.generate_workload(spec)
    if args.out:
        ingest.write_executions(dataset, args.out, "jsonl")
    if args.timeouts_out:
        ingest.write_timeout_policy(policy, args.timeouts_out)
    report = sim.simulate_rerun_policy(
        dataset, policy, rerun_count=args.m, seed=args.seed
    )
    _emit_json(
        {
            "initial_runs": report.initial_runs,
            "timeout_events": report.timeout_events,
            "rerun_count": report.rerun_count,
            "total_machine_seconds": report.total_machine_seconds,
            "mean_cost_per_initial_run_seconds": report.mean_cost_per_initial_run,
            "final_verdicts": report.final_verdicts,
        },
        args.report_out,
    )
    return 0


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="execution data file")
    parser.add_argument("--format", choices=("jsonl", "csv"), default=None)
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def _add_cost_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--m",
        type=_bounded(int, 0, sys.float_info.max),  # OptimizationConfig's range
        default=_DEFAULTS.rerun_count,
        help="rerun count per flaky failure",
    )
    parser.add_argument(
        "--pb",
        type=_bounded(float, 0, 1),
        default=_DEFAULTS.breakage_probability,
        help="breakage probability",
    )


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the per-test fit; the static sweep is always empirical."""
    parser.add_argument(
        "--method",
        choices=sorted(_METHOD_ALIASES),
        default=_DEFAULTS.probability_method,
        help="timeout-probability estimator",
    )
    parser.add_argument(
        "--min-samples",
        type=_bounded(int, 2),
        default=_DEFAULTS.min_samples,
        help="smallest sample that gets a data-driven timeout",
    )
    parser.add_argument(
        "--fallback",
        type=_MINUTES,
        default=_DEFAULTS.fallback_timeout,
        help="fallback timeout, minutes",
    )


def _sweep_span_error(args: argparse.Namespace) -> str | None:
    if args.hi - args.lo > _MAX_SWEEP_SPAN:
        return f"argument --hi: must be at most --lo + {_MAX_SWEEP_SPAN}, got {args.hi}"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="timeopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", parents=[], help="dataset headline counts")
    _add_io_flags(p)
    p.add_argument("--output-format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("flakiness", help="flakiness report for one revision")
    _add_io_flags(p)
    p.add_argument("--revision", required=True)
    p.add_argument("--step", type=_bounded(int, 1), default=20, help="evolution prefix step")
    p.set_defaults(func=_cmd_flakiness)

    p = sub.add_parser("compare", help="compare flakiness of two revisions")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--format", choices=("jsonl", "csv"), default=None)
    p.add_argument("--revision-a", required=True)
    p.add_argument("--revision-b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("timeout-history", help="statistics of timeout-value changes")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_timeout_history)

    p = sub.add_parser("optimize", help="cost-optimal timeout per test")
    _add_io_flags(p)
    _add_cost_flags(p)
    _add_fit_flags(p)
    p.add_argument("--output-format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "sweep", help="average cost of static global timeouts", check=_sweep_span_error
    )
    _add_io_flags(p)
    _add_cost_flags(p)
    p.add_argument("--lo", type=_MINUTES, required=True, help="sweep start, minutes")
    p.add_argument(
        "--hi",
        type=_MINUTES,
        required=True,
        help=f"sweep end, minutes; at most --lo + {_MAX_SWEEP_SPAN}",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="cross-validate timeout policies")
    _add_io_flags(p)
    _add_cost_flags(p)
    _add_fit_flags(p)
    p.add_argument("--k", type=_bounded(int, 2), default=5, help="number of folds")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--static", type=_MINUTES, help="static baseline, minutes")
    p.add_argument("--timeouts", default=None, help="CSV of original per-test timeouts")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="generate a synthetic fleet and replay reruns")
    p.add_argument("--tests", type=_bounded(int, 1), required=True)
    p.add_argument("--runs", type=_bounded(int, 1), required=True, help="executions per test")
    p.add_argument("--distribution", choices=DISTRIBUTIONS, default="lognormal")
    p.add_argument("--scale", type=float, default=5.0, help="scale (median/mean), minutes")
    p.add_argument("--sigma", type=_bounded(float, 0), default=0.5)
    p.add_argument("--spread", type=float, default=1.0, help="per-test scale spread")
    p.add_argument("--outlier-prob", type=_bounded(float, 0, 1), default=0.0)
    p.add_argument("--outlier-lo", type=float, default=2.0)
    p.add_argument("--outlier-hi", type=float, default=10.0)
    p.add_argument("--hang-prob", type=_bounded(float, 0, 1), default=0.0)
    p.add_argument("--percentile", type=float, default=0.85)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--m",
        type=_bounded(int, 0, _MAX_SIMULATE_M),
        default=_DEFAULTS.rerun_count,
        help=f"reruns per timed-out run, at most {_MAX_SIMULATE_M}",
    )
    p.add_argument("--out", default=None, help="write the dataset as JSONL here")
    p.add_argument("--timeouts-out", default=None, help="write the original policy CSV here")
    p.add_argument("--report-out", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_simulate)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
