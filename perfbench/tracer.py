"""In-process traced run: spans around the calls into each ``timeopt`` module.

For the traced run only, the public entry points listed in ``ENTRY_POINTS``
are wrapped wherever a ``timeopt`` module holds them (a module that imported
a function by name holds its own reference), then restored. Each call is kept
in memory as a span (name, start, end, parent span, command); a layer's self
time is its span minus its direct child spans. Counts come from the
arguments and return values the wrappers see. An entry point that no longer
exists makes the metrics built on it ``unmeasured`` with the reason.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    command: str
    end: float = 0.0


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.command = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus that of its direct children."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter[str]]:
        """Inclusive seconds, self seconds and call count per span name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for span, self_s in zip(self.spans, self._self_seconds()):
            total[span.name] += span.end - span.start
            own[span.name] += self_s
            calls[span.name] += 1
        return total, own, calls

    def module_self_seconds(self) -> dict[str, dict[str, float]]:
        """command -> module -> self seconds of that module's spans."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, self_s in zip(self.spans, self._self_seconds()):
            out[span.command][span.name.split(".")[0]] += self_s
        return out


def _observe_load(counts: Counter, args: tuple, result: Any) -> None:
    _, report = result
    counts["rows"] += report.accepted
    counts["rejected"] += report.rejected
    counts["warnings"] += len(report.warnings)


def _observe_optimize(counts: Counter, args: tuple, result: Any) -> None:
    if result.fallback_applied:
        counts["fallbacks"] += 1
        return
    lower, upper = result.search_range
    counts["grid_points"] += upper - lower + 1
    counts["upper_edge_hits"] += result.optimal_timeout == upper


def _observe_sweep(counts: Counter, args: tuple, result: Any) -> None:
    samples = sum(1 for s in args[0].samples.values() if s.n > 0)
    counts["sweep_points"] += samples * len(result.curve.points)


def _observe_replay(counts: Counter, args: tuple, result: Any) -> None:
    counts["timeout_events"] += result.timeout_events
    counts["reruns"] += result.rerun_count
    # Runs that did not time out are accepted at once; the rest of the
    # accepted runs are timeout chains a rerun rescued.
    counts["rerun_successes"] += result.accepted - (result.initial_runs - result.timeout_events)


ENTRY_POINTS: dict[str, Callable | None] = {
    "ingest.load_executions": _observe_load,
    "ingest.write_executions": None,
    "model.ExecutionDataset.samples": lambda c, a, r: c.update(groups=len(r)),
    "model.ExecutionDataset.pooled_sample": None,
    "optimize.optimize_timeout": _observe_optimize,
    "optimize.TimeoutOptimizer.fit": None,
    "optimize.static_sweep": _observe_sweep,
    "evaluate.make_folds": None,
    "evaluate.cross_validate": None,
    "evaluate.compare_policies": None,
    "simulate.generate_workload": lambda c, a, r: c.update(records=len(r[0])),
    "simulate.TestDistribution.quantile": None,
    "simulate.simulate_rerun_policy": _observe_replay,
    "flakiness.flakiness_report": None,
    "flakiness.flakiness_evolution": lambda c, a, r: c.update(evolution_points=len(r.points)),
    "flakiness.timeout_failure_share": None,
}

COMMAND_SPAN = "cli.run"
COMMANDS = ("optimize", "sweep", "evaluate", "simulate", "flakiness")

# name -> (unit, entry point, how): how is "total" or "self" seconds of the
# entry's spans, "calls", a count key filled by an observer, or derived below.
# The counts in PER_CALL describe one load or one grouping, so they are
# averaged over the entry's calls rather than summed over the commands.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "cli.import_s": ("s", COMMAND_SPAN, "import"),
    "cli.self_s": ("s", COMMAND_SPAN, "self"),
    "ingest.load_s": ("s", "ingest.load_executions", "self"),
    "ingest.rows": ("count", "ingest.load_executions", "rows"),
    "ingest.rejected": ("count", "ingest.load_executions", "rejected"),
    "ingest.warnings": ("count", "ingest.load_executions", "warnings"),
    "ingest.rows_per_s": ("1/s", "ingest.load_executions", "rows_per_s"),
    "ingest.write_s": ("s", "ingest.write_executions", "total"),
    "ingest.retained_mb": ("MB", "ingest.load_executions", "retained"),
    "model.group_s": ("s", "model.ExecutionDataset.samples", "total"),
    "model.groups": ("count", "model.ExecutionDataset.samples", "groups"),
    "model.pooled_s": ("s", "model.ExecutionDataset.pooled_sample", "total"),
    "model.pooled_calls": ("count", "model.ExecutionDataset.pooled_sample", "calls"),
    "optimize.kernel_s": ("s", "optimize.optimize_timeout", "self"),
    "optimize.kernel_calls": ("count", "optimize.optimize_timeout", "calls"),
    "optimize.grid_points": ("count", "optimize.optimize_timeout", "grid_points"),
    "optimize.fallbacks": ("count", "optimize.optimize_timeout", "fallbacks"),
    "optimize.upper_edge_hits": ("count", "optimize.optimize_timeout", "upper_edge_hits"),
    "optimize.fit_s": ("s", "optimize.TimeoutOptimizer.fit", "total"),
    "optimize.sweep_s": ("s", "optimize.static_sweep", "self"),
    "optimize.sweep_points": ("count", "optimize.static_sweep", "sweep_points"),
    "evaluate.folds_s": ("s", "evaluate.make_folds", "total"),
    "evaluate.cv_self_s": ("s", "evaluate.cross_validate", "self"),
    "evaluate.cv_fits": ("count", "evaluate.cross_validate", "cv_fits"),
    "evaluate.compare_s": ("s", "evaluate.compare_policies", "self"),
    "simulate.generate_s": ("s", "simulate.generate_workload", "self"),
    "simulate.quantile_s": ("s", "simulate.TestDistribution.quantile", "total"),
    "simulate.quantile_calls": ("count", "simulate.TestDistribution.quantile", "calls"),
    "simulate.records": ("count", "simulate.generate_workload", "records"),
    "simulate.replay_s": ("s", "simulate.simulate_rerun_policy", "total"),
    "simulate.timeout_events": ("count", "simulate.simulate_rerun_policy", "timeout_events"),
    "simulate.reruns": ("count", "simulate.simulate_rerun_policy", "reruns"),
    "simulate.rerun_success_ratio": ("ratio", "simulate.simulate_rerun_policy", "success_ratio"),
    "flakiness.report_s": ("s", "flakiness.flakiness_report", "total"),
    "flakiness.evolution_s": ("s", "flakiness.flakiness_evolution", "total"),
    "flakiness.evolution_points": ("count", "flakiness.flakiness_evolution", "evolution_points"),
    "flakiness.share_s": ("s", "flakiness.timeout_failure_share", "total"),
    **{f"trace.{c}_overhead_s": ("s", COMMAND_SPAN, "overhead") for c in COMMANDS},
}
PER_CALL = {"rows", "rejected", "warnings", "groups"}


def _resolve(path: str) -> tuple[Any, str, Any]:
    """(owner, attribute, current value) of ``timeopt.<path>``; KeyError if gone."""
    module_name, *rest = path.split(".")
    try:
        owner: Any = importlib.import_module(f"timeopt.{module_name}")
    except ImportError:
        raise KeyError(f"timeopt.{module_name} cannot be imported") from None
    for name in rest[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            raise KeyError(f"timeopt.{path} not found")
    attr = rest[-1]
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        raise KeyError(f"timeopt.{path} not found")
    return owner, attr, value


class Patches:
    """Wraps the entry points for the duration of a ``with`` block."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: dict[str, str] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patches":
        try:
            for path, observe in ENTRY_POINTS.items():
                try:
                    owner, attr, value = _resolve(path)
                except KeyError as exc:
                    self.missing[path] = str(exc.args[0])
                    continue
                if isinstance(owner, type):
                    self._patch_class(owner, attr, value, path, observe)
                else:
                    self._patch_modules(value, path, observe)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch_class(self, owner: type, attr: str, value: Any, path: str, observe) -> None:
        if isinstance(value, cached_property):
            wrapped: Any = cached_property(self.tracer.wrap(path, value.func, observe))
            wrapped.__set_name__(owner, attr)
        else:
            wrapped = self.tracer.wrap(path, value, observe)
        self._undo.append((owner, attr, value))
        setattr(owner, attr, wrapped)

    def _patch_modules(self, value: Any, path: str, observe) -> None:
        wrapped = self.tracer.wrap(path, value, observe)
        for name, module in list(sys.modules.items()):
            if not (name == "timeopt" or name.startswith("timeopt.")):
                continue
            if not isinstance(module, types.ModuleType):
                continue
            for attr, held in list(vars(module).items()):
                if held is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def __exit__(self, *exc: object) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(
    tracer: Tracer,
    missing: dict[str, str],
    extra: dict[str, float | None],
) -> dict[str, dict[str, Any]]:
    """Every per-layer metric, or ``unmeasured`` with the reason.

    ``extra`` holds the values measured outside the traced spans: the import
    time, the retained memory and the per-command overheads.
    """
    total, own, calls = tracer.totals()
    counts = tracer.counts
    cv_fits = sum(
        1
        for span in tracer.spans
        if span.name == "optimize.optimize_timeout"
        and span.parent is not None
        and tracer.spans[span.parent].name == "evaluate.cross_validate"
    )
    out: dict[str, dict[str, Any]] = {}
    for name, (unit, entry, how) in LAYER_METRICS.items():
        needs = [entry] + (["optimize.optimize_timeout"] if how == "cv_fits" else [])
        gone = [missing[e] for e in needs if e in missing]
        value: float | None
        if gone:
            out[name] = {"value": None, "unit": unit, "unmeasured": "; ".join(gone)}
            continue
        if how in ("import", "retained", "overhead"):
            value = extra.get(name)
        elif how == "total":
            value = total[entry]
        elif how == "self":
            value = own[entry]
        elif how == "calls":
            value = calls[entry]
        elif how in PER_CALL:
            value = counts[how] / calls[entry] if calls[entry] else None
        elif how == "cv_fits":
            value = cv_fits
        elif how == "rows_per_s":
            value = counts["rows"] / own[entry] if own[entry] > 0 else None
        elif how == "success_ratio":
            events = counts["timeout_events"]
            value = counts["rerun_successes"] / events if events else None
        else:
            value = counts[how]
        if value is None:
            out[name] = {"value": None, "unit": unit, "unmeasured": "no data in this workload"}
        else:
            out[name] = {"value": value, "unit": unit}
    return out
