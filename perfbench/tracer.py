"""Spans around the calls into phasetip's layers, recorded from outside.

The tracer replaces public functions in the namespaces that call them
(`phasetip.tipping` and `phasetip.cli`) with wrappers that record a span:
name, start, end, parent span and run id (the index of the CLI command),
plus a few counts taken from the arguments and results. Spans are kept in
memory and written out when the traced commands are done. The program
itself is not changed; a name it no longer binds is skipped, and its
metrics read 0.

`layer_metrics` turns the spans into the per-layer metrics of the
benchmark. Span names follow the module that defines the function.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

TIPPING_HOOKS = {
    "apply_transform": "counterfactual.apply_transform",
    "to_counting_process": "survival.to_counting_process",
    "cox_fit": "survival.cox_fit",
    "logrank_test": "survival.logrank_test",
    "make_draws": "counterfactual.make_draws",
    "evaluate_at": "tipping.evaluate_at",
}
CLI_HOOKS = {
    "read_dataset": "dataio.read_dataset",
    "find_tipping": "tipping.find_tipping",
    "grid_scan": "tipping.grid_scan",
    "emit_results": "cli.emit_results",
    "line_plot": "svgplot.line_plot",
}
ROOT = "cli.main"
SEARCHES = ("tipping.find_tipping", "tipping.grid_scan")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, run_id, info]
        self.run_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []
        self._draws = {}         # id -> draws object, kept alive so ids stay unique

    def call(self, name, fn, args=(), kwargs=None, describe=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id, {}]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            span[5] = {"error": type(err).__name__}
            raise
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if describe is not None:
            span[5] = describe(args, kwargs, result)
        return result

    def _describe(self, attr):
        if attr == "cox_fit":
            return lambda a, k, fit: {"iters": getattr(fit, "iterations", 0)}
        if attr == "to_counting_process":
            return lambda a, k, rows: {"rows": len(rows)}
        if attr == "make_draws":
            return lambda a, k, draws: {"imputed": len(getattr(draws, "values", ()))}
        if attr == "evaluate_at":
            def describe(args, kwargs, point):
                draws = _arg(args, kwargs, 2, "draws")
                self._draws[id(draws)] = draws
                return {"draws": id(draws), "evaluable": bool(point.evaluable)}
            return describe
        return None

    def _wrapper(self, attr, name, original):
        describe = self._describe(attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name
            if attr == "cox_fit":
                covariates = tuple(_arg(args, kwargs, 1, "covariates", ("trt",)))
                span_name += ".trt" if covariates == ("trt",) else ".full"
            return self.call(span_name, original, args, kwargs, describe)

        return traced

    def install(self):
        import phasetip.cli
        import phasetip.tipping

        for module, hooks in ((phasetip.tipping, TIPPING_HOOKS), (phasetip.cli, CLI_HOOKS)):
            for attr, name in hooks.items():
                original = getattr(module, attr, None)
                if original is None:
                    continue
                setattr(module, attr, self._wrapper(attr, name, original))
                self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._draws.clear()

    def dump(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover, in s."""
    children = defaultdict(list)
    for name, start, end, parent, run_id, info in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i])
        for i, (name, start, end, parent, run_id, info) in enumerate(spans)
    ]


LAYER_UNITS = {
    "survival.cox_fit.trt.calls": "count",
    "survival.cox_fit.trt.ms_per_call": "ms",
    "survival.cox_fit.trt.iters_per_fit": "iter/fit",
    "survival.cox_fit.full.calls": "count",
    "survival.cox_fit.full.ms_per_call": "ms",
    "survival.cox_fit.full.iters_per_fit": "iter/fit",
    "survival.cox_fit.failures": "count",
    "survival.to_counting_process.ms_per_call": "ms",
    "survival.rows_per_eval": "rows/eval",
    "survival.logrank_test.ms_per_call": "ms",
    "counterfactual.apply_transform.ms_per_call": "ms",
    "counterfactual.make_draws.calls": "count",
    "counterfactual.make_draws.ms": "ms",
    "counterfactual.imputed_values": "count",
    "dataio.read_dataset.ms": "ms",
    "tipping.evaluate_at.calls": "count",
    "tipping.evaluate_at.ms_per_call": "ms",
    "tipping.unevaluable": "count",
    "tipping.searches": "count",
    "tipping.evals_per_search": "evals/search",
    "tipping.self_ms": "ms",
    "cli.emit_results.ms": "ms",
    "svgplot.line_plot.ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, overhead_s: float) -> dict:
    """Per-layer metrics from the spans of one or more traced commands.

    Counts and totals are per CLI command (averaged over the traced
    commands); `ms_per_call` values are total span time over calls.
    """
    commands = max(1, sum(1 for s in spans if s[0] == ROOT))
    selfs = self_times(spans)
    calls = defaultdict(int)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    iters = defaultdict(int)
    fits = defaultdict(int)
    failures = rows = imputed = unevaluable = 0
    draw_sets = set()
    for (name, start, end, parent, run_id, info), own in zip(spans, selfs):
        calls[name] += 1
        ms[name] += 1e3 * (end - start)
        self_ms[name] += 1e3 * own
        if "error" in info:
            failures += name.startswith("survival.cox_fit.")
            continue
        if "iters" in info:
            iters[name] += info["iters"]
            fits[name] += 1
        rows += info.get("rows", 0)
        imputed += info.get("imputed", 0)
        if name == "tipping.evaluate_at":
            draw_sets.add((run_id, info["draws"]))
            unevaluable += not info["evaluable"]

    def per_call(name):
        return ms[name] / calls[name] if calls[name] else 0.0

    def iters_per_fit(name):
        return iters[name] / fits[name] if fits[name] else 0.0

    evals = calls["tipping.evaluate_at"]
    values = {
        "survival.cox_fit.trt.calls": calls["survival.cox_fit.trt"] / commands,
        "survival.cox_fit.trt.ms_per_call": per_call("survival.cox_fit.trt"),
        "survival.cox_fit.trt.iters_per_fit": iters_per_fit("survival.cox_fit.trt"),
        "survival.cox_fit.full.calls": calls["survival.cox_fit.full"] / commands,
        "survival.cox_fit.full.ms_per_call": per_call("survival.cox_fit.full"),
        "survival.cox_fit.full.iters_per_fit": iters_per_fit("survival.cox_fit.full"),
        "survival.cox_fit.failures": failures / commands,
        "survival.to_counting_process.ms_per_call": per_call("survival.to_counting_process"),
        "survival.rows_per_eval": rows / evals if evals else 0.0,
        "survival.logrank_test.ms_per_call": per_call("survival.logrank_test"),
        "counterfactual.apply_transform.ms_per_call": per_call("counterfactual.apply_transform"),
        "counterfactual.make_draws.calls": calls["counterfactual.make_draws"] / commands,
        "counterfactual.make_draws.ms": ms["counterfactual.make_draws"] / commands,
        "counterfactual.imputed_values": imputed / commands,
        "dataio.read_dataset.ms": ms["dataio.read_dataset"] / commands,
        "tipping.evaluate_at.calls": evals / commands,
        "tipping.evaluate_at.ms_per_call": per_call("tipping.evaluate_at"),
        "tipping.unevaluable": unevaluable / commands,
        "tipping.searches": len(draw_sets) / commands,
        "tipping.evals_per_search": evals / len(draw_sets) if draw_sets else 0.0,
        "tipping.self_ms": sum(self_ms[n] for n in SEARCHES) / commands,
        "cli.emit_results.ms": ms["cli.emit_results"] / commands,
        "svgplot.line_plot.ms": ms["svgplot.line_plot"] / commands,
        "cli.self_ms": self_ms[ROOT] / commands,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
