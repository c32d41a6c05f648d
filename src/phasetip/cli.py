"""Command-line interface.

Subcommands:

  analyze   primary-analysis report: KM medians, log-rank p, overall HR,
            phase-specific HRs
  tpa       tipping-point analysis for one effect and stop rule; writes
            results.csv into the output directory
  simulate  emit a calibrated synthetic trial dataset as CSV
  curve     evaluate the adjustment-factor grid and emit the curve CSV
            plus an SVG plot

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A flat key=value config file can supply any long flag's value; explicit
flags win. A key that no command reads is a data error. The PHASETIP_SEED
environment variable is the seed fallback when neither the flag nor the
config file sets one.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .counterfactual import Effect, Threshold
from .dataio import read_dataset, write_dataset
from .errors import DataError, EstimationError, PhasetipError
from .records import Arm
from .simulate import SimConfig, simulate_trial, summarize_trial
from .survival import cox_fit, logrank_test, phase_hr, risk_table
from .svgplot import line_plot
from .tipping import SearchConfig, TpaResult, check_grid_points, find_tipping, grid_scan

__all__ = ["main", "entry", "emit_results"]

CURVE_COLUMNS = ["gamma", "p", "hr_overall", "hr_mono"]
RESULT_COLUMNS = [
    "effect_method", "adjustment_factor_at_tip", "avg_n_events",
    "hr_at_tip", "p_at_tip",
    "tip_min", "tip_max", "tip_sd", "n_replicates", "n_degenerate", "flags",
]


class UsageError(PhasetipError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _num(value):
    return "" if value is None else repr(float(value))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phasetip", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key=value file supplying flag defaults")
    common.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("analyze", parents=[common], help="primary-analysis report")
    p.add_argument("--input", required=True)
    p.add_argument("--stratified", action="store_true", default=None)
    p.add_argument("--ties", choices=("efron", "breslow"), default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tpa", parents=[common], help="tipping-point analysis")
    p.add_argument("--input", required=True)
    p.add_argument("--effect", choices=("1", "2"), default=None)
    p.add_argument("--threshold", choices=("a", "b"), default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--imputation", choices=("auto", "cutoff", "fitted"), default=None)
    p.add_argument("--p-source", choices=("logrank", "wald"), default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_tpa)

    p = sub.add_parser("simulate", parents=[common], help="emit a synthetic trial")
    p.add_argument("--out", required=True, help="output CSV path")
    for flag, cast in SIM_FLAGS.items():
        p.add_argument(f"--{flag}", type=cast, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curve", parents=[common], help="factor-grid curve and plot")
    p.add_argument("--input", required=True)
    p.add_argument("--effect", choices=("1", "2"), default=None)
    p.add_argument("--threshold", choices=("a", "b"), default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--imputation", choices=("auto", "cutoff", "fitted"), default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_curve)

    return parser


SIM_FLAGS = {
    "n-experimental": int,
    "n-control": int,
    "combo-event-hazard": float,
    "switch-hazard": float,
    "mono-event-hazard": float,
    "hr-combo": float,
    "hr-mono": float,
    "switch-multiplier": float,
    "accrual-months": float,
    "cutoff-months": float,
    "dropout-hazard": float,
}
# The keys a config file may set: the settings some command reads through
# _Options (alpha-level has no flag). The tpa search brackets the tip with
# steps doubling from grid-step and ends at an exact rank breakpoint, so no
# key sets a search tolerance.
CONFIG_KEYS = frozenset({
    "seed", "effect", "threshold", "replicates", "grid-step", "grid-max", "grid-min",
    "imputation", "p-source", "alpha-level", "stratified", "ties",
    *SIM_FLAGS,
})


def _load_config(path) -> dict:
    cfg = {}
    try:
        with open(path) as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataError(f"bad config line (need key=value): {line!r}")
                key, value = line.split("=", 1)
                name = key.strip().replace("_", "-")
                if name not in CONFIG_KEYS:
                    raise DataError(f"unknown config key {key.strip()!r}: no command reads it")
                cfg[name] = value.strip()
    except OSError as err:
        raise DataError(f"cannot read config file: {err}") from None
    return cfg


class _Options:
    """Flag > config file > fallback resolution for one command."""

    def __init__(self, args):
        self.args = args
        self.cfg = _load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name, cast, fallback):
        explicit = getattr(self.args, name, None)
        if explicit is not None:
            return cast(explicit)
        key = name.replace("_", "-")
        if key in self.cfg:
            raw = self.cfg[key]
            try:
                return cast(raw)
            except (TypeError, ValueError):
                raise DataError(f"config value for {key} is invalid: {raw!r}") from None
        return fallback

    def given(self, **casts) -> dict:
        """The settings among `casts` (name -> cast) that a flag or the
        config file sets, so that the callee's own defaults fill the rest."""
        values = {name: self.get(name, cast, None) for name, cast in casts.items()}
        return {name: value for name, value in values.items() if value is not None}

    def seed(self) -> int:
        seed = self.get("seed", int, None)
        if seed is None:
            env = os.environ.get("PHASETIP_SEED")
            try:
                seed = int(env) if env else 0
            except ValueError:
                raise DataError(f"PHASETIP_SEED is not an integer: {env!r}") from None
        if seed < 0:
            raise DataError(f"seed must be non-negative, got {seed}")
        return seed


def _refuse_fit_settings(opt) -> None:
    """tpa and curve fit unstratified Efron models; refuse a config file
    that asks for strata or Breslow ties instead of ignoring it."""
    for key, accepted in (("stratified", ("false", "0")), ("ties", ("efron",))):
        if key in opt.cfg and opt.cfg[key] not in accepted:
            raise DataError(
                f"config key {key}={opt.cfg[key]!r} is not supported by "
                f"{opt.args.command}: it fits unstratified models with Efron ties"
            )


def _boolean(raw) -> bool:
    """An on/off setting: True from its flag; true, false, 1 or 0 from a file."""
    if raw is True or raw in ("true", "1"):
        return True
    if raw in ("false", "0"):
        return False
    raise ValueError(raw)


# ---------------------------------------------------------------------------
# analyze


def _fmt_ci(ci):
    return f"({ci[0]:.3f}, {ci[1]:.3f})"


def cmd_analyze(args) -> int:
    opt = _Options(args)
    trial = read_dataset(args.input)
    if not trial:
        raise DataError("dataset is empty")
    stratified = opt.get("stratified", _boolean, False)
    ties = opt.get("ties", str, "efron")
    table = risk_table(trial, ties, stratified)   # refuses an unknown ties method
    lines = []
    arms = summarize_trial(trial).arms
    for arm, label in ((Arm.EXPERIMENTAL, "Experimental"), (Arm.CONTROL, "Control")):
        summary = arms[arm]
        if not summary.n:
            raise DataError(f"no subjects on the {label.lower()} arm")
        median = "not reached" if summary.median_pfs is None else f"{summary.median_pfs:.2f}"
        lines.append(
            f"{label} arm: n={summary.n}, events={summary.events}, "
            f"censored={summary.censored}, median PFS={median} months"
        )
    lr = logrank_test(trial, stratified)
    lines.append(f"Log-rank chi2={lr.chi2:.4f}, two-sided p={lr.p_two_sided:.6g}")
    overall = cox_fit(table, ("trt",))
    hr, ci = overall.contrast(("trt",))
    lines.append(f"Overall HR={hr:.4f} {_fmt_ci(ci)}")
    phases = phase_hr(trial, table)
    lines.append(f"Combination-phase HR={phases.hr_combo:.4f} {_fmt_ci(phases.ci_combo)}")
    if phases.hr_mono is None:
        lines.append("Monotherapy-phase HR: not estimable (no transitions observed)")
    else:
        lines.append(f"Monotherapy-phase HR={phases.hr_mono:.4f} {_fmt_ci(phases.ci_mono)}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# tpa


def _search_config(opt) -> SearchConfig:
    """The tpa settings that a flag or the config file sets, on top of the
    defaults of SearchConfig."""
    given = opt.given(effect=Effect.from_number, threshold=Threshold, alpha_level=float,
                      grid_step=float, grid_max=float, grid_min=float,
                      replicates=int, imputation=str, p_source=str)
    if "replicates" in given:
        given["mi_replicates"] = given.pop("replicates")
    return SearchConfig(seed=opt.seed(), **given)


def emit_results(results: list[TpaResult], outdir) -> str:
    """Write results.csv (one row per effect/threshold) into `outdir`."""
    try:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "results.csv")
        with open(path, "w", newline="") as handle:
            handle.write(",".join(RESULT_COLUMNS) + "\n")
            for res in results:
                row = [
                    f"effect{res.effect.number}_threshold_{res.threshold.value}",
                    _num(res.tip),
                    _num(res.n_events_at_tip),
                    _num(res.hr_at_tip),
                    _num(res.p_at_tip),
                    _num(res.tip_min),
                    _num(res.tip_max),
                    _num(res.tip_sd),
                    str(len(res.replicates)),
                    str(res.n_degenerate),
                    '"' + "; ".join(res.flags).replace('"', "'") + '"',
                ]
                handle.write(",".join(row) + "\n")
    except OSError as err:
        raise DataError(f"cannot write results: {err}") from None
    return path


def cmd_tpa(args) -> int:
    opt = _Options(args)
    _refuse_fit_settings(opt)
    trial = read_dataset(args.input)
    if not trial:
        raise DataError("dataset is empty")
    config = _search_config(opt)
    result = find_tipping(trial, config)
    path = emit_results([result], args.out)
    if result.tip is None:
        print(f"no tipping point in range (details in {path})")
    else:
        hr = "n/a" if result.hr_at_tip is None else f"{result.hr_at_tip:.4f}"
        p = "n/a" if result.p_at_tip is None else f"{result.p_at_tip:.4g}"
        kind = "degenerate at start" if result.degenerate else "tipping point"
        print(
            f"effect {config.effect.number}, threshold {config.threshold.value}: {kind} "
            f"factor={result.tip:.4f} (HR at tip {hr}, p at tip {p}, "
            f"replicates {len(result.replicates)}, spread sd={result.tip_sd:.4g})"
        )
    print(f"results written to {path}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    opt = _Options(args)
    overrides = opt.given(**{flag.replace("-", "_"): cast for flag, cast in SIM_FLAGS.items()})
    trial = simulate_trial(SimConfig(**overrides), seed=opt.seed())
    write_dataset(trial, args.out)
    summary = summarize_trial(trial)
    print(
        f"wrote {len(trial)} subjects to {args.out} "
        f"(events {summary.total_events}, "
        f"monotherapy fraction {summary.mono_fraction:.3f})"
    )
    return 0


# ---------------------------------------------------------------------------
# curve


def cmd_curve(args) -> int:
    opt = _Options(args)
    _refuse_fit_settings(opt)
    trial = read_dataset(args.input)
    if not trial:
        raise DataError("dataset is empty")
    config = SearchConfig(
        seed=opt.seed(),
        **opt.given(effect=Effect.from_number, threshold=Threshold, imputation=str,
                    p_source=str, alpha_level=float),
    )
    effect, threshold = config.effect, config.threshold
    step = opt.get("grid_step", float, 0.05)
    if not step > 0:
        raise DataError("grid_step must be positive")
    if effect is Effect.INFLATE_CONTROL:
        hi = opt.get("grid_max", float, 3.0 if threshold is Threshold.SIGNIFICANCE else 4.0)
        if not math.isfinite(hi):
            raise DataError("grid_max must be finite")
        check_grid_points(hi + 1e-9 - 1.0, step, f"the curve from 1 to grid_max {hi!r}")
        grid = np.arange(1.0, hi + 1e-9, step)
    else:
        lo = opt.get("grid_min", float, 0.3)
        if not (lo > 0 and math.isfinite(lo)):
            raise DataError(f"grid_min must be a finite positive number, got {lo!r}")
        check_grid_points(1.0 - (lo - 1e-9), step, f"the curve from 1 to grid_min {lo!r}")
        grid = np.arange(1.0, lo - 1e-9, -step)
        grid = grid[grid > 0.0]   # a grid_min below 1e-9 would reach 0 or below
    points = [p for p in grid_scan(trial, config, grid) if p.evaluable]

    try:
        os.makedirs(args.out, exist_ok=True)
        stem = f"curve_{effect.number}_{threshold.value}"
        csv_path = os.path.join(args.out, stem + ".csv")
        with open(csv_path, "w", newline="") as handle:
            handle.write(",".join(CURVE_COLUMNS) + "\n")
            for pt in points:
                handle.write(
                    ",".join([
                        _num(pt.gamma), _num(pt.p_two_sided),
                        _num(pt.hr_overall), _num(pt.hr_mono),
                    ]) + "\n"
                )
    except OSError as err:
        raise DataError(f"cannot write curve: {err}") from None

    if threshold is Threshold.SIGNIFICANCE:
        ys, ref = [pt.p_two_sided for pt in points], config.alpha_level
        ylabel = "two-sided p-value"
    else:
        ys, ref, ylabel = [pt.hr_mono for pt in points], 1.0, "monotherapy-phase HR"
    if all(y is None for y in ys):
        print(f"no grid point has a {ylabel}; wrote {csv_path} and no plot")
        return 0

    xs = [pt.gamma for pt in points]
    svg_path = os.path.join(args.out, stem + ".svg")
    crossings = line_plot(
        xs, ys, svg_path,
        title=f"Counterfactual scan, effect {effect.number}, stop rule {threshold.value}",
        xlabel="adjustment factor", ylabel=ylabel, ref_y=ref,
    )
    print(f"wrote {csv_path} and {svg_path} ({len(points)} points, "
          f"{len(crossings)} crossing(s))")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # -h/--help
        return int(err.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except EstimationError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
