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
`tpa` and `curve` share their search flags, one per `SearchConfig` setting;
`curve` has its own grid defaults and scans `tipping.factor_grid`.
`simulate` has one flag per `SimConfig` setting; all three take --seed. A
flat key=value config file can set any long flag but --input, --out and
--config: the key is the flag without its dashes, and its value is cast
and checked as the flag's is. Explicit flags win, and a key that no
command reads is a data error. PHASETIP_SEED is the seed when neither
--seed nor the file sets one.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .counterfactual import IMPUTATIONS, Effect, Threshold
from .dataio import read_dataset, write_dataset
from .errors import DataError, EstimationError, PhasetipError
from .records import Arm
from .simulate import SimConfig, simulate_trial, summarize_trial
from .survival import TIES, SortedRows, _unwrap, phase_hr
from .svgplot import line_plot
from .tipping import P_SOURCES, SearchConfig, TpaResult, factor_grid, find_tipping, grid_scan

__all__ = ["main", "entry", "emit_results"]

CURVE_COLUMNS = ["gamma", "p", "hr_overall", "hr_mono"]
RESULT_COLUMNS = [
    "effect_method", "adjustment_factor_at_tip", "avg_n_events",
    "hr_at_tip", "p_at_tip",
    "tip_min", "tip_max", "tip_sd", "n_replicates", "n_degenerate", "flags",
]
# simulate's flags: one per SimConfig setting, of its default's type
SIM_FLAGS = {field.name.replace("_", "-"): type(field.default)
             for field in dataclasses.fields(SimConfig)}
# the long flags that a config file does not set
NOT_CONFIG = {"input", "out", "config", "help"}


class UsageError(PhasetipError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _num(value):
    return "" if value is None else repr(float(value))


def build_parser() -> argparse.ArgumentParser:
    """The parser; its `commands` maps each subcommand's name to its parser."""
    parser = _Parser(prog="phasetip", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices

    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key=value file supplying flag defaults")
    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int)

    search = _Parser(add_help=False, parents=[seeded])
    search.add_argument("--input", required=True)
    search.add_argument("--effect", choices=[str(effect.value) for effect in Effect])
    search.add_argument("--threshold", choices=[rule.value for rule in Threshold])
    search.add_argument("--alpha-level", type=float, help="significance level of stop rule a")
    search.add_argument("--grid-step", type=float, help="factor step: tpa's first walk "
                        "step (default 0.01) or curve's grid step (default 0.05)")
    search.add_argument("--grid-max", type=float, help="effect 1's factor bound, at least 1 "
                        "(default: tpa 10, curve 3 under rule a and 4 under rule b)")
    search.add_argument("--grid-min", type=float, help="effect 2's factor bound, in (0, 1] "
                        "(default: tpa 0.01, curve 0.3)")
    search.add_argument("--imputation", choices=IMPUTATIONS,
                        help="source of effect 1's imputed censoring times; effect 2 ignores it")
    search.add_argument("--p-source", choices=P_SOURCES)
    search.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("analyze", parents=[common], help="primary-analysis report")
    p.add_argument("--input", required=True)
    p.add_argument("--stratified", action="store_true", default=None)
    p.add_argument("--ties", choices=TIES)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tpa", parents=[search], help="tipping-point analysis")
    p.add_argument("--replicates", type=int, dest="mi_replicates", metavar="N")
    p.set_defaults(func=cmd_tpa)

    p = sub.add_parser("simulate", parents=[seeded], help="emit a synthetic trial")
    p.add_argument("--out", required=True, help="output CSV path")
    for flag, cast in SIM_FLAGS.items():
        p.add_argument(f"--{flag}", type=cast)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curve", parents=[search], help="factor-grid curve and plot")
    p.set_defaults(func=cmd_curve)
    return parser


# the parser of every `main` call, built on the first: parsing leaves it as
# it was, since a config file's values go onto the parsed arguments
_parser = functools.cache(build_parser)


def _load_config(path, keys) -> dict:
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
                if name not in keys:
                    raise DataError(f"unknown config key {key.strip()!r}: no command reads it")
                cfg[name] = value.strip()
    except OSError as err:
        raise DataError(f"cannot read config file: {err}") from None
    return cfg


def _long_flags(command) -> dict:
    """A subcommand's long flags, without their dashes, and their actions."""
    return {action.option_strings[-1][2:]: action
            for action in command._actions if action.option_strings}


def _boolean(raw) -> bool:
    """An on/off setting from a file: true, false, 1 or 0."""
    if raw in ("true", "1"):
        return True
    if raw in ("false", "0"):
        return False
    raise ValueError(raw)


def _config_value(action, key, raw):
    """`raw` cast and checked by the flag's own type and choices; an on/off
    flag's by `_boolean`."""
    try:
        value = _boolean(raw) if action.nargs == 0 else (action.type or str)(raw)
        if action.choices is None or value in action.choices:
            return value
    except (TypeError, ValueError):
        pass
    raise DataError(f"config value for {key} is invalid: {raw!r}")


def _apply_config(args, commands) -> dict:
    """Fill each flag of the command that the command line left unset from
    the config file at args.config, and return the file's settings. The
    keys are the long flags of every command but those of NOT_CONFIG; a
    key that only another command reads is ignored."""
    flags = {name: _long_flags(command) for name, command in commands.items()}
    cfg = _load_config(args.config, set().union(*flags.values()) - NOT_CONFIG)
    for key, raw in cfg.items():
        action = flags[args.command].get(key)
        if action is not None and getattr(args, action.dest) is None:
            setattr(args, action.dest, _config_value(action, key, raw))
    return cfg


def _refuse_fit_settings(command, cfg) -> None:
    """tpa and curve fit unstratified Efron models; refuse a config file
    that asks for strata or Breslow ties instead of ignoring it."""
    for key, accepted in (("stratified", ("false", "0")), ("ties", ("efron",))):
        if key in cfg and cfg[key] not in accepted:
            raise DataError(
                f"config key {key}={cfg[key]!r} is not supported by "
                f"{command}: it fits unstratified models with Efron ties"
            )


def _given(args, names) -> dict:
    """The settings among `names` that a flag or the config file sets, so
    that the callee's own defaults fill the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _seed(args) -> int:
    """The seed of the flag or the config file, else PHASETIP_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PHASETIP_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise DataError(f"PHASETIP_SEED is not an integer: {env!r}") from None


def _read_trial(path):
    trial = read_dataset(path)
    if not trial:
        raise DataError("dataset is empty")
    return trial


def _write_csv(outdir, name, columns, rows, what) -> str:
    """Write a header and `rows` (lists of cells) to `name` in `outdir`."""
    try:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, name)
        with open(path, "w", newline="") as handle:
            handle.write(",".join(columns) + "\n")
            for row in rows:
                handle.write(",".join(row) + "\n")
    except OSError as err:
        raise DataError(f"cannot write {what}: {err}") from None
    return path


# ---------------------------------------------------------------------------
# analyze


def _fmt_ci(ci):
    return f"({ci[0]:.3f}, {ci[1]:.3f})"


def cmd_analyze(args) -> int:
    trial = _read_trial(args.input)
    row = SortedRows(trial, trial.s[None], trial.delta[None],
                     **_given(args, ("stratified", "ties")))
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
    lr = _unwrap(row.tests[0])
    lines.append(f"Log-rank chi2={lr.chi2:.4f}, two-sided p={lr.p_two_sided:.6g}")
    overall = _unwrap(row.fits(("trt",))[0])
    hr, ci = overall.contrast(("trt",))
    lines.append(f"Overall HR={hr:.4f} {_fmt_ci(ci)}")
    phases = phase_hr(trial, row.tables[0])
    lines.append(f"Combination-phase HR={phases.hr_combo:.4f} {_fmt_ci(phases.ci_combo)}")
    if phases.hr_mono is None:
        lines.append("Monotherapy-phase HR: not estimable (no transitions observed)")
    else:
        lines.append(f"Monotherapy-phase HR={phases.hr_mono:.4f} {_fmt_ci(phases.ci_mono)}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# tpa


def _search_config(args, **defaults) -> SearchConfig:
    """The SearchConfig of tpa or curve: each of its settings that a flag
    or the config file gives, else `defaults`, else SearchConfig's own."""
    given = _given(args, [field.name for field in dataclasses.fields(SearchConfig)
                          if hasattr(args, field.name)])
    for name, kind in (("effect", lambda code: Effect.from_number(int(code))),
                       ("threshold", Threshold)):
        if name in given:
            given[name] = kind(given[name])
    return SearchConfig(**{**defaults, **given, "seed": _seed(args)})


def emit_results(results: list[TpaResult], outdir) -> str:
    """Write results.csv (one row per effect/threshold) into `outdir`."""
    rows = ([
        f"effect{res.effect.value}_threshold_{res.threshold.value}",
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
    ] for res in results)
    return _write_csv(outdir, "results.csv", RESULT_COLUMNS, rows, "results")


def cmd_tpa(args) -> int:
    trial = _read_trial(args.input)
    config = _search_config(args)
    result = find_tipping(trial, config)
    path = emit_results([result], args.out)
    if result.tip is None:
        print(f"no tipping point in range (details in {path})")
    else:
        hr = "n/a" if result.hr_at_tip is None else f"{result.hr_at_tip:.4f}"
        p = "n/a" if result.p_at_tip is None else f"{result.p_at_tip:.4g}"
        kind = "degenerate at start" if result.degenerate else "tipping point"
        print(
            f"effect {config.effect.value}, threshold {config.threshold.value}: {kind} "
            f"factor={result.tip:.4f} (HR at tip {hr}, p at tip {p}, "
            f"replicates {len(result.replicates)}, spread sd={result.tip_sd:.4g})"
        )
    print(f"results written to {path}")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    config = SimConfig(**_given(args, [field.name for field in dataclasses.fields(SimConfig)]))
    trial = simulate_trial(config, seed=_seed(args))
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
    trial = _read_trial(args.input)
    config = _search_config(args, grid_step=0.05, grid_min=0.3,
                            grid_max=4.0 if args.threshold == Threshold.NEUTRALIZE.value else 3.0)
    effect, threshold = config.effect, config.threshold
    points = [p for p in grid_scan(trial, config, factor_grid(config)) if p.evaluable]
    stem = f"curve_{effect.value}_{threshold.value}"
    csv_path = _write_csv(args.out, stem + ".csv", CURVE_COLUMNS, (
        [_num(pt.gamma), _num(pt.p_two_sided), _num(pt.hr_overall), _num(pt.hr_mono)]
        for pt in points), "curve")

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
        title=f"Counterfactual scan, effect {effect.value}, stop rule {threshold.value}",
        xlabel="adjustment factor", ylabel=ylabel, ref_y=ref,
    )
    print(f"wrote {csv_path} and {svg_path} ({len(points)} points, "
          f"{len(crossings)} crossing(s))")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _parser()
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
        if args.config:
            cfg = _apply_config(args, parser.commands)
            if args.command in ("tpa", "curve"):
                _refuse_fit_settings(args.command, cfg)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except EstimationError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
