"""Tipping-point search over the adjustment factor.

A search runs on one columnar `Trial`. Each probe of the search computes
only the one number its stop rule reads, on the transformed data:

* rule a with the log-rank p-value: the transform and the log-rank test;
* rule a with the Wald p-value: the transform, the risk table and the
  treatment-only Cox fit;
* rule b: the transform, the risk table and the three-covariate Cox fit.

A replicate's search is a generator: it yields each factor it wants
probed and is sent back that probe's number, or the note of why it cannot
be computed; a probe is usable when its number exists. `find_tipping` runs
the searches of all distinct draw sets in lockstep. Each round takes the
next factor of every live search, and one probe function,
`_probe_round`, answers the round. It transforms the round in blocks of
probes (`transform_outcomes`, from each draw set's lines, made once per
search), and the rules differ only in how a block is read: under rule a
with the log-rank p-value one `logrank_rows` pass (one row-wise sort for
the block) tests every row, which gives each probe the p-value
`logrank_test` gives it alone, to the bit; under the other rules each row
is read on its own. No search reads another's data,
so every search probes the same factors in the same order as it would
alone. Walk steps, interval midpoints and their nudges do not come back to
a factor already probed, so no value is cached; a repeat would only be
recomputed, with the same result. The full evaluation
(`evaluate_at`: p-value, overall HR and monotherapy-phase HR) runs only
for the point a search reports, and for every point of `grid_scan`, which
makes the draw set's lines once and transforms the grid in the same
blocks. It builds one risk table, fits both Cox models on it and takes
the log-rank p-value from the table's arm margins (`logrank_from_table`),
so it counts the subjects at risk once; a rule-a probe needs no table.

Per replicate, imputation draws are made once and reused across the whole
grid. With the draws fixed, every transformed time is fixed or a line in
the factor, and the log-rank test and the Cox risk table read only the
order and ties of those times and the event indicators. So the p-value
and the monotherapy-phase HR are step functions of the factor, constant
between the rank breakpoints of `counterfactual.rank_breakpoints` (save
the log-rank p-value at the one factor where two moving events tie), and
a tip is one of those breakpoints. One search serves both stop rules:

1. Bracket: walk the factor away from 1 with a step that starts at
   `grid_step` and doubles up to `MAX_STEP`, until the rule's criterion is
   crossed. The walk may take at most `MAX_GRID_POINTS` steps of
   `grid_step` to the effect's bound, and a search runs at most
   `MAX_REPLICATES` replicates; a config that needs more is refused up
   front.
2. Finish: list the rank breakpoints inside the bracket and bisect on
   them, probing the midpoints of the intervals between them, never a
   breakpoint. The tip is the breakpoint where the rule flips, exactly,
   with no tolerance; the point reported for it is evaluated inside the
   first crossed interval.

The rules differ only in the criterion:

* Stop rule "a" (significance): crossed when the two-sided between-arm
  p-value exceeds the significance level; the tip is the breakpoint where
  p passes alpha, and the reported p is above alpha.
* Stop rule "b" (neutralization): crossed when the refit monotherapy-phase
  hazard ratio reaches 1; the tip is the breakpoint where hr_mono reaches
  one, and the overall hazard ratio there is the residual effect
  attributable to the combination phase.

Near the threshold a step function may cross it more than once. The
walk's step cap keeps the first crossing of a curve that crosses once on
the coarse scale, and the bisection splits at points taken from the
breakpoints rather than from the bracket's ends, so searches that bracket
the same crossings from different grid steps report the same tip.

Replicate tips are aggregated by median (the headline tip), with min, max,
and standard deviation reporting the multiple-imputation spread.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import numbers
import statistics
from dataclasses import dataclass, field

from .counterfactual import (
    Effect,
    ImputationDraws,
    Threshold,
    TransformParams,
    apply_transform,
    make_draws,
    rank_breakpoints,
    transform_lines,
    transform_outcomes,
)
from .errors import DataError, EstimationError
from .records import Trial
from .survival import (
    LogRankResult,
    cox_fit,
    logrank_from_table,
    logrank_rows,
    logrank_test,
    risk_table,
)

__all__ = [
    "MAX_GRID_POINTS",
    "MAX_REPLICATES",
    "MAX_STEP",
    "SearchConfig",
    "TpaCurvePoint",
    "ReplicateOutcome",
    "TpaResult",
    "evaluate_at",
    "find_tipping",
    "grid_scan",
    "mi_aggregate",
]

# Most factor steps a fixed-step grid may take (the tpa walk to its bound,
# or the points of a curve). The default effect-1 walk takes 900.
MAX_GRID_POINTS = 10_000
# Most imputation replicates one search may run (the default is 20).
MAX_REPLICATES = 1_000
# Longest step of the bracketing walk, unless grid_step is longer.
MAX_STEP = 0.16


def check_grid_points(span: float, step: float, what: str) -> None:
    """Refuse a grid that covers `span` in steps of `step` with more than
    MAX_GRID_POINTS steps. Works on the ratio, so no grid is allocated."""
    if span / step > MAX_GRID_POINTS:
        raise DataError(
            f"{what} would take more than {MAX_GRID_POINTS} steps of {step!r}; "
            "use a larger grid step or a nearer bound"
        )


@dataclass(frozen=True)
class SearchConfig:
    """The settings of one search; `tpa` takes the defaults from here."""

    effect: Effect = Effect.INFLATE_CONTROL
    threshold: Threshold = Threshold.SIGNIFICANCE
    alpha_level: float = 0.05
    grid_step: float = 0.01
    grid_max: float = 10.0          # inflation bound (effect 1)
    grid_min: float = 0.01          # shrinkage bound (effect 2)
    mi_replicates: int = 20
    seed: int = 0
    imputation: str = "auto"
    p_source: str = "logrank"       # or "wald" (from the treatment-only Cox fit)

    def __post_init__(self):
        if not self.grid_step > 0:
            raise DataError("grid_step must be positive")
        if not math.isfinite(self.grid_max):
            raise DataError("grid_max must be finite")
        if not self.grid_max >= 1.0:
            raise DataError(f"grid_max must be at least 1, got {self.grid_max!r}")
        if not 0.0 < self.grid_min <= 1.0:
            raise DataError(f"grid_min must be in (0, 1], got {self.grid_min!r}")
        if self.effect is Effect.INFLATE_CONTROL:
            check_grid_points(self.grid_max - 1.0, self.grid_step,
                              f"the walk from 1 to grid_max {self.grid_max!r}")
        else:
            check_grid_points(1.0 - self.grid_min, self.grid_step,
                              f"the walk from 1 to grid_min {self.grid_min!r}")
        if not 0 < self.alpha_level < 1:
            raise DataError("alpha_level must be in (0, 1)")
        if self.mi_replicates < 1:
            raise DataError("need at least one replicate")
        if self.mi_replicates > MAX_REPLICATES:
            raise DataError(f"at most {MAX_REPLICATES} replicates, got {self.mi_replicates}")
        if self.p_source not in ("logrank", "wald"):
            raise DataError(f"unknown p_source {self.p_source!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise DataError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class TpaCurvePoint:
    gamma: float
    p_two_sided: float | None
    hr_overall: float | None
    hr_mono: float | None
    n_events: int
    evaluable: bool = True
    note: str | None = None


@dataclass(frozen=True)
class ReplicateOutcome:
    replicate_id: int
    tip: float | None
    point: TpaCurvePoint | None
    degenerate: bool = False
    flags: list = field(default_factory=list)


@dataclass(frozen=True)
class TpaResult:
    effect: Effect
    threshold: Threshold
    tip: float | None               # median of replicate tips
    hr_at_tip: float | None
    p_at_tip: float | None
    n_events_at_tip: float | None   # mean across replicates
    tip_min: float | None
    tip_max: float | None
    tip_sd: float | None
    replicates: list
    n_degenerate: int
    degenerate: bool
    flags: list


def _logrank_p(data) -> float:
    return logrank_test(data).p_two_sided


def _wald_p(data) -> float:
    return cox_fit(risk_table(data), ("trt",)).wald_p("trt")


def _mono_hr(data, table) -> float:
    """Monotherapy-phase HR, exp(b_trt + b_trt_x_mono), of the
    three-covariate fit on `table`, the risk table of `data`."""
    if not data.in_mono.any():
        raise EstimationError("no monotherapy phase at this factor")
    try:
        fit = cox_fit(table, ("trt", "mono", "trt_x_mono"))
    except EstimationError as err:
        raise EstimationError(f"mono-phase fit failed: {err}") from None
    return math.exp(fit.coef("trt") + fit.coef("trt_x_mono"))


def _attempt(estimate, notes):
    """estimate(), or None with its EstimationError message added to notes."""
    try:
        return estimate()
    except EstimationError as err:
        notes.append(str(err))
        return None


def evaluate_at(trial: Trial, params: TransformParams, draws: ImputationDraws,
                p_source: str = "logrank", *, outcome=None) -> TpaCurvePoint:
    """The full counterfactual evaluation of one factor: transform, then
    p-value, overall HR and monotherapy-phase HR on the transformed data.

    A search probe computes only the number its stop rule reads; this runs
    for the point a search reports and for every curve point. `outcome`,
    when given, is the (s, delta) that `apply_transform` makes of `trial`
    under `draws` at `params`, which `grid_scan` makes for a block of
    factors at once. One risk table serves both Cox fits and the log-rank
    test. Each estimator that fails leaves its column None and its message
    in the note, instead of aborting; the point is evaluable when both the
    p-value and the overall HR exist.
    """
    data = (apply_transform(trial, params, draws) if outcome is None
            else trial.with_outcome(*outcome))
    table = risk_table(data)
    notes = []
    trt_fit = _attempt(lambda: cox_fit(table, ("trt",)), notes)
    if p_source == "wald":
        p = None if trt_fit is None else trt_fit.wald_p("trt")
    else:
        p = _attempt(lambda: logrank_from_table(data, table).p_two_sided, notes)
    hr_mono = _attempt(lambda: _mono_hr(data, table), notes)
    return TpaCurvePoint(
        gamma=params.gamma, p_two_sided=p,
        hr_overall=None if trt_fit is None else trt_fit.hr("trt"),
        hr_mono=hr_mono, n_events=int(data.delta.sum()),
        evaluable=p is not None and trt_fit is not None,
        note="; ".join(notes) or None,
    )


def _stop_rule(config: SearchConfig):
    """(reads, crossed, start_flag): the one number a probe computes on the
    transformed data, whether that number lies past the threshold, and the
    flag of a replicate already crossed at factor 1."""
    if config.threshold is Threshold.SIGNIFICANCE:
        return (_wald_p if config.p_source == "wald" else _logrank_p,
                lambda p: p > config.alpha_level,
                "already non-significant at start")
    return (lambda data: _mono_hr(data, risk_table(data)),
            lambda hr_mono: hr_mono >= 1.0,
            "monotherapy difference already neutral at start")


# Most rows that one `transform_outcomes` call makes: a block holds a few
# arrays of this many rows by the trial's subjects, so its temporaries stay
# small however many searches are live or curve points are asked for.
_ROW_BLOCK = 5


def _blocks(trial: Trial, requests):
    """The outcomes of `requests`, (lines, factor) pairs, `lines` a draw
    set as `transform_lines`, transformed in blocks of up to _ROW_BLOCK:
    per block its factors and the k x n arrays (s, delta) of
    `transform_outcomes`, row r the outcome of the block's request r."""
    for first in range(0, len(requests), _ROW_BLOCK):
        block = requests[first:first + _ROW_BLOCK]
        gammas = [gamma for _, gamma in block]
        yield gammas, *transform_outcomes(trial, [lines for lines, _ in block], gammas)


def _probe_round(trial: Trial, config: SearchConfig, requests) -> list:
    """Answer one round of search probes, one per live search: `requests`
    holds a (lines, factor) pair per probe, `lines` the search's draw set as
    `transform_lines`. Returns per probe (value, None), with the number the
    stop rule reads on the data transformed at that factor, or (None, note)
    when that number cannot be computed.

    The probes are transformed in blocks (`_blocks`), and the rules differ
    only in how a block is read. Under rule a with the log-rank p-value a
    block is one `logrank_rows` pass, which gives every probe the p-value
    of `logrank_test` to the bit; under the other rules each row of the
    block is read on its own.
    """
    logrank = config.threshold is Threshold.SIGNIFICANCE and config.p_source == "logrank"
    reads = _stop_rule(config)[0]
    answers = []
    for _, s, delta in _blocks(trial, requests):
        if logrank:
            answers += [(result.p_two_sided, None) if isinstance(result, LogRankResult)
                        else (None, str(result)) for result in logrank_rows(trial, s, delta)]
            continue
        for s_r, delta_r in zip(s, delta):
            try:
                answers.append((reads(trial.with_outcome(s_r, delta_r)), None))
            except EstimationError as err:
                answers.append((None, str(err)))
    return answers


def _bracket(crossed, config):
    """Walk the factor from 1 in the effect's direction until
    `crossed(value)` fires. The first step is grid_step and each later one
    doubles, up to MAX_STEP (or grid_step, if larger), so a crossing is
    bracketed in few probes and the step stays short enough to keep the
    first crossing. Factors whose value cannot be computed are skipped with
    a warning.

    A generator: it yields each factor to probe and is sent back that
    probe's (value, note). It returns (last_clear, first_crossed, flags),
    where the crossed side is None when the bound is reached without a
    crossing."""
    direction = 1.0 if config.effect is Effect.INFLATE_CONTROL else -1.0
    bound = config.grid_max if direction > 0 else config.grid_min
    longest = max(config.grid_step, MAX_STEP)
    flags = []

    last_clear = gamma = 1.0
    step = config.grid_step
    while gamma != bound:
        gamma = min(gamma + step, bound) if direction > 0 else max(gamma - step, bound)
        step = min(2.0 * step, longest)
        value, note = yield gamma
        if value is None:
            flags.append(f"factor {gamma:g} skipped: {note}")
        elif crossed(value):
            return last_clear, gamma, flags
        else:
            last_clear = gamma
    return last_clear, None, flags


def _coarsest_dyadic(a: float, b: float) -> float:
    """The least dyadic rational m / 2**k in (a, b) with the least k >= 0,
    for 0 <= a < b."""
    scale = 1.0
    while True:
        m = math.floor(a * scale) + 1
        if m / scale < b:
            return m / scale
        scale *= 2.0


def _bisect(crossed, clear, first_crossed, breakpoints, flags):
    """Bisect the bracket between its clear and its crossed end on the rank
    breakpoints inside it, which run from the clear end to the crossed end.

    The edges are the clear end, the breakpoints and the crossed end. The
    cells, in walk order, are the clear end itself, the open intervals
    between consecutive edges and the crossed end. An interval is probed at
    its midpoint, never at a breakpoint. Each step probes, among the middle
    half of the cells still unknown, the one holding the coarsest dyadic
    distance from 1. The split points then depend on the breakpoints and
    hardly on where the walk stopped: two brackets of the same crossings
    meet on the same splits, and end at the same flip even where the rule's
    value flips back and forth near the threshold. A cell whose value
    cannot be computed is nudged once to each neighbour; when they fail
    too, the bisection stops with a flag. Edges and cells are read from
    `breakpoints` by index, so a live bisection holds no copy of it.

    A generator like `_bracket`. It returns (tip, factor): the edge at which
    the first crossed cell starts, and where that cell was probed.
    """
    last = breakpoints.size + 1   # edge index of the crossed end

    def edge(i):
        return clear if i == 0 else first_crossed if i == last else breakpoints[i - 1]

    def at(cell):
        if cell == 0:
            return clear
        if cell > last:
            return first_crossed
        return 0.5 * (edge(cell - 1) + edge(cell))

    def dist(i):
        return abs(edge(i) - 1.0)

    lo, hi = 0, last + 1
    failed = set()
    while hi - lo > 1:
        quarter = (hi - lo - 1) // 4
        split = _coarsest_dyadic(dist(lo + quarter), dist(hi - 1 - quarter))
        mid = bisect.bisect_right(range(last + 1), split, key=dist)
        for cell in (mid, mid + 1, mid - 1):
            if lo < cell < hi and cell not in failed:
                value, _ = yield float(at(cell))
                if value is not None:
                    break
                failed.add(cell)
        else:
            flags.append(f"bisection stopped early: factor {at(mid):g} unevaluable")
            break
        if crossed(value):
            hi = cell
        else:
            lo = cell
    return float(edge(hi - 1)), float(at(hi))


def _run_replicate(trial, config, replicate_id, draws):
    """One replicate's search: check the identity factor, bracket the first
    crossing, and bisect on the rank breakpoints inside the bracket. The
    tip is the breakpoint where the rule flips; the full point is evaluated
    inside the first crossed interval.

    A generator like `_bracket`: it yields every factor it probes and
    returns the replicate's outcome."""
    _, crossed, start_flag = _stop_rule(config)

    def point(gamma):
        return evaluate_at(trial, TransformParams(config.effect, gamma), draws, config.p_source)

    start, note = yield 1.0
    if start is None:
        return ReplicateOutcome(
            replicate_id, tip=None, point=point(1.0),
            flags=[f"start unevaluable: {note}"],
        )
    if crossed(start):
        return ReplicateOutcome(
            replicate_id, tip=1.0, point=point(1.0), degenerate=True, flags=[start_flag],
        )

    last_clear, first_crossed, flags = yield from _bracket(crossed, config)
    if first_crossed is None:
        flags.append("no tipping point in range")
        return ReplicateOutcome(replicate_id, tip=None, point=None, flags=flags)

    breakpoints = rank_breakpoints(trial, config.effect, draws,
                                   min(last_clear, first_crossed), max(last_clear, first_crossed))
    if first_crossed < last_clear:
        breakpoints = breakpoints[::-1]
    tip, at = yield from _bisect(crossed, last_clear, first_crossed, breakpoints, flags)
    return ReplicateOutcome(replicate_id, tip=tip, point=point(at), flags=flags)


def mi_aggregate(outcomes, effect: Effect, threshold: Threshold) -> TpaResult:
    """Median/min/max/SD of replicate tips (degenerate replicates keep their
    start-value tip); replicates with no tip in range are excluded from the
    statistics and surfaced via flags."""
    if not outcomes:
        raise DataError("no replicates to aggregate")
    tipped = [o for o in outcomes if o.tip is not None]
    n_degenerate = sum(1 for o in outcomes if o.degenerate)
    flags = [f"replicate {o.replicate_id}: {f}" for o in outcomes for f in o.flags]
    all_degenerate = n_degenerate == len(outcomes)

    if not tipped:
        return TpaResult(
            effect=effect, threshold=threshold, tip=None, hr_at_tip=None,
            p_at_tip=None, n_events_at_tip=None, tip_min=None, tip_max=None,
            tip_sd=None, replicates=list(outcomes), n_degenerate=n_degenerate,
            degenerate=all_degenerate, flags=flags,
        )

    tips = [o.tip for o in tipped]
    points = [o.point for o in tipped if o.point is not None]
    tip_sd = statistics.stdev(tips) if len(tips) > 1 else 0.0
    hrs = [p.hr_overall for p in points if p.hr_overall is not None]
    ps = [p.p_two_sided for p in points if p.p_two_sided is not None]
    events = [p.n_events for p in points]
    return TpaResult(
        effect=effect, threshold=threshold,
        tip=statistics.median(tips),
        hr_at_tip=statistics.median(hrs) if hrs else None,
        p_at_tip=statistics.median(ps) if ps else None,
        n_events_at_tip=(sum(events) / len(events)) if events else None,
        tip_min=min(tips), tip_max=max(tips), tip_sd=tip_sd,
        replicates=list(outcomes), n_degenerate=n_degenerate,
        degenerate=all_degenerate, flags=flags,
    )


def _check_searchable(trial: Trial, config: SearchConfig) -> None:
    """Refuse rule b when no subject enters monotherapy: there is no
    monotherapy-phase HR to neutralize."""
    if config.threshold is Threshold.NEUTRALIZE and not trial.in_mono.any():
        raise DataError("no mono phase to neutralize")


def find_tipping(trial: Trial, config: SearchConfig) -> TpaResult:
    """Tipping point of `config.threshold` with multiple imputation.

    Deterministic imputation (the cutoff method) gives every replicate the
    same draws; duplicating the search would only repeat identical work, so
    replicates sharing a draw set share one search result. The searches of
    the distinct draw sets run in lockstep: each round takes the next
    factor of every live search and `_probe_round` answers them together.
    No search reads another's data, so each probes the factors, and reports
    the outcome, it would alone.
    """
    _check_searchable(trial, config)
    groups = {}
    for r in range(config.mi_replicates):
        draws = make_draws(trial, config.effect, config.imputation, config.seed, r)
        groups.setdefault(draws.values.tobytes(), (draws, []))[1].append(r)

    live = []   # (lines, members, search, the factor it waits on)
    for draws, members in groups.values():
        search = _run_replicate(trial, config, members[0], draws)
        live.append((transform_lines(trial, config.effect, draws), members, search, next(search)))
    outcomes = []
    while live:
        answers = _probe_round(trial, config, [(lines, gamma) for lines, _, _, gamma in live])
        waiting = []
        for (lines, members, search, _), answer in zip(live, answers):
            try:
                waiting.append((lines, members, search, search.send(answer)))
            except StopIteration as done:
                outcomes.extend(dataclasses.replace(done.value, replicate_id=r) for r in members)
        live = waiting
    outcomes.sort(key=lambda o: o.replicate_id)
    return mi_aggregate(outcomes, config.effect, config.threshold)


def grid_scan(trial: Trial, config: SearchConfig, gammas) -> list[TpaCurvePoint]:
    """Curve points over an explicit factor grid, using replicate 0 draws
    (deterministic for a given seed). The draw set's lines are made once
    and the grid is transformed in blocks (`_blocks`); each point is the
    `evaluate_at` of its factor, to the bit, handed its row's outcome."""
    _check_searchable(trial, config)
    draws = make_draws(trial, config.effect, config.imputation, config.seed, 0)
    lines = transform_lines(trial, config.effect, draws)
    return [evaluate_at(trial, TransformParams(config.effect, gamma), draws, config.p_source,
                        outcome=(s_r, delta_r))
            for block, s, delta in _blocks(trial, [(lines, float(g)) for g in gammas])
            for gamma, s_r, delta_r in zip(block, s, delta)]
