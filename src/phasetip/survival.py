"""Survival estimators built from scratch on columnar trial data.

Provides the product-limit (Kaplan-Meier) curve with Greenwood variance,
the (optionally stratified) two-group log-rank test, and a Cox
proportional-hazards fitter for the time-varying phase model of the
analysis: treatment, monotherapy status, and their interaction.

Every log-rank test and every risk table of k outcomes of one trial comes
from one pass, `SortedRows`: one row-wise sort per stratum gives each row
its runs of tied times, and the running totals of the sorted rows give,
at each event time, the subjects at risk and the events of each arm (for
the test) and of each arm x phase group (for the table). The monotherapy
subjects still in their combination phase at t, those whose monotherapy
starts at or after t, come from one search of the event times in the
sorted monotherapy starts. A block of search probes or curve points is
such a pass; its tests, its tables and its Cox fits of each design are
each made when first read, so a probe pays only for what its rule reads.
`logrank_test`, `risk_table` and `cox_fit` are its one-row cases. The
Kaplan-Meier curve counts its one group from one sort of the times.

Every covariate of the phase model is a function of a subject's arm x
phase group g = trt + 2 * mono at a given time, so the Efron (or Breslow)
partial likelihood needs only, per stratum and event time, the subjects at
risk and the events in each of the four groups. That grouped risk-set
table is built straight from the outcomes; no start-stop expansion is
ever formed. A fit reads only the table and evaluates every design from
it with a 4 x p matrix of group covariate values; the likelihood sums the
log risk-set totals over the table's rows. A one-covariate design (each
covariate is 0 or 1 per group) is a two-sample model: its fit reads, per
row, the subjects at risk of its two groups, covariate 0 and covariate 1,
with elementwise arithmetic and no BLAS call, so its bits do not depend
on the BLAS kernel. A larger design's gradient and Hessian read the 4 x 4
cross product of the risk-set shares of the four groups. So the
treatment-only and the three-covariate fit of one evaluation, or of one
`analyze` report, share one table.

The fits of one design on the k tables of a block run as one damped
Newton in lockstep (`_newton`): each round evaluates the likelihood of
every fit in one call (`_TwoGroupStack` for one covariate, `_Stack` for
more) and solves their steps in another. Each fit keeps its own iteration
count, step halving, convergence tests and refusals; a fit that ends
keeps its slot of the stack, whose shape never changes, until the block's
last fit ends. A table's row count is its event count, which moves slowly
with the factor, so a block's tables come in a few lengths: the lockstep
orders its tables by length, and each run of tables of one length takes
its sums in one reduction (and, in a larger design, its risk-set totals
and cross products in one BLAS call each). numpy makes, for each
table of a stacked call, the call that table alone makes, and no call
reads past a table's own rows (padding the tables to the longest would
move bits); so each fit sums over its own rows only, no fit depends on
the tables beside it, and `cox_fit` is the one-table case.
The Kaplan-Meier curve, `logrank_test` and the table take a `Trial`.
Nothing loops over subjects in Python, and the Newton loop calls numpy's
reductions, and the LAPACK gufuncs that np.linalg.solve,
np.linalg.cholesky and np.linalg.inv call, without their per-call
wrappers, with the same arithmetic; it tests its floats as Python floats.
A fit without a maximum is refused before Newton, whatever its strata,
from the pairs of groups that meet. Distinct values (event times, strata)
come from one sort and a mask (`distinct`), not from np.unique, which
imports numpy.ma.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError, DataError, EstimationError, SeparationError
from .records import Arm, Trial

__all__ = [
    "KmCurve",
    "LogRankResult",
    "CoxFit",
    "PhaseHr",
    "km_estimate",
    "logrank_test",
    "SortedRows",
    "RiskTable",
    "risk_table",
    "cox_fit",
    "phase_hr",
    "PHASE_MODEL",
    "TIES",
]

# Convergence policy for the Newton-Raphson fitter.
_LL_TOL = 1e-9
_GRAD_TOL = 1e-8
_MAX_ITER = 50
# Largest variance inflation info_jj * cov_jj a fit may report. It is scale
# free and within a factor p of 1 / (smallest eigenvalue of the information
# scaled to unit diagonal). Designs collinear on the risk sets land above
# 8e14, where the inverse is rounding noise; ill-conditioned but determined
# fits of small random trials stay below 1e8, and the calibrated trial's
# search fits below 10.
_MAX_VARIANCE_INFLATION = 1e11
_MAX_EXP = math.log(np.finfo(float).max)   # math.exp overflows beyond this
_Z975 = 1.959963984540054                  # the normal 0.975 quantile, for 95% Wald CIs
# The tie corrections of the Cox likelihood that `risk_table` builds for.
TIES = ("efron", "breslow")
# The time-varying phase model: treatment, monotherapy status and their interaction.
PHASE_MODEL = ("trt", "mono", "trt_x_mono")


# ---------------------------------------------------------------------------
# Counting at risk and events


def distinct(x):
    """The distinct values of x, ascending, and how often each occurs: for
    x without NaN, what np.unique(x, return_counts=True) returns, from one
    sort and a not_equal mask. (np.unique(x) asks numpy.ma whether x is
    masked, which imports numpy.ma on first use.)"""
    x = np.sort(x)
    edge = np.empty(x.size + 1, dtype=bool)   # where a run of equal values starts, and the end
    edge[0] = edge[-1] = True
    np.not_equal(x[1:], x[:-1], out=edge[1:-1])
    edges = edge.nonzero()[0]
    return x[edges[:-1]], edges[1:] - edges[:-1]


def _strata(trial: Trial, stratified: bool) -> list:
    """Row selectors of the analysis strata: all rows, or one per stratum
    label, ascending, and one for the subjects without a stratum (NaN),
    placed as a label -0.5 would be: after a stratum -1 and before a
    stratum 0. That is the place a missing stratum labelled -1 takes, so a
    trial without a stratum -1 sums its strata in the order it always has,
    and its results keep every bit."""
    if not stratified:
        return [slice(None)]
    missing = np.isnan(trial.stratum)
    strata = [(label, trial.stratum == label)
              for label in distinct(trial.stratum[~missing])[0].tolist()]
    if missing.any():
        strata.append((-0.5, missing))
    return [rows for _, rows in sorted(strata, key=lambda stratum: stratum[0])]


class _Stratum(NamedTuple):
    """The columns of one analysis stratum that no outcome moves: `cols`
    selects its subjects, `trt` and `mono_start` are theirs, `given` marks
    the subjects with a mono_start, `starts` holds their mono_starts
    ascending, and `exp_below` the running total of the experimental
    subjects among them in that order."""

    cols: slice | np.ndarray
    trt: np.ndarray
    mono_start: np.ndarray
    given: np.ndarray
    starts: np.ndarray
    exp_below: np.ndarray


# Per trial, its `_Stratum`s per strata flag: every block of outcomes of a
# trial shares them, and they go with the trial.
_TRIAL_STRATA = weakref.WeakKeyDictionary()


def _trial_strata(trial: Trial, stratified: bool) -> list:
    """The `_Stratum` of each of the trial's analysis strata (`_strata`),
    made once per trial and flag."""
    held = _TRIAL_STRATA.setdefault(trial, {})
    if stratified not in held:
        strata = []
        for cols in _strata(trial, stratified):
            trt, mono_start = trial.trt[cols], trial.mono_start[cols]
            given = mono_start == mono_start   # a mono_start, not NaN
            by_start = given.nonzero()[0]
            by_start = by_start[mono_start[by_start].argsort()]
            strata.append(_Stratum(cols, trt, mono_start, given, mono_start[by_start],
                                   _running_total(trt[by_start])))
        held[stratified] = strata
    return held[stratified]


# ---------------------------------------------------------------------------
# Kaplan-Meier


@dataclass(frozen=True)
class KmCurve:
    """Product-limit estimate: one step per distinct event time."""

    times: np.ndarray
    surv: np.ndarray
    greenwood_se: np.ndarray
    n_risk: np.ndarray
    n_event: np.ndarray
    median: float | None
    n_subjects: int
    n_events_total: int

    def survival_at(self, t: float) -> float:
        """Step-function value S(t); 1.0 before the first event time."""
        idx = np.searchsorted(self.times, t, side="right") - 1
        if idx < 0:
            return 1.0
        return float(self.surv[idx])


def km_estimate(trial: Trial, arm: Arm | None = None) -> KmCurve:
    """Kaplan-Meier curve of the trial's subjects (optionally one arm).

    The median is the earliest time at which the curve drops to 0.5 or
    below; it is None when the curve never reaches 0.5.
    """
    s, d = trial.s, trial.delta
    if arm is not None:
        on_arm = trial.trt == arm.trt
        s, d = s[on_arm], d[on_arm]
    if not s.size:
        raise DataError("no subjects")

    event_times, n_event = distinct(s[d == 1])
    n_risk = s.size - np.sort(s).searchsorted(event_times)   # the subjects with s >= t

    surv = np.cumprod(1.0 - n_event / n_risk)
    # Greenwood: Var(S) = S^2 * cumsum(d / (n (n - d))); SE pinned to 0 when S hits 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = n_event / (n_risk * (n_risk - n_event))
        var = surv**2 * np.cumsum(terms)
    se = np.where(surv > 0, np.sqrt(np.where(np.isfinite(var), var, 0.0)), 0.0)

    median = None
    hit = np.nonzero(surv <= 0.5)[0]
    if hit.size:
        median = float(event_times[hit[0]])

    return KmCurve(
        times=event_times,
        surv=surv,
        greenwood_se=se,
        n_risk=n_risk,
        n_event=n_event,
        median=median,
        n_subjects=s.size,
        n_events_total=int(d.sum()),
    )


# ---------------------------------------------------------------------------
# Log-rank


@dataclass(frozen=True)
class LogRankResult:
    chi2: float
    p_two_sided: float
    observed: dict
    expected: dict


def _running_total(x) -> np.ndarray:
    """The integer totals of x before each position, and of all of x last."""
    total = np.zeros(x.size + 1, dtype=np.int64)
    np.add.accumulate(x, dtype=np.int64, out=total[1:])
    return total


def _segment_totals(x, bounds) -> np.ndarray:
    """The integer sums of x over the segments between consecutive bounds."""
    total = _running_total(x)[bounds]
    return total[1:] - total[:-1]


def _counts_in(x, start, stop) -> np.ndarray:
    """The integer sums of x over the spans [start, stop)."""
    total = _running_total(x)
    return total[stop] - total[start]


class _Runs:
    """k outcomes of one stratum's subjects, the rows of the k x n arrays
    (s, delta), each row sorted by time once, and the runs of equal times
    in each row that hold events, row after row.

    A subject is at risk at an event time t when s >= t, so the count at
    risk at t is the number of sorted times from the first one equal to t
    to the end of the row, and every count at t is a difference of two
    running totals over the sorted rows. Every count is an integer, so it
    does not depend on how it is summed. The tests read `arm_counts` and
    the risk tables `group_counts`; only what both read is kept.
    """

    def __init__(self, stratum: _Stratum, s, delta):
        k, n = s.shape
        order = s.argsort(axis=1)
        self.exp = exp = stratum.trt[order].ravel() == 1   # experimental, in sorted order
        order += np.arange(0, k * n, n)[:, None]
        self.order = order = order.ravel()    # positions in the k x n arrays, row by row
        self.stratum, self.s, self.delta = stratum, s, delta
        s = s.ravel()[order]
        event = delta.ravel()[order]
        # where a run of equal times starts within a row, and the end
        edge = np.empty(s.size + 1, dtype=bool)
        np.not_equal(s[1:], s[:-1], out=edge[1:-1])
        edge[:-1:n] = edge[-1] = True
        bounds = edge.nonzero()[0]
        d = np.add.reduceat(event, bounds[:-1], dtype=np.int64)
        timed = d.nonzero()[0]   # the runs that hold events
        self.start, self.stop = start, stop = bounds[timed], bounds[timed + 1]
        self.d = d[timed]
        self.rows = rows = start.searchsorted(np.arange(0, k * n + 1, n))
        # the end of each run's row
        self.end = end = np.arange(n, k * n + 1, n).repeat(rows[1:] - rows[:-1])
        self.d1 = _counts_in(event * exp, start, stop)
        self.n1 = _counts_in(exp, start, end)

    def arm_counts(self):
        """(n0, n1, d0, d1, bounds), what the log-rank test reads: at each
        event time of a row, ascending, the control and experimental
        subjects at risk and their events, and the k + 1 bounds between the
        rows' event times."""
        n1, d1 = self.n1, self.d1
        return self.end - self.start - n1, n1, self.d - d1, d1, self.rows

    def group_counts(self):
        """(n_risk, n_event): per event run, one row each, the subjects at
        risk (as floats, the rows of a risk table without tied events) and
        the events in the four arm x phase groups g = trt + 2 * mono, where
        a subject, none of whose mono_start is past its time, is in
        monotherapy in a row when mono_start < s.

        A subject with a mono_start is at risk in its monotherapy group at t
        when mono_start < t <= s: of its arm's subjects with a mono_start
        and s >= t, those whose mono_start is below t. Those with
        mono_start >= t come from one search of the run times in the
        stratum's sorted mono_starts. The rest of an arm's subjects at risk
        are in its combination group."""
        start, stop, end, exp, order = self.start, self.stop, self.end, self.exp, self.order
        stratum = self.stratum
        ev_mono = ((self.delta == 1) & (stratum.mono_start < self.s)).ravel()[order]
        has = np.tile(stratum.given, len(self.s))[order]
        below = stratum.starts.searchsorted(self.s.ravel()[order[start]])   # mono_start < t
        exp_below = stratum.exp_below
        mono1 = _counts_in(has & exp, start, end) - (exp_below[-1] - exp_below[below])
        mono0 = _counts_in(has, start, end) - (stratum.starts.size - below) - mono1
        n_risk = np.empty((start.size, 4))
        n_risk[:, 0] = end - start - self.n1 - mono0
        n_risk[:, 1] = self.n1 - mono1
        n_risk[:, 2], n_risk[:, 3] = mono0, mono1
        n_event = np.empty((start.size, 4), dtype=np.int64)
        n_event[:, 3] = _counts_in(ev_mono & exp, start, stop)
        n_event[:, 2] = _counts_in(ev_mono, start, stop) - n_event[:, 3]
        n_event[:, 1] = self.d1 - n_event[:, 3]
        n_event[:, 0] = self.d - self.d1 - n_event[:, 2]
        return n_risk, n_event


def _logrank(strata, k) -> list:
    """The log-rank test of k rows from per-stratum counts (n0, n1, d0, d1,
    bounds): the control and experimental subjects at risk and their events
    at each event time, row by row, and the k + 1 bounds between the rows.
    Returns per row its LogRankResult, or, for a row without events, the
    EstimationError that `logrank_test` raises for it.

    The terms of all rows are computed at once. Each row sums its own,
    stratum by stratum in stratum order, with np.add.reduce on a contiguous
    slice, which is the pairwise sum that np.sum takes of those terms
    alone; so a row's result does not depend on the rows beside it.
    """
    o1, d_total = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    e1, v = [0.0] * k, [0.0] * k
    for n0, n1, d0, d1, bounds in strata:
        n_at, d_at = n0 + n1, d0 + d1
        o1 += _segment_totals(d1, bounds)
        d_total += _segment_totals(d_at, bounds)
        e_terms = d_at * n1 / n_at
        ok = n_at > 1   # an event time with one subject at risk adds no variance
        v_bounds = bounds
        if not ok.all():
            n0, n1, n_at, d_at = n0[ok], n1[ok], n_at[ok], d_at[ok]
            v_bounds = _running_total(ok)[bounds]
        v_terms = d_at * (n1 / n_at) * (n0 / n_at) * (n_at - d_at) / (n_at - 1)
        e_bounds, v_bounds = bounds.tolist(), v_bounds.tolist()
        for r in range(k):
            e1[r] += np.add.reduce(e_terms[e_bounds[r]:e_bounds[r + 1]])
            v[r] += np.add.reduce(v_terms[v_bounds[r]:v_bounds[r + 1]])

    results = []
    for o1_r, e1_r, v_r, d_r in zip(o1.tolist(), e1, v, d_total.tolist()):
        if not d_r:
            results.append(EstimationError("log-rank needs at least one event"))
            continue
        stat = (o1_r - e1_r) ** 2 / v_r if v_r > 0 else 0.0
        results.append(LogRankResult(
            chi2=float(stat),
            p_two_sided=math.erfc(math.sqrt(stat / 2.0)),   # chi-square(1) upper tail
            observed={Arm.EXPERIMENTAL: float(o1_r), Arm.CONTROL: float(d_r - o1_r)},
            expected={Arm.EXPERIMENTAL: float(e1_r), Arm.CONTROL: float(d_r - e1_r)},
        ))
    return results


def _unwrap(result):
    """A row's test or fit; an EstimationError result is raised."""
    if isinstance(result, EstimationError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Grouped risk-set table


@dataclass(frozen=True, eq=False)
class RiskTable:
    """The grouped risk-set table of a trial, independent of beta.

    A has one row per (stratum, event time t, tie index k) and one column
    per arm x phase group g = trt + 2 * mono, holding n_g(t) - frac * d_g(t):
    the subjects at risk in group g at t less the Efron fraction
    frac = k / d(t) of their events at t (frac is 0 under Breslow). D holds
    the events per group. `ties` and `stratified` say how it was built.
    `meets[g, h]` says that an event of group g falls where group h is at
    risk, in some stratum.
    """

    A: np.ndarray
    D: np.ndarray
    meets: np.ndarray
    ties: str
    stratified: bool


def _tie_rows(n_risk, n_event, d, ties):
    """The rows of A from the group counts of event runs that hold d events
    each, C-ordered, and the running total of rows per run. Without a tied
    event time there is one row per run, tie index 0, so frac is 0 under
    either method and the rows are n_risk itself."""
    if (d == 1).all():
        return n_risk, _running_total(d)
    jj = np.repeat(np.arange(d.size), d)
    if ties == "efron":
        # tie index k of d tied events, over d: 0/d, 1/d, ..., (d-1)/d
        frac = (np.arange(jj.size) - np.repeat(np.cumsum(d) - d, d)) / np.repeat(d, d)
    else:
        frac = np.zeros(jj.size)
    return n_risk[jj] - frac[:, None] * n_event[jj], _running_total(d)


# ---------------------------------------------------------------------------
# One sort per row: the log-rank tests and the risk tables of k outcomes


class SortedRows:
    """k outcomes of one trial, the rows of the k x n arrays (s, delta), each
    row sorted by time once per stratum (`_strata`).

    `tests` holds each row's log-rank test, a LogRankResult or the
    EstimationError `logrank_test` raises for that row, and `tables` each
    row's `risk_table` under `ties`. Each is read from the one sort, for all
    k rows when first asked for, so a caller that reads only the tests pays
    for no table. `fits(covariates)` holds each row's `cox_fit` of that
    design on its table, or the EstimationError it raises, made for all k
    rows by one lockstep Newton when first asked for, and kept per design.
    A row's result is that of its outcome alone, to the bit: `logrank_test`,
    `risk_table` and `cox_fit` are the one-row case.
    """

    def __init__(self, trial: Trial, s: np.ndarray, delta: np.ndarray,
                 stratified: bool = False, ties: str = "efron"):
        if ties not in TIES:
            raise DataError(f"unknown ties method {ties!r}")
        self.trial, self.s, self.delta, self.ties = trial, s, delta, ties
        self.stratified = stratified
        self._strata = [_Runs(stratum, s[:, stratum.cols], delta[:, stratum.cols])
                        for stratum in _trial_strata(trial, stratified)]
        self._fitted = {}   # per design, the rows' fits

    @functools.cached_property
    def tests(self) -> list:
        trt = self.trial.trt
        if trt.all() or not trt.any():
            raise DataError("log-rank needs both arms present")
        return _logrank([runs.arm_counts() for runs in self._strata], len(self.s))

    @functools.cached_property
    def tables(self) -> list:
        """Every subject is at risk in group trt on (0, min(m, s)]. A
        subject in the monotherapy phase of its row (it entered at m < s)
        is also at risk in group trt + 2 on (m, s]. An event counts in the
        subject's group at s."""
        trial, k = self.trial, len(self.s)
        late = trial.mono_start > self.s
        if late.any():
            raise DataError(f"subject {trial.ids[late.argmax() % late.shape[1]]}: "
                            "phase time exceeds follow-up")
        blocks = [[] for _ in range(k)]   # per row, (A, D, meets) per stratum with events
        for runs in self._strata:
            n_risk, n_event = runs.group_counts()
            A, a_rows = _tie_rows(n_risk, n_event, runs.d, self.ties)
            at_risk, with_events = n_risk > 0, n_event > 0
            for r, (lo, hi) in enumerate(zip(runs.rows.tolist(), runs.rows[1:].tolist())):
                if lo < hi:
                    blocks[r].append((A[a_rows[lo]:a_rows[hi]], n_event[lo:hi].sum(axis=0),
                                      with_events[lo:hi].T @ at_risk[lo:hi]))
        tables = []
        for row in blocks:
            meets = np.zeros((4, 4), dtype=bool)
            for _, _, met in row:
                meets |= met
            if len(row) == 1:
                (A, D, _), = row
            else:
                A = np.vstack([np.zeros((0, 4)), *(A for A, _, _ in row)])
                D = sum((D for _, D, _ in row), np.zeros(4, dtype=int))
            tables.append(RiskTable(A=A, D=D, meets=meets, ties=self.ties,
                                    stratified=self.stratified))
        return tables

    def fits(self, covariates) -> list:
        """Each row's fit of `covariates`, from the block's one lockstep. A
        design asked for before is read back without a second check."""
        fitted = self._fitted.get(covariates) if type(covariates) is tuple else None
        if fitted is None:
            names = _design_names(covariates)
            fitted = self._fitted[names] = _fits(self.tables, names)
        return fitted


def logrank_test(trial: Trial, stratified: bool = False) -> LogRankResult:
    """Two-group log-rank test comparing arms, optionally summed over strata.

    Uses the standard O-E statistic with hypergeometric variance at each
    distinct event time; the two-sided p-value comes from chi-square with
    one degree of freedom. It is the one-row case of `SortedRows.tests`.
    """
    return _unwrap(SortedRows(trial, trial.s[None], trial.delta[None], stratified).tests[0])


def risk_table(trial: Trial, ties="efron", stratified=False) -> RiskTable:
    """The grouped risk-set table of the trial, optionally per stratum: the
    one-row case of `SortedRows.tables`. A subject whose monotherapy starts
    after its follow-up time is a DataError."""
    return SortedRows(trial, trial.s[None], trial.delta[None], stratified, ties).tables[0]


@functools.cache
def _group_covariates(names: tuple) -> np.ndarray:
    """Covariate values of the four arm x phase groups, one row per group.
    The interaction is trt * mono by construction. Built once per tuple of
    names and read-only, since every design of those names shares it."""
    trt, mono = np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0])
    columns = {"trt": trt, "mono": mono, "trt_x_mono": trt * mono}
    for name in names:
        if name not in columns:
            raise DataError(f"unknown covariate {name!r}")
    G = np.column_stack([columns[name] for name in names])
    G.flags.writeable = False
    return G


@functools.cache
def _separating_direction(meets: bytes, names: tuple):
    """A direction d along which the partial likelihood of the design
    `names` rises without bound, or None when it has a maximum: some d has
    (G[g] - G[h]) . d >= 0 for every pair met in `meets` (a table's, as
    bytes) and > 0 for one (Bryson & Johnson 1981). With p <= 3, searching
    {-2, ..., 2}^p, entries in {-1, 0, 1} first, decides it exactly."""
    g, h = np.frombuffer(meets, dtype=bool).reshape(4, 4).nonzero()
    G, p = _group_covariates(names), len(names)
    d = np.indices((5,) * p).reshape(p, -1).T - 2
    d = d[np.argsort(abs(d).max(axis=1), kind="stable")]
    moves = (G[g] - G[h]) @ d.T
    rising = (moves >= 0).all(axis=0) & (moves > 0).any(axis=0)
    return tuple(d[rising.argmax()].tolist()) if rising.any() else None


# ---------------------------------------------------------------------------
# Cox proportional hazards on the grouped risk-set table


@dataclass(frozen=True)
class CoxFit:
    """Maximum partial-likelihood fit."""

    names: tuple
    beta: np.ndarray
    se: np.ndarray
    cov: np.ndarray
    loglik: float
    iterations: int
    n_events: int
    gradient_norm: float

    def _idx(self, name: str) -> int:
        return self.names.index(name)

    def coef(self, name: str) -> float:
        return float(self.beta[self._idx(name)])

    def hr(self, name: str) -> float:
        return math.exp(self.coef(name))

    def wald_p(self, name: str) -> float:
        i = self._idx(name)
        z = self.beta[i] / self.se[i]
        return math.erfc(abs(z) / math.sqrt(2.0))   # 2 * Phi(-|z|)

    def contrast(self, names):
        """HR and 95% Wald CI for exp(sum of the named coefficients).

        An upper bound beyond float range is reported as inf; a variance
        that is negative or not finite is an EstimationError.
        """
        c = np.zeros(len(self.names))
        for nm in names:
            c[self._idx(nm)] += 1.0
        est = float(c @ self.beta)
        var = float(c @ self.cov @ c)
        if not (var >= 0.0 and math.isfinite(var)):
            raise EstimationError(f"variance of the contrast is negative or not finite: {var!r}")
        half = _Z975 * math.sqrt(var)
        upper = math.exp(est + half) if est + half <= _MAX_EXP else math.inf
        return math.exp(est), (math.exp(est - half), upper)


def _design_names(covariates) -> tuple:
    """The covariate names of a design: a non-empty tuple (or list) of
    distinct names; anything else is a DataError."""
    if (not isinstance(covariates, (tuple, list)) or not covariates
            or len(set(covariates)) < len(covariates)):
        raise DataError(f"covariates must be a non-empty tuple of distinct covariate "
                        f"names, got {covariates!r}")
    return tuple(covariates)


class _Buffers(threading.local):
    """Per thread, the float buffers of the lockstep's risk-set shares, each
    as large as the largest stack so far asked for, and reused by every
    stack after it: the fits of block after block take no fresh memory."""

    def __init__(self):
        self.flat = {}

    def get(self, name, *shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self.flat.get(name)
        if flat is None or flat.size < size:
            flat = self.flat[name] = np.zeros(size)
        return flat[:size].reshape(shape)


_BUFFERS = _Buffers()


class _Run(NamedTuple):
    """The tables at stack positions lo to hi, all of one row count n, and
    the views of the stack's buffers that a likelihood round gives them:
    their rows `A` (m x n x 4), their risk-set totals `Z` (m x n x 1), the
    same memory as `log_z` (m x n), their sums of log totals `totals`, and
    their shares (m x 4 x n, and transposed) and cross products `S`."""

    lo: int
    hi: int
    n: int
    A: np.ndarray
    Z: np.ndarray
    log_z: np.ndarray
    totals: np.ndarray
    shares: np.ndarray
    shares_t: np.ndarray
    S: np.ndarray


class _Stack:
    """The grouped risk-set tables of the fits of one lockstep, with the
    group covariate values G (4 x p) of a design of two or more covariates.

    With w = exp(G beta), Z = A w and R = A diag(w) / Z (one risk-set share
    per table row and group, each row summing to 1), the gradient and the
    Hessian of a table read only the 4 x 4 cross product S = R'R of its
    shares: with r = the row sums of S (the column sums of R), the gradient
    is sum_x - r G and the Hessian G'(S - diag r)G, whatever p. No T x p
    moment is formed.

    Consecutive tables of one row count form a `_Run`; `_fits` orders its
    tables by row count, so a block's few lengths give a few runs. A run
    takes its Z, its sums of log Z and its cross products in one call each:
    np.matmul over the run, or np.add.reduce along its rows, makes for
    each table the call the table alone makes, and reads no entry past the
    table's own rows. So a table's likelihood is what it is alone, to the
    bit, whatever tables stand beside it; a cross product over a stack
    padded to the longest table would move bits. A run of one table reads
    the table's own A, a longer one a row-major copy of its tables. The
    shares of all k tables come at once, elementwise, from a group-major
    copy (k x 4 x W) padded with zeros to the longest. The runs are formed
    once: a fit that has ended keeps its table's slot, and its results are
    ignored, until the last fit of the stack ends. The copies, Z and the
    shares live in the thread's `_BUFFERS`, so a thread holds one stack at
    a time.
    """

    def __init__(self, tables, G):
        self.G, rows = G, [len(table.A) for table in tables]
        k, width = len(tables), max(rows)
        self.At, self.Z = _BUFFERS.get("At", k, 4, width), _BUFFERS.get("Z", k, width)
        self.R = _BUFFERS.get("R", k, 4, width)
        self.S, self.totals = np.empty((k, 4, 4)), np.empty(k)
        self.runs, lo = [], 0
        for n, run in itertools.groupby(rows):
            hi = lo + len(list(run))
            if hi - lo == 1:
                A = tables[lo].A[None]
            else:
                A = _BUFFERS.get("A", k, width, 4)[lo:hi, :n]
                np.stack([table.A for table in tables[lo:hi]], out=A)
            shares = self.R[lo:hi, :, :n]
            self.runs.append(_Run(lo, hi, n, A, self.Z[lo:hi, :n, None], self.Z[lo:hi, :n],
                                  self.totals[lo:hi], shares, shares.transpose(0, 2, 1),
                                  self.S[lo:hi]))
            self.At[lo:hi, :, :n] = A.transpose(0, 2, 1)
            if n < width:   # padding: no shares, and no subnormal float in Z
                self.At[lo:hi, :, n:], self.Z[lo:hi, n:] = 0.0, 1.0
            lo = hi
        self.sum_x = np.array([table.D for table in tables]) @ G   # integers, so exact

    def loglik_grad_hess(self, beta):
        """Per table, the likelihood (a float), gradient and Hessian at its
        row of the k x p `beta`. Sums are np.add.reduce, which `.sum`
        calls, without its wrapper. Run it under np.errstate(over, invalid,
        divide ignored): a trial step that overflows w gives a non-finite
        likelihood, which the Newton loop rejects by halving the step."""
        G, Z, R, S = self.G, self.Z, self.R, self.S
        w = np.exp(np.matmul(G, beta[:, :, None]))   # k x 4 x 1
        for run in self.runs:
            np.matmul(run.A, w[run.lo:run.hi], out=run.Z)
        np.multiply(self.At, w, out=R)
        np.divide(R, Z[:, None], out=R)
        np.log(Z, out=Z)
        for *_, log_z, totals, shares, shares_t, S_run in self.runs:
            np.add.reduce(log_z, axis=1, out=totals)
            np.matmul(shares, shares_t, out=S_run)
        ll = (np.matmul(self.sum_x[:, None], beta[:, :, None]).ravel() - self.totals).tolist()
        r = np.add.reduce(S, axis=2)   # the column sums of R, whose rows sum to 1
        grad = self.sum_x - np.matmul(r[:, None], G)[:, 0]
        S.reshape(-1, 16)[:, ::5] -= r  # S - diag(r), in place
        hess = np.matmul(np.matmul(G.T, S), G)
        return ll, grad, hess


class _TwoGroupRun(NamedTuple):
    """The tables at stack positions lo to hi, all of one row count n, and
    the views of the stack's buffers that a likelihood round reduces: their
    log risk-set totals, shares and squared shares `stats` (3 x m x n) and
    the sums of each `sums` (3 x m)."""

    lo: int
    hi: int
    n: int
    stats: np.ndarray
    sums: np.ndarray


class _TwoGroupStack:
    """The grouped risk-set tables of the fits of one lockstep, with a
    one-covariate design's group covariate values G (4 x 1, each 0 or 1).

    Such a design is a two-sample Cox model: a table row reads only a, the
    sum of its A over the groups whose covariate is 0, and b, the sum over
    those whose covariate is 1, each added in group order. With w =
    exp(beta), Z = a + b w and the share R = b w / Z, a table's likelihood
    is sum_x beta - sum log Z, its gradient sum_x - sum R and its Hessian
    -(sum R - sum R^2). Each round is elementwise ufuncs and np.add.reduce
    over each table's own rows: no matmul, so no BLAS call.

    The tables' rows lie end to end (T in all), in the order `_fits` gives
    them, by row count, so a `_TwoGroupRun` of consecutive tables of one
    row count is an m x n block of each row of `stats`, and takes its three
    sums in one np.add.reduce along its rows, which makes for each table
    the call the table alone makes. So a table's likelihood is what it is
    alone, to the bit, whatever tables stand beside it. The runs are formed
    once, as in `_Stack`. The rows, a and b, and the per-row values of a
    round live in the thread's `_BUFFERS`, so a thread holds one stack at
    a time.
    """

    def __init__(self, tables, G):
        rows = [len(table.A) for table in tables]
        k, total = len(tables), sum(rows)
        A = np.concatenate([table.A for table in tables], out=_BUFFERS.get("A", total, 4))
        # a and b, and below the per-row values, take the buffers of `_Stack`'s
        # group-major rows and shares, which are as large for the same tables:
        # the two designs of a block take the memory of one
        self.ab, x = _BUFFERS.get("At", 2, total), G[:, 0].tolist()
        for row, value in zip(self.ab, (0.0, 1.0)):
            columns = [A[:, g] for g in range(4) if x[g] == value]
            if len(columns) == 1:
                np.copyto(row, columns[0])
            else:
                np.add(columns[0], columns[1], out=row)
            for column in columns[2:]:
                row += column
        self.table_of = np.repeat(np.arange(k), rows)
        self.stats, self.sums = _BUFFERS.get("R", 3, total), np.empty((3, k))
        self.runs, lo, start = [], 0, 0
        for n, run in itertools.groupby(rows):
            m = sum(1 for _ in run)
            hi, stop = lo + m, start + m * n
            self.runs.append(_TwoGroupRun(lo, hi, n, self.stats[:, start:stop].reshape(3, m, n),
                                          self.sums[:, lo:hi]))
            lo, start = hi, stop
        self.sum_x = np.array([table.D for table in tables]) @ G   # integers, so exact

    def loglik_grad_hess(self, beta):
        """As `_Stack.loglik_grad_hess`, for the k x 1 `beta`. A trial step
        that overflows w gives an infinite or NaN Z, so a non-finite
        likelihood, which the Newton loop rejects by halving the step."""
        (a, b), (log_z, shares, squares) = self.ab, self.stats
        np.take(np.exp(beta), self.table_of, out=squares, mode="clip")   # each row's w
        np.multiply(b, squares, out=shares)
        np.add(a, shares, out=log_z)            # Z
        np.divide(shares, log_z, out=shares)    # R = b w / Z
        np.log(log_z, out=log_z)
        np.multiply(shares, shares, out=squares)
        for run in self.runs:
            np.add.reduce(run.stats, axis=2, out=run.sums)
        log_totals, r, r2 = self.sums
        ll = (self.sum_x[:, 0] * beta[:, 0] - log_totals).tolist()
        grad = self.sum_x - r[:, None]
        hess = (r2 - r)[:, None, None]   # -(sum R - sum R^2)
        return ll, grad, hess


def _stack(tables, G):
    """The lockstep's stack of the design G on `tables`: `_TwoGroupStack`
    for one covariate, `_Stack` for more."""
    return (_TwoGroupStack if G.shape[1] == 1 else _Stack)(tables, G)


_SINGULAR = "singular information matrix: design is collinear on the risk sets"
_NOT_POSITIVE_DEFINITE = ("information at the optimum is not positive definite: the design is "
                          "collinear on the risk sets or the end point is not a maximum")


def _has_nan(x) -> bool:
    return any(map(math.isnan, x.ravel().tolist()))


def _newton_steps(info, grad):
    """(steps, solved): per system of the stacks, the step solving
    info @ step = grad, from the gufunc np.linalg.solve calls, without its
    wrapper, and whether it is finite. A singular system leaves its step
    NaN (where the wrapper raises), and is refused with the non-finite
    ones. Run it under np.errstate(invalid ignored), as `cox_fit` does."""
    steps = _umath_linalg.solve1(info, grad, signature="dd->d")
    return steps, [all(map(math.isfinite, values)) for values in steps.tolist()]


def _inverses_of_positive_definite(info) -> list:
    """Per matrix of the stack, the inverse of the information, or None
    unless LAPACK's Cholesky factorization (dpotrf) accepts it, from the
    gufuncs that np.linalg.cholesky and np.linalg.inv call, without their
    wrappers: a factorization or an inverse that fails comes back NaN
    (where the wrappers raise) and is refused. Run it under
    np.errstate(invalid ignored), as `cox_fit` does."""
    lower = _umath_linalg.cholesky_lo(info, signature="d->d")
    inverse = _umath_linalg.inv(info, signature="d->d")
    return [None if _has_nan(low) or _has_nan(cov) else cov for low, cov in zip(lower, inverse)]


def _among(slots, n):
    """An index of the ascending `slots` of n: a slice when they are all n,
    which numpy reads and writes without a copy."""
    return slice(None) if len(slots) == n else slots


def _newton(stack):
    """Damped Newton-Raphson from beta = 0 on every table of `stack`, in
    lockstep: each round evaluates, in one `loglik_grad_hess` call, the
    point each fit tries next, and solves the steps of the fits that begin
    an iteration in one call. Each fit keeps its own iteration count, step
    halving and convergence tests, on its own floats, which the tests read
    as Python floats, so it ends as it would alone. A fit that ends keeps
    its slot of the stack, with the point it last tried, until every fit
    has ended; the rounds in between evaluate that point again, and their
    results for it are ignored. The iteration cap is `_MAX_ITER`, read at
    each call.

    Returns (ends, optima): per fit, its iteration count at convergence or
    the EstimationError that stopped it, and for a converged fit its
    (beta, loglik, Hessian, gradient norm)."""
    (k, p), max_iter = stack.sum_x.shape, _MAX_ITER
    ends, optima = [None] * k, [None] * k
    # per fit: its accepted point, its step and the point it tries next;
    # iteration 0 tries beta = 0
    beta, candidate, step = np.zeros((k, p)), np.zeros((k, p)), np.zeros((k, p))
    ll, slack, factor, iteration, halvings = [0.0] * k, [0.0] * k, [1.0] * k, [0] * k, [0] * k
    running = list(range(k))
    while running:
        ll_new, grad_new, hess_new = stack.loglik_grad_hess(candidate)
        norm_new = np.matmul(grad_new[:, None], grad_new[:, :, None]).ravel().tolist()
        accepted, halve, begin = [], [], []
        for i in running:
            if iteration[i] and not (math.isfinite(ll_new[i]) and ll_new[i] >= ll[i] - slack[i]):
                halvings[i] += 1
                if halvings[i] < 30:
                    halve.append(i)
                else:
                    ends[i] = ConvergenceError("Newton-Raphson step halving failed",
                                               last_beta=beta[i].copy(), iterations=iteration[i])
                continue
            accepted.append(i)
            delta_ll, ll[i] = ll_new[i] - ll[i], ll_new[i]
            norm = math.sqrt(norm_new[i])
            if norm < _GRAD_TOL and (abs(delta_ll) < _LL_TOL or iteration[i] < max_iter):
                # converged, or the next iteration takes no step
                ends[i] = iteration[i]
                optima[i] = (candidate[i].copy(), ll[i], hess_new[i], norm)
            elif iteration[i] == max_iter:
                ends[i] = ConvergenceError(f"no convergence after {max_iter} iterations",
                                           last_beta=candidate[i].copy(), iterations=max_iter)
            else:
                iteration[i] += 1
                begin.append(i)
        if accepted:
            at = _among(accepted, k)
            beta[at] = candidate[at]
        for i in halve:
            factor[i] /= 2.0
            candidate[i] = beta[i] + factor[i] * step[i]
        if begin:
            at = _among(begin, k)   # accepted in this round, at grad_new and hess_new
            new_steps, solved = _newton_steps(-hess_new[at], grad_new[at])
            if not all(solved):
                for i, ok in zip(begin, solved):
                    if not ok:
                        ends[i] = EstimationError(_SINGULAR)
                new_steps = new_steps[solved]
                begin = [i for i, ok in zip(begin, solved) if ok]
                at = _among(begin, k)
            step[at] = new_steps
            candidate[at] = beta[at] + new_steps   # the full step: 1.0 * step is step
            for i in begin:
                # accept a step whose apparent decrease is within float resolution
                factor[i], halvings[i], slack[i] = 1.0, 0, 1e-11 * max(1.0, abs(ll[i]))
        running = [i for i in running if ends[i] is None]
    return ends, optima


def _fits(tables, covariates) -> list:
    """Per table, the `cox_fit` of `covariates` on it, a CoxFit, or the
    EstimationError that fit raises: the tables without events or with
    separation are refused first, and the fits of the rest run in one
    lockstep `_newton`, ordered by row count. A fit reads only its own
    table, so each result is what `cox_fit` gives that table alone, to the
    bit."""
    names = _design_names(covariates)
    G = _group_covariates(names)
    results, fitting = [], []
    for table in tables:
        if not table.D.any():
            results.append(EstimationError("no events in counting-process data"))
            continue
        d = _separating_direction(table.meets.tobytes(), names)
        if d is not None:
            along = ", ".join(f"{name}={v}" for name, v in zip(names, d))
            results.append(SeparationError(f"separation detected: the partial likelihood rises "
                                           f"without bound along {along}"))
            continue
        fitting.append(len(results))
        results.append(None)
    if not fitting:
        return results
    fitting.sort(key=lambda j: len(tables[j].A))   # tables of one length side by side
    p = len(names)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ends, optima = _newton(_stack([tables[j] for j in fitting], G))
        converged = [i for i, optimum in enumerate(optima) if optimum]
        info = -np.array([optima[i][2] for i in converged]).reshape(-1, p, p)
        inverses = _inverses_of_positive_definite(info)
    for j, end in zip(fitting, ends):
        results[j] = end
    for i, info_i, cov in zip(converged, info, inverses):
        beta, ll, _, norm = optima[i]
        results[fitting[i]] = _checked_fit(names, tables[fitting[i]], beta, ll, norm, ends[i],
                                           info_i, cov)
    return results


def _checked_fit(names, table, beta, ll, norm, iterations, info, cov):
    """The CoxFit of a converged fit, or the EstimationError that refuses
    its information at the optimum: not positive definite (`cov` None),
    or numerically singular."""
    if cov is None:
        return EstimationError(_NOT_POSITIVE_DEFINITE)
    inflation = info.diagonal() * cov.diagonal()   # at least 1 in exact arithmetic
    if not all(0.0 < x < _MAX_VARIANCE_INFLATION for x in inflation.tolist()):
        return EstimationError("information at the optimum is numerically singular: the "
                               "design is collinear on the risk sets")
    return CoxFit(names=names, beta=beta, se=np.sqrt(cov.diagonal()), cov=cov, loglik=ll,
                  iterations=iterations, n_events=int(table.D.sum()), gradient_norm=norm)


def cox_fit(table: RiskTable, covariates=("trt",)) -> CoxFit:
    """Maximize the partial likelihood by damped Newton-Raphson.

    Starts at beta = 0, halves the step whenever the likelihood would
    decrease, and stops when both the likelihood change and the gradient
    norm are below tolerance. Raises SeparationError before the first step
    when the likelihood has no maximum (`_separating_direction`), whatever
    the strata; ConvergenceError, carrying the last iterate, when the
    iteration cap (`_MAX_ITER`) is reached, and EstimationError when the
    information at the optimum is singular. `covariates` is a non-empty
    tuple (or list) of names; anything else is a DataError. It is the
    one-table case of the lockstep (`_fits`).
    """
    return _unwrap(_fits([table], covariates)[0])


# ---------------------------------------------------------------------------
# Phase-specific hazard ratios


@dataclass(frozen=True)
class PhaseHr:
    """Phase-specific hazard ratios from the three-term time-varying model."""

    hr_combo: float
    ci_combo: tuple
    hr_mono: float | None
    ci_mono: tuple | None
    fit: CoxFit
    flags: list = field(default_factory=list)

    @classmethod
    def of_fit(cls, fit: CoxFit) -> PhaseHr:
        """The phase HRs of a fit of `PHASE_MODEL`, or of a treatment-only
        fit, which has no monotherapy HR and is flagged."""
        hr_c, ci_c = fit.contrast(("trt",))
        if fit.names == ("trt",):
            return cls(hr_combo=hr_c, ci_combo=ci_c, hr_mono=None, ci_mono=None,
                       fit=fit, flags=["no monotherapy phase observed"])
        hr_m, ci_m = fit.contrast(("trt", "trt_x_mono"))
        return cls(hr_combo=hr_c, ci_combo=ci_c, hr_mono=hr_m, ci_mono=ci_m, fit=fit)


def phase_hr(trial: Trial, table: RiskTable) -> PhaseHr:
    """Combination-phase and monotherapy-phase hazard ratios with Wald CIs.

    Fits treatment, monotherapy status, and their interaction on `table`,
    the caller's risk table of `trial` (its ties and strata are the fit's).
    The combination-phase HR is exp(b_trt); the monotherapy-phase HR is
    exp(b_trt + b_interaction). When no subject of the trial ever
    transitions, the monotherapy HR is undefined and flagged, and the model
    reduces to treatment only.
    """
    return PhaseHr.of_fit(cox_fit(table, PHASE_MODEL if trial.in_mono.any() else ("trt",)))
