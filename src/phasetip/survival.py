"""Survival estimators built from scratch on columnar trial data.

Provides the product-limit (Kaplan-Meier) curve with Greenwood variance,
the (optionally stratified) two-group log-rank test, and a Cox
proportional-hazards fitter for the time-varying phase model of the
analysis: treatment, monotherapy status, and their interaction.

The Kaplan-Meier curve and the risk table count through one routine,
`_counts`: the subjects at risk and the events per group and event time,
from the event-time bins where each spell of a subject enters and leaves
its group. The curve counts one group, and the table the four arm x phase
groups, in which a subject in monotherapy has two spells. Every log-rank
test is `logrank_rows`, which tests k outcomes of one trial in one pass:
one row-wise sort gives each row's arm counts at its own event times,
which `_counts` would need a search per row to bin. A block of search
probes or curve points is such a pass, and `logrank_test` is its one-row
case.

Every covariate of that design is a function of a subject's arm x phase
group g = trt + 2 * mono at a given time, so the Efron (or Breslow) partial
likelihood needs only, per stratum and event time, the subjects at risk and
the events in each of the four groups. `risk_table` builds that grouped
risk-set table straight from a `Trial`; no start-stop expansion is ever
formed. `cox_fit` and `partial_loglik_and_gradient` read only the table and
evaluate every design from it with a 4 x p matrix of group covariate
values: the likelihood sums the log risk-set totals over the table's
rows, and the gradient and the Hessian read the 4 x 4 cross product of
the risk-set shares of the four groups. So a caller that holds the table
(the treatment-only and the three-covariate fit of one evaluation, or of
one `analyze` report, which passes it to `phase_hr`) builds it once. The
Kaplan-Meier curve, `logrank_test` and the table take a `Trial`.
Nothing loops over subjects in Python, and the Newton loop of `cox_fit`
calls numpy's reductions, and the LAPACK gufuncs that np.linalg.solve,
np.linalg.cholesky and np.linalg.inv call, without their per-call
wrappers, with the same arithmetic; it tests its floats as Python floats.
A fit without a maximum is refused before Newton, whatever its strata,
from the pairs of groups that meet. Distinct values (event times, strata)
come from one sort and a mask (`distinct`), not from np.unique, which
imports numpy.ma.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

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
    "logrank_rows",
    "RiskTable",
    "risk_table",
    "cox_fit",
    "partial_loglik_and_gradient",
    "phase_hr",
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
    label with a missing stratum (NaN) pooled as -1."""
    if not stratified:
        return [slice(None)]
    keys = np.where(np.isnan(trial.stratum), -1.0, trial.stratum)
    return [keys == st for st in distinct(keys)[0]]


def _counts(event_times, enter, leave, event, n_groups):
    """Subjects at risk and events per group and event time.

    A spell of group g is at risk at event_times[j] for enter <= j < leave.
    Every index is a bin g * (T + 1) + j of a group-major layout (T event
    times, plus j = T for a spell that outlasts the last one): `enter` and
    `leave` hold one bin per spell, `event` one bin per event. Returns
    (n_risk, n_event), each n_groups x T.
    """
    width = event_times.size + 1
    bins = n_groups * width
    flow = np.bincount(enter, minlength=bins) - np.bincount(leave, minlength=bins)
    n_risk = np.cumsum(flow.reshape(n_groups, width), axis=1)[:, :-1]
    n_event = np.bincount(event, minlength=bins).reshape(n_groups, width)[:, :-1]
    return n_risk, n_event


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

    event_times = distinct(s[d == 1])[0]
    leave = event_times.searchsorted(s, side="right")   # one group: bin = j
    (n_risk,), (n_event,) = _counts(event_times, np.zeros_like(leave), leave,
                                    leave[d == 1] - 1, 1)

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


def _arm_counts(trt, s, delta):
    """The arm counts of the log-rank test in each row of (s, delta), k
    outcomes of the subjects whose arms are `trt`.

    Returns (n0, n1, d0, d1, bounds): at each event time of a row,
    ascending, the control and experimental subjects at risk and their
    events, the rows one after another, and the k + 1 bounds between the
    rows' event times. One row-wise sort gives them all: a subject is at
    risk at an event time t when s >= t, so the count at risk at t is the
    number of sorted times from the first one equal to t to the end of the
    row. The counts are integers, so they do not depend on how they are
    summed.
    """
    k, n = s.shape
    order = s.argsort(axis=1)
    exp = trt[order].ravel()
    order += np.arange(0, k * n, n)[:, None]
    order = order.ravel()
    s = s.ravel()[order]
    event = delta.ravel()[order]
    # runs of equal times within a row, by their first position
    first = np.empty(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    first[::n] = True
    start = first.nonzero()[0]
    bounds = np.concatenate((start, [s.size]))
    d = _segment_totals(event, bounds)
    timed = d.nonzero()[0]   # the runs that hold events
    start, stop, d = start[timed], bounds[timed + 1], d[timed]
    exp_events = _running_total(event * exp)
    d1 = exp_events[stop] - exp_events[start]
    n_at = n - start % n
    exps = _running_total(exp)
    n1 = exps[start + n_at] - exps[start]
    rows = start.searchsorted(np.arange(0, k * n + 1, n))
    return n_at - n1, n1, d - d1, d1, rows


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


def logrank_rows(trial: Trial, s: np.ndarray, delta: np.ndarray,
                 stratified: bool = False) -> list:
    """`logrank_test` of `trial` with each row of the k x n arrays (s,
    delta) as its outcome, in one pass: per row its LogRankResult, the same
    to the bit, or the EstimationError it raises for that row."""
    if trial.trt.all() or not trial.trt.any():
        raise DataError("log-rank needs both arms present")
    return _logrank([_arm_counts(trial.trt[cols], s[:, cols], delta[:, cols])
                     for cols in _strata(trial, stratified)], len(s))


def logrank_test(trial: Trial, stratified: bool = False) -> LogRankResult:
    """Two-group log-rank test comparing arms, optionally summed over strata.

    Uses the standard O-E statistic with hypergeometric variance at each
    distinct event time; the two-sided p-value comes from chi-square with
    one degree of freedom. It is the one-row case of `logrank_rows`.
    """
    (result,) = logrank_rows(trial, trial.s[None], trial.delta[None], stratified)
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


def risk_table(trial: Trial, ties="efron", stratified=False) -> RiskTable:
    """The grouped risk-set table of the trial, optionally per stratum.

    Every subject is at risk in group trt on (0, min(m, s)]. A subject in
    the monotherapy phase (`Trial.in_mono`: it entered at m < s) is also at
    risk in group trt + 2 on (m, s]. An event counts in the subject's group
    at s.
    """
    if ties not in TIES:
        raise DataError(f"unknown ties method {ties!r}")
    late = np.flatnonzero(trial.mono_start > trial.s)
    if late.size:
        raise DataError(f"subject {trial.ids[late[0]]}: phase time exceeds follow-up")
    in_mono = trial.in_mono
    blocks = []
    meets = np.zeros((4, 4), dtype=bool)
    for rows in _strata(trial, stratified):
        s, trt, mono = trial.s[rows], trial.trt[rows], in_mono[rows]
        ev = trial.delta[rows] == 1
        if not ev.any():
            continue
        ut, d = distinct(s[ev])
        # spells: group trt from j = 0; in monotherapy, group trt + 2 from the
        # first ut > m; each spell ends at the first ut > s or the switch
        width = ut.size + 1
        g = trt + 2 * mono
        switch = ut.searchsorted(trial.mono_start[rows][mono], side="right")
        stop = g * width + ut.searchsorted(s, side="right")
        n_risk, n_event = _counts(
            ut,
            enter=np.concatenate([trt * width, (trt[mono] + 2) * width + switch]),
            leave=np.concatenate([trt[mono] * width + switch, stop]),
            event=stop[ev] - 1,
            n_groups=4,
        )
        meets |= (n_event > 0) @ (n_risk > 0).T
        n_risk, n_event = n_risk.T, n_event.T
        if ut.size == d.sum():
            # no event time is tied: one row per event time, tie index 0, so
            # frac is 0 under either method and the block is n_risk itself
            block = n_risk.astype(float, order="C")
        else:
            jj = np.repeat(np.arange(ut.size), d)
            if ties == "efron":
                # tie index k of d tied events, over d: 0/d, 1/d, ..., (d-1)/d
                frac = (np.arange(jj.size) - np.repeat(np.cumsum(d) - d, d)) / np.repeat(d, d)
            else:
                frac = np.zeros(jj.size)
            block = n_risk[jj] - frac[:, None] * n_event[jj]
        blocks.append((block, n_event.sum(axis=0)))
    if len(blocks) == 1:
        (A, D), = blocks
    else:
        A = np.vstack([np.zeros((0, 4)), *(A for A, _ in blocks)])
        D = sum((D for _, D in blocks), np.zeros(4, dtype=int))
    return RiskTable(A=A, D=D, meets=meets, ties=ties, stratified=stratified)


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


class _GroupDesign:
    """The grouped risk-set table with one design's group covariate values.

    With G the 4 x p covariate values of the groups, w = exp(G beta),
    Z = A w and R = A diag(w) / Z (one risk-set share per table row and
    group, each row summing to 1), the gradient and the Hessian read only
    the 4 x 4 cross product S = R'R of the shares: with r = the row sums of
    S (the column sums of R), the gradient is sum_x - r G and the Hessian
    G'(S - diag r)G, whatever p. No T x p moment is formed.
    """

    def __init__(self, table: RiskTable, covariates):
        if (not isinstance(covariates, (tuple, list)) or not covariates
                or len(set(covariates)) < len(covariates)):
            raise DataError(f"covariates must be a non-empty tuple of distinct covariate "
                            f"names, got {covariates!r}")
        self.names = tuple(covariates)
        self.G = _group_covariates(self.names)
        self.p = len(self.names)
        self.n_events = int(table.D.sum())
        if self.n_events == 0:
            raise EstimationError("no events in counting-process data")
        self.A = table.A
        self.meets = table.meets
        self.sum_x = table.D @ self.G

    def loglik_grad_hess(self, beta):
        """Likelihood, gradient and Hessian at beta. Sums are np.add.reduce,
        which `.sum` calls, without its wrapper. Run it under
        np.errstate(over, invalid, divide ignored): a trial step that
        overflows w gives a non-finite likelihood, which the Newton loop
        rejects by halving the step."""
        w = np.exp(self.G @ beta)
        Z = self.A @ w
        R = self.A * w / Z[:, None]
        ll = float(self.sum_x @ beta) - float(np.add.reduce(np.log(Z)))
        S = R.T @ R
        r = np.add.reduce(S, axis=1)   # the column sums of R, whose rows sum to 1
        grad = self.sum_x - r @ self.G
        hess = self.G.T @ (S - np.diag(r)) @ self.G
        return ll, grad, hess


def _norm(v) -> float:
    """The Euclidean norm, computed as np.linalg.norm computes it for a
    vector, without its wrapper."""
    return math.sqrt(v.dot(v))


def partial_loglik_and_gradient(table: RiskTable, covariates=("trt",), beta=None):
    """Log partial likelihood and its gradient at an arbitrary beta: one
    finite number per covariate, 0 for each when None.

    Exposed so tests can check the analytic gradient against finite
    differences and scan the likelihood directly.
    """
    design = _GroupDesign(table, covariates)
    p = design.p
    try:
        values = np.zeros(p) if beta is None else np.asarray(beta)
    except ValueError:   # a ragged sequence
        values = np.array(None)
    if values.dtype.kind not in "iuf" or values.shape != (p,) or not np.isfinite(values).all():
        raise DataError(f"beta must be {p} finite number(s), one per covariate, got {beta!r}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll, grad, _ = design.loglik_grad_hess(values.astype(float))
    return ll, grad


_SINGULAR = "singular information matrix: design is collinear on the risk sets"
_NOT_POSITIVE_DEFINITE = ("information at the optimum is not positive definite: the design is "
                          "collinear on the risk sets or the end point is not a maximum")


def _has_nan(x) -> bool:
    return any(map(math.isnan, x.ravel().tolist()))


def _newton_step(info, grad):
    """The step solving info @ step = grad, from the gufunc np.linalg.solve
    calls, without its wrapper: a singular system leaves the step NaN
    (where the wrapper raises), which is refused with the non-finite ones.
    Run it under np.errstate(invalid ignored), as `cox_fit` does."""
    step = _umath_linalg.solve1(info, grad, signature="dd->d")
    if not all(map(math.isfinite, step.tolist())):
        raise EstimationError(_SINGULAR)
    return step


def _newton(design, max_iter):
    """Damped Newton-Raphson from beta = 0 on `design`; returns (beta,
    loglik, gradient, Hessian, iterations) at convergence. The convergence
    and finiteness tests read Python floats."""
    beta = np.zeros(design.p)
    ll, grad, hess = design.loglik_grad_hess(beta)
    for iterations in range(1, max_iter + 1):
        if _norm(grad) < _GRAD_TOL:
            return beta, ll, grad, hess, iterations - 1
        step = _newton_step(-hess, grad)

        # accept a step whose apparent decrease is within float resolution
        ll_slack = 1e-11 * max(1.0, abs(ll))
        factor = 1.0
        for _ in range(30):
            cand = beta + factor * step
            ll_new, grad_new, hess_new = design.loglik_grad_hess(cand)
            if math.isfinite(ll_new) and ll_new >= ll - ll_slack:
                break
            factor /= 2.0
        else:
            raise ConvergenceError(
                "Newton-Raphson step halving failed", last_beta=beta, iterations=iterations
            )

        delta_ll = ll_new - ll
        beta, ll, grad, hess = cand, ll_new, grad_new, hess_new
        if abs(delta_ll) < _LL_TOL and _norm(grad) < _GRAD_TOL:
            return beta, ll, grad, hess, iterations
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations",
        last_beta=beta,
        iterations=max_iter,
    )


def _inverse_of_positive_definite(info):
    """The inverse of the information, refused unless LAPACK's Cholesky
    factorization (dpotrf) accepts it, from the gufuncs that
    np.linalg.cholesky and np.linalg.inv call, without their wrappers: a
    factorization or an inverse that fails comes back NaN (where the
    wrappers raise) and is refused. Run it under np.errstate(invalid
    ignored), as `cox_fit` does."""
    if not _has_nan(_umath_linalg.cholesky_lo(info, signature="d->d")):
        cov = _umath_linalg.inv(info, signature="d->d")
        if not _has_nan(cov):
            return cov
    raise EstimationError(_NOT_POSITIVE_DEFINITE)


def cox_fit(table: RiskTable, covariates=("trt",), max_iter=_MAX_ITER) -> CoxFit:
    """Maximize the partial likelihood by damped Newton-Raphson.

    Starts at beta = 0, halves the step whenever the likelihood would
    decrease, and stops when both the likelihood change and the gradient
    norm are below tolerance. Raises SeparationError before the first step
    when the likelihood has no maximum (`_separating_direction`), whatever
    the strata; ConvergenceError, carrying the last iterate, when the
    iteration cap is reached, and EstimationError when the information at
    the optimum is singular. `covariates` is a non-empty tuple (or list) of
    names and `max_iter` a positive integer; anything else is a DataError.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise DataError(f"max_iter must be a positive integer, got {max_iter!r}")
    design = _GroupDesign(table, covariates)
    d = _separating_direction(design.meets.tobytes(), design.names)
    if d is not None:
        along = ", ".join(f"{name}={v}" for name, v in zip(design.names, d))
        raise SeparationError(f"separation detected: the partial likelihood rises without "
                              f"bound along {along}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta, ll, grad, hess, iterations = _newton(design, max_iter)
        info = -hess
        cov = _inverse_of_positive_definite(info)
    inflation = info.diagonal() * cov.diagonal()   # at least 1 in exact arithmetic
    if not all(0.0 < x < _MAX_VARIANCE_INFLATION for x in inflation.tolist()):
        raise EstimationError(
            "information at the optimum is numerically singular: the design is "
            "collinear on the risk sets"
        )
    se = np.sqrt(cov.diagonal())
    return CoxFit(
        names=design.names,
        beta=beta,
        se=se,
        cov=cov,
        loglik=ll,
        iterations=iterations,
        n_events=design.n_events,
        gradient_norm=_norm(grad),
    )


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


def phase_hr(trial: Trial, table: RiskTable) -> PhaseHr:
    """Combination-phase and monotherapy-phase hazard ratios with Wald CIs.

    Fits treatment, monotherapy status, and their interaction on `table`,
    the caller's risk table of `trial` (its ties and strata are the fit's).
    The combination-phase HR is exp(b_trt); the monotherapy-phase HR is
    exp(b_trt + b_interaction). When no subject of the trial ever
    transitions, the monotherapy HR is undefined and flagged, and the model
    reduces to treatment only.
    """
    if not trial.in_mono.any():
        fit = cox_fit(table, ("trt",))
        hr_c, ci_c = fit.contrast(("trt",))
        return PhaseHr(
            hr_combo=hr_c, ci_combo=ci_c, hr_mono=None, ci_mono=None,
            fit=fit, flags=["no monotherapy phase observed"],
        )
    fit = cox_fit(table, ("trt", "mono", "trt_x_mono"))
    hr_c, ci_c = fit.contrast(("trt",))
    hr_m, ci_m = fit.contrast(("trt", "trt_x_mono"))
    return PhaseHr(hr_combo=hr_c, ci_combo=ci_c, hr_mono=hr_m, ci_mono=ci_m, fit=fit)
