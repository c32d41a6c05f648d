"""Survival estimators built from scratch on columnar trial data.

Provides the product-limit (Kaplan-Meier) curve with Greenwood variance,
the (optionally stratified) two-group log-rank test, expansion of a
`Trial` into a columnar `CountingProcess`, and a Cox proportional-hazards
fitter for start-stop data with the fixed design used by the phase
analysis: treatment, monotherapy status, and their interaction.

The Kaplan-Meier curve, the log-rank test, the expansion and `phase_hr`
take a `Trial`; `cox_fit` and `partial_loglik_and_gradient` take a
`CountingProcess`. Nothing loops over subjects or rows in Python.
The Cox design takes its covariate columns from the expansion and shares
the expansion's cached risk-set structure (sort orders, risk-set
boundaries and tie fractions), so the treatment-only and the
three-covariate fit of one evaluation compute it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DataError, EstimationError, SeparationError
from .records import Arm, CountingProcess, Trial

__all__ = [
    "KmCurve",
    "LogRankResult",
    "CoxFit",
    "PhaseHr",
    "km_estimate",
    "logrank_test",
    "to_counting_process",
    "cox_fit",
    "partial_loglik_and_gradient",
    "phase_hr",
]

# Convergence policy for the Newton-Raphson fitter.
_LL_TOL = 1e-9
_GRAD_TOL = 1e-8
_MAX_ITER = 50
_SEPARATION_BOUND = 15.0
_MAX_EXP = math.log(np.finfo(float).max)   # math.exp overflows beyond this
_Z975 = 1.959963984540054                  # the normal 0.975 quantile, for 95% Wald CIs


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

    order = np.argsort(s, kind="stable")
    s, d = s[order], d[order]
    event_times = np.unique(s[d == 1])

    n = len(s)
    # at risk at t: everyone with s >= t; events at t: delta=1 rows with s == t
    n_risk = n - np.searchsorted(s, event_times, side="left")
    ev_idx = np.searchsorted(event_times, s[d == 1])
    n_event = np.bincount(ev_idx, minlength=event_times.size)

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
        n_subjects=n,
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


def _stratum_keys(stratum: np.ndarray) -> np.ndarray:
    """Stratum labels with a missing stratum (NaN) pooled as -1."""
    return np.where(np.isnan(stratum), -1.0, stratum)


def logrank_test(trial: Trial, stratified: bool = False) -> LogRankResult:
    """Two-group log-rank test comparing arms, optionally summed over strata.

    Uses the standard O-E statistic with hypergeometric variance at each
    distinct event time; the two-sided p-value comes from chi-square with
    one degree of freedom.
    """
    if np.unique(trial.trt).size < 2:
        raise DataError("log-rank needs both arms present")
    if trial.delta.sum() == 0:
        raise EstimationError("log-rank needs at least one event")

    if stratified:
        keys = _stratum_keys(trial.stratum)
        groups = [keys == st for st in np.unique(keys)]
    else:
        groups = [slice(None)]

    o1 = e1 = v = 0.0
    d_total = 0
    for grp in groups:
        s, d, g = trial.s[grp], trial.delta[grp], trial.trt[grp]  # g: 1 = experimental
        event_times = np.unique(s[d == 1])
        if event_times.size == 0:
            continue
        s1, s0 = np.sort(s[g == 1]), np.sort(s[g == 0])
        n1 = len(s1) - np.searchsorted(s1, event_times, side="left")
        n0 = len(s0) - np.searchsorted(s0, event_times, side="left")
        n_at = n1 + n0
        ev = d == 1
        idx = np.searchsorted(event_times, s[ev])
        d_at = np.bincount(idx, minlength=event_times.size)
        d1 = np.bincount(idx, weights=g[ev].astype(float), minlength=event_times.size)

        o1 += d1.sum()
        e1 += np.sum(d_at * n1 / n_at)
        ok = n_at > 1
        v += np.sum(
            d_at[ok]
            * (n1[ok] / n_at[ok])
            * (n0[ok] / n_at[ok])
            * (n_at[ok] - d_at[ok])
            / (n_at[ok] - 1)
        )
        d_total += int(d_at.sum())

    if v > 0:
        stat = (o1 - e1) ** 2 / v
    else:
        stat = 0.0
    p = math.erfc(math.sqrt(stat / 2.0))   # chi-square(1) upper tail
    return LogRankResult(
        chi2=float(stat),
        p_two_sided=p,
        observed={Arm.EXPERIMENTAL: float(o1), Arm.CONTROL: float(d_total - o1)},
        expected={Arm.EXPERIMENTAL: float(e1), Arm.CONTROL: float(d_total - e1)},
    )


# ---------------------------------------------------------------------------
# Counting-process expansion


def to_counting_process(trial: Trial) -> CountingProcess:
    """Expand a trial into (start, stop] rows with a time-varying mono flag.

    A subject in the monotherapy phase (`Trial.in_mono`: it entered at
    m < s) contributes two adjacent rows: the combination interval (0, m]
    with no event, and (m, s] carrying the subject's event status. Every
    other subject, including one with m == s, contributes the one row
    (0, s]. Rows follow the subjects' order.
    """
    x, s = trial.mono_start, trial.s
    late = np.flatnonzero(x > s)
    if late.size:
        raise DataError(f"subject {trial.ids[late[0]]}: phase time exceeds follow-up")
    split = trial.in_mono
    counts = 1 + split
    subject = np.repeat(np.arange(len(trial)), counts)
    combo_rows = (np.cumsum(counts) - counts)[split]
    mono_rows = combo_rows + 1

    start = np.zeros(subject.size)
    stop = s[subject]
    event = trial.delta[subject]
    mono = np.zeros(subject.size, dtype=int)
    stop[combo_rows] = x[split]
    event[combo_rows] = 0
    start[mono_rows] = x[split]
    mono[mono_rows] = 1
    return CountingProcess(
        start=start, stop=stop, event=event, trt=trial.trt[subject], mono=mono,
        stratum=trial.stratum[subject],
    )


# ---------------------------------------------------------------------------
# Cox proportional hazards on start-stop data


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


def _risk_sets(cp: CountingProcess, ties: str, stratified: bool) -> list[dict]:
    """Per-stratum risk-set structure of the rows, independent of covariates.

    For each stratum with events: the stop- and start-sorted row orders,
    the positions of the distinct event times in both, the event rows
    grouped by event time, and one flat entry per (event time, tie index)
    pair with its Efron fraction (all zero under Breslow). Cached on `cp`.
    """
    key = (ties, stratified)
    if key in cp.risk_sets:
        return cp.risk_sets[key]
    if ties not in ("efron", "breslow"):
        raise DataError(f"unknown ties method {ties!r}")
    start, stop, event = cp.start, cp.stop, cp.event
    if stratified:
        strat = _stratum_keys(cp.stratum)
    else:
        strat = np.zeros(len(cp))

    strata = []
    for st in np.unique(strat):
        idx = np.nonzero(strat == st)[0]
        ev_idx = idx[event[idx] == 1]
        if ev_idx.size == 0:
            continue
        ev_order = ev_idx[np.argsort(stop[ev_idx], kind="stable")]
        ut, group_starts, d = np.unique(
            stop[ev_order], return_index=True, return_counts=True
        )
        so = idx[np.argsort(stop[idx], kind="stable")]
        sa = idx[np.argsort(start[idx], kind="stable")]
        jj = np.repeat(np.arange(ut.size), d)
        if ties == "efron":
            # tie index k of d tied events, over d: 0/d, 1/d, ..., (d-1)/d
            frac = (np.arange(ev_order.size) - np.repeat(group_starts, d)) / np.repeat(d, d)
        else:
            frac = np.zeros(ev_order.size)
        strata.append(
            dict(
                so=so, sa=sa,
                q_stop=np.searchsorted(stop[so], ut, side="left"),
                q_start=np.searchsorted(start[sa], ut, side="left"),
                ev_order=ev_order, group_starts=group_starts, jj=jj, frac=frac,
            )
        )
    cp.risk_sets[key] = strata
    return strata


class _CoxDesign:
    """Preprocessed arrays for repeated likelihood evaluation.

    Risk-set sums at an event time t use the identity
    sum over {start < t <= stop} = sum over {stop >= t} - sum over {start >= t},
    evaluated with suffix sums on stop-sorted and start-sorted row orders.
    Tied events are handled by the Efron (default) or Breslow adjustment via
    one flat expansion row per (event time, tie index) pair. The orders and
    the tie expansion come from the counting process's shared `_risk_sets`.
    """

    def __init__(self, cp: CountingProcess, covariates, ties, stratified):
        if len(cp) == 0:
            raise DataError("no counting-process rows")
        X = np.column_stack([cp.covariate(c) for c in covariates]).astype(float)
        self.names = tuple(covariates)
        p = len(covariates)
        self.n, self.p = len(cp), p

        self.n_events = int(cp.event.sum())
        if self.n_events == 0:
            raise EstimationError("no events in counting-process data")

        self.X = X
        # packed symmetric products x_a * x_b for the Hessian
        self.pairs = [(a, b) for a in range(p) for b in range(a, p)]
        self.pair_a = np.array([a for a, _ in self.pairs])
        self.pair_b = np.array([b for _, b in self.pairs])
        P = X[:, self.pair_a] * X[:, self.pair_b]
        # the risk-set moments sum w * [1, X, P]; these columns do not depend
        # on beta, so each order gathers them once here
        C = np.column_stack([np.ones(self.n), X, P])
        pad = np.zeros((1, C.shape[1]))

        self.strata = []
        for sd in _risk_sets(cp, ties, stratified):
            so, sa = sd["so"][::-1], sd["sa"][::-1]
            self.strata.append(dict(
                sd,
                sum_x=np.add.reduceat(X[sd["ev_order"]], sd["group_starts"], axis=0).sum(axis=0),
                # reversed orders led by one pad row: index n, where w is 0
                stop_rev=np.concatenate([[self.n], so]), c_stop_rev=np.vstack([pad, C[so]]),
                start_rev=np.concatenate([[self.n], sa]), c_start_rev=np.vstack([pad, C[sa]]),
                c_ev=C[sd["ev_order"]],
            ))

    def loglik_grad_hess(self, beta):
        p = self.p
        # w at the pad index n is exp(-inf) = 0
        w = np.exp(np.append(self.X @ beta, -np.inf))

        ll = 0.0
        grad = np.zeros(p)
        hess_packed = np.zeros(len(self.pairs))
        for sd in self.strata:
            # suffix sums of w * [1, X, P] over each order, ending in a zero row
            suf_stop = np.cumsum(w[sd["stop_rev"], None] * sd["c_stop_rev"], axis=0)[::-1]
            suf_start = np.cumsum(w[sd["start_rev"], None] * sd["c_start_rev"], axis=0)[::-1]
            risk = suf_stop[sd["q_stop"]] - suf_start[sd["q_start"]]
            dmom = np.add.reduceat(
                w[sd["ev_order"], None] * sd["c_ev"], sd["group_starts"], axis=0
            )

            # Efron-adjusted moments, one row per (event time, tie index)
            N = risk[sd["jj"]] - sd["frac"][:, None] * dmom[sd["jj"]]
            Z = N[:, 0]
            ll += float(sd["sum_x"] @ beta) - float(np.log(Z).sum())
            M1 = N[:, 1 : 1 + p] / Z[:, None]
            grad += sd["sum_x"] - M1.sum(axis=0)
            N2 = N[:, 1 + p :]
            outer = M1[:, self.pair_a] * M1[:, self.pair_b]
            hess_packed -= (N2 / Z[:, None] - outer).sum(axis=0)

        hess = np.empty((p, p))
        for k, (a, b) in enumerate(self.pairs):
            hess[a, b] = hess[b, a] = hess_packed[k]
        return ll, grad, hess


def partial_loglik_and_gradient(rows: CountingProcess, covariates=("trt",), beta=None,
                                ties="efron", stratified=False):
    """Log partial likelihood and its gradient at an arbitrary beta.

    Exposed so tests can check the analytic gradient against finite
    differences and scan the likelihood directly.
    """
    design = _CoxDesign(rows, covariates, ties, stratified)
    if beta is None:
        beta = np.zeros(design.p)
    beta = np.asarray(beta, dtype=float)
    ll, grad, _ = design.loglik_grad_hess(beta)
    return ll, grad


def cox_fit(rows: CountingProcess, covariates=("trt",), ties="efron", stratified=False,
            max_iter=_MAX_ITER) -> CoxFit:
    """Maximize the partial likelihood by damped Newton-Raphson.

    Starts at beta = 0, halves the step whenever the likelihood would
    decrease, and stops when both the likelihood change and the gradient
    norm are below tolerance. Raises SeparationError when a coefficient
    runs away (monotone likelihood) and ConvergenceError, carrying the
    last iterate, when the iteration cap is reached.
    """
    design = _CoxDesign(rows, covariates, ties, stratified)
    beta = np.zeros(design.p)
    ll, grad, hess = design.loglik_grad_hess(beta)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.linalg.norm(grad) < _GRAD_TOL:
            converged = True
            iterations -= 1
            break
        info = -hess
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise EstimationError(
                "singular information matrix: design is collinear on the risk sets"
            ) from None
        if not np.all(np.isfinite(step)):
            raise EstimationError(
                "singular information matrix: design is collinear on the risk sets"
            )

        # accept a step whose apparent decrease is within float resolution
        ll_slack = 1e-11 * max(1.0, abs(ll))
        factor = 1.0
        accepted = False
        for _ in range(30):
            cand = beta + factor * step
            ll_new, grad_new, hess_new = design.loglik_grad_hess(cand)
            if np.isfinite(ll_new) and ll_new >= ll - ll_slack:
                accepted = True
                break
            factor /= 2.0
        if not accepted:
            raise ConvergenceError(
                "Newton-Raphson step halving failed", last_beta=beta, iterations=iterations
            )

        delta_ll = ll_new - ll
        beta, ll, grad, hess = cand, ll_new, grad_new, hess_new
        if np.max(np.abs(beta)) > _SEPARATION_BOUND:
            raise SeparationError(last_beta=beta)
        if abs(delta_ll) < _LL_TOL and np.linalg.norm(grad) < _GRAD_TOL:
            converged = True
            break

    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations",
            last_beta=beta,
            iterations=max_iter,
        )

    info = -hess
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise EstimationError(
            "information at the optimum is not positive definite: the design is "
            "collinear on the risk sets or the end point is not a maximum"
        ) from None
    cov = np.linalg.inv(info)
    se = np.sqrt(np.diag(cov))
    return CoxFit(
        names=design.names,
        beta=beta,
        se=se,
        cov=cov,
        loglik=ll,
        iterations=iterations,
        n_events=design.n_events,
        gradient_norm=float(np.linalg.norm(grad)),
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


def phase_hr(trial: Trial, ties="efron", stratified=False) -> PhaseHr:
    """Combination-phase and monotherapy-phase hazard ratios with Wald CIs.

    Fits treatment, monotherapy status, and their interaction on the
    counting-process expansion. The combination-phase HR is exp(b_trt);
    the monotherapy-phase HR is exp(b_trt + b_interaction). When no subject
    ever transitions, the monotherapy HR is undefined and flagged, and the
    model reduces to treatment only.
    """
    rows = to_counting_process(trial)
    if not rows.mono.any():
        fit = cox_fit(rows, covariates=("trt",), ties=ties, stratified=stratified)
        hr_c, ci_c = fit.contrast(("trt",))
        return PhaseHr(
            hr_combo=hr_c, ci_combo=ci_c, hr_mono=None, ci_mono=None,
            fit=fit, flags=["no monotherapy phase observed"],
        )
    fit = cox_fit(
        rows, covariates=("trt", "mono", "trt_x_mono"), ties=ties, stratified=stratified
    )
    hr_c, ci_c = fit.contrast(("trt",))
    hr_m, ci_m = fit.contrast(("trt", "trt_x_mono"))
    return PhaseHr(hr_combo=hr_c, ci_combo=ci_c, hr_mono=hr_m, ci_mono=ci_m, fit=fit)
