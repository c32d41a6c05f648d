"""Reference implementations the tests compare the package against.

`transform_effect1` and `transform_effect2` state the counterfactual
transforms one subject at a time; `transformed`, the package's lines and
block transform read as one `Trial`, must give exactly what they give.
`loglik_and_gradient` reads the partial likelihood and gradient of one
table from the stack that `cox_fit`'s Newton loop evaluates.

`km_estimate_sorted` and `logrank_test_sorted` count the subjects at risk
by sorting the follow-up times and searching the event times in them, one
arm at a time; `km_estimate` and `logrank_test` must give exactly what
they give, exceptions included.

`expand` is the start-stop (counting-process) expansion of a trial, built
by a plain loop over the subjects: a subject in the monotherapy phase
contributes the combination interval (0, m] without an event and the
monotherapy interval (m, s] with its event status, every other subject the
one interval (0, s]. `RowLevelDesign` is the row-level Efron/Breslow
partial likelihood on those rows: risk-set sums over the rows, evaluated
with suffix sums on stop- and start-sorted row orders. It finds its own
met group pairs, from the group of each event row and the groups of the
rows at risk at that event time. `cox_fit_row_level` runs the package's
own separation rule and `cox_fit_numpy`'s Newton loop on it, so it and
`cox_fit` on the grouped risk-set table differ only in how the
likelihood and the met pairs are computed and in numpy's wrappers.

`GroupDesignNumpy` and `cox_fit_numpy` are the grouped likelihood and
its Newton loop written with numpy's wrappers: `.sum()`, `np.diag`,
`np.linalg.norm`, `np.linalg.solve` for every step, finiteness tested on
arrays, and one `np.errstate` per likelihood call; it asks the package's
separation rule and states its message. Like the package, it reads a
one-covariate design from two groups (covariate 0 and 1) with elementwise
arithmetic, and a larger one from the 4 x 4 cross product of the four
groups' shares. `cox_fit` must give exactly what `cox_fit_numpy` gives,
to the bit and in every field, exceptions included. With `groups=4` it
reads a one-covariate design from the four groups as well, the
arithmetic of the package's larger designs: the two-group fit must agree
with that within float rounding.

`fixed_step_bracket` is the tipping search as it was before rank
breakpoints: a walk in fixed steps of `grid_step` to the first crossing,
then a bisection of the last step down to a tolerance. Its final bracket
must hold the tip `find_tipping` reports.

`simulate_trial_per_subject` is the trial simulator one subject at a
time, as it was before it drew its columns with numpy: `simulate_trial`
must give exactly the trial its records make, to the bit.

`make_draws_per_subject` makes one replicate's draws the way `make_draws`
did before the keyed streams were hashed in one pass: a
`default_rng(SeedSequence([seed, replicate_id, key]))` per drawn subject,
key the first eight bytes, little-endian, of the SHA-256 of the subject
id. `make_draws` must give exactly what it gives, to the byte, exceptions
included.
"""

import functools
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from phasetip import survival
from phasetip.counterfactual import (
    Effect,
    ImputationDraws,
    TransformParams,
    cutoff_censoring_fraction,
    fit_censoring_model,
    fit_mono_event_model,
    needs_draw,
    transform_lines,
    transform_outcomes,
)
from phasetip.errors import ConvergenceError, DataError, EstimationError, SeparationError
from phasetip.records import Arm, SubjectRecord
from phasetip.simulate import _SIM_STREAM
from phasetip.survival import CoxFit, KmCurve, LogRankResult, SortedRows
from phasetip.tipping import _Row, _stop_rule

__all__ = [
    "transformed", "loglik_and_gradient",
    "with_outcome", "transform_effect1", "transform_effect2",
    "km_estimate_sorted", "logrank_test_sorted",
    "Rows", "expand", "RowLevelDesign", "cox_fit_row_level",
    "GroupDesignNumpy", "cox_fit_numpy",
    "fixed_step_bracket", "make_draws_per_subject", "simulate_trial_per_subject", "one_row",
]


def transformed(trial, effect, gamma, draws):
    """`trial` moved along the lines of `draws` to `gamma`, as a search row."""
    (s,), (delta,) = transform_outcomes(trial, [transform_lines(trial, effect, draws)], [gamma])
    return trial.with_outcome(s, delta)


def loglik_and_gradient(table, covariates, beta):
    """The partial likelihood and gradient at `beta` that `cox_fit` iterates on."""
    stack = survival._stack([table], survival._group_covariates(tuple(covariates)))
    (ll,), (grad,), _ = stack.loglik_grad_hess(np.asarray(beta, dtype=float)[None])
    return ll, grad


def one_row(data):
    """The outcome of a transformed trial as the one row of a block, the
    row a stop rule reads (`tipping._stop_rule`)."""
    return _Row(SortedRows(data, data.s[None], data.delta[None]), 0)


def with_outcome(record, s, delta):
    """Copy of a SubjectRecord with a new (s, delta), extending the cutoff
    if s moved past it."""
    return replace(record, s=s, delta=delta, cutoff=max(record.cutoff, s))


def transform_effect1(record, gamma, imputed_r=None):
    """Inflate a control subject's monotherapy duration by `gamma`.

    Censored subjects are unchanged (their counterfactual time only moves
    further beyond the censoring time). An observed event moves to
    t' = x + gamma*(s - x); it stays an event if t' is within the imputed
    censoring time, otherwise the subject becomes censored there.
    Non-control subjects and subjects without a monotherapy phase pass
    through untouched.
    """
    TransformParams(Effect.INFLATE_CONTROL, gamma)  # refuses a factor below 1
    if record.arm is not Arm.CONTROL or not record.in_mono:
        return record
    if record.delta == 0:
        return record
    if imputed_r is None:
        raise DataError(f"subject {record.subject_id}: missing imputed censoring time")
    # algebraically x + gamma*(s - x); this form is exact at gamma == 1
    t_prime = record.s + (gamma - 1.0) * (record.s - record.mono_start)
    if t_prime <= imputed_r:
        return with_outcome(record, t_prime, 1)
    return with_outcome(record, imputed_r, 0)


def transform_effect2(record, gamma, imputed_t=None):
    """Shrink an experimental subject's monotherapy duration by `gamma`.

    Observed events stay events with shortened time x + gamma*(s - x).
    A subject censored during monotherapy gets an imputed event time
    t-hat beyond the observed time; the shrunk time x + gamma*(t-hat - x)
    becomes an observed event if it lands at or before the observed
    censoring time (the observed s), otherwise the record is unchanged.
    """
    TransformParams(Effect.SHRINK_EXPERIMENTAL, gamma)  # refuses a factor outside (0, 1]
    if record.arm is not Arm.EXPERIMENTAL or not record.in_mono:
        return record
    x = record.mono_start
    if record.delta == 1:
        t_prime = record.s + (gamma - 1.0) * (record.s - x)
        return with_outcome(record, t_prime, 1)
    if imputed_t is None:
        raise DataError(f"subject {record.subject_id}: missing imputed event time")
    t_prime = imputed_t + (gamma - 1.0) * (imputed_t - x)
    if t_prime <= record.s:
        return with_outcome(record, t_prime, 1)
    return record


def km_estimate_sorted(trial, arm=None):
    """The Kaplan-Meier curve with the at-risk count n - #(s < t) read off
    the sorted follow-up times."""
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
    n_risk = n - np.searchsorted(s, event_times, side="left")
    ev_idx = np.searchsorted(event_times, s[d == 1])
    n_event = np.bincount(ev_idx, minlength=event_times.size)

    surv = np.cumprod(1.0 - n_event / n_risk)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = n_event / (n_risk * (n_risk - n_event))
        var = surv**2 * np.cumsum(terms)
    se = np.where(surv > 0, np.sqrt(np.where(np.isfinite(var), var, 0.0)), 0.0)

    hit = np.nonzero(surv <= 0.5)[0]
    return KmCurve(
        times=event_times, surv=surv, greenwood_se=se, n_risk=n_risk, n_event=n_event,
        median=float(event_times[hit[0]]) if hit.size else None,
        n_subjects=n, n_events_total=int(d.sum()),
    )


def logrank_test_sorted(trial, stratified=False):
    """The log-rank test with each arm's at-risk count read off its sorted
    follow-up times, stratum by stratum (a missing stratum pooled as -1)."""
    if np.unique(trial.trt).size < 2:
        raise DataError("log-rank needs both arms present")
    if trial.delta.sum() == 0:
        raise EstimationError("log-rank needs at least one event")

    if stratified:
        keys = np.where(np.isnan(trial.stratum), -1.0, trial.stratum)
        groups = [keys == st for st in np.unique(keys)]
    else:
        groups = [slice(None)]

    o1 = e1 = v = 0.0
    d_total = 0
    for grp in groups:
        s, d, g = trial.s[grp], trial.delta[grp], trial.trt[grp]
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
            d_at[ok] * (n1[ok] / n_at[ok]) * (n0[ok] / n_at[ok])
            * (n_at[ok] - d_at[ok]) / (n_at[ok] - 1)
        )
        d_total += int(d_at.sum())

    stat = (o1 - e1) ** 2 / v if v > 0 else 0.0
    return LogRankResult(
        chi2=float(stat),
        p_two_sided=math.erfc(math.sqrt(stat / 2.0)),
        observed={Arm.EXPERIMENTAL: float(o1), Arm.CONTROL: float(d_total - o1)},
        expected={Arm.EXPERIMENTAL: float(e1), Arm.CONTROL: float(d_total - e1)},
    )


@dataclass(frozen=True)
class Rows:
    """(start, stop] intervals with interval-constant covariates, as columns."""

    start: np.ndarray
    stop: np.ndarray
    event: np.ndarray
    trt: np.ndarray
    mono: np.ndarray
    stratum: np.ndarray

    def __len__(self):
        return self.start.size

    def covariate(self, name):
        columns = {"trt": self.trt, "mono": self.mono, "trt_x_mono": self.trt * self.mono}
        if name not in columns:
            raise DataError(f"unknown covariate {name!r}")
        return columns[name]


def expand(trial):
    """The start-stop rows of a trial, subject by subject in trial order."""
    rows = []
    for r in trial:
        stratum = np.nan if r.stratum is None else r.stratum
        if r.in_mono:
            rows.append((0.0, r.mono_start, 0, r.trt, 0, stratum))
            rows.append((r.mono_start, r.s, r.delta, r.trt, 1, stratum))
        else:
            rows.append((0.0, r.s, r.delta, r.trt, 0, stratum))
    start, stop, event, trt, mono, stratum = (np.array(c) for c in zip(*rows))
    return Rows(start=start.astype(float), stop=stop.astype(float), event=event.astype(int),
                trt=trt.astype(int), mono=mono.astype(int), stratum=stratum.astype(float))


def _row_risk_sets(cp, ties, stratified):
    """Per-stratum risk-set structure of the rows, independent of covariates.

    For each stratum with events: the stop- and start-sorted row orders,
    the positions of the distinct event times in both, the event rows
    grouped by event time, and one flat entry per (event time, tie index)
    pair with its Efron fraction (all zero under Breslow).
    """
    if ties not in ("efron", "breslow"):
        raise DataError(f"unknown ties method {ties!r}")
    start, stop, event = cp.start, cp.stop, cp.event
    if stratified:
        strat = np.where(np.isnan(cp.stratum), -1.0, cp.stratum)
    else:
        strat = np.zeros(len(cp))

    strata = []
    for st in np.unique(strat):
        idx = np.nonzero(strat == st)[0]
        ev_idx = idx[event[idx] == 1]
        if ev_idx.size == 0:
            continue
        ev_order = ev_idx[np.argsort(stop[ev_idx], kind="stable")]
        ut, group_starts, d = np.unique(stop[ev_order], return_index=True, return_counts=True)
        so = idx[np.argsort(stop[idx], kind="stable")]
        sa = idx[np.argsort(start[idx], kind="stable")]
        jj = np.repeat(np.arange(ut.size), d)
        if ties == "efron":
            # tie index k of d tied events, over d: 0/d, 1/d, ..., (d-1)/d
            frac = (np.arange(ev_order.size) - np.repeat(group_starts, d)) / np.repeat(d, d)
        else:
            frac = np.zeros(ev_order.size)
        strata.append(dict(
            so=so, sa=sa,
            q_stop=np.searchsorted(stop[so], ut, side="left"),
            q_start=np.searchsorted(start[sa], ut, side="left"),
            ev_order=ev_order, group_starts=group_starts, jj=jj, frac=frac,
        ))
    return strata


class RowLevelDesign:
    """Row-level likelihood with the interface of the package's design.

    Risk-set sums at an event time t use the identity
    sum over {start < t <= stop} = sum over {stop >= t} - sum over {start >= t},
    evaluated with suffix sums on stop-sorted and start-sorted row orders.
    Tied events get the Efron (default) or Breslow adjustment through one
    flat row per (event time, tie index) pair.
    """

    def __init__(self, cp, covariates, ties, stratified):
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
        C = np.column_stack([np.ones(self.n), X, P])
        pad = np.zeros((1, C.shape[1]))

        # met group pairs: the group of each event row against the groups
        # of the rows of its stratum at risk at its time
        strat = np.zeros(self.n)
        if stratified:
            strat = np.where(np.isnan(cp.stratum), -1.0, cp.stratum)
        group = cp.trt + 2 * cp.mono
        self.meets = np.zeros((4, 4), dtype=bool)
        for i in np.flatnonzero(cp.event == 1):
            t = cp.stop[i]
            at_risk = (strat == strat[i]) & (cp.start < t) & (t <= cp.stop)
            self.meets[group[i], group[at_risk]] = True

        self.strata = []
        for sd in _row_risk_sets(cp, ties, stratified):
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
            dmom = np.add.reduceat(w[sd["ev_order"], None] * sd["c_ev"], sd["group_starts"], axis=0)

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


def cox_fit_row_level(rows, covariates=("trt",), ties="efron", stratified=False, max_iter=50):
    """`cox_fit_numpy`'s Newton loop on the row-level likelihood of `rows`."""
    design = RowLevelDesign(rows, covariates, ties, stratified)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _newton_numpy(design, max_iter)


class GroupDesignNumpy:
    """The package's grouped likelihood of one table, written with numpy's
    wrappers around every reduction and its own np.errstate: from the two
    groups of a one-covariate design, or from all four groups (`groups`,
    by default 2 for one covariate and 4 for more)."""

    def __init__(self, table, covariates, groups=None):
        if (not isinstance(covariates, (tuple, list)) or not covariates
                or len(set(covariates)) < len(covariates)):
            raise DataError(f"covariates must be a non-empty tuple of distinct covariate "
                            f"names, got {covariates!r}")
        self.names = tuple(covariates)
        self.G = survival._group_covariates(self.names)
        self.p = len(self.names)
        self.n_events = int(table.D.sum())
        if self.n_events == 0:
            raise EstimationError("no events in counting-process data")
        self.A, self.meets = table.A, table.meets
        self.sum_x = table.D @ self.G
        self.groups = groups or (2 if self.p == 1 else 4)
        if self.groups == 2:
            # per row, the sums of A over the groups of covariate 0 and of 1,
            # each added in group order
            self.a, self.b = (functools.reduce(np.add, [self.A[:, g] for g in range(4)
                                                        if self.G[g, 0] == value])
                              for value in (0.0, 1.0))

    def loglik_grad_hess(self, beta):
        if self.groups == 2:
            return self._two_group_loglik_grad_hess(beta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = np.exp(self.G @ beta)
            Z = self.A @ w
            R = self.A * w / Z[:, None]
            ll = float(self.sum_x @ beta) - float(np.log(Z).sum())
            S = R.T @ R
            r = S.sum(axis=1)
            grad = self.sum_x - r @ self.G
            hess = self.G.T @ (S - np.diag(r)) @ self.G
        return ll, grad, hess

    def _two_group_loglik_grad_hess(self, beta):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bw = self.b * np.exp(beta)
            Z = self.a + bw
            R = bw / Z
            ll = float(self.sum_x @ beta) - float(np.log(Z).sum())
            r = R.sum()
            grad = self.sum_x - r
            hess = np.array([[-(r - (R * R).sum())]])
        return ll, grad, hess


def cox_fit_numpy(table, covariates=("trt",), max_iter=50, groups=None):
    """Damped Newton-Raphson on `GroupDesignNumpy`, with the package's
    tolerances, step halving and refusals."""
    return _newton_numpy(GroupDesignNumpy(table, covariates, groups), max_iter)


def _newton_numpy(design, max_iter):
    """The Newton loop of `cox_fit_numpy` on any design with the interface
    of `GroupDesignNumpy`: names, p, n_events, meets and
    loglik_grad_hess."""
    d = survival._separating_direction(design.meets.tobytes(), design.names)
    if d is not None:
        raise SeparationError("separation detected: the partial likelihood rises without bound "
                              "along " + ", ".join(f"{n}={v}" for n, v in zip(design.names, d)))
    beta = np.zeros(design.p)
    ll, grad, hess = design.loglik_grad_hess(beta)
    singular = "singular information matrix: design is collinear on the risk sets"

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.linalg.norm(grad) < survival._GRAD_TOL:
            converged = True
            iterations -= 1
            break
        info = -hess
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise EstimationError(singular) from None
        if not np.all(np.isfinite(step)):
            raise EstimationError(singular)

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
        if abs(delta_ll) < survival._LL_TOL and np.linalg.norm(grad) < survival._GRAD_TOL:
            converged = True
            break

    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations", last_beta=beta, iterations=max_iter,
        )

    info = -hess
    try:
        np.linalg.cholesky(info)
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise EstimationError(
            "information at the optimum is not positive definite: the design is "
            "collinear on the risk sets or the end point is not a maximum"
        ) from None
    inflation = np.diag(info) * np.diag(cov)
    if not np.all((inflation > 0) & (inflation < survival._MAX_VARIANCE_INFLATION)):
        raise EstimationError(
            "information at the optimum is numerically singular: the design is "
            "collinear on the risk sets"
        )
    return CoxFit(
        names=design.names, beta=beta, se=np.sqrt(np.diag(cov)), cov=cov, loglik=ll,
        iterations=iterations, n_events=design.n_events,
        gradient_norm=float(np.linalg.norm(grad)),
    )


def _grid_walk(probe, crossed, config):
    """Walk the factor from 1 in the effect's direction in steps of
    grid_step until `crossed(value)` fires, skipping factors whose value
    cannot be computed. Returns (last_clear, first_crossed), the crossed
    side None when the bound is reached without a crossing."""
    direction = 1.0 if config.effect is Effect.INFLATE_CONTROL else -1.0
    bound = config.grid_max if direction > 0 else config.grid_min
    last_clear = 1.0
    k = 0
    while True:
        k += 1
        gamma = 1.0 + direction * k * config.grid_step
        gamma = min(gamma, bound) if direction > 0 else max(gamma, bound)
        value = probe(gamma)
        if value is None:
            if gamma == bound:
                return last_clear, None
            continue
        if crossed(value):
            return last_clear, gamma
        last_clear = gamma
        if gamma == bound:
            return last_clear, None


def _bisect(probe, crossed, lo, hi, tol):
    """Shrink [clear, crossed] to `tol`. A midpoint whose value cannot be
    computed is nudged once toward each side, then the bracket is kept."""
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # the ends are adjacent floats
            break
        value = probe(mid)
        if value is None:
            for cand in (mid + 0.1 * (hi - mid), mid + 0.1 * (lo - mid)):
                value = probe(cand)
                if value is not None:
                    mid = cand
                    break
            else:
                break
        if crossed(value):
            hi = mid
        else:
            lo = mid
    return lo, hi


def fixed_step_bracket(trial, config, draws, tol=1e-3):
    """One replicate's final bracket (clear end, crossed end) under the
    fixed-step walk and bisection to `tol`; None when the start is already
    crossed or unevaluable, or nothing crosses before the bound."""
    reads, crossed, _ = _stop_rule(config)

    def probe(gamma):
        data = transformed(trial, config.effect, gamma, draws)
        try:
            return reads(one_row(data))
        except EstimationError:
            return None

    start = probe(1.0)
    if start is None or crossed(start):
        return None
    last_clear, first_crossed = _grid_walk(probe, crossed, config)
    if first_crossed is None:
        return None
    return _bisect(probe, crossed, last_clear, first_crossed, tol)


def _per_subject_rng(seed, replicate_id, subject_id):
    digest = hashlib.sha256(subject_id.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replicate_id), key]))


def make_draws_per_subject(trial, effect, imputation="auto", seed=0, replicate_id=0):
    """One replicate's draws with a SeedSequence per drawn subject."""
    if imputation not in ("auto", "cutoff", "fitted"):
        raise DataError(f"unknown imputation method {imputation!r}")
    subjects = np.flatnonzero(needs_draw(trial, effect))
    method = "fitted"
    if effect is Effect.INFLATE_CONTROL:
        method = imputation
        if method == "auto":
            method = "cutoff" if cutoff_censoring_fraction(trial) >= 0.5 else "fitted"
    if method == "cutoff":
        values = trial.cutoff[subjects]
    elif not subjects.size:
        values = np.empty(0)
    else:
        fit = fit_censoring_model if effect is Effect.INFLATE_CONTROL else fit_mono_event_model
        model = fit(trial)
        values = np.array([
            model.beyond(s, _per_subject_rng(seed, replicate_id, trial.ids[k]))
            for k, s in zip(subjects.tolist(), trial.s[subjects].tolist())
        ])
    return ImputationDraws(subjects, values)


def simulate_trial_per_subject(config, seed=0):
    """The records of `simulate_trial(config, seed)`, one subject at a time."""
    n = config.n_experimental + config.n_control
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _SIM_STREAM]))
    entry = rng.uniform(0.0, config.accrual_months, n)
    u = rng.exponential(1.0, (n, 4))
    records = []
    for i in range(n):
        trt = 1 if i < config.n_experimental else 0
        arm = Arm.EXPERIMENTAL if trt else Arm.CONTROL
        lam_event = config.combo_event_hazard * (config.hr_combo if trt else 1.0)
        lam_switch = config.switch_hazard * (config.switch_multiplier if trt else 1.0)
        lam_mono = config.mono_event_hazard * (config.hr_mono if trt else 1.0)
        t_event, t_switch = u[i, 0] / lam_event, u[i, 1] / lam_switch
        if t_switch < t_event:
            mono_at, event_time = t_switch, t_switch + u[i, 2] / lam_mono
        else:
            mono_at, event_time = None, t_event
        c_admin = config.cutoff_months - entry[i]
        c_drop = u[i, 3] / config.dropout_hazard if config.dropout_hazard > 0 else math.inf
        censor_time = min(c_admin, c_drop)
        s = min(event_time, censor_time)
        mono_start = mono_at if (mono_at is not None and 0.0 < mono_at < s) else None
        records.append(SubjectRecord(f"{arm.code}{i:04d}", arm, s, int(event_time <= censor_time),
                                     c_admin, mono_start))
    return records
