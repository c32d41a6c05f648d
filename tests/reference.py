"""Reference implementations the tests compare the package against.

`RowLevelDesign` is the row-level Efron/Breslow partial likelihood on
start-stop data that `cox_fit` used before it fitted from the grouped
risk-set table: risk-set sums over the expansion's rows, evaluated with
suffix sums on stop- and start-sorted row orders. `cox_fit_row_level` runs
the package's own Newton loop on it, so the two fits differ only in how the
likelihood is computed.
"""

from unittest import mock

import numpy as np

from phasetip import survival
from phasetip.errors import DataError, EstimationError

__all__ = ["RowLevelDesign", "cox_fit_row_level"]


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


def cox_fit_row_level(rows, covariates=("trt",), ties="efron", stratified=False, **kwargs):
    """`cox_fit`'s Newton loop on the row-level likelihood."""
    with mock.patch.object(survival, "_GroupDesign", RowLevelDesign):
        return survival.cox_fit(rows, covariates, ties=ties, stratified=stratified, **kwargs)
