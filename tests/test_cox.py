"""Cox fitter tests: the grouped risk-set table against a brute-force count
over the row expansion, brute-force likelihood oracle, finite-difference
gradient, model invariances, the grouped fit against the row-level
likelihood, and the Wald and log-rank tail probabilities against scipy."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import TIMES, C, E, rec, trials
from reference import (
    RowLevelDesign,
    Rows,
    cox_fit_numpy,
    cox_fit_row_level,
    expand,
    loglik_and_gradient,
)
from phasetip.cli import _fmt_ci
from phasetip.counterfactual import Effect, make_draws, transform_lines, transform_outcomes
from phasetip.errors import ConvergenceError, DataError, EstimationError, SeparationError
from phasetip.records import Trial
from phasetip import survival
from phasetip.simulate import SimConfig, simulate_trial
from phasetip.survival import (
    PHASE_MODEL,
    CoxFit,
    _fits,
    _Stack,
    _TwoGroupStack,
    _group_covariates,
    _inverses_of_positive_definite,
    _newton,
    _newton_steps,
    _separating_direction,
    cox_fit,
    distinct,
    logrank_test,
    SortedRows,
    phase_hr,
    risk_table,
)


DESIGNS = [("trt",), ("trt", "mono", "trt_x_mono")]
# the designs that `_fits` reads from two groups
ONE_COVARIATE = [("trt",), ("mono",), ("trt_x_mono",)]


def _stack_class(covariates):
    """The stack that `_fits` runs the design on."""
    return _TwoGroupStack if len(covariates) == 1 else _Stack


def _overflowing_table(covariates, n):
    """A table of n rows for a one-covariate design, each with 1e6 subjects
    at risk in a group of covariate 0 and one in a group of covariate 1,
    and one event in the latter: the first Newton step from 0 is about
    1e6 / n, so w = exp(beta) overflows there. The maximum is at
    exp(beta) = 1e6 / (n - 1)."""
    G = _group_covariates(covariates)
    zero, one = (int(np.flatnonzero(G[:, 0] == v)[0]) for v in (0.0, 1.0))
    A, D, meets = np.zeros((n, 4)), np.zeros(4, dtype=int), np.zeros((4, 4), dtype=bool)
    A[:, zero], A[:, one] = 1e6, 1.0
    D[zero], D[one] = n - 1, 1
    meets[np.ix_([zero, one], [zero, one])] = True
    return survival.RiskTable(A=A, D=D, meets=meets, ties="efron", stratified=False)


def efron_loglik_grid(times, events, x, beta_grid):
    """Independent Efron log partial likelihood for one binary covariate.

    Works directly on subject-level (time, event, x) triplets by explicit
    risk-set enumeration; used as the brute-force oracle for cox_fit.
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    lls = np.zeros_like(beta_grid)
    eb = np.exp(beta_grid)
    for t in sorted({ti for ti, ev in zip(times, events) if ev}):
        at_risk = [i for i, ti in enumerate(times) if ti >= t]
        dead = [i for i in at_risk if times[i] == t and events[i]]
        n1 = sum(x[i] for i in at_risk)
        n0 = len(at_risk) - n1
        d1 = sum(x[i] for i in dead)
        d = len(dead)
        s0 = n0 + n1 * eb
        s0d = (d - d1) + d1 * eb
        lls += d1 * beta_grid
        for k in range(d):
            lls -= np.log(s0 - (k / d) * s0d)
    return lls


def trial_from_triplets(times, events, x):
    return Trial.from_records(
        rec(i, E if xi else C, t, int(ev))
        for i, (t, ev, xi) in enumerate(zip(times, events, x))
    )


def brute_force_table(rows, ties, stratified):
    """(A, D) of `risk_table`, counted event time by event time over the rows:
    per stratum, event time and tie index k of d, the rows of each group at
    risk less k / d (0 under Breslow) of their events there."""
    if stratified:
        keys = np.where(np.isnan(rows.stratum), -1.0, rows.stratum)
    else:
        keys = np.zeros(len(rows))
    group = rows.trt + 2 * rows.mono
    A, D = [], np.zeros(4, dtype=int)
    for st in sorted(set(keys.tolist())):
        in_stratum = keys == st
        for t in sorted(set(rows.stop[in_stratum & (rows.event == 1)].tolist())):
            at_risk = in_stratum & (rows.start < t) & (t <= rows.stop)
            dead = in_stratum & (rows.stop == t) & (rows.event == 1)
            n = [int((at_risk & (group == g)).sum()) for g in range(4)]
            e = [int((dead & (group == g)).sum()) for g in range(4)]
            d = sum(e)
            for k in range(d):
                frac = k / d if ties == "efron" else 0.0
                A.append([n[g] - frac * e[g] for g in range(4)])
            D += e
    return np.array(A, dtype=float).reshape(-1, 4), D


class TestRiskTable:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(records=trials())
    def test_table_equals_brute_force_count_over_rows(self, records):
        trial = Trial.from_records(records)
        rows = expand(trial)
        for ties in ("efron", "breslow"):
            for stratified in (False, True):
                table = risk_table(trial, ties, stratified)
                A, D = brute_force_table(rows, ties, stratified)
                assert (table.ties, table.stratified) == (ties, stratified)
                assert table.A.shape == A.shape and np.array_equal(table.A, A)
                assert np.array_equal(table.D, D)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(records=trials())
    def test_block_is_the_tie_expansion_bit_for_bit(self, records):
        """A equals the brute-force tie expansion, n_risk - frac * n_event at
        every tie index, bit for bit and C-ordered, also where no event time
        is tied and risk_table skips the expansion."""
        trial = Trial.from_records(records)
        rows = expand(trial)
        for ties in ("efron", "breslow"):
            for stratified in (False, True):
                table = risk_table(trial, ties, stratified)
                A, _ = brute_force_table(rows, ties, stratified)
                assert table.A.flags.c_contiguous and table.A.shape == A.shape
                assert table.A.tobytes() == A.tobytes()
        tied = (distinct(trial.s[trial.delta == 1])[1] > 1).any()
        event("some event time tied" if tied else "no event time tied")

    def test_late_phase_and_unknown_ties_rejected(self):
        trial = Trial.from_records([rec("a", E, 10, 1, mono=6.0), rec("b", C, 8, 1)])
        with pytest.raises(DataError, match="unknown ties method"):
            risk_table(trial, ties="exact")
        # a Trial built with a phase start past follow-up is refused when built;
        # `with_outcome`, the one unchecked copy, reaches risk_table's guard
        with pytest.raises(DataError, match="subject a: phase time exceeds follow-up"):
            dataclasses.replace(trial, mono_start=np.array([12.0, np.nan]))
        late = trial.with_outcome(np.array([5.0, 8.0]), trial.delta)
        with pytest.raises(DataError, match="subject a: phase time exceeds follow-up"):
            risk_table(late)


def _logrank_outcome(trial, stratified):
    try:
        return repr(logrank_test(trial, stratified))
    except (DataError, EstimationError) as err:
        return type(err), str(err)


def _row_outcomes(records, data):
    """(s, delta) of 1 to 6 outcomes of the subjects: per subject, a time
    from the short list (so that times tie) at or after its monotherapy
    start, which it may equal, and an event indicator."""
    k = data.draw(st.integers(1, 6))
    s = np.array([[data.draw(st.sampled_from([t for t in TIMES if not r.mono_start
                                              or t >= r.mono_start]))
                   for r in records] for _ in range(k)])
    delta = np.array([[data.draw(st.sampled_from([0, 1])) for _ in records] for _ in range(k)])
    return s, delta


class TestSortedRows:
    """One `SortedRows` sort gives each of its k rows the risk table, the
    log-rank test and the Cox fits of that row's outcome alone, to the bit:
    the one-row `risk_table` and `logrank_test` of
    `trial.with_outcome(row)`, and `cox_fit` of that table."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(records=trials(), data=st.data())
    def test_each_row_gets_its_own_table_and_test(self, records, data):
        trial = Trial.from_records(records)
        s, delta = _row_outcomes(records, data)
        k = len(s)
        outcomes = [trial.with_outcome(s[r], delta[r]) for r in range(k)]
        for ties in ("efron", "breslow"):
            for stratified in (False, True):
                block = SortedRows(trial, s, delta, stratified, ties)
                for table, data_r in zip(block.tables, outcomes):
                    alone = risk_table(data_r, ties, stratified)
                    assert table.A.flags.c_contiguous
                    assert table.A.tobytes() == alone.A.tobytes()
                    assert table.A.shape == alone.A.shape
                    assert table.D.dtype == alone.D.dtype and np.array_equal(table.D, alone.D)
                    assert np.array_equal(table.meets, alone.meets)
                    assert (table.ties, table.stratified) == (ties, stratified)
                try:
                    tests = [repr(t) if not isinstance(t, EstimationError)
                             else (EstimationError, str(t)) for t in block.tests]
                except DataError as err:
                    tests = [(DataError, str(err))] * k
                assert tests == [_logrank_outcome(data_r, stratified) for data_r in outcomes]
        tied = any((distinct(s[r][delta[r] == 1])[1] > 1).any() for r in range(k))
        event("some event time tied" if tied else "no event time tied")

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(), data=st.data())
    def test_each_row_gets_its_own_fits(self, records, data):
        """The lockstep's fits are `cox_fit` of each row's table alone: the
        same bytes of beta, se and cov and the same loglik, iterations and
        gradient norm, or the same error; also in a sub-block of the rows
        in any order, under either design and tie method, with and without
        strata."""
        trial = Trial.from_records(records)
        s, delta = _row_outcomes(records, data)
        k = len(s)
        if data.draw(st.booleans()):
            delta[data.draw(st.integers(0, k - 1))] = 0   # a row without events
        picks = data.draw(st.permutations(range(k)))[:data.draw(st.integers(1, k))]
        seen = set()
        for ties in ("efron", "breslow"):
            for stratified in (False, True):
                block = SortedRows(trial, s, delta, stratified, ties)
                sub = SortedRows(trial, s[picks], delta[picks], stratified, ties)
                for covariates in DESIGNS:
                    alone = [_fit_bits(cox_fit, table, covariates, 50) for table in block.tables]
                    assert [_result_bits(fit) for fit in block.fits(covariates)] == alone
                    assert [_result_bits(fit) for fit in sub.fits(covariates)] == [
                        alone[r] for r in picks]
                    seen.update(bits[0].__name__ if isinstance(bits, tuple) else "fit"
                                for bits in alone)
        for outcome in sorted(seen):
            event(outcome)

    def test_fits_of_a_3000_subject_block(self):
        # at 3,000 subjects the rows' tables differ in length by a few rows,
        # and a cross product over a stack padded to the longest moves bits
        trial = simulate_trial(SimConfig(n_experimental=2000, n_control=1000), seed=6)
        draws = make_draws(trial, Effect.SHRINK_EXPERIMENTAL, "auto", 0, 0)
        lines = transform_lines(trial, Effect.SHRINK_EXPERIMENTAL, draws)
        gammas = [1.0, 0.995, 0.98, 0.7, 0.49, 0.48]
        block = SortedRows(trial, *transform_outcomes(trial, [lines] * len(gammas), gammas))
        lengths = [len(table.A) for table in block.tables]
        assert 0 < max(lengths) - sorted(set(lengths))[-2] < 8
        for covariates in DESIGNS:
            fits = block.fits(covariates)
            assert all(isinstance(fit, CoxFit) for fit in fits)
            assert [_result_bits(fit) for fit in fits] == [
                _fit_bits(cox_fit, table, covariates, 50) for table in block.tables]

    # table lengths that repeat, apart: the lockstep runs them by length
    LENGTHS = [5, 7, 5, 5, 9, 7]

    @staticmethod
    def _outcomes_with_events(seed, lengths, m=14):
        """A 14-subject trial and one outcome row per length, with that many
        events at distinct times, so that many table rows."""
        rng = np.random.default_rng(seed)
        trial = Trial(ids=tuple(f"s{i}" for i in range(m)), s=np.full(m, 20.0),
                      delta=np.zeros(m, dtype=int),
                      mono_start=np.where(rng.random(m) < 0.5, 0.5, np.nan),
                      trt=np.arange(m) % 2, cutoff=np.full(m, 100.0),
                      stratum=np.full(m, np.nan))
        s = np.array([rng.permutation(m) + 1.0 for _ in lengths])
        delta = np.zeros((len(lengths), m), dtype=int)
        for r, events in enumerate(lengths):
            delta[r, rng.choice(m, events, replace=False)] = 1
        return trial, s, delta

    @pytest.mark.parametrize("designs", [ONE_COVARIATE, [PHASE_MODEL]],
                             ids=["two-group", "four-group"])
    def test_runs_of_equal_length_tables(self, designs):
        """Tables of 5, 7, 5, 5, 9, 7 rows: fits that end early, at an
        iteration cap of 1 or 2, after step halving, refused or converged at
        other iteration counts, keep their slots while fits of other lengths
        run on, and every fit is `cox_fit` of its table alone; on either
        stack. A one-covariate fit of these trials takes no halving, so its
        block gets a 5-row table whose first step overflows."""
        seen, iterations = set(), set()
        for seed in range(30):
            trial, s, delta = self._outcomes_with_events(seed, self.LENGTHS)
            trial_tables = SortedRows(trial, s, delta).tables
            assert [len(table.A) for table in trial_tables] == self.LENGTHS
            for covariates in designs:
                stack = _stack_class(covariates)
                tables = trial_tables
                if len(covariates) == 1:
                    tables = trial_tables + [_overflowing_table(covariates, 5)]
                for max_iter in (1, 2, 50):
                    alone = []
                    for table in tables:
                        with _capped(max_iter), mock.patch.object(
                                stack, "loglik_grad_hess", autospec=True,
                                side_effect=stack.loglik_grad_hess) as rounds:
                            try:
                                result = cox_fit(table, covariates)
                            except EstimationError as err:
                                result = err
                        if isinstance(result, CoxFit):
                            iterations.add(result.iterations)
                            if rounds.call_count > result.iterations + 1:
                                seen.add("halved")
                        else:
                            seen.add(type(result))
                        alone.append(_result_bits(result))
                    with _capped(max_iter):
                        fits = _fits(tables, covariates)
                    assert [_result_bits(fit) for fit in fits] == alone
        assert {ConvergenceError, SeparationError, "halved"} <= seen and len(iterations) > 2

    @pytest.mark.parametrize("max_iter", [1, 2, 50])
    @pytest.mark.parametrize("designs", [ONE_COVARIATE, [PHASE_MODEL]],
                             ids=["two-group", "four-group"])
    def test_an_ended_fit_keeps_its_slot(self, max_iter, designs):
        """Every round of `_newton` evaluates all k rows of one stack, whose
        runs never change. A fit that has ended keeps in its row the point
        it last tried, round after round, until the last fit ends; each fit
        tries the points, and ends as, `_newton` of its table alone; on
        either stack."""

        def recorded(rounds, stack_class):
            likelihood = stack_class.loglik_grad_hess

            def evaluate(stack, beta):
                rounds.append((beta.shape, beta.tobytes(), [run[:3] for run in stack.runs]))
                return likelihood(stack, beta)
            return mock.patch.object(stack_class, "loglik_grad_hess", autospec=True,
                                     side_effect=evaluate)

        def newton(tables, G):
            rounds = []
            # one stack at a time: each holds the thread's buffers
            stack = survival._stack(tables, G)
            with _capped(max_iter), recorded(rounds, type(stack)), np.errstate(
                    over="ignore", invalid="ignore", divide="ignore"):
                ends, optima = _newton(stack)
            ends = [_result_bits(end) if isinstance(end, Exception) else end for end in ends]
            optima = [None if optimum is None else (optimum[0].tobytes(), repr(optimum[1]),
                                                    optimum[2].tobytes(), repr(optimum[3]))
                      for optimum in optima]
            return ends, optima, rounds

        kept = 0
        for seed in range(10):
            trial, s, delta = self._outcomes_with_events(seed, self.LENGTHS)
            trial_tables = SortedRows(trial, s, delta).tables
            for covariates in designs:
                tables = trial_tables
                if len(covariates) == 1:   # a fit that halves, as in the test above
                    tables = trial_tables + [_overflowing_table(covariates, 5)]
                tables = sorted(tables, key=lambda table: len(table.A))
                G = _group_covariates(covariates)
                k, p = len(tables), G.shape[1]
                ends, optima, rounds = newton(tables, G)
                runs = rounds[0][2]
                assert all(shape == (k, p) and stack_runs == runs
                           for shape, _, stack_runs in rounds)
                rows = [np.frombuffer(beta).reshape(k, p) for _, beta, _ in rounds]
                for i, table in enumerate(tables):
                    end, optimum, alone = newton([table], G)
                    assert (ends[i], optima[i]) == (end[0], optimum[0])
                    tried = [beta for _, beta, _ in alone]
                    tried += tried[-1:] * (len(rows) - len(tried))
                    assert [row[i].tobytes() for row in rows] == tried
                    kept += len(alone) < len(rows)
        assert kept > 0

    @pytest.mark.parametrize("order, runs", [
        # by length, as `_fits` stacks them
        ((0, 2, 3, 1, 5, 4), [(0, 3, 5), (3, 5, 7), (5, 6, 9)]),
        # as given: only neighbours of one length share a run
        ((0, 1, 2, 3, 4, 5), [(0, 1, 5), (1, 2, 7), (2, 4, 5), (4, 5, 9), (5, 6, 7)]),
    ])
    @pytest.mark.parametrize("covariates", ONE_COVARIATE + [PHASE_MODEL])
    def test_stack_keeps_its_runs(self, order, runs, covariates):
        """Either stack forms the runs of equal-length tables once and keeps
        them round after round; in each round every table's likelihood,
        gradient and Hessian are those of the table alone, to the bit."""
        trial, s, delta = self._outcomes_with_events(25, self.LENGTHS)
        tables = SortedRows(trial, s, delta).tables
        stacked = [tables[j] for j in order]
        G = _group_covariates(covariates)
        betas = np.random.default_rng(1).normal(0.0, 0.5, (2, 6, len(covariates)))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # one stack at a time: each holds the thread's buffers
            alone = [[survival._stack([table], G).loglik_grad_hess(beta[i][None])
                      for i, table in enumerate(stacked)] for beta in betas]
            stack = survival._stack(stacked, G)
            assert type(stack) is _stack_class(covariates)
            for beta, expected in zip(betas, alone):   # two rounds
                assert [run[:3] for run in stack.runs] == runs
                ll, grad, hess = stack.loglik_grad_hess(beta)
                assert [(repr(ll[i]), grad[i].tobytes(), hess[i].tobytes())
                        for i in range(6)] == [
                    (repr(ll_i[0]), grad_i[0].tobytes(), hess_i[0].tobytes())
                    for ll_i, grad_i, hess_i in expected]

    def test_tables_of_the_calibrated_trial(self, seed6_transforms):
        # hundreds of event runs per row, a missing stratum among three, and
        # monotherapy starts that a shrunk time reaches
        s = np.array([t.s for t in seed6_transforms[::2]])
        delta = np.array([t.delta for t in seed6_transforms[::2]])
        for layout in seed6_transforms[:2]:   # no strata, and three strata
            for ties in ("efron", "breslow"):
                for stratified in (False, True):
                    block = SortedRows(layout, s, delta, stratified, ties)
                    for r, table in enumerate(block.tables):
                        alone = risk_table(layout.with_outcome(s[r], delta[r]), ties, stratified)
                        assert table.A.flags.c_contiguous
                        assert table.A.tobytes() == alone.A.tobytes()
                        assert np.array_equal(table.D, alone.D)
                        assert np.array_equal(table.meets, alone.meets)

    def test_a_late_row_is_refused_with_its_subject(self):
        trial = Trial.from_records([rec("a", E, 10, 1, mono=6.0), rec("b", C, 8, 1, mono=2.0),
                                    rec("c", C, 4, 0)])
        s = np.array([[10.0, 8.0, 4.0], [7.0, 1.0, 4.0], [5.0, 1.0, 4.0]])
        block = SortedRows(trial, s, np.ones_like(s, dtype=int))
        # row 1 is the first with a monotherapy start past its time, at b
        with pytest.raises(DataError, match="^subject b: phase time exceeds follow-up$"):
            block.tables
        with pytest.raises(DataError, match="^subject b: phase time exceeds follow-up$"):
            risk_table(trial.with_outcome(s[1], np.ones(3, dtype=int)))
        # the tests read no monotherapy start
        assert [t.chi2 for t in block.tests] == [
            logrank_test(trial.with_outcome(row, np.ones(3, dtype=int))).chi2 for row in s]

    def test_unknown_ties_refused_before_sorting(self):
        trial = Trial.from_records([rec("a", E, 10, 1), rec("b", C, 8, 1)])
        with pytest.raises(DataError, match="unknown ties method 'exact'"):
            SortedRows(trial, trial.s[None], trial.delta[None], ties="exact")


class TestMissingStratum:
    """Subjects without a stratum (NaN) form a stratum of their own, also
    beside a real stratum -1, placed between -1 and 0 in the order the
    strata are summed."""

    @staticmethod
    def _stratified(trial, labels):
        strata = np.array(labels, dtype=float)[np.arange(len(trial)) % 3]
        data = dataclasses.replace(trial, stratum=strata)
        fit = cox_fit(risk_table(data, stratified=True), ("trt",))
        return logrank_test(data, stratified=True).chi2, fit.coef("trt")

    def test_nan_is_not_pooled_with_stratum_minus_one(self):
        trial = simulate_trial(SimConfig(), seed=6)
        missing = self._stratified(trial, [-1, np.nan, 0])
        # the same partition in the same order, bit for bit
        assert missing == self._stratified(trial, [-2, -1, 0])
        # the same partition in another order, to rounding
        assert missing == pytest.approx(self._stratified(trial, [-1, 5, 0]), rel=1e-12)
        pooled = self._stratified(trial, [-1, -1, 0])
        assert abs(missing[0] - pooled[0]) > 1e-3 and abs(missing[1] - pooled[1]) > 1e-5

    def test_unstratified_and_no_minus_one_unchanged(self):
        trial = simulate_trial(SimConfig(), seed=6)
        # without a stratum -1 the missing stratum is summed where -1 was
        assert self._stratified(trial, [1, np.nan, 0]) == self._stratified(trial, [1, -1, 0])
        plain = dataclasses.replace(trial, stratum=np.array([-1.0, np.nan, 0.0])[
            np.arange(len(trial)) % 3])
        assert repr(logrank_test(plain)) == repr(logrank_test(trial))


class TestCoxOracle:
    def test_symmetric_arms_beta_zero(self):
        outcomes = [(1.0, 1), (2.0, 1), (4.0, 0), (6.0, 1)]
        records = [rec(f"e{i}", E, t, d) for i, (t, d) in enumerate(outcomes)]
        records += [rec(f"c{i}", C, t, d) for i, (t, d) in enumerate(outcomes)]
        fit = cox_fit(risk_table(Trial.from_records(records)))
        assert abs(fit.coef("trt")) <= 1e-8

    def test_six_subject_grid_maximizer(self):
        times = [2.0, 3.0, 5.0, 6.0, 8.0, 9.0]
        events = [1, 1, 1, 1, 0, 1]
        x = [0, 1, 0, 1, 0, 1]
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
        lls = efron_loglik_grid(times, events, x, grid)
        beta_oracle = grid[np.argmax(lls)]
        assert -4.9 < beta_oracle < 4.9, "oracle maximizer must be interior"

        fit = cox_fit(risk_table(trial_from_triplets(times, events, x)))
        assert fit.coef("trt") == pytest.approx(beta_oracle, abs=1e-4)

    def test_grid_maximizer_with_ties(self):
        times = [1.0, 1.0, 2.0, 2.0, 3.0, 4.0]
        events = [1, 1, 1, 1, 1, 0]
        x = [0, 1, 0, 1, 1, 0]
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
        beta_oracle = grid[np.argmax(efron_loglik_grid(times, events, x, grid))]
        fit = cox_fit(risk_table(trial_from_triplets(times, events, x)))
        assert fit.coef("trt") == pytest.approx(beta_oracle, abs=1e-4)

    def test_loglik_value_matches_oracle_at_arbitrary_beta(self):
        times = [2.0, 3.0, 5.0, 6.0, 8.0, 9.0]
        events = [1, 1, 1, 1, 0, 1]
        x = [0, 1, 0, 1, 0, 1]
        table = risk_table(trial_from_triplets(times, events, x))
        for b in (-1.3, 0.0, 0.7, 2.1):
            ll, _ = loglik_and_gradient(table, ("trt",), np.array([b]))
            oracle = efron_loglik_grid(times, events, x, np.array([b]))[0]
            assert ll == pytest.approx(oracle, abs=1e-10)

    def test_gradient_matches_central_finite_difference(self):
        rng = np.random.default_rng(42)
        n = 40
        times = rng.exponential(10, n) + 0.1
        events = rng.integers(0, 2, n)
        events[:4] = 1
        records = []
        for i in range(n):
            mono = float(times[i] * rng.uniform(0.2, 0.9)) if rng.random() < 0.5 else None
            records.append(rec(i, E if rng.random() < 0.5 else C, times[i], int(events[i]), mono=mono))
        table = risk_table(Trial.from_records(records))
        covs = ("trt", "mono", "trt_x_mono")
        h = 1e-5
        for beta in (np.zeros(3), np.array([0.3, -0.4, 0.2])):
            _, grad = loglik_and_gradient(table, covs, beta)
            for j in range(3):
                ej = np.zeros(3)
                ej[j] = h
                up, _ = loglik_and_gradient(table, covs, beta + ej)
                dn, _ = loglik_and_gradient(table, covs, beta - ej)
                fd = (up - dn) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-6)


class TestCoxProperties:
    def _random_records(self, rng, n=60, with_mono=True):
        records = []
        for i in range(n):
            s = float(rng.exponential(10) + 0.1)
            mono = float(s * rng.uniform(0.2, 0.9)) if (with_mono and rng.random() < 0.4) else None
            records.append(
                rec(i, E if rng.random() < 0.5 else C, s, int(rng.random() < 0.7), mono=mono)
            )
        return Trial.from_records(records)

    def test_gradient_norm_small_and_information_pd_at_optimum(self):
        rng = np.random.default_rng(101)
        records = self._random_records(rng)
        table = risk_table(records)
        fit = cox_fit(table, ("trt", "mono", "trt_x_mono"))
        assert fit.gradient_norm < 1e-8
        info = np.linalg.inv(fit.cov)
        assert np.all(np.linalg.eigvalsh(info) > 0)
        assert np.all(fit.se > 0)

    def test_splitting_at_non_event_time_changes_nothing(self):
        rng = np.random.default_rng(5)
        records = self._random_records(rng, with_mono=False)
        plain = cox_fit(risk_table(records), ("trt",))
        # every subject as two rows, (0, s/2] without an event and (s/2, s]
        s = np.array([r.s for r in records])
        cut = s / 2
        split_rows = Rows(
            start=np.column_stack([np.zeros_like(s), cut]).ravel(),
            stop=np.column_stack([cut, s]).ravel(),
            event=np.column_stack([np.zeros(len(s), int), [r.delta for r in records]]).ravel(),
            trt=np.repeat([r.trt for r in records], 2),
            mono=np.zeros(2 * len(s), int),
            stratum=np.full(2 * len(s), np.nan),
        )
        split = cox_fit_row_level(split_rows, ("trt",))
        assert split.coef("trt") == pytest.approx(plain.coef("trt"), abs=1e-10)
        assert split.loglik == pytest.approx(plain.loglik, abs=1e-10)

    def test_time_rescaling_leaves_beta_unchanged(self):
        rng = np.random.default_rng(17)
        records = self._random_records(rng)
        base = cox_fit(risk_table(records), ("trt", "mono", "trt_x_mono"))
        for c in (0.5, 4.0):
            scaled = Trial.from_records(
                rec(r.subject_id, r.arm, c * r.s, r.delta, cutoff=c * r.cutoff,
                    mono=None if r.mono_start is None else c * r.mono_start)
                for r in records
            )
            fit = cox_fit(risk_table(scaled), ("trt", "mono", "trt_x_mono"))
            assert np.allclose(fit.beta, base.beta, atol=1e-7)

    def test_breslow_equals_efron_without_ties(self):
        rng = np.random.default_rng(23)
        records = self._random_records(rng, with_mono=False)
        fe = cox_fit(risk_table(records, ties="efron"), ("trt",))
        fb = cox_fit(risk_table(records, ties="breslow"), ("trt",))
        assert fe.coef("trt") == pytest.approx(fb.coef("trt"), abs=1e-9)

    def test_breslow_differs_from_efron_with_ties(self):
        times = [1, 1, 1, 2, 2, 3, 3, 4]
        events = [1, 1, 0, 1, 1, 1, 0, 1]
        x = [0, 1, 0, 1, 0, 1, 0, 1]
        records = trial_from_triplets(times, events, x)
        fe = cox_fit(risk_table(records, ties="efron"), ("trt",))
        fb = cox_fit(risk_table(records, ties="breslow"), ("trt",))
        assert abs(fe.coef("trt") - fb.coef("trt")) > 1e-4

    def test_separation_detected(self):
        records = [rec(f"c{i}", C, t, 1) for i, t in enumerate([1.0, 2.0, 3.0])]
        records += [rec(f"e{i}", E, t, 1) for i, t in enumerate([11.0, 12.0, 13.0])]
        with pytest.raises(SeparationError, match="separation"):
            cox_fit(risk_table(Trial.from_records(records)))

    def test_non_convergence_carries_last_iterate(self):
        rng = np.random.default_rng(31)
        records = self._random_records(rng)
        with pytest.raises(ConvergenceError) as err:
            with _capped(1):
                cox_fit(risk_table(records), ("trt", "mono", "trt_x_mono"))
        assert err.value.last_beta is not None
        assert err.value.iterations == 1

    def test_no_events_error(self):
        records = Trial.from_records([rec("e", E, 1, 0), rec("c", C, 2, 0)])
        with pytest.raises(EstimationError, match="no events"):
            cox_fit(risk_table(records))

    def test_collinear_design_error(self):
        # every experimental subject in mono from (near) start: mono == trt
        records = [rec(f"e{i}", E, t, 1, mono=0.01) for i, t in enumerate([2.0, 4.0, 6.0])]
        records += [rec(f"c{i}", C, t, 1) for i, t in enumerate([3.0, 5.0, 7.0])]
        with pytest.raises(EstimationError, match="collinear"):
            cox_fit(risk_table(Trial.from_records(records)), ("trt", "mono", "trt_x_mono"))

    def test_indefinite_information_at_optimum_is_an_error(self):
        # no experimental subject enters monotherapy, so the interaction never
        # varies on the risk sets, and within each stratum beta = 0 is already
        # stationary: the Newton end point has a singular information matrix,
        # whose standard errors would come out inf or NaN. Exact zeros make
        # this so under both likelihood arithmetics.
        outcomes = [
            ("s0", C, 2.0, 1, 1.0, 1), ("s1", C, 2.0, 1, None, 1), ("s2", E, 2.0, 1, None, 1),
            ("s3", C, 4.0, 1, 2.0, 2), ("s4", C, 4.0, 1, None, 2), ("s5", E, 4.0, 1, None, 2),
        ]
        records = Trial.from_records(rec(sid, arm, s, d, mono=m, stratum=st)
                                     for sid, arm, s, d, m, st in outcomes)
        covariates = ("trt", "mono", "trt_x_mono")
        with pytest.raises(EstimationError, match="not positive definite"):
            cox_fit(risk_table(records, stratified=True), covariates)
        with pytest.raises(EstimationError, match="not positive definite"):
            cox_fit_row_level(expand(records), covariates, stratified=True)

    def test_numerically_singular_information_is_an_error(self):
        # all four subjects leave at the one event time, the control arm's
        # two in monotherapy, so the baseline group (control, combination
        # phase) is at risk at no event time and only differences between
        # the other three groups are identified. In exact arithmetic the
        # information is singular; in floats its smallest eigenvalue, scaled
        # to unit diagonal, is at rounding level (about 2e-16), Cholesky
        # accepts it, and the variances come out inflated about 2e15-fold,
        # so the standard errors are noise. The inflation bound refuses it;
        # the row-level arithmetic refuses it as well.
        outcomes = [("0", C, 1, 4.0), ("1", E, 1, None), ("2", E, 1, 1.0), ("3", C, 0, 2.0)]
        records = Trial.from_records(rec(sid, arm, 7.0, d, mono=m) for sid, arm, d, m in outcomes)
        covariates = ("trt", "mono", "trt_x_mono")
        with pytest.raises(EstimationError, match="numerically singular"):
            cox_fit(risk_table(records), covariates)
        with pytest.raises(EstimationError):
            cox_fit_row_level(expand(records), covariates)
        with pytest.raises(EstimationError, match="numerically singular"):
            phase_hr(records, risk_table(records))

    def test_information_singular_but_for_rounding_is_an_error(self):
        # the control arm's one subject enters monotherapy before the first
        # event time, so, as above, the baseline group is at risk at no
        # event time, here over three event times. Which refusal fires
        # depends on the rounding of the information: its Cholesky
        # factorization or the inflation bound.
        outcomes = [
            ("0", E, 4.0, 0, 2.0, 1), ("1", E, 7.0, 0, 4.0, 0), ("2", E, 0.5, 0, None, 0),
            ("3", E, 2.0, 1, 2.0, 1), ("4", E, 2.0, 1, 2.0, 0), ("5", E, 4.0, 1, 0.5, 0),
            ("6", C, 1.0, 1, 0.5, None), ("7", E, 1.0, 1, None, 1), ("8", E, 1.0, 1, None, None),
        ]
        records = Trial.from_records(rec(sid, arm, s, d, cutoff=s + 6.0, mono=m, stratum=st)
                                     for sid, arm, s, d, m, st in outcomes)
        covariates = ("trt", "mono", "trt_x_mono")
        with pytest.raises(EstimationError):
            cox_fit(risk_table(records), covariates)
        with pytest.raises(EstimationError):
            cox_fit_row_level(expand(records), covariates)
        with pytest.raises(EstimationError):
            phase_hr(records, risk_table(records))

    def test_unknown_covariate_rejected(self):
        with pytest.raises(DataError, match="covariate"):
            records = Trial.from_records([rec("e", E, 1, 1), rec("c", C, 2, 1)])
            cox_fit(risk_table(records), ("age",))

    def test_stratified_fit_with_scaled_copy_stratum(self):
        # stratum 1 is stratum 0 with all times tripled: per-stratum partial
        # likelihoods are identical, so the stratified fit must equal the
        # single-stratum fit exactly
        rng = np.random.default_rng(41)
        base = self._random_records(rng, n=40, with_mono=False)
        records = [rec(r.subject_id, r.arm, r.s, r.delta, stratum=0) for r in base]
        records += [
            rec(r.subject_id + "x", r.arm, 3 * r.s, r.delta, cutoff=3 * r.cutoff, stratum=1)
            for r in base
        ]
        records = Trial.from_records(records)
        single = cox_fit(risk_table(base), ("trt",))
        strat = cox_fit(risk_table(records, stratified=True), ("trt",))
        assert strat.coef("trt") == pytest.approx(single.coef("trt"), abs=1e-9)
        assert strat.loglik == pytest.approx(2 * single.loglik, abs=1e-8)
        # pooling without strata mixes the two baselines and shifts the estimate
        pooled = cox_fit(risk_table(records), ("trt",))
        assert abs(pooled.coef("trt") - single.coef("trt")) > 1e-4


def _one_table_likelihood(table, covariates, beta):
    """The lockstep's likelihood, gradient and Hessian of one table at beta."""
    stack = survival._stack([table], _group_covariates(covariates))
    (ll,), (grad,), (hess,) = stack.loglik_grad_hess(np.asarray(beta, dtype=float)[None])
    return ll, grad, hess


class TestGroupedAgainstRowLevel:
    """`cox_fit` fits from the grouped risk-set table; the row-level
    likelihood of `tests/reference.py`, run through the same Newton loop,
    is the oracle. Where the reference converges with a well-conditioned
    information matrix, beta, se and loglik agree within 1e-10 (relative
    above 1). An ill-conditioned fit is not determined beyond rounding, so
    the two arithmetics may end it differently and it is not compared."""

    MAX_COND = 1e6
    TOL = 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(max_size=24), ties=st.sampled_from(["efron", "breslow"]),
           stratified=st.booleans(),
           covariates=st.sampled_from([("trt",), ("trt", "mono", "trt_x_mono")]))
    def test_fit_matches_row_level_likelihood(self, records, ties, stratified, covariates):
        trial = Trial.from_records(records)
        rows = expand(trial)
        try:
            ref = cox_fit_row_level(rows, covariates, ties=ties, stratified=stratified)
        except (EstimationError, DataError):
            event("reference refuses")
            return
        if not np.linalg.cond(ref.cov) < self.MAX_COND:
            event("ill-conditioned")
            return
        fit = cox_fit(risk_table(trial, ties, stratified), covariates)
        event(f"compared: {ties}, stratified={stratified}, p={len(covariates)}")
        if rows.mono.any():
            event("compared with a mono split")
        if stratified and np.isnan(rows.stratum).any():
            event("compared with a NaN stratum")
        for got, want in ((fit.beta, ref.beta), (fit.se, ref.se), (fit.loglik, ref.loglik)):
            assert np.all(np.abs(got - want) <= self.TOL * np.maximum(1.0, np.abs(want)))
        assert fit.iterations == ref.iterations

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(max_size=24), ties=st.sampled_from(["efron", "breslow"]),
           stratified=st.booleans(),
           covariates=st.sampled_from(DESIGNS), data=st.data())
    def test_likelihood_matches_row_level_away_from_the_optimum(self, records, ties, stratified,
                                                                covariates, data):
        """The likelihood, gradient and Hessian themselves, at any beta in
        [-3, 3]^p and not only through a fit's end point."""
        trial = Trial.from_records(records)
        rows = expand(trial)
        if not rows.event.any():
            event("no events")
            return
        beta = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(covariates),
                                           max_size=len(covariates))))
        got = _one_table_likelihood(risk_table(trial, ties, stratified), covariates, beta)
        want = RowLevelDesign(rows, covariates, ties, stratified).loglik_grad_hess(beta)
        event(f"compared: {ties}, stratified={stratified}, p={len(covariates)}")
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= self.TOL * np.maximum(1.0, np.abs(w)))

    @pytest.mark.parametrize("covariates", DESIGNS)
    def test_overflowing_beta_gives_a_non_finite_likelihood(self, covariates):
        # exp(800) overflows, which the Newton loop meets as a trial step to
        # halve: neither arithmetic may return a finite likelihood there
        trial = Trial.from_records([rec("e0", E, 2.0, 1, mono=1.0), rec("e1", E, 3.0, 0),
                                    rec("c0", C, 1.0, 1), rec("c1", C, 4.0, 1, mono=2.0)])
        beta = np.full(len(covariates), 800.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got, _, _ = _one_table_likelihood(risk_table(trial), covariates, beta)
            want, _, _ = RowLevelDesign(expand(trial), covariates, "efron",
                                        False).loglik_grad_hess(beta)
        assert not math.isfinite(got) and not math.isfinite(want)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(records=trials(max_size=24))
    def test_meets_matches_row_level_pairs(self, records):
        """The table's met group pairs are those the row-level design finds
        from its own rows, under either tie method and with or without
        strata; a trial without events meets no pair."""
        trial = Trial.from_records(records)
        rows = expand(trial)
        for ties in ("efron", "breslow"):
            for stratified in (False, True):
                meets = risk_table(trial, ties, stratified).meets
                if not rows.event.any():
                    assert not meets.any()
                    continue
                design = RowLevelDesign(rows, ("trt",), ties, stratified)
                assert meets.dtype == bool and np.array_equal(meets, design.meets)
        event(f"{risk_table(trial).meets.sum()} pairs met")


class TestSeparationRule:
    """`_separating_direction` decides from a table's met group pairs
    whether the partial likelihood has a maximum, before any Newton step."""

    # every 4 x 4 boolean: bit 4 * g + h of the pattern is the pair (g, h)
    PATTERNS = (np.arange(1 << 16)[:, None] >> np.arange(16) & 1).astype(bool)

    @pytest.mark.parametrize("names", DESIGNS)
    def test_every_meets_pattern_against_a_linear_program(self, names):
        """The reference is the program: maximize the sum of V d subject to
        V d >= 0 and |d_i| <= 1, with V the differences G[g] - G[h] of the
        met pairs; the likelihood has no maximum iff its optimum is
        positive. A direction the rule reports is a point of the program
        with a positive objective (after halving), which proves that; where
        the rule reports none, `linprog` must find the optimum 0. The
        program depends only on the set of distinct nonzero differences, so
        it is solved once per set."""
        from scipy.optimize import linprog

        G = _group_covariates(names)
        diffs = (G[:, None, :] - G[None, :, :]).reshape(16, len(names))
        met = self.PATTERNS
        found = np.zeros(len(met), dtype=bool)
        d = np.zeros((len(met), len(names)))
        try:
            for k, pattern in enumerate(met):
                direction = _separating_direction(pattern.tobytes(), names)
                if direction is not None:
                    found[k], d[k] = True, direction
        finally:
            _separating_direction.cache_clear()

        moves = d @ diffs.T
        certified = np.where(met, moves >= 0, True).all(axis=1) & (met & (moves > 0)).any(axis=1)
        assert np.array_equal(certified, found)

        distinct, index = np.unique(diffs, axis=0, return_inverse=True)
        in_set = met @ np.eye(len(distinct), dtype=bool)[index.ravel()]
        nonzero = distinct.any(axis=1)   # a pair within one pattern constrains nothing
        distinct, in_set = distinct[nonzero], in_set[:, nonzero]
        sets, first, which = np.unique(in_set, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(found, found[first][which.ravel()])   # one answer per set
        for members in sets[~found[first]]:
            V = distinct[members]
            res = linprog(-V.sum(axis=0), A_ub=-V, b_ub=np.zeros(len(V)),
                          bounds=[(-1, 1)] * len(names), method="highs")
            assert res.status == 0 and -res.fun <= 1e-9, (names, V)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials())
    def test_row_level_likelihood_rises_along_the_direction(self, records):
        """Wherever the rule reports d, the row-level likelihood of
        `tests/reference.py` rises along beta = t * d, t = 0, 1, 2, 4, 8,
        and `cox_fit` refuses the table naming d; elsewhere `cox_fit`
        raises no SeparationError."""
        trial = Trial.from_records(records)
        rows = expand(trial)
        for ties in ("efron", "breslow"):
            for stratified in (False, True):
                table = risk_table(trial, ties, stratified)
                for names in DESIGNS:
                    d = _separating_direction(table.meets.tobytes(), names)
                    if d is None:
                        try:
                            cox_fit(table, names)
                        except EstimationError as err:
                            assert not isinstance(err, SeparationError)
                        continue
                    event(f"separated: p={len(names)}, stratified={stratified}")
                    design = RowLevelDesign(rows, names, ties, stratified)
                    ll = [design.loglik_grad_hess(t * np.array(d, dtype=float))[0]
                          for t in (0, 1, 2, 4, 8)]
                    assert all(a < b for a, b in zip(ll, ll[1:])), (d, ll)
                    along = ", ".join(f"{n}={v}" for n, v in zip(names, d))
                    with pytest.raises(SeparationError, match=f"along {along}$"):
                        cox_fit(table, names)


def _capped(max_iter):
    """The lockstep's iteration cap set to max_iter within the block."""
    return mock.patch.object(survival, "_MAX_ITER", max_iter)


def _fit_bits(fit, table, covariates, max_iter):
    """`_result_bits` of the fit at the iteration cap max_iter, or of the
    error it raised: `cox_fit_numpy` takes the cap as an argument, and
    `cox_fit` reads it from `survival._MAX_ITER`."""
    try:
        if fit is cox_fit:
            with _capped(max_iter):
                result = cox_fit(table, covariates)
        else:
            result = fit(table, covariates, max_iter=max_iter)
    except (DataError, EstimationError) as err:
        result = err
    return _result_bits(result)


def _result_bits(result):
    """Every field of a fit, arrays as dtype, shape and bytes and floats as
    their type and repr; or the type, message and last iterate of an
    error."""
    if isinstance(result, Exception):
        last = getattr(result, "last_beta", None)
        return (type(result), str(result), getattr(result, "iterations", None),
                None if last is None else last.tobytes())
    out = []
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, np.ndarray):
            out.append((f.name, value.dtype, value.shape, value.tobytes()))
        else:
            out.append((f.name, type(value), repr(value)))
    return out


class TestNewtonAgainstNumpyWrappers:
    """`cox_fit` skips numpy's per-call wrappers but not its arithmetic:
    `cox_fit_numpy` of `tests/reference.py`, which keeps them, is the
    oracle, and every field agrees to the bit, errors included."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(max_size=24), ties=st.sampled_from(["efron", "breslow"]),
           stratified=st.booleans(),
           covariates=st.sampled_from([("trt",), ("trt", "mono", "trt_x_mono")]),
           max_iter=st.sampled_from([50, 50, 50, 1, 2]))
    def test_bit_identical(self, records, ties, stratified, covariates, max_iter):
        table = risk_table(Trial.from_records(records), ties, stratified)
        got = _fit_bits(cox_fit, table, covariates, max_iter)
        event(f"p={len(covariates)}: {got[0] if isinstance(got, tuple) else 'fit'}")
        assert got == _fit_bits(cox_fit_numpy, table, covariates, max_iter)

    def test_bit_identical_on_the_calibrated_trial(self, seed6_transforms):
        for data in seed6_transforms:
            for ties, stratified in (("efron", False), ("breslow", False), ("efron", True)):
                table = risk_table(data, ties, stratified)
                for covariates in ONE_COVARIATE + [PHASE_MODEL]:
                    assert _fit_bits(cox_fit, table, covariates, 50) == _fit_bits(
                        cox_fit_numpy, table, covariates, 50)


class TestTwoGroupsAgainstFourGroups:
    """`cox_fit` reads a one-covariate design from two groups. The same
    design read from all four groups, `cox_fit_numpy(..., groups=4)` (the
    arithmetic of the four-group stack), is the oracle: the two differ only
    in float rounding, so beta, se and loglik agree within REL, relative
    above 1 (absolute below), and a refused fit is refused with the same
    error type, under either tie method, with and without strata."""

    REL = 1e-12

    @staticmethod
    def _fit(fit, *args, **kwargs):
        try:
            return fit(*args, **kwargs)
        except EstimationError as err:
            return err

    def _assert_within_rounding(self, got, want):
        assert type(got) is type(want)
        if isinstance(want, CoxFit):
            for g, w in ((got.beta, want.beta), (got.se, want.se), (got.loglik, want.loglik)):
                assert np.all(np.abs(g - w) <= self.REL * np.maximum(1.0, np.abs(w)))

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(max_size=24), ties=st.sampled_from(["efron", "breslow"]),
           stratified=st.booleans(), covariates=st.sampled_from(ONE_COVARIATE),
           max_iter=st.sampled_from([50, 50, 50, 1, 2]))
    def test_within_rounding_of_the_four_group_fit(self, records, ties, stratified, covariates,
                                                   max_iter):
        table = risk_table(Trial.from_records(records), ties, stratified)
        with _capped(max_iter):
            got = self._fit(cox_fit, table, covariates)
        want = self._fit(cox_fit_numpy, table, covariates, max_iter=max_iter, groups=4)
        event(f"{covariates[0]}: {type(want).__name__}")
        self._assert_within_rounding(got, want)

    @pytest.mark.parametrize("covariates", ONE_COVARIATE)
    def test_a_step_that_overflows_w_is_halved(self, covariates):
        """At the first Newton step of `_overflowing_table` w overflows:
        that point's likelihood is not finite, and the step is halved until
        it is, not refused."""
        table = _overflowing_table(covariates, 2)
        tried = []
        likelihood = _TwoGroupStack.loglik_grad_hess

        def evaluate(stack, beta):
            tried.append(beta[0, 0])
            return likelihood(stack, beta)

        with mock.patch.object(_TwoGroupStack, "loglik_grad_hess", autospec=True,
                               side_effect=evaluate):
            fit = cox_fit(table, covariates)
        assert tried[1] > math.log(np.finfo(float).max)   # the first step overflows w
        assert len(tried) > fit.iterations + 1            # and is halved
        assert fit.coef(covariates[0]) == pytest.approx(math.log(1e6), rel=1e-12)
        assert _fit_bits(cox_fit, table, covariates, 50) == _fit_bits(
            cox_fit_numpy, table, covariates, 50)
        self._assert_within_rounding(fit, cox_fit_numpy(table, covariates, groups=4))


class TestLinalgWithoutWrappers:
    """`_newton_steps` and `_inverses_of_positive_definite` call the gufuncs
    behind np.linalg.solve, cholesky and inv, for one coefficient too: where
    the wrappers return a finite result, it is the same to the bit, and where
    they raise LinAlgError or return NaN the system is refused. Both run
    under `cox_fit`'s np.errstate, on a stack of systems, each of which gets
    what it gets alone."""

    MATRICES = [
        [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]],   # positive definite
        [[1.0, 2.0], [2.0, 1.0]],                              # indefinite, invertible
        [[1.0, 1.0], [1.0, 1.0]],                              # singular
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1e300, 0.0], [0.0, 1e-300]],
        [[2.0]], [[0.0]], [[-1.0]], [[float("nan")]],          # one coefficient
    ]

    @staticmethod
    def _steps(info, grad):
        steps, solved = _newton_steps(info, grad)
        return [step if ok else None for step, ok in zip(steps, solved)]

    @staticmethod
    def _wrapped(compute):
        try:
            return compute().tobytes()
        except np.linalg.LinAlgError:
            return None

    @pytest.mark.parametrize("info", MATRICES)
    def test_as_the_wrappers(self, info):
        info = np.array(info)
        grad = np.arange(1.0, len(info) + 1)
        step = self._wrapped(lambda: np.linalg.solve(info, grad))
        if step is not None and not np.isfinite(np.frombuffer(step)).all():
            step = None
        cov = self._wrapped(lambda: (np.linalg.cholesky(info), np.linalg.inv(info))[1])
        if cov is not None and np.isnan(np.frombuffer(cov)).any():
            cov = None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for (got,), expected in (
                (self._steps(info[None], grad[None]), step),
                (_inverses_of_positive_definite(info[None]), cov),
            ):
                assert (None if got is None else got.tobytes()) == expected

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_a_stack_is_each_system_alone(self, size):
        info = np.array([m for m in self.MATRICES if len(m) == size])
        grad = np.arange(1.0, len(info) * size + 1).reshape(len(info), size)

        def bits(results):
            return [None if r is None else r.tobytes() for r in results]

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert bits(self._steps(info, grad)) == [
                bits(self._steps(i[None], g[None]))[0] for i, g in zip(info, grad)]
            assert bits(_inverses_of_positive_definite(info)) == [
                bits(_inverses_of_positive_definite(i[None]))[0] for i in info]


class TestPhaseHr:
    def test_symmetric_arms_both_hrs_one(self):
        outcomes = [(2.0, 1, 1.0), (4.0, 1, None), (6.0, 0, 3.0), (8.0, 1, 5.0)]
        records = [rec(f"e{i}", E, t, d, mono=m) for i, (t, d, m) in enumerate(outcomes)]
        records += [rec(f"c{i}", C, t, d, mono=m) for i, (t, d, m) in enumerate(outcomes)]
        trial = Trial.from_records(records)
        res = phase_hr(trial, risk_table(trial))
        assert res.hr_combo == pytest.approx(1.0, abs=1e-6)
        assert res.hr_mono == pytest.approx(1.0, abs=1e-6)
        assert res.ci_combo[0] < 1.0 < res.ci_combo[1]
        assert res.ci_mono[0] < 1.0 < res.ci_mono[1]

    def test_no_mono_transitions_flagged(self):
        rng = np.random.default_rng(19)
        records = Trial.from_records(
            rec(i, E if i % 2 else C, float(rng.exponential(8) + 0.2), int(rng.random() < 0.8))
            for i in range(40)
        )
        res = phase_hr(records, risk_table(records))
        assert res.hr_mono is None
        assert res.flags == ["no monotherapy phase observed"]
        plain = cox_fit(risk_table(records), ("trt",))
        assert res.hr_combo == pytest.approx(np.exp(plain.coef("trt")), abs=1e-12)


class TestTailsAgainstScipy:
    """The package computes its tails with `math.erfc` and one constant;
    `scipy.special` (a test dependency only) is the oracle."""

    @staticmethod
    def _fit(beta, var=1.0):
        return CoxFit(names=("trt",), beta=np.array([beta]), se=np.array([np.sqrt(var)]),
                      cov=np.array([[var]]), loglik=0.0, iterations=0, n_events=1,
                      gradient_norm=0.0)

    @staticmethod
    def _close(p, oracle):
        return oracle < 1e-12 or abs(p - oracle) <= 1e-12 * oracle

    def test_wald_p_is_two_sided_normal_tail(self):
        from scipy.special import ndtr

        zs = np.concatenate([np.linspace(-7.1, 7.1, 1421), np.geomspace(1e-9, 1.0, 50)])
        for z in zs:
            assert self._close(self._fit(z).wald_p("trt"), 2.0 * ndtr(-abs(z))), z
        for z, p in ((0.0, 1.0), (40.0, 0.0), (-40.0, 0.0)):
            assert self._fit(z).wald_p("trt") == p == 2.0 * ndtr(-abs(z))

    def test_logrank_p_is_chi_square_1_tail(self):
        from scipy.special import chdtrc

        rng = np.random.default_rng(3)
        chi2s = []
        for ratio in np.geomspace(1.0, 4.0, 60):
            control = rng.exponential(1.0, 100)
            experimental = rng.exponential(ratio, 100)
            records = [rec(f"c{i}", C, t, 1) for i, t in enumerate(control)]
            records += [rec(f"e{i}", E, t, 1) for i, t in enumerate(experimental)]
            res = logrank_test(Trial.from_records(records))
            assert self._close(res.p_two_sided, chdtrc(1, res.chi2)), res.chi2
            chi2s.append(res.chi2)
        assert min(chi2s) < 1.0 and max(chi2s) > 50.0   # p from near 1 to below 1e-12

        tied = Trial.from_records([rec("c", C, 1.0, 1), rec("e", E, 1.0, 1)])
        assert logrank_test(tied).p_two_sided == 1.0 == chdtrc(1, 0.0)
        # complete separation, 700 a side: chi2 near 1700, both tails underflow
        n = 700
        separated = [rec(f"c{i}", C, 1 + i, 1, cutoff=3 * n) for i in range(n)]
        separated += [rec(f"e{i}", E, n + 1 + i, 1, cutoff=3 * n) for i in range(n)]
        res = logrank_test(Trial.from_records(separated))
        assert res.p_two_sided == 0.0 == chdtrc(1, res.chi2)

    def test_wald_upper_bound_beyond_float_range_is_inf(self):
        # b = -14 with se 1.56e4: exp(b + z * se) overflows a float, and
        # `analyze` prints the interval as (0.000, inf)
        hr, ci = self._fit(-14.0, var=1.56e4 ** 2).contrast(("trt",))
        assert (hr, *ci) == (math.exp(-14.0), 0.0, math.inf)
        assert f"{hr:.4f} {_fmt_ci(ci)}" == "0.0000 (0.000, inf)"

    def test_wald_interval_uses_the_normal_975_quantile(self):
        from scipy.special import ndtri

        z = float(ndtri(0.975))
        hr, (lo, hi) = self._fit(0.3, var=0.04).contrast(("trt",))
        assert (hr, lo, hi) == (math.exp(0.3), math.exp(0.3 - z * 0.2), math.exp(0.3 + z * 0.2))
