"""Tipping-search behavior: identity at factor 1, bracketing and consistency
invariants, rank breakpoints, degenerate handling, aggregation arithmetic,
determinism."""

import collections
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import phasetip.tipping
from conftest import C, E, rec, trials
from reference import fixed_step_bracket
from phasetip.counterfactual import (
    Effect,
    ImputationDraws,
    Threshold,
    TransformParams,
    apply_transform,
    keyed_rng,
    make_draws,
    naive_transform,
    needs_draw,
    rank_breakpoints,
    transform_lines,
    transform_outcomes,
)
from phasetip.errors import DataError, EstimationError, SeparationError
from phasetip.records import Trial
from phasetip.simulate import SimConfig, simulate_trial
from phasetip.survival import cox_fit, logrank_test, partial_loglik_and_gradient, risk_table
from phasetip.tipping import (
    MAX_GRID_POINTS,
    MAX_REPLICATES,
    ReplicateOutcome,
    SearchConfig,
    TpaCurvePoint,
    evaluate_at,
    factor_grid,
    find_tipping,
    grid_scan,
    mi_aggregate,
)

# small, strongly separated trial: fast to evaluate, clearly significant
FAST_SIM = SimConfig(
    n_experimental=140, n_control=110,
    combo_event_hazard=0.07, switch_hazard=0.05, mono_event_hazard=0.10,
    hr_combo=0.75, hr_mono=0.35,
    accrual_months=18, cutoff_months=40, dropout_hazard=0.004,
)


def fast_records(seed=1):
    return simulate_trial(FAST_SIM, seed=seed)


def before_tip(trial, effect, draws, tip):
    """A factor in the interval between rank breakpoints that ends at the
    tip, on the side of factor 1."""
    lines = transform_lines(trial, effect, draws)
    if effect is Effect.INFLATE_CONTROL:
        inside = rank_breakpoints(trial, lines, 1.0, tip)
        edge = inside[-1] if inside.size else 1.0
    else:
        inside = rank_breakpoints(trial, lines, tip, 1.0)
        edge = inside[0] if inside.size else 1.0
    return 0.5 * (edge + tip)


class TestEvaluateAt:
    def test_identity_point_matches_primary_analysis(self):
        records = fast_records()
        for effect in Effect:
            draws = make_draws(records, effect, "auto", seed=3, replicate_id=0)
            point = evaluate_at(records, TransformParams(effect, 1.0), draws)
            assert point.p_two_sided == logrank_test(records).p_two_sided
            assert point.hr_overall == cox_fit(risk_table(records), ("trt",)).hr("trt")
            assert point.n_events == sum(r.delta for r in records)

    def test_large_inflation_destroys_significance(self):
        records = fast_records()
        draws = make_draws(records, Effect.INFLATE_CONTROL, "auto", seed=3)
        p1 = evaluate_at(records, TransformParams(Effect.INFLATE_CONTROL, 1.0), draws)
        p5 = evaluate_at(records, TransformParams(Effect.INFLATE_CONTROL, 5.0), draws)
        assert p1.p_two_sided < 0.05
        assert p5.p_two_sided > 0.05

    def test_shrink_limit_pushes_overall_hr_up(self):
        # experimental events all during monotherapy: collapsing the phase
        # piles them near the transition time and erases the benefit
        records = [rec(f"e{i}", E, 10.0 + i, 1, mono=2.0 + 0.1 * i) for i in range(12)]
        records += [rec(f"c{i}", C, 1.5 + 1.4 * i, 1) for i in range(12)]
        records = Trial.from_records(records)
        draws = make_draws(records, Effect.SHRINK_EXPERIMENTAL, seed=1)
        base = evaluate_at(records, TransformParams(Effect.SHRINK_EXPERIMENTAL, 1.0), draws)
        tiny = evaluate_at(records, TransformParams(Effect.SHRINK_EXPERIMENTAL, 0.05), draws)
        assert base.hr_overall < 1.0
        assert tiny.hr_overall > base.hr_overall
        assert tiny.hr_overall > 1.0

    def test_wald_p_source(self):
        records = fast_records()
        draws = make_draws(records, Effect.INFLATE_CONTROL, "auto", seed=3)
        point = evaluate_at(
            records, TransformParams(Effect.INFLATE_CONTROL, 1.0), draws, p_source="wald"
        )
        fit = cox_fit(risk_table(records), ("trt",))
        assert point.p_two_sided == fit.wald_p("trt")


class TestFindTippingA:
    def test_finds_tip_and_invariants_hold(self):
        records = fast_records()
        config = SearchConfig(
            effect=Effect.INFLATE_CONTROL, grid_step=0.1, mi_replicates=2, seed=11
        )
        res = find_tipping(records, config)
        assert res.tip is not None and res.tip > 1.0
        assert not res.degenerate
        for out in res.replicates:
            assert out.tip is not None
            # reported point is non-significant (minimum p beyond the level)
            assert out.point.p_two_sided > config.alpha_level
            # the interval just before the tip is still significant
            draws = make_draws(records, config.effect, config.imputation,
                               config.seed, out.replicate_id)
            back = evaluate_at(
                records,
                TransformParams(config.effect, before_tip(records, config.effect, draws, out.tip)),
                draws,
            )
            assert back.p_two_sided <= config.alpha_level

    def test_effect2_direction(self):
        records = fast_records()
        config = SearchConfig(
            effect=Effect.SHRINK_EXPERIMENTAL, grid_step=0.1, mi_replicates=2, seed=5
        )
        res = find_tipping(records, config)
        assert res.tip is not None and res.tip < 1.0
        for out in res.replicates:
            draws = make_draws(records, config.effect, config.imputation,
                               config.seed, out.replicate_id)
            back = evaluate_at(
                records,
                TransformParams(config.effect, before_tip(records, config.effect, draws, out.tip)),
                draws,
            )
            assert back.p_two_sided <= config.alpha_level
            assert out.point.p_two_sided > config.alpha_level

    def test_degenerate_when_already_non_significant(self):
        rng = np.random.default_rng(2)
        records = Trial.from_records(
            rec(i, E if i % 2 else C, float(rng.exponential(10) + 0.5), 1)
            for i in range(40)
        )
        assert logrank_test(records).p_two_sided > 0.05
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, mi_replicates=1)
        res = find_tipping(records, config)
        assert res.degenerate
        assert res.tip == 1.0
        assert any("non-significant at start" in f for f in res.flags)

    def test_no_tipping_point_in_range(self):
        records = fast_records()
        config = SearchConfig(
            effect=Effect.INFLATE_CONTROL, grid_step=0.05, grid_max=1.1,
            mi_replicates=1, seed=4,
        )
        res = find_tipping(records, config)
        assert res.tip is None
        assert any("no tipping point in range" in f for f in res.flags)

    def test_headline_tip_is_median_of_replicates(self):
        records = fast_records()
        config = SearchConfig(
            effect=Effect.SHRINK_EXPERIMENTAL, grid_step=0.1, mi_replicates=5, seed=9
        )
        res = find_tipping(records, config)
        tips = [o.tip for o in res.replicates if o.tip is not None]
        assert res.tip == pytest.approx(float(np.median(tips)))
        assert res.tip_min == min(tips) and res.tip_max == max(tips)


class TestFindTippingB:
    def test_neutralization_hits_tolerance(self):
        records = fast_records()
        config = SearchConfig(
            effect=Effect.INFLATE_CONTROL, threshold=Threshold.NEUTRALIZE,
            grid_step=0.1, mi_replicates=2, seed=7,
        )
        res = find_tipping(records, config)
        assert res.tip is not None and res.tip > 1.0
        for out in res.replicates:
            # the reported point is the crossed end of the final bracket
            assert out.point.hr_mono >= 1.0
            assert abs(out.point.hr_mono - 1.0) <= 0.01
        assert res.hr_at_tip is not None  # the residual overall effect

    @pytest.mark.parametrize("effect", list(Effect))
    def test_tip_is_the_root_of_mono_hr_one(self, effect):
        # the tip is the rank breakpoint where hr_mono reaches 1, so the grid
        # step that brackets it does not move it
        records = fast_records()
        results = {
            step: find_tipping(records, SearchConfig(
                effect=effect, threshold=Threshold.NEUTRALIZE, grid_step=step,
                mi_replicates=2, seed=7,
            ))
            for step in (0.01, 0.1)
        }
        config = SearchConfig(effect=effect, seed=7)
        for fine, coarse in zip(results[0.01].replicates, results[0.1].replicates):
            assert fine.tip is not None and fine.tip == coarse.tip
            draws = make_draws(records, effect, config.imputation, config.seed,
                               fine.replicate_id)
            clear = evaluate_at(records, TransformParams(
                effect, before_tip(records, effect, draws, fine.tip)), draws)
            assert clear.hr_mono < 1.0 <= fine.point.hr_mono

    def test_effect2_neutralization(self):
        records = fast_records()
        config = SearchConfig(
            effect=Effect.SHRINK_EXPERIMENTAL, threshold=Threshold.NEUTRALIZE,
            grid_step=0.1, mi_replicates=2, seed=8,
        )
        res = find_tipping(records, config)
        assert res.tip is not None and res.tip < 1.0

    def test_no_mono_phase_is_an_error(self):
        rng = np.random.default_rng(3)
        records = Trial.from_records(
            rec(i, E if i % 2 else C, float(rng.exponential(8) + 0.3), 1)
            for i in range(30)
        )
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, threshold=Threshold.NEUTRALIZE)
        with pytest.raises(DataError, match="no mono phase to neutralize"):
            find_tipping(records, config)
        # a monotherapy phase that starts at the follow-up time is no phase
        at_follow_up = Trial.from_records(
            rec(r.subject_id, r.arm, r.s, r.delta, mono=r.s) for r in records
        )
        with pytest.raises(DataError, match="no mono phase to neutralize"):
            find_tipping(at_follow_up, config)

    def test_degenerate_when_mono_hr_already_at_one(self):
        # symmetric arms: mono HR is 1 at the start; combo and mono events
        # interleave so the three-term model is identified
        outcomes = [
            (2.0, 1, 1.0), (5.0, 1, None), (8.0, 1, 4.0),
            (10.0, 0, 6.0), (12.0, 1, None),
        ]
        records = [rec(f"e{i}", E, t, d, mono=m) for i, (t, d, m) in enumerate(outcomes)]
        records += [rec(f"c{i}", C, t, d, mono=m) for i, (t, d, m) in enumerate(outcomes)]
        records = Trial.from_records(records)
        config = SearchConfig(
            effect=Effect.INFLATE_CONTROL, threshold=Threshold.NEUTRALIZE, mi_replicates=1
        )
        res = find_tipping(records, config)
        assert res.degenerate
        assert res.tip == 1.0


class TestMiAggregate:
    def _outcome(self, rid, tip, degenerate=False):
        point = None
        if tip is not None:
            point = TpaCurvePoint(tip, 0.06, 0.8, 0.9, 100)
        return ReplicateOutcome(rid, tip, point, degenerate=degenerate)

    def test_single_replicate_passthrough(self):
        res = mi_aggregate([self._outcome(0, 1.7)], Effect.INFLATE_CONTROL,
                           Threshold.SIGNIFICANCE)
        assert res.tip == 1.7
        assert res.tip_sd == 0.0
        assert res.tip_min == res.tip_max == 1.7

    def test_hand_median_and_sd(self):
        # {1.7, 1.8, 1.9}: median 1.8, sd sqrt((.01+0+.01)/2) = 0.1
        outs = [self._outcome(i, t) for i, t in enumerate([1.7, 1.8, 1.9])]
        res = mi_aggregate(outs, Effect.INFLATE_CONTROL, Threshold.SIGNIFICANCE)
        assert res.tip == pytest.approx(1.8)
        assert res.tip_sd == pytest.approx(0.1, abs=1e-12)

    def test_all_degenerate_marked(self):
        outs = [self._outcome(i, 1.0, degenerate=True) for i in range(3)]
        res = mi_aggregate(outs, Effect.INFLATE_CONTROL, Threshold.SIGNIFICANCE)
        assert res.degenerate
        assert res.n_degenerate == 3

    def test_empty_errors(self):
        with pytest.raises(DataError):
            mi_aggregate([], Effect.INFLATE_CONTROL, Threshold.SIGNIFICANCE)


class TestGridScanAndDeterminism:
    def test_single_point_grid_equals_primary(self):
        records = fast_records()
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, seed=13)
        pts = grid_scan(records, config, [1.0])
        assert len(pts) == 1
        assert pts[0].p_two_sided == logrank_test(records).p_two_sided

    def test_scan_deterministic_across_calls(self):
        records = fast_records()
        config = SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL, seed=21)
        grid = [1.0, 0.9, 0.8, 0.9]  # repeated factor must reproduce exactly
        a = grid_scan(records, config, grid)
        b = grid_scan(records, config, grid)
        for pa, pb in zip(a, b):
            assert (pa.gamma, pa.p_two_sided, pa.hr_overall, pa.hr_mono) == (
                pb.gamma, pb.p_two_sided, pb.hr_overall, pb.hr_mono,
            )
        assert a[1].p_two_sided == a[3].p_two_sided

    @staticmethod
    def _fields(point):
        return [repr(getattr(point, f.name)) for f in dataclasses.fields(point)]

    def _check_points(self, trial, config, gammas):
        """grid_scan's points, each field for field the `evaluate_at` of
        its factor on the replicate-0 draws, or the same error."""
        try:
            draws = make_draws(trial, config.effect, config.imputation, config.seed, 0)
            expected = [self._fields(evaluate_at(trial, TransformParams(config.effect, float(g)),
                                                 draws, config.p_source)) for g in gammas]
        except (DataError, EstimationError) as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                grid_scan(trial, config, gammas)
            return None
        points = grid_scan(trial, config, gammas)
        assert [self._fields(p) for p in points] == expected
        return points

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(), effect=st.sampled_from(list(Effect)),
           p_source=st.sampled_from(["logrank", "wald"]),
           imputation=st.sampled_from(["cutoff", "fitted"]), data=st.data())
    def test_every_point_is_evaluate_at_of_its_factor(self, records, effect, p_source,
                                                       imputation, data):
        config = SearchConfig(effect=effect, p_source=p_source, imputation=imputation)
        k = data.draw(st.integers(1, 3 * phasetip.tipping._ROW_BLOCK + 1))
        gammas = [data.draw(st.sampled_from(TestBatchedProbe.FACTORS[effect]))
                  for _ in range(k)]
        points = self._check_points(Trial.from_records(records), config, gammas)
        event("refused" if points is None else
              "some point unevaluable" if not all(p.evaluable for p in points) else
              "all evaluable")

    def test_long_grid_with_unevaluable_points(self):
        # c1's event moves to 1 + gamma and is censored at its cutoff 2.5
        # beyond gamma 1.5; then the only event is e1's, and the
        # treatment-only fit is refused
        trial = Trial.from_records([
            rec("c1", C, 2.0, 1, cutoff=2.5, mono=1.0), rec("c2", C, 4.0, 0),
            rec("e1", E, 3.0, 1), rec("e2", E, 5.0, 0),
        ])
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, imputation="cutoff")
        gammas = [1.0, 1.2, 1.4, 1.5, 1.6, 2.0, 2.5, 1.0, 1.45, 3.0, 1.1, np.float64(1.3)]
        assert len(gammas) > 2 * phasetip.tipping._ROW_BLOCK
        points = self._check_points(trial, config, gammas)
        assert [p.evaluable for p in points] == [g <= 1.5 for g in gammas]
        assert all("separation" in p.note for p in points if not p.evaluable)

    def test_effect1_curve_monotone_with_fixed_draws(self):
        records = fast_records()
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, seed=19)
        grid = np.round(np.arange(1.0, 3.01, 0.25), 4)
        pts = grid_scan(records, config, grid)
        ps = [p.p_two_sided for p in pts]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))


class TestCurveLogRank:
    """Each curve point's p-value is its row's test in a `logrank_rows`
    pass: `logrank_test` of the trial transformed at the point's factor,
    bit for bit, with the message of a test that fails in the note. A trial
    with one arm is refused as `logrank_test` refuses it."""

    @staticmethod
    def _check(trial, config, gammas):
        try:
            draws = make_draws(trial, config.effect, config.imputation, config.seed, 0)
            expected = []
            for gamma in gammas:
                data = apply_transform(trial, TransformParams(config.effect, gamma), draws)
                try:
                    expected.append((logrank_test(data).p_two_sided, None))
                except EstimationError as err:
                    expected.append((None, str(err)))
        except (DataError, EstimationError) as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                grid_scan(trial, config, gammas)
            return None
        points = grid_scan(trial, config, gammas)
        for point, (p, message) in zip(points, expected):
            assert repr(point.p_two_sided) == repr(p)
            assert message is None or message in point.note.split("; ")
        return points

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(), effect=st.sampled_from(list(Effect)),
           imputation=st.sampled_from(["cutoff", "fitted"]), data=st.data())
    def test_p_is_the_logrank_test_of_the_transformed_trial(self, records, effect,
                                                            imputation, data):
        config = SearchConfig(effect=effect, imputation=imputation)
        k = data.draw(st.integers(1, 2 * phasetip.tipping._ROW_BLOCK + 1))
        gammas = [data.draw(st.sampled_from(TestBatchedProbe.FACTORS[effect]))
                  for _ in range(k)]
        points = self._check(Trial.from_records(records), config, gammas)
        event("refused" if points is None else
              "some test failed" if any(p.p_two_sided is None for p in points) else
              "every point tested")

    def test_one_arm_is_refused(self):
        trial = Trial.from_records([rec("e1", E, 2.0, 1, mono=1.0), rec("e2", E, 3.0, 1)])
        config = SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL)
        with pytest.raises(DataError, match="log-rank needs both arms present"):
            grid_scan(trial, config, [1.0, 0.5])
        assert self._check(trial, config, [1.0, 0.5]) is None

    def test_no_events_after_the_transform(self):
        # the one event is a control event in monotherapy; inflated past its
        # cutoff 2.5, it is censored there
        trial = Trial.from_records([rec("c", C, 2.0, 1, cutoff=2.5, mono=1.0),
                                    rec("e", E, 3.0, 0)])
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, imputation="cutoff")
        points = self._check(trial, config, [1.0, 2.0, 1.2])
        assert [p.p_two_sided is None for p in points] == [False, True, False]
        assert "log-rank needs at least one event" in points[1].note


class TestUnevaluablePointHandling:
    """White-box checks of the skip logic around estimator failures."""

    class _Stub:
        """Answers each probe with the value the stop rule reads: p under
        rule a, the monotherapy-phase HR under rule b."""

        def __init__(self, p_of, broken, hr_mono_of=lambda g: 0.9,
                     threshold=Threshold.SIGNIFICANCE):
            self.value_of = p_of if threshold is Threshold.SIGNIFICANCE else hr_mono_of
            self.broken = set(broken)
            self.probed = []

        def probe(self, gamma):
            self.probed.append(gamma)
            if round(gamma, 6) in self.broken:
                return None, "separation detected"
            return self.value_of(gamma), None

    @staticmethod
    def _drive(search, probe):
        """Run a search generator, answering each factor it yields with
        probe(factor), and return what it returns."""
        try:
            factor = next(search)
            while True:
                factor = search.send(probe(factor))
        except StopIteration as done:
            return done.value

    def test_grid_walk_skips_broken_points(self):
        from phasetip.tipping import _bracket, _stop_rule

        # steps 0.1, 0.16, 0.16, ...: the walk probes 1.1, 1.26, 1.42, 1.58
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, grid_step=0.1, grid_max=3.0)
        stub = self._Stub(lambda g: 0.01 if g < 1.55 else 0.2, broken=[1.26])
        _, crossed, _ = _stop_rule(config)
        last_clear, first_crossed, flags = self._drive(_bracket(crossed, config), stub.probe)
        assert first_crossed == pytest.approx(1.58)
        assert last_clear == pytest.approx(1.42)
        assert any("skipped" in f and "separation" in f for f in flags)

    def test_bisection_nudges_around_broken_midpoint(self):
        # breakpoints every 0.01 in (1.5, 1.6); the rule flips at 1.55. The
        # first cell probed, (1.56, 1.57), and later its nudge target fail
        from phasetip.tipping import _bisect, _stop_rule

        breakpoints = np.round(np.arange(1.51, 1.595, 0.01), 10)
        for threshold in Threshold:
            config = SearchConfig(effect=Effect.INFLATE_CONTROL, threshold=threshold)
            stub = self._Stub(lambda g: 0.01 if g < 1.55 else 0.2, broken=[1.565],
                              hr_mono_of=lambda g: 0.9 if g < 1.55 else 1.1,
                              threshold=threshold)
            _, crossed, _ = _stop_rule(config)
            flags = []
            edges = np.concatenate(([1.5], breakpoints, [1.6]))
            tip, at = self._drive(_bisect(crossed, edges, flags), stub.probe)
            assert tip == pytest.approx(1.55)
            assert at == pytest.approx(1.555)
            assert flags == []
            assert len(stub.probed) == len(set(stub.probed))

    def test_bisection_stops_when_neighbours_fail_too(self):
        from phasetip.tipping import _bisect, _stop_rule

        breakpoints = np.round(np.arange(1.51, 1.595, 0.01), 10)
        config = SearchConfig(effect=Effect.INFLATE_CONTROL)
        stub = self._Stub(lambda g: 0.01 if g < 1.55 else 0.2,
                          broken=[1.555, 1.565, 1.575])
        _, crossed, _ = _stop_rule(config)
        flags = []
        edges = np.concatenate(([1.5], breakpoints, [1.6]))
        tip, at = self._drive(_bisect(crossed, edges, flags), stub.probe)
        assert any("bisection stopped early" in f for f in flags)
        # the first cell probed and both its neighbours fail, so the first
        # cell known to be crossed is the bracket's crossed end
        assert stub.probed == pytest.approx([1.565, 1.575, 1.555])
        assert tip == at == 1.6


class TestProbePath:
    """Each search probe runs only the estimator its stop rule reads; the
    full evaluation runs once, for the reported point. Every probe goes
    through `_probe_round`, one call per round of the lockstep searches."""

    @staticmethod
    def _spy(monkeypatch, name, calls, fail_when=lambda: False):
        real = getattr(phasetip.tipping, name)

        def spy(*args, **kwargs):
            calls.append(name)
            if fail_when():
                raise SeparationError()
            return real(*args, **kwargs)

        monkeypatch.setattr(phasetip.tipping, name, spy)

    @staticmethod
    def _spy_probes(monkeypatch, probes, calls=None):
        """Record (id of the draw set's lines, factor) for every probe, and
        mark the spans of the probe rounds in `calls`."""
        real = phasetip.tipping._probe_round

        def probe_round(trial, config, requests):
            probes.extend((id(lines), gamma) for lines, gamma in requests)
            if calls is not None:
                calls.append("probe round")
            try:
                return real(trial, config, requests)
            finally:
                if calls is not None:
                    calls.append("probe round end")

        monkeypatch.setattr(phasetip.tipping, "_probe_round", probe_round)

    @staticmethod
    def _track_factor(monkeypatch):
        """The last factor transformed, updated as the search runs."""
        current = {}
        real = phasetip.tipping.transform_outcomes

        def transform(trial, lines, gammas):
            current["gamma"] = gammas[-1]
            return real(trial, lines, gammas)

        monkeypatch.setattr(phasetip.tipping, "transform_outcomes", transform)
        return current

    @staticmethod
    def _inside_rounds(calls):
        """The calls made inside a probe round."""
        inside, depth = [], 0
        for call in calls:
            if call == "probe round":
                depth += 1
            elif call == "probe round end":
                depth -= 1
            elif depth:
                inside.append(call)
        return inside

    def test_rule_a_logrank_fits_cox_only_at_the_reported_point(self, monkeypatch):
        calls, probes = [], []
        for name in ("cox_fit", "logrank_rows"):
            self._spy(monkeypatch, name, calls)
        self._spy_probes(monkeypatch, probes, calls)
        records = fast_records()
        config = SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL, grid_step=0.1,
                              mi_replicates=3, seed=5)
        res = find_tipping(records, config)
        assert all(o.tip is not None and not o.degenerate for o in res.replicates)
        draw_sets = {
            make_draws(records, config.effect, config.imputation,
                       config.seed, r).values.tobytes()
            for r in range(config.mi_replicates)
        }
        # the treatment-only and the three-covariate fit of each reported point
        assert calls.count("cox_fit") == 2 * len(draw_sets)
        assert "cox_fit" not in self._inside_rounds(calls)
        assert "logrank_rows" in self._inside_rounds(calls)
        assert len(probes) > calls.count("cox_fit")

    def test_rule_b_probes_never_run_the_logrank_test(self, monkeypatch):
        calls = []
        for name in ("logrank_test", "logrank_rows", "evaluate_at", "cox_fit"):
            self._spy(monkeypatch, name, calls)
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, threshold=Threshold.NEUTRALIZE,
                              grid_step=0.1, mi_replicates=1, seed=7)
        res = find_tipping(fast_records(), config)
        assert res.tip is not None and res.p_at_tip is not None
        # probes fit the three-covariate model only; the row of the one full
        # evaluation, of the reported point, is tested in one logrank_rows pass
        assert calls.count("evaluate_at") == calls.count("logrank_rows") == 1
        assert "logrank_test" not in calls
        assert calls.index("logrank_rows") + 1 == calls.index("evaluate_at")
        assert calls[calls.index("evaluate_at") + 1:].count("cox_fit") == 2
        assert calls.count("cox_fit") > 2

    @pytest.mark.parametrize("effect", list(Effect))
    @pytest.mark.parametrize("threshold", list(Threshold))
    @pytest.mark.parametrize("imputation", ["auto", "fitted"])
    def test_no_search_probes_a_factor_twice(self, monkeypatch, effect, threshold, imputation):
        # walk steps, bisection midpoints and their nudges are distinct, so
        # a per-factor cache of probe values would never be read
        probes = []
        self._spy_probes(monkeypatch, probes)
        config = SearchConfig(effect=effect, threshold=threshold, imputation=imputation,
                              grid_step=0.1, mi_replicates=3, seed=5)
        res = find_tipping(fast_records(), config)
        assert any(o.tip is not None and not o.degenerate for o in res.replicates)
        assert len(probes) > 5
        assert len(set(probes)) == len(probes)

    def test_rule_a_keeps_a_factor_whose_cox_fit_fails(self, monkeypatch):
        records = fast_records()
        config = SearchConfig(effect=Effect.INFLATE_CONTROL, grid_step=0.1,
                              mi_replicates=1, seed=11)
        clean = find_tipping(records, config)
        assert clean.tip > 1.2

        current = self._track_factor(monkeypatch)
        self._spy(monkeypatch, "cox_fit", [],
                  fail_when=lambda: current["gamma"] in (1.1, clean.replicates[0].point.gamma))
        res = find_tipping(records, config)
        assert not any("skipped" in f for f in res.flags), res.flags
        assert res.tip == clean.tip
        point = res.replicates[0].point
        assert point.p_two_sided == clean.replicates[0].point.p_two_sided
        assert (point.hr_overall, point.hr_mono, point.evaluable) == (None, None, False)
        assert res.hr_at_tip is None and res.p_at_tip == clean.p_at_tip


class TestSearchConfigValidation:
    def test_bad_grid_step(self):
        with pytest.raises(DataError, match="grid_step"):
            SearchConfig(effect=Effect.INFLATE_CONTROL, grid_step=0.0)

    def test_bad_alpha(self):
        with pytest.raises(DataError, match="alpha_level"):
            SearchConfig(effect=Effect.INFLATE_CONTROL, alpha_level=1.5)

    def test_bad_replicates(self):
        with pytest.raises(DataError, match="replicate"):
            SearchConfig(effect=Effect.INFLATE_CONTROL, mi_replicates=0)

    def test_replicates_above_cap(self):
        SearchConfig(effect=Effect.INFLATE_CONTROL, mi_replicates=MAX_REPLICATES)
        for count in (MAX_REPLICATES + 1, 100_000_000):
            with pytest.raises(DataError, match=f"at most {MAX_REPLICATES} replicates"):
                SearchConfig(effect=Effect.INFLATE_CONTROL, mi_replicates=count)

    def test_bad_p_source(self):
        with pytest.raises(DataError, match="p_source"):
            SearchConfig(effect=Effect.INFLATE_CONTROL, p_source="bayes")

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, float("nan")])
    def test_seed_not_a_non_negative_integer(self, seed):
        message = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL, seed=seed)

    @pytest.mark.parametrize("make, field", [
        (lambda: SearchConfig(threshold="a"), "threshold"),
        (lambda: SearchConfig(threshold="zzz"), "threshold"),
        (lambda: SearchConfig(effect="2"), "effect"),
        (lambda: SearchConfig(effect=2), "effect"),
        (lambda: SearchConfig(mi_replicates=2.5), "mi_replicates"),
        (lambda: SearchConfig(mi_replicates=True), "mi_replicates"),
        (lambda: SearchConfig(grid_step="0.1"), "grid_step"),
        (lambda: TransformParams("2", 0.5), "effect"),
        (lambda: TransformParams(Effect.SHRINK_EXPERIMENTAL, "0.5"), "gamma"),
        (lambda: evaluate_at(fast_records(), TransformParams(Effect.INFLATE_CONTROL, 1.0),
                             make_draws(fast_records(), Effect.INFLATE_CONTROL), "bayes"),
         "p_source"),
        (lambda: simulate_trial(FAST_SIM, seed=-1), "seed"),
        (lambda: simulate_trial(FAST_SIM, seed=1.5), "seed"),
        (lambda: SimConfig(n_experimental=2.5), "n_experimental"),
        (lambda: SimConfig(n_experimental=True), "n_experimental"),
        # a seed or replicate id that is not a non-negative integer
        (lambda: make_draws(fast_records(), Effect.SHRINK_EXPERIMENTAL, "auto", 1.5, 0), "seed"),
        (lambda: make_draws(fast_records(), Effect.SHRINK_EXPERIMENTAL, "auto", None), "seed"),
        (lambda: make_draws(fast_records(), Effect.SHRINK_EXPERIMENTAL, "auto", 0, True),
         "replicate_id"),
        (lambda: make_draws(fast_records(), Effect.SHRINK_EXPERIMENTAL, "auto", 0, "a"),
         "replicate_id"),
        (lambda: keyed_rng(1.5, 0, "x"), "seed"),
        (lambda: keyed_rng(0, True, "x"), "replicate_id"),
        # an effect that is not an Effect, or an unknown imputation method
        (lambda: needs_draw(fast_records(), 1), "effect"),
        (lambda: make_draws(fast_records(), 2), "effect"),
        (lambda: transform_lines(fast_records(), 2,
                                 make_draws(fast_records(), Effect.SHRINK_EXPERIMENTAL)),
         "effect"),
        (lambda: naive_transform(fast_records(), 1, 2.0), "effect"),
        (lambda: make_draws(fast_records(), Effect.INFLATE_CONTROL, "km"), "imputation"),
        (lambda: SearchConfig(imputation="km"), "imputation"),
        (lambda: SearchConfig(imputation=3), "imputation"),
        # the fitter's entry points: no covariate, a name split into letters,
        # a repeated name, a beta of the wrong length, type or value, a count
        # that is not one
        (lambda: cox_fit(risk_table(fast_records()), ()), "covariates"),
        (lambda: cox_fit(risk_table(fast_records()), "trt"), "covariates"),
        (lambda: cox_fit(risk_table(fast_records()), ("trt", "trt")), "covariates"),
        (lambda: partial_loglik_and_gradient(risk_table(fast_records()), ()), "covariates"),
        (lambda: partial_loglik_and_gradient(risk_table(fast_records()), ("trt", "trt"),
                                             [0.1, 0.2]), "covariates"),
        (lambda: partial_loglik_and_gradient(risk_table(fast_records()), ("trt",),
                                             beta=[1.0, 2.0]), "beta"),
        (lambda: partial_loglik_and_gradient(risk_table(fast_records()), beta=["a"]), "beta"),
        (lambda: partial_loglik_and_gradient(risk_table(fast_records()), beta=[np.nan]),
         "beta"),
        (lambda: partial_loglik_and_gradient(risk_table(fast_records()), beta=[[1.0], []]),
         "beta"),
        (lambda: cox_fit(risk_table(fast_records()), max_iter=2.5), "max_iter"),
        (lambda: cox_fit(risk_table(fast_records()), max_iter=None), "max_iter"),
        (lambda: cox_fit(risk_table(fast_records()), max_iter=0), "max_iter"),
        (lambda: cox_fit(risk_table(fast_records()), max_iter=-1), "max_iter"),
        (lambda: cox_fit(risk_table(fast_records()), max_iter=True), "max_iter"),
    ])
    def test_wrong_type_is_a_data_error_naming_the_field(self, make, field):
        with pytest.raises(DataError, match=f"^{field} must be "):
            make()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**70, np.int64(7)])
    def test_large_and_numpy_integer_seeds(self, seed):
        assert SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL, seed=seed).seed == seed

    @pytest.mark.parametrize("bound", [float("inf"), float("nan")])
    def test_non_finite_grid_max(self, bound):
        with pytest.raises(DataError, match="grid_max"):
            SearchConfig(effect=Effect.INFLATE_CONTROL, grid_max=bound)

    @pytest.mark.parametrize("bound", [0.99, -1.0])
    def test_grid_max_below_one(self, bound):
        with pytest.raises(DataError, match="grid_max"):
            SearchConfig(effect=Effect.INFLATE_CONTROL, grid_max=bound)

    @pytest.mark.parametrize("bound", [0.0, -0.5, 1.01, float("nan")])
    def test_grid_min_outside_unit_interval(self, bound):
        for effect in Effect:
            with pytest.raises(DataError, match="grid_min"):
                SearchConfig(effect=effect, grid_min=bound)

    def test_default_walks_fit_the_point_cap(self):
        config = SearchConfig(effect=Effect.INFLATE_CONTROL)
        assert (config.grid_max - 1.0) / config.grid_step == pytest.approx(900)
        SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL)
        # a walk of exactly MAX_GRID_POINTS steps is allowed
        SearchConfig(effect=Effect.INFLATE_CONTROL, grid_max=1.0 + MAX_GRID_POINTS * 0.5,
                     grid_step=0.5)

    @pytest.mark.parametrize("effect, bounds", [
        (Effect.INFLATE_CONTROL, {"grid_max": 10.0}),
        (Effect.SHRINK_EXPERIMENTAL, {"grid_min": 0.01}),
    ])
    @pytest.mark.parametrize("step", [1e-300, 5e-324, 1e-5])
    def test_walk_longer_than_point_cap(self, effect, bounds, step):
        with pytest.raises(DataError, match=str(MAX_GRID_POINTS)):
            SearchConfig(effect=effect, grid_step=step, **bounds)


@st.composite
def moving_cases(draw):
    """A trial, an effect, and draws for exactly the subjects `needs_draw`
    selects, each beyond its observed time by one of a few offsets, so
    draws tie with each other and with observed times."""
    records = draw(trials())
    effect = draw(st.sampled_from(list(Effect)))
    trial = Trial.from_records(records)
    subjects = np.flatnonzero(needs_draw(trial, effect))
    values = [float(trial.s[k]) + draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
              for k in subjects]
    return records, effect, ImputationDraws(subjects, np.array(values, dtype=float))


def moving_events_tie(trial, lines, gamma):
    """Whether two moving event times of the row transformed along `lines`
    at `gamma` are equal."""
    (s,), (delta,) = transform_outcomes(trial, [lines], [gamma])
    times = s[lines.rows][delta[lines.rows] == 1]
    return np.unique(times).size < times.size


class TestFactorGrid:
    """`factor_grid` gives the curve grid that the CLI built before it, to
    the bit, and ends where the search's walk does: at `SearchConfig.bound`."""

    CASES = pytest.mark.parametrize("effect, bound", [
        *[(Effect.INFLATE_CONTROL, bound) for bound in (1.0, 1.5, 4.0)],
        *[(Effect.SHRINK_EXPERIMENTAL, bound) for bound in (1.0, 0.4, 0.3, 1e-10)],
    ])
    STEPS = pytest.mark.parametrize("step", [0.25, 0.05, 0.01, 0.002])

    @staticmethod
    def _config(effect, bound, step):
        name = "grid_max" if effect is Effect.INFLATE_CONTROL else "grid_min"
        config = SearchConfig(effect=effect, grid_step=step, **{name: bound})
        assert config.bound == bound
        return config

    @CASES
    @STEPS
    def test_same_floats_as_the_two_arange_calls_it_replaces(self, effect, bound, step):
        if effect is Effect.INFLATE_CONTROL:
            old = np.arange(1.0, bound + 1e-9, step)
        else:
            old = np.arange(1.0, bound - 1e-9, -step)
            old = old[old > 0.0]
        grid = factor_grid(self._config(effect, bound, step))
        assert grid.dtype == old.dtype and grid.tobytes() == old.tobytes()

    @CASES
    @STEPS
    def test_walk_without_a_crossing_ends_at_the_bound(self, effect, bound, step):
        from phasetip.tipping import _bracket, _stop_rule

        config = self._config(effect, bound, step)
        stub = TestUnevaluablePointHandling._Stub(lambda g: 0.01, broken=[])
        last_clear, first_crossed, flags = TestUnevaluablePointHandling._drive(
            _bracket(_stop_rule(config)[1], config), stub.probe)
        assert first_crossed is None and flags == []
        assert last_clear == ([1.0, *stub.probed][-1]) == config.bound


class TestRankBreakpoints:
    """p and the HRs are step functions of the factor, constant between
    consecutive rank breakpoints, save p at a tie of two moving events."""

    RANGE = {Effect.INFLATE_CONTROL: (1.0, 4.0), Effect.SHRINK_EXPERIMENTAL: (0.05, 1.0)}

    # effect 2 moves e1 along 1 + gamma and the drawn e2 along 0.5 + 3 * gamma
    # (cap 2.5): they meet at 0.25, a sampled factor of the interval
    # (0.1667, 0.5), where p is 0.1573 against 0.2253 at 0.333 and 0.417
    @example(case=([rec(0, C, 2.0, 0, cutoff=2.0), rec(1, E, 2.0, 1, cutoff=2.0, mono=1.0),
                    rec(2, E, 2.5, 0, cutoff=2.5, mono=0.5)],
                   Effect.SHRINK_EXPERIMENTAL, ImputationDraws(np.array([2]), np.array([3.5]))))
    # the same tie of two moving events, at 0.25 in (0.1429, 0.5714)
    @example(case=([rec(0, C, 2.5, 0, cutoff=2.5), rec(1, E, 2.5, 1, cutoff=2.5, mono=1.0),
                    rec(2, E, 4.0, 1, cutoff=4.0, mono=0.5)],
                   Effect.SHRINK_EXPERIMENTAL, ImputationDraws(np.array([], dtype=int),
                                                               np.array([]))))
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=moving_cases())
    def test_evaluation_is_constant_between_breakpoints(self, case):
        """Every field of the evaluation is the same at three factors inside
        each interval, except p at a factor where two moving events tie."""
        records, effect, draws = case
        trial = Trial.from_records(records)
        if np.unique(trial.trt).size < 2:
            event("one arm: nothing to evaluate")
            return
        lo, hi = self.RANGE[effect]
        lines = transform_lines(trial, effect, draws)
        edges = np.concatenate([[lo], rank_breakpoints(trial, lines, lo, hi), [hi]])
        assert np.all(np.diff(edges) > 0)
        event(f"{edges.size - 2} breakpoints" if edges.size < 7 else "5 or more breakpoints")
        for left, right in zip(edges[:-1], edges[1:]):
            gammas = [float(g) for g in left + np.array([0.25, 0.5, 0.75]) * (right - left)]
            points = [dataclasses.replace(evaluate_at(trial, TransformParams(effect, g), draws),
                                          gamma=0.0) for g in gammas]
            tied = [moving_events_tie(trial, lines, g) for g in gammas]
            if any(tied):
                event("a sampled factor ties two moving events")
            assert len({dataclasses.replace(p, p_two_sided=None) for p in points}) == 1, (
                left, right, points)
            assert len({p for p, tie in zip(points, tied) if not tie}) <= 1, (left, right, points)

    def test_breakpoints_of_one_moving_subject(self):
        # effect 1 moves c1 along 6 + gamma * 4, an event up to its imputed
        # censoring time 30: it passes e1's time 20 at 3.5, the censoring
        # time 25 of e2 at 4.75 and reaches its own bound at 6
        trial = Trial.from_records([
            rec("c1", C, 10.0, 1, mono=6.0), rec("e1", E, 20.0, 1), rec("e2", E, 25.0, 0),
        ])
        draws = ImputationDraws(np.array([0]), np.array([30.0]))
        lines = transform_lines(trial, Effect.INFLATE_CONTROL, draws)
        assert rank_breakpoints(trial, lines, 1.0, 10.0).tolist() == [3.5, 4.75, 6.0]
        assert rank_breakpoints(trial, lines, 3.5, 6.0).tolist() == [4.75]

    def test_two_moving_events_tie_where_they_meet(self):
        # effect 2 moves e1 along 2 + 2 * gamma and e2 along 1 + 6 * gamma:
        # they trade places at 0.25, where the two events tie. Passing each
        # other changes no count, and the Efron rows of the tie are those of
        # the two untied times, so 0.25 is no breakpoint; only the log-rank
        # variance sees the tie, at that one factor
        trial = Trial.from_records([
            rec("e1", E, 4.0, 1, mono=2.0), rec("e2", E, 7.0, 1, mono=1.0),
            rec("e3", E, 0.5, 1), rec("c1", C, 0.5, 1), rec("c2", C, 9.0, 1),
            rec("c3", C, 12.0, 0),
        ])
        effect = Effect.SHRINK_EXPERIMENTAL
        draws = make_draws(trial, effect)
        assert rank_breakpoints(trial, transform_lines(trial, effect, draws), 0.2, 0.3).size == 0
        gammas = (0.22, 0.25, 0.28)
        below, at, above = (evaluate_at(trial, TransformParams(effect, g), draws)
                            for g in gammas)
        assert below.hr_overall == at.hr_overall == above.hr_overall
        assert below.hr_mono == at.hr_mono == above.hr_mono
        assert below.p_two_sided == above.p_two_sided != at.p_two_sided
        below, at = (risk_table(apply_transform(trial, TransformParams(effect, g), draws))
                     for g in gammas[:2])
        assert np.array_equal(below.A, at.A) and np.array_equal(below.D, at.D)

    @pytest.mark.parametrize("effect, lo, hi", [
        (Effect.INFLATE_CONTROL, 1.40, 1.42), (Effect.SHRINK_EXPERIMENTAL, 0.60, 0.62),
    ])
    def test_evaluation_is_constant_between_breakpoints_of_a_simulated_trial(self, effect,
                                                                             lo, hi):
        trial = fast_records()
        draws = make_draws(trial, effect, "fitted", seed=3)
        lines = transform_lines(trial, effect, draws)
        edges = np.concatenate([[lo], rank_breakpoints(trial, lines, lo, hi), [hi]])
        assert edges.size > 20
        for left, right in zip(edges[:-1], edges[1:]):
            a, b = (evaluate_at(trial, TransformParams(effect, float(g)), draws)
                    for g in (left + (right - left) / 3, right - (right - left) / 3))
            assert (a.p_two_sided, a.hr_overall, a.hr_mono) == (b.p_two_sided, b.hr_overall,
                                                               b.hr_mono)


class TestAgainstFixedStepSearch:
    """The search before rank breakpoints (`reference.fixed_step_bracket`,
    bisection to 1e-3) is the oracle, on the trials of acceptance criteria
    6 and 8 (simulator seeds 0-9; criterion 8 uses seed 9)."""

    @staticmethod
    def _flips(trial, config, draws, lo, hi):
        """How often the stop rule's verdict changes over [lo, hi], read at
        the midpoint of every interval between rank breakpoints."""
        reads, crossed, _ = phasetip.tipping._stop_rule(config)
        lines = transform_lines(trial, config.effect, draws)
        edges = np.concatenate([[lo], rank_breakpoints(trial, lines, lo, hi), [hi]])
        verdicts = [
            crossed(reads(apply_transform(trial, TransformParams(config.effect, float(g)), draws)))
            for g in 0.5 * (edges[:-1] + edges[1:])
        ]
        return sum(a != b for a, b in zip(verdicts, verdicts[1:]))

    @pytest.mark.parametrize("effect", list(Effect))
    @pytest.mark.parametrize("threshold", list(Threshold))
    def test_tip_in_oracle_bracket_and_independent_of_grid_step(self, effect, threshold):
        for seed in range(10):
            trial = simulate_trial(SimConfig(), seed=seed)
            results = {
                step: find_tipping(trial, SearchConfig(
                    effect=effect, threshold=threshold, grid_step=step,
                    mi_replicates=2, seed=seed))
                for step in (0.01, 0.1)
            }
            config = SearchConfig(effect=effect, threshold=threshold, grid_step=0.1, seed=seed)
            for fine, coarse in zip(results[0.01].replicates, results[0.1].replicates):
                assert fine.tip == coarse.tip, (seed, fine.replicate_id)
                draws = make_draws(trial, effect, config.imputation, seed, fine.replicate_id)
                lo, hi = sorted(fixed_step_bracket(trial, config, draws))
                if lo <= fine.tip <= hi:
                    continue
                # the oracle bisected onto another crossing: the verdict goes
                # clear -> crossed at both, so crossed -> clear in between
                span = (min(lo, fine.tip) - 1e-4, min(max(hi, fine.tip) + 1e-4, 1.0)
                        if effect is Effect.SHRINK_EXPERIMENTAL else max(hi, fine.tip) + 1e-4)
                assert self._flips(trial, config, draws, *span) >= 3, (seed, fine.tip, lo, hi)


class TestProbeBudget:
    """Probes per replicate at CLI defaults on the calibrated seed-6 trial:
    the requests `_probe_round` answers, per distinct draw set."""

    @pytest.mark.parametrize("effect", list(Effect))
    @pytest.mark.parametrize("threshold", list(Threshold))
    def test_at_most_20_probes_per_replicate(self, monkeypatch, effect, threshold):
        probes = collections.Counter()
        real = phasetip.tipping._probe_round

        def probe_round(trial, config, requests):
            probes.update(id(lines) for lines, _ in requests)
            return real(trial, config, requests)

        monkeypatch.setattr(phasetip.tipping, "_probe_round", probe_round)
        res = find_tipping(simulate_trial(SimConfig(), seed=6),
                           SearchConfig(effect=effect, threshold=threshold))
        assert all(o.tip is not None and not o.degenerate for o in res.replicates)
        searches = 20 if effect is Effect.SHRINK_EXPERIMENTAL else 1   # cutoff imputation
        assert len(probes) == searches
        assert sum(probes.values()) / searches <= 20


class TestBatchedProbe:
    """A round answered in blocks (`_probe_round`) gives every probe the
    number its stop rule reads on `apply_transform` of its own draws and
    factor, bit for bit, and the same note or error: under rule a the
    p-value of `logrank_test` (one `logrank_rows` pass per block) or the
    Wald p-value, under rule b the monotherapy-phase HR."""

    IMPUTED = [0.5, 1.0, 2.0, 2.5, 4.0, 7.0, 9.0]
    FACTORS = {Effect.INFLATE_CONTROL: [1.0, 1.2, 1.5, 2.0, 2.5, 4.0],
               Effect.SHRINK_EXPERIMENTAL: [1.0, 0.8, 0.5, 0.25, 0.1]}

    @staticmethod
    def _one_at_a_time(trial, config, draws, gamma):
        reads = phasetip.tipping._stop_rule(config)[0]
        try:
            return reads(apply_transform(trial, TransformParams(config.effect, gamma), draws)), None
        except EstimationError as err:
            return None, str(err)

    def _check(self, trial, effect, draw_sets, gammas, **rule):
        config = SearchConfig(effect=effect, **rule)
        requests = [(transform_lines(trial, effect, d), g) for d, g in zip(draw_sets, gammas)]
        try:
            expected = [self._one_at_a_time(trial, config, d, g)
                        for d, g in zip(draw_sets, gammas)]
        except DataError as err:
            with pytest.raises(DataError, match=str(err)):
                phasetip.tipping._probe_round(trial, config, requests)
            return "refused"
        assert phasetip.tipping._probe_round(trial, config, requests) == expected
        return expected

    def _random_round(self, records, effect, data, **rule):
        trial = Trial.from_records(records)
        subjects = np.flatnonzero(needs_draw(trial, effect))
        k = data.draw(st.integers(1, 2 * phasetip.tipping._ROW_BLOCK + 1))
        draw_sets = [
            ImputationDraws(subjects, np.array(
                [data.draw(st.sampled_from(self.IMPUTED)) for _ in subjects], dtype=float))
            for r in range(k)
        ]
        gammas = [data.draw(st.sampled_from(self.FACTORS[effect])) for _ in range(k)]
        expected = self._check(trial, effect, draw_sets, gammas, **rule)
        event("refused" if expected == "refused" else
              "some probe unreadable" if any(v is None for v, _ in expected) else "read all")

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(), effect=st.sampled_from(list(Effect)), data=st.data())
    def test_bit_identical_to_one_probe_at_a_time(self, records, effect, data):
        self._random_round(records, effect, data)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(), effect=st.sampled_from(list(Effect)), data=st.data())
    def test_wald_p_bit_identical_to_one_probe_at_a_time(self, records, effect, data):
        self._random_round(records, effect, data, p_source="wald")

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records=trials(), effect=st.sampled_from(list(Effect)), data=st.data())
    def test_rule_b_bit_identical_to_one_probe_at_a_time(self, records, effect, data):
        self._random_round(records, effect, data, threshold=Threshold.NEUTRALIZE)

    def _draws(self, trial, effect, values):
        subjects = np.flatnonzero(needs_draw(trial, effect))
        return ImputationDraws(subjects, np.array(values, dtype=float))

    def test_no_events_after_the_transform(self):
        # the one event is a control event in monotherapy; inflated past its
        # imputed censoring time, it is censored
        trial = Trial.from_records([rec("c", C, 2.0, 1, mono=1.0), rec("e", E, 3.0, 0)])
        draws = self._draws(trial, Effect.INFLATE_CONTROL, [2.5])
        expected = self._check(trial, Effect.INFLATE_CONTROL, [draws] * 3, [1.0, 2.0, 1.2])
        assert expected[1] == (None, "log-rank needs at least one event")
        assert expected[0][0] is not None and expected[2][0] is not None

    def test_one_arm(self):
        trial = Trial.from_records([rec("e1", E, 2.0, 1, mono=1.0), rec("e2", E, 3.0, 1)])
        draws = self._draws(trial, Effect.SHRINK_EXPERIMENTAL, [])
        assert self._check(trial, Effect.SHRINK_EXPERIMENTAL, [draws] * 2, [1.0, 0.5]) == "refused"

    def test_ties_and_one_at_risk_at_the_last_event_time(self):
        # at factor 0.5 the experimental event in monotherapy moves to 2.0,
        # tying the control event there; the last event time, 7.0, has one
        # subject at risk
        trial = Trial.from_records([
            rec("e1", E, 3.0, 1, mono=1.0), rec("e2", E, 2.0, 0, mono=0.5),
            rec("c1", C, 2.0, 1), rec("c2", C, 7.0, 1), rec("c3", C, 1.0, 0),
        ])
        draws = [self._draws(trial, Effect.SHRINK_EXPERIMENTAL, [v]) for v in (1.5, 4.0, 9.0)]
        expected = self._check(trial, Effect.SHRINK_EXPERIMENTAL, draws, [0.5, 0.5, 1.0])
        assert all(p is not None for p, _ in expected)


class TestReportedPoints:
    """`find_tipping` evaluates the point each search reports after all
    searches end, in one `_points` call over every draw set; each point is
    `evaluate_at` of its own replicate's draws alone, bit for bit."""

    @staticmethod
    def _check(trial, config):
        result = find_tipping(trial, config)
        points = [o for o in result.replicates if o.point is not None]
        for outcome in points:
            draws = make_draws(trial, config.effect, config.imputation, config.seed,
                               outcome.replicate_id)
            alone = evaluate_at(trial, TransformParams(config.effect, outcome.point.gamma),
                                draws, config.p_source)
            assert repr(outcome.point) == repr(alone)
        return result, points

    @pytest.mark.parametrize("p_source", ["logrank", "wald"])
    @pytest.mark.parametrize("threshold", list(Threshold))
    @pytest.mark.parametrize("effect", list(Effect))
    def test_each_point_is_its_replicates_alone(self, effect, threshold, p_source):
        config = SearchConfig(effect=effect, threshold=threshold, p_source=p_source,
                              imputation="fitted", mi_replicates=7, seed=2, grid_step=0.05)
        result, points = self._check(fast_records(), config)
        # more points than one row block, from distinct draw sets
        assert len(points) > phasetip.tipping._ROW_BLOCK
        assert len({o.point.gamma for o in points}) > 1

    def test_degenerate_start_reports_factor_one(self):
        # significant at the start, but not at this alpha level
        config = SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL, alpha_level=1e-300,
                              mi_replicates=3)
        result, points = self._check(fast_records(), config)
        assert result.degenerate and len(points) == 3
        assert all(o.point.gamma == 1.0 for o in points)

    def test_unevaluable_start_reports_factor_one(self):
        # only the experimental arm enters monotherapy, so the three-covariate
        # fit is collinear (trt_x_mono equals mono) at every factor
        records = fast_records()
        trial = Trial.from_records(
            rec(r.subject_id, r.arm, r.s, r.delta,
                mono=r.mono_start if r.arm is E else None) for r in records)
        config = SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL,
                              threshold=Threshold.NEUTRALIZE, mi_replicates=3)
        result, points = self._check(trial, config)
        assert len(points) == 3 and result.tip is None
        for outcome in points:
            assert outcome.point.gamma == 1.0 and outcome.point.hr_mono is None
            assert outcome.flags[0].startswith("start unevaluable")
