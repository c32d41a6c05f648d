"""Transform branch tables (hand-derived), monotonicity, rank preservation,
and the naive variant's event-count invariant."""

import numpy as np
import pytest

from conftest import C, E, draws_by_id, rec
from reference import transform_effect1, transform_effect2, with_outcome
from phasetip.counterfactual import (
    Effect,
    TransformParams,
    apply_transform,
    make_draws,
    naive_transform,
)
from phasetip.errors import DataError
from phasetip.records import Trial


class TestWithOutcome:
    def test_with_outcome_extends_cutoff(self):
        r = rec("s1", C, 10.0, 1, cutoff=12.0)
        out = with_outcome(r, 15.0, 0)
        assert out.s == 15.0
        assert out.delta == 0
        assert out.cutoff == 15.0

    def test_with_outcome_keeps_cutoff_when_inside(self):
        r = rec("s1", C, 10.0, 1, cutoff=30.0)
        assert with_outcome(r, 12.0, 1).cutoff == 30.0


class TestEffect1Branches:
    def test_identity_at_gamma_one(self):
        r = rec("s", C, 10, 1, cutoff=30, mono=6.0)
        out = transform_effect1(r, 1.0, imputed_r=30.0)
        assert (out.s, out.delta, out.cutoff) == (r.s, r.delta, r.cutoff)

    def test_event_stays_event(self):
        # x=6, s=10, gamma=2: t' = 6 + 2*4 = 14 <= r=30
        r = rec("s", C, 10, 1, cutoff=30, mono=6.0)
        out = transform_effect1(r, 2.0, imputed_r=30.0)
        assert (out.s, out.delta) == (14.0, 1)

    def test_event_becomes_censored(self):
        # t' = 14 > r=12: censored at r
        r = rec("s", C, 10, 1, cutoff=30, mono=6.0)
        out = transform_effect1(r, 2.0, imputed_r=12.0)
        assert (out.s, out.delta) == (12.0, 0)

    def test_censored_record_unchanged(self):
        r = rec("s", C, 10, 0, cutoff=30, mono=6.0)
        assert transform_effect1(r, 5.0) is r

    def test_experimental_and_non_mono_pass_through(self):
        assert transform_effect1(rec("a", E, 10, 1, mono=6.0), 2.0) is not None
        assert transform_effect1(rec("a", E, 10, 1, mono=6.0), 2.0).s == 10
        assert transform_effect1(rec("b", C, 10, 1), 2.0).s == 10

    def test_missing_imputed_censoring_time(self):
        r = rec("s", C, 10, 1, cutoff=30, mono=6.0)
        with pytest.raises(DataError, match="imputed censoring"):
            transform_effect1(r, 2.0)

    def test_gamma_below_one_rejected(self):
        for bad in (0.9, float("nan")):
            with pytest.raises(DataError, match="inflation"):
                transform_effect1(rec("s", C, 10, 1, mono=6.0), bad, 30.0)


class TestEffect2Branches:
    def test_identity_at_gamma_one(self):
        r = rec("s", E, 10, 0, cutoff=30, mono=4.0)
        out = transform_effect2(r, 1.0, imputed_t=14.0)
        assert out is r  # t' = t-hat > s: unchanged

    def test_event_shortened(self):
        # x=4, s=10, gamma=0.5: t' = 4 + 0.5*6 = 7
        r = rec("s", E, 10, 1, cutoff=30, mono=4.0)
        out = transform_effect2(r, 0.5)
        assert (out.s, out.delta) == (7.0, 1)

    def test_censored_event_uncovered(self):
        # t-hat=14, gamma=0.5: t' = 4 + 5 = 9 <= 10: imputed event
        r = rec("s", E, 10, 0, cutoff=30, mono=4.0)
        out = transform_effect2(r, 0.5, imputed_t=14.0)
        assert (out.s, out.delta) == (9.0, 1)

    def test_censored_stays_censored_when_shrunk_time_beyond(self):
        # t-hat=25, gamma=0.9: t' = 4 + 0.9*21 = 22.9 > 10: unchanged
        r = rec("s", E, 10, 0, cutoff=30, mono=4.0)
        out = transform_effect2(r, 0.9, imputed_t=25.0)
        assert (out.s, out.delta) == (10.0, 0)

    def test_boundary_shrunk_exactly_to_censor_time_is_event(self):
        # t' == r counts as an observed event
        r = rec("s", E, 10, 0, cutoff=30, mono=4.0)
        out = transform_effect2(r, 0.5, imputed_t=16.0)
        assert (out.s, out.delta) == (10.0, 1)

    def test_control_and_non_mono_pass_through(self):
        assert transform_effect2(rec("a", C, 10, 1, mono=6.0), 0.5).s == 10
        assert transform_effect2(rec("b", E, 10, 1), 0.5).s == 10

    def test_missing_imputed_event_time(self):
        r = rec("s", E, 10, 0, mono=4.0)
        with pytest.raises(DataError, match="imputed event"):
            transform_effect2(r, 0.5)

    def test_gamma_out_of_range_rejected(self):
        r = rec("s", E, 10, 1, mono=4.0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(DataError, match="shrinkage"):
                transform_effect2(r, bad)


def _random_dataset(rng, n=60):
    records = []
    for i in range(n):
        arm = E if rng.random() < 0.6 else C
        cutoff = float(rng.uniform(20, 40))
        s = min(float(rng.exponential(10) + 0.2), cutoff)
        delta = int(rng.random() < 0.7) if s < cutoff else 0
        mono = float(s * rng.uniform(0.2, 0.95)) if rng.random() < 0.5 else None
        records.append(rec(i, arm, s, delta, cutoff=cutoff, mono=mono))
    return Trial.from_records(records)


class TestTransformProperties:
    def test_mono_start_at_follow_up_passes_through(self):
        # no time in monotherapy: no draw is made, and no transform moves them
        at_s = [rec("c1", C, 5.0, 1, cutoff=40, mono=5.0),
                rec("e1", E, 6.0, 0, cutoff=40, mono=6.0)]
        records = Trial.from_records([*_random_dataset(np.random.default_rng(12)), *at_s])
        for effect, gammas in ((Effect.INFLATE_CONTROL, [1.0, 1.5, 3.0, 10.0]),
                               (Effect.SHRINK_EXPERIMENTAL, [1.0, 0.5, 0.01])):
            draws = make_draws(records, effect, seed=1)
            assert not {"c1", "e1"} & set(draws_by_id(draws, records))
            for g in gammas:
                out = apply_transform(records, TransformParams(effect, g), draws)
                assert list(out)[-2:] == at_s
                assert list(naive_transform(Trial.from_records(at_s), effect, g)) == at_s
        assert transform_effect1(at_s[0], 2.0) is at_s[0]
        assert transform_effect2(at_s[1], 0.5) is at_s[1]

    def test_identity_bit_for_bit_both_effects(self):
        rng = np.random.default_rng(404)
        records = _random_dataset(rng)
        for effect in Effect:
            draws = make_draws(records, effect, imputation="auto", seed=9, replicate_id=0)
            out = apply_transform(records, TransformParams(effect, 1.0), draws)
            for a, b in zip(records, out):
                assert (a.s, a.delta, a.cutoff) == (b.s, b.delta, b.cutoff)

    def test_effect1_monotone_in_gamma_with_fixed_draws(self):
        rng = np.random.default_rng(77)
        records = _random_dataset(rng)
        draws = make_draws(records, Effect.INFLATE_CONTROL, "fitted", seed=3)
        gammas = [1.0, 1.3, 1.8, 2.5, 4.0, 7.0]
        results = [
            apply_transform(records, TransformParams(Effect.INFLATE_CONTROL, g), draws)
            for g in gammas
        ]
        for i, _ in enumerate(records):
            s_path = [res[i].s for res in results]
            d_path = [res[i].delta for res in results]
            assert all(a <= b + 1e-12 for a, b in zip(s_path, s_path[1:]))
            flips = [(a, b) for a, b in zip(d_path, d_path[1:]) if a != b]
            assert all(f == (1, 0) for f in flips)
            assert len(flips) <= 1

    def test_effect2_monotone_in_gamma_with_fixed_draws(self):
        rng = np.random.default_rng(78)
        records = _random_dataset(rng)
        draws = make_draws(records, Effect.SHRINK_EXPERIMENTAL, seed=4)
        gammas = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        results = [
            apply_transform(records, TransformParams(Effect.SHRINK_EXPERIMENTAL, g), draws)
            for g in gammas
        ]
        for i, _ in enumerate(records):
            s_path = [res[i].s for res in results]
            d_path = [res[i].delta for res in results]
            assert all(a <= b + 1e-12 for a, b in zip(s_path, s_path[1:]))
            flips = [(a, b) for a, b in zip(d_path, d_path[1:]) if a != b]
            assert all(f == (1, 0) for f in flips)
            assert len(flips) <= 1

    def test_rank_preservation_equal_mono_start(self):
        r1 = rec("a", C, 8, 1, cutoff=50, mono=3.0)
        r2 = rec("b", C, 12, 1, cutoff=50, mono=3.0)
        for g in (1.0, 1.5, 2.0, 3.5):
            o1 = transform_effect1(r1, g, imputed_r=50.0)
            o2 = transform_effect1(r2, g, imputed_r=50.0)
            if o1.delta == 1 and o2.delta == 1:
                assert o1.s < o2.s

    def test_counterfactual_never_violates_censoring(self):
        rng = np.random.default_rng(55)
        records = _random_dataset(rng, n=80)
        for effect, gammas in (
            (Effect.INFLATE_CONTROL, [1.2, 2.0, 5.0]),
            (Effect.SHRINK_EXPERIMENTAL, [0.2, 0.6, 0.95]),
        ):
            draws = make_draws(records, effect, "fitted" if effect is Effect.INFLATE_CONTROL else "auto", seed=6)
            imputed = draws_by_id(draws, records)
            for g in gammas:
                out = apply_transform(records, TransformParams(effect, g), draws)
                for orig, new in zip(records, out):
                    if orig.arm is not effect.target_arm or not orig.in_mono:
                        continue
                    if effect is Effect.INFLATE_CONTROL and orig.delta == 1:
                        cens = imputed[orig.subject_id]
                        if new.delta == 1:
                            assert new.s <= cens
                        else:
                            assert new.s == cens
                    elif effect is Effect.SHRINK_EXPERIMENTAL and orig.delta == 0:
                        if new.delta == 1:
                            assert new.s <= orig.s
                        else:
                            assert new.s == orig.s


class TestNaiveVariant:
    def test_gamma_one_is_identity(self):
        rng = np.random.default_rng(8)
        records = _random_dataset(rng)
        out = naive_transform(records, Effect.INFLATE_CONTROL, 1.0)
        for a, b in zip(records, out):
            assert (a.s, a.delta) == (b.s, b.delta)

    def test_control_censored_record_rescaled(self):
        # x=6, s=10, gamma=1.5: s' = 6 + 1.5*4 = 12, still censored
        r = rec("s", C, 10, 0, cutoff=11, mono=6.0)
        out = naive_transform(Trial.from_records([r]), Effect.INFLATE_CONTROL, 1.5)[0]
        assert (out.s, out.delta) == (12.0, 0)
        assert out.cutoff == 12.0  # extended to keep the record valid

    def test_event_count_preserved(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            records = _random_dataset(rng, n=40)
            effect = Effect.INFLATE_CONTROL if rng.random() < 0.5 else Effect.SHRINK_EXPERIMENTAL
            g = float(rng.uniform(1, 6)) if effect is Effect.INFLATE_CONTROL else float(rng.uniform(0.05, 1))
            out = naive_transform(records, effect, g)
            assert sum(r.delta for r in out) == sum(r.delta for r in records)
