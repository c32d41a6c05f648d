"""Imputation model fits (hand MLEs), conditional sampling, and RNG keying."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import C, E, rec
from phasetip.counterfactual import (
    Effect,
    fit_censoring_model,
    fit_mono_event_model,
    impute_censoring_cutoff,
    impute_event_time,
    keyed_rng,
    make_draws,
    sample_censoring_conditional,
)
from phasetip.errors import DataError, EstimationError


class TestCutoffImputation:
    def test_returns_cutoff(self):
        assert impute_censoring_cutoff(rec("s", C, 10, 1, cutoff=30)) == 30.0
        assert impute_censoring_cutoff(rec("s", C, 29.9, 1, cutoff=30)) == 30.0

    def test_requires_event(self):
        with pytest.raises(DataError, match="event"):
            impute_censoring_cutoff(rec("s", C, 10, 0, cutoff=30))


class TestCensoringModel:
    def test_exponential_mle_two_censorings(self):
        # censorings as events: 2 events over exposure 2 + 4 = 6
        records = [rec("a", C, 2, 0), rec("b", C, 4, 0)]
        model = fit_censoring_model(records)
        assert model.rate == pytest.approx(2 / 6, abs=1e-12)
        assert model.n_censorings == 2

    def test_exponential_mle_mixed(self):
        # one censoring over exposure 3 + 3 = 6
        records = [rec("a", C, 3, 0), rec("b", C, 3, 1)]
        model = fit_censoring_model(records)
        assert model.rate == pytest.approx(1 / 6, abs=1e-12)

    def test_all_events_error(self):
        with pytest.raises(EstimationError, match="censored"):
            fit_censoring_model([rec("a", C, 3, 1), rec("b", C, 5, 1)])


class TestConditionalSampling:
    def test_exponential_floor_zero_is_unconditional(self):
        model = fit_censoring_model([rec("a", C, 2, 0), rec("b", C, 4, 0)])
        rng = np.random.default_rng(1)
        draws = np.array([sample_censoring_conditional(model, 0.0, rng) for _ in range(5000)])
        assert draws.min() >= 0
        assert draws.mean() == pytest.approx(1 / model.rate, rel=0.1)

    def test_memorylessness_against_oracle_samples(self):
        # (draw - floor) must be exponential(rate), same as unconditional draws
        model = fit_censoring_model([rec("a", C, 2, 0), rec("b", C, 4, 0)])
        rng = np.random.default_rng(2024)
        floor = 7.5
        shifted = np.array(
            [sample_censoring_conditional(model, floor, rng) - floor for _ in range(10_000)]
        )
        oracle = np.random.default_rng(77).exponential(1 / model.rate, 10_000)
        stat, p = ks_2samp(shifted, oracle)
        assert p > 0.01

    def test_negative_floor_rejected(self):
        model = fit_censoring_model([rec("a", C, 2, 0)])
        with pytest.raises(DataError, match="floor"):
            sample_censoring_conditional(model, -1.0, np.random.default_rng(0))


class TestMonoEventModel:
    def test_hand_mle_mixed(self):
        # durations 3 (event) and 3 (censored): rate = 1/6
        records = [
            rec("a", E, 5, 1, mono=2.0),
            rec("b", E, 4, 0, mono=1.0),
        ]
        model = fit_mono_event_model(records)
        assert model.rate == pytest.approx(1 / 6, abs=1e-12)
        assert model.n_events == 1
        assert model.exposure == pytest.approx(6.0)

    def test_hand_mle_single_event(self):
        # duration 2, one event: rate = 0.5
        model = fit_mono_event_model([rec("a", E, 3, 1, mono=1.0)])
        assert model.rate == pytest.approx(0.5, abs=1e-12)

    def test_control_and_non_mono_ignored(self):
        records = [
            rec("a", E, 5, 1, mono=2.0),
            rec("c", C, 4, 1, mono=1.0),   # wrong arm
            rec("d", E, 6, 1),             # never transitioned
        ]
        model = fit_mono_event_model(records)
        assert model.exposure == pytest.approx(3.0)

    def test_all_censored_error(self):
        with pytest.raises(EstimationError, match="events"):
            fit_mono_event_model([rec("a", E, 5, 0, mono=2.0)])


class TestEventTimeImputation:
    def test_always_beyond_observed_time(self):
        model = fit_mono_event_model([rec("a", E, 5, 1, mono=2.0)])
        record = rec("b", E, 7, 0, mono=3.0)
        rng = np.random.default_rng(5)
        for _ in range(500):
            assert impute_event_time(record, model, rng) > 7.0

    def test_mean_residual_matches_model_rate(self):
        model = fit_mono_event_model([rec("a", E, 5, 1, mono=2.0)])  # rate 1/3
        record = rec("b", E, 7, 0, mono=3.0)
        rng = np.random.default_rng(6)
        n = 10_000
        residuals = np.array([impute_event_time(record, model, rng) - 7.0 for _ in range(n)])
        se = (1 / model.rate) / math.sqrt(n)
        assert abs(residuals.mean() - 1 / model.rate) < 3 * se

    def test_huge_rate_collapses_to_observed_time(self):
        from phasetip.counterfactual import MonoEventModel

        model = MonoEventModel(rate=1e6, n_events=1, exposure=1e-6)
        record = rec("b", E, 7, 0, mono=3.0)
        rng = np.random.default_rng(7)
        close = sum(impute_event_time(record, model, rng) - 7.0 < 1e-4 for _ in range(1000))
        assert close > 990

    def test_requires_censored_record(self):
        model = fit_mono_event_model([rec("a", E, 5, 1, mono=2.0)])
        with pytest.raises(DataError, match="censored"):
            impute_event_time(rec("b", E, 7, 1, mono=3.0), model, np.random.default_rng(0))


class TestRngKeying:
    def test_distinct_replicates_distinct_streams(self):
        a = keyed_rng(1, 0, "subj").uniform(size=4)
        b = keyed_rng(1, 1, "subj").uniform(size=4)
        assert not np.allclose(a, b)

    def test_distinct_subjects_distinct_streams(self):
        a = keyed_rng(1, 0, "s1").uniform(size=4)
        b = keyed_rng(1, 0, "s2").uniform(size=4)
        assert not np.allclose(a, b)

    def test_same_key_reproduces(self):
        assert np.allclose(keyed_rng(5, 2, "x").uniform(size=4), keyed_rng(5, 2, "x").uniform(size=4))


class TestMakeDraws:
    def _dataset(self):
        return [
            rec("c_ev", C, 10, 1, cutoff=30, mono=6.0),
            rec("c_cens", C, 12, 0, cutoff=12, mono=5.0),
            rec("c_plain", C, 8, 1, cutoff=30),
            rec("e_ev", E, 9, 1, cutoff=30, mono=4.0),
            rec("e_cens", E, 11, 0, cutoff=11, mono=4.0),
        ]

    def test_effect1_cutoff_targets_control_mono_events(self):
        draws = make_draws(self._dataset(), Effect.INFLATE_CONTROL, "cutoff", seed=1)
        assert set(draws.values) == {"c_ev"}
        assert draws.values["c_ev"] == 30.0
        assert draws.method == "cutoff"

    def test_effect1_auto_picks_cutoff_when_admin_censoring_dominates(self):
        draws = make_draws(self._dataset(), Effect.INFLATE_CONTROL, "auto", seed=1)
        assert draws.method == "cutoff"  # both censored rows sit on the cutoff

    def test_effect1_auto_picks_fitted_otherwise(self):
        records = [
            rec("c_ev", C, 10, 1, cutoff=30, mono=6.0),
            rec("c1", C, 12, 0, cutoff=40),
            rec("c2", E, 9, 0, cutoff=40),
            rec("c3", E, 11, 0, cutoff=11),
        ]
        draws = make_draws(records, Effect.INFLATE_CONTROL, "auto", seed=1)
        assert draws.method == "fitted"
        assert draws.values["c_ev"] >= 10.0

    def test_effect2_targets_experimental_mono_censored(self):
        draws = make_draws(self._dataset(), Effect.SHRINK_EXPERIMENTAL, seed=1)
        assert set(draws.values) == {"e_cens"}
        assert draws.values["e_cens"] > 11.0

    def test_draws_reproducible_and_replicate_dependent(self):
        data = self._dataset()
        a = make_draws(data, Effect.SHRINK_EXPERIMENTAL, seed=42, replicate_id=3)
        b = make_draws(data, Effect.SHRINK_EXPERIMENTAL, seed=42, replicate_id=3)
        c = make_draws(data, Effect.SHRINK_EXPERIMENTAL, seed=42, replicate_id=4)
        assert a.values == b.values
        assert a.values != c.values
