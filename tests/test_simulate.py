"""Simulator: record validity fuzz, null calibration, censoring structure,
1/sqrt(n) scaling, and the calibrated-default targets."""

import math

import numpy as np
import pytest

from conftest import C, E, rec
from reference import simulate_trial_per_subject
from phasetip.errors import DataError
from phasetip.records import Arm, Trial
from phasetip.simulate import SimConfig, simulate_trial, summarize_trial
from phasetip.survival import cox_fit, phase_hr, risk_table


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SimConfig()
        assert cfg.n_experimental == 337
        assert cfg.n_control == 172

    def test_bad_hazards(self):
        with pytest.raises(DataError, match="combo_event_hazard"):
            SimConfig(combo_event_hazard=0.0)
        with pytest.raises(DataError, match="dropout"):
            SimConfig(dropout_hazard=-0.1)

    def test_cutoff_must_exceed_accrual(self):
        with pytest.raises(DataError, match="cutoff"):
            SimConfig(accrual_months=30, cutoff_months=30)

    @pytest.mark.parametrize("name, bad", [
        *((name, bad) for name in ("combo_event_hazard", "switch_hazard", "mono_event_hazard",
                                   "hr_combo", "hr_mono", "switch_multiplier")
          for bad in (0.0, -1.0, math.nan, math.inf)),
        *((name, bad) for name in ("dropout_hazard", "accrual_months")
          for bad in (-1.0, math.nan, math.inf)),
        *(("cutoff_months", bad) for bad in (-1.0, math.nan, math.inf)),
    ])
    def test_non_finite_or_out_of_range_setting(self, name, bad):
        with pytest.raises(DataError, match=name):
            SimConfig(**{name: bad})

    def test_no_dropout_and_no_accrual_window_are_valid(self):
        SimConfig(dropout_hazard=0.0, accrual_months=0.0)


class TestAgainstPerSubjectReference:
    @pytest.mark.parametrize("config", [
        SimConfig(),
        SimConfig(n_experimental=2000, n_control=1000),
        SimConfig(dropout_hazard=0.0, switch_multiplier=1.7),
        SimConfig(n_experimental=3, n_control=2, accrual_months=0.0, cutoff_months=18),
    ], ids=["default", "3000", "no_dropout", "tiny"])
    def test_columns_bit_for_bit(self, config):
        for seed in range(5):
            trial = simulate_trial(config, seed)
            expected = Trial.from_records(simulate_trial_per_subject(config, seed))
            assert trial.ids == expected.ids
            for name in ("s", "delta", "mono_start", "trt", "cutoff", "stratum"):
                a, b = getattr(trial, name), getattr(expected, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seed, name)


class TestRecordValidity:
    def test_fuzz_emitted_records_hold_invariants(self):
        # 100k subjects across configs; a Trial checks its columns when it
        # is built, so surviving construction is the invariant check
        configs = [
            SimConfig(n_experimental=20_000, n_control=15_000),
            SimConfig(n_experimental=20_000, n_control=10_000,
                      dropout_hazard=0.03, switch_multiplier=1.4),
            SimConfig(n_experimental=20_000, n_control=15_000,
                      combo_event_hazard=0.12, mono_event_hazard=0.02,
                      accrual_months=5, cutoff_months=18),
        ]
        total = 0
        for i, cfg in enumerate(configs):
            records = simulate_trial(cfg, seed=100 + i)
            total += len(records)
            for r in records:
                assert 0 < r.s <= r.cutoff + 1e-12
                if r.mono_start is not None:
                    assert 0 < r.mono_start < r.s
        assert total == 100_000

    def test_arm_sizes_and_ids(self):
        records = simulate_trial(SimConfig(), seed=0)
        assert sum(1 for r in records if r.arm is Arm.EXPERIMENTAL) == 337
        assert sum(1 for r in records if r.arm is Arm.CONTROL) == 172
        assert len({r.subject_id for r in records}) == 509

    def test_reproducible_given_seed(self):
        a = simulate_trial(SimConfig(), seed=42)
        b = simulate_trial(SimConfig(), seed=42)
        assert list(a) == list(b)
        c = simulate_trial(SimConfig(), seed=43)
        assert list(a) != list(c)


class TestCalibrationTargets:
    def test_null_hazard_ratios_recovered(self):
        cfg = SimConfig(n_experimental=250, n_control=250, hr_combo=1.0, hr_mono=1.0)
        betas, ses = [], []
        for seed in range(10):
            records = simulate_trial(cfg, seed=seed)
            fit = cox_fit(risk_table(records), ("trt",))
            betas.append(fit.coef("trt"))
            ses.append(fit.se[0])
        mean_beta = np.mean(betas)
        mc_se = np.mean(ses) / math.sqrt(len(betas))
        assert abs(mean_beta) < 3 * mc_se

    def test_mono_transition_fraction_matches_target(self):
        fracs = [
            summarize_trial(simulate_trial(SimConfig(), seed=s)).mono_fraction
            for s in range(5)
        ]
        assert np.mean(fracs) == pytest.approx(0.369, abs=0.05)

    def test_phase_hrs_recovered_on_average(self):
        combo, mono = [], []
        for seed in range(20):
            trial = simulate_trial(SimConfig(), seed=seed)
            res = phase_hr(trial, risk_table(trial))
            combo.append(res.hr_combo)
            mono.append(res.hr_mono)
        assert np.mean(combo) == pytest.approx(0.811, abs=0.08)
        assert np.mean(mono) == pytest.approx(0.493, abs=0.08)

    def test_medians_near_published_anchors(self):
        summ = summarize_trial(simulate_trial(SimConfig(), seed=6))
        assert summ.arms[Arm.CONTROL].median_pfs == pytest.approx(12.6, abs=2.0)
        assert summ.arms[Arm.EXPERIMENTAL].median_pfs == pytest.approx(14.5, abs=2.0)


class TestCensoringStructure:
    def test_administrative_censoring_dominates_without_dropout(self):
        cfg = SimConfig(dropout_hazard=0.0)
        records = simulate_trial(cfg, seed=3)
        censored = [r for r in records if r.delta == 0]
        assert censored
        for r in censored:
            assert r.s == pytest.approx(r.cutoff, abs=1e-12)

    def test_se_scales_inverse_sqrt_n(self):
        ses = {}
        for n in (400, 1600):
            cfg = SimConfig(n_experimental=n, n_control=n)
            vals = []
            for seed in range(6):
                fit = cox_fit(risk_table(simulate_trial(cfg, seed=seed)), ("trt",))
                vals.append(fit.se[0])
            ses[n] = np.mean(vals)
        assert ses[400] / ses[1600] == pytest.approx(2.0, rel=0.2)


class TestSummarizeTrial:
    def test_empty_input_zero_table(self):
        summ = summarize_trial(Trial.from_records([]))
        for arm in Arm:
            assert summ.arms[arm].n == 0
            assert summ.arms[arm].median_pfs is None
        assert summ.mono_fraction == 0.0
        assert summ.total_events == 0

    def test_hand_tally(self):
        records = [
            rec("e1", E, 14.0, 1, mono=10.0),
            rec("e2", E, 30.0, 0, mono=20.0),
            rec("c1", C, 6.0, 1),
            rec("c2", C, 25.0, 1, mono=24.0),
        ]
        summ = summarize_trial(Trial.from_records(records))
        e = summ.arms[Arm.EXPERIMENTAL]
        c = summ.arms[Arm.CONTROL]
        assert (e.n, e.events, e.censored, e.transitioned) == (2, 1, 1, 2)
        assert (c.n, c.events, c.transitioned) == (2, 2, 1)
        assert summ.mono_fraction == pytest.approx(3 / 4)
        assert summ.total_events == 3

    def test_counts_match_manual_on_simulated(self):
        records = simulate_trial(SimConfig(), seed=1)
        summ = summarize_trial(records)
        for arm in Arm:
            sub = [r for r in records if r.arm is arm]
            assert summ.arms[arm].events == sum(r.delta for r in sub)
            assert summ.arms[arm].transitioned == sum(r.in_mono for r in sub)
