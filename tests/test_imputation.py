"""Imputation model fits (hand MLEs), conditional sampling, draw selection,
and RNG keying."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from conftest import C, E, draws_by_id, rec, trials
from phasetip.counterfactual import (
    Effect,
    ExponentialModel,
    _seed_words,
    fit_censoring_model,
    fit_mono_event_model,
    keyed_rng,
    make_draws,
    needs_draw,
)
from phasetip.errors import DataError, EstimationError
from phasetip.records import Trial
from phasetip.simulate import SimConfig, simulate_trial
from reference import make_draws_per_subject

# ints at the edges of their 32-bit word count: SeedSequence splits each
# int into 32-bit words, so these make entropy rows of 3 to 6 words
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]


def word_ints(top):
    return st.sampled_from([n for n in WORD_EDGES if n <= top]) | st.integers(0, top)


class TestCutoffImputation:
    def test_returns_cutoff(self):
        records = Trial.from_records([rec("s", C, 10, 1, cutoff=30, mono=4.0),
                                      rec("t", C, 29.9, 1, cutoff=30, mono=4.0)])
        draws = make_draws(records, Effect.INFLATE_CONTROL, "cutoff")
        assert draws_by_id(draws, records) == {"s": 30.0, "t": 30.0}

    def test_requires_event(self):
        # a censored subject's censoring time is observed: it gets no draw
        records = Trial.from_records([rec("s", C, 10, 0, cutoff=30, mono=4.0)])
        assert make_draws(records, Effect.INFLATE_CONTROL, "cutoff").values.size == 0


class TestCensoringModel:
    def test_exponential_mle_two_censorings(self):
        # censorings as events: 2 events over exposure 2 + 4 = 6
        records = Trial.from_records([rec("a", C, 2, 0), rec("b", C, 4, 0)])
        model = fit_censoring_model(records)
        assert model.rate == pytest.approx(2 / 6, abs=1e-12)
        assert model.n == 2

    def test_exponential_mle_mixed(self):
        # one censoring over exposure 3 + 3 = 6
        records = Trial.from_records([rec("a", C, 3, 0), rec("b", C, 3, 1)])
        model = fit_censoring_model(records)
        assert model.rate == pytest.approx(1 / 6, abs=1e-12)

    def test_all_events_error(self):
        with pytest.raises(EstimationError, match="censored"):
            fit_censoring_model(Trial.from_records([rec("a", C, 3, 1), rec("b", C, 5, 1)]))


class TestConditionalSampling:
    """`ExponentialModel.beyond`, the one conditional sampler of both fits."""

    def test_exponential_floor_zero_is_unconditional(self):
        model = fit_censoring_model(Trial.from_records([rec("a", C, 2, 0), rec("b", C, 4, 0)]))
        rng = np.random.default_rng(1)
        draws = np.array([model.beyond(0.0, rng) for _ in range(5000)])
        assert draws.min() >= 0
        assert draws.mean() == pytest.approx(1 / model.rate, rel=0.1)

    def test_memorylessness_against_oracle_samples(self):
        # (draw - floor) must be exponential(rate), same as unconditional draws
        model = fit_censoring_model(Trial.from_records([rec("a", C, 2, 0), rec("b", C, 4, 0)]))
        rng = np.random.default_rng(2024)
        floor = 7.5
        shifted = np.array([model.beyond(floor, rng) - floor for _ in range(10_000)])
        oracle = np.random.default_rng(77).exponential(1 / model.rate, 10_000)
        stat, p = ks_2samp(shifted, oracle)
        assert p > 0.01

    def test_zero_residual_is_redrawn(self):
        class Zeros:
            """A generator whose first two exponentials are exactly zero."""

            def __init__(self):
                self.draws = [0.0, 0.0, 2.5]

            def exponential(self, scale):
                return self.draws.pop(0)

        rng = Zeros()
        assert ExponentialModel(rate=0.5, n=1, exposure=2.0).beyond(7.0, rng) == 9.5
        assert rng.draws == []

    def test_non_positive_rate_rejected(self):
        with pytest.raises(EstimationError, match="positive rate"):
            ExponentialModel(rate=0.0, n=0, exposure=1.0)


class TestMonoEventModel:
    def test_hand_mle_mixed(self):
        # durations 3 (event) and 3 (censored): rate = 1/6
        records = Trial.from_records([
            rec("a", E, 5, 1, mono=2.0),
            rec("b", E, 4, 0, mono=1.0),
        ])
        model = fit_mono_event_model(records)
        assert model.rate == pytest.approx(1 / 6, abs=1e-12)
        assert model.n == 1
        assert model.exposure == pytest.approx(6.0)

    def test_hand_mle_single_event(self):
        # duration 2, one event: rate = 0.5
        model = fit_mono_event_model(Trial.from_records([rec("a", E, 3, 1, mono=1.0)]))
        assert model.rate == pytest.approx(0.5, abs=1e-12)

    def test_control_and_non_mono_ignored(self):
        records = Trial.from_records([
            rec("a", E, 5, 1, mono=2.0),
            rec("c", C, 4, 1, mono=1.0),   # wrong arm
            rec("d", E, 6, 1),             # never transitioned
        ])
        model = fit_mono_event_model(records)
        assert model.exposure == pytest.approx(3.0)

    def test_all_censored_error(self):
        with pytest.raises(EstimationError, match="events"):
            fit_mono_event_model(Trial.from_records([rec("a", E, 5, 0, mono=2.0)]))


class TestEventTimeImputation:
    def test_always_beyond_observed_time(self):
        model = fit_mono_event_model(Trial.from_records([rec("a", E, 5, 1, mono=2.0)]))
        rng = np.random.default_rng(5)
        for _ in range(500):
            assert model.beyond(7.0, rng) > 7.0

    def test_mean_residual_matches_model_rate(self):
        model = fit_mono_event_model(Trial.from_records([rec("a", E, 5, 1, mono=2.0)]))  # rate 1/3
        rng = np.random.default_rng(6)
        n = 10_000
        residuals = np.array([model.beyond(7.0, rng) - 7.0 for _ in range(n)])
        se = (1 / model.rate) / math.sqrt(n)
        assert abs(residuals.mean() - 1 / model.rate) < 3 * se

    def test_huge_rate_collapses_to_observed_time(self):
        model = ExponentialModel(rate=1e6, n=1, exposure=1e-6)
        rng = np.random.default_rng(7)
        close = sum(model.beyond(7.0, rng) - 7.0 < 1e-4 for _ in range(1000))
        assert close > 990

    def test_requires_censored_record(self):
        # an observed event's time is known: it gets no draw
        records = Trial.from_records([rec("a", E, 5, 1, mono=2.0),
                                      rec("b", E, 7, 1, mono=3.0)])
        assert make_draws(records, Effect.SHRINK_EXPERIMENTAL).values.size == 0


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=word_ints(2**80), replicate=word_ints(2**70),
           keys=st.lists(word_ints(2**64 - 1), min_size=1, max_size=6))
    def test_seed_words_are_seed_sequence_state(self, seed, replicate, keys):
        got = _seed_words(seed, replicate, np.array(keys, dtype=np.uint64))
        want = np.array([np.random.SeedSequence([seed, replicate, key]).generate_state(4, np.uint64)
                         for key in keys])
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=word_ints(2**70), replicate=word_ints(2**40), subject_id=st.text(max_size=8))
    def test_keyed_rng_is_the_seed_sequence_stream(self, seed, replicate, subject_id):
        key = int.from_bytes(hashlib.sha256(subject_id.encode("utf-8")).digest()[:8], "little")
        want = np.random.default_rng(np.random.SeedSequence([seed, replicate, key]))
        got = keyed_rng(seed, replicate, subject_id).uniform(size=4)
        assert got.tobytes() == want.uniform(size=4).tobytes()

    def test_negative_seed_or_replicate_refused(self):
        for seed, replicate in ((-1, 0), (0, -1)):
            with pytest.raises(DataError, match="non-negative integer, got -1"):
                keyed_rng(seed, replicate, "x")


def draws_outcome(make, trial, effect, imputation, seed, replicate_id):
    """The bytes of a draw set, or the error that refused it."""
    try:
        draws = make(trial, effect, imputation, seed, replicate_id)
    except EstimationError as error:
        return type(error), str(error)
    return draws.subjects.tobytes(), draws.values.dtype, draws.values.tobytes()


class TestAgainstPerSubjectStreams:
    """`make_draws` against `reference.make_draws_per_subject`, byte for byte."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(records=trials(), effect=st.sampled_from(list(Effect)),
           imputation=st.sampled_from(["auto", "cutoff", "fitted"]),
           seed=word_ints(2**70), replicate=word_ints(2**33))
    def test_small_trials(self, records, effect, imputation, seed, replicate):
        trial = Trial.from_records(records)
        args = (trial, effect, imputation, seed, replicate)
        assert draws_outcome(make_draws, *args) == draws_outcome(make_draws_per_subject, *args)

    @pytest.mark.parametrize("effect, imputation", [
        (Effect.INFLATE_CONTROL, "fitted"),
        (Effect.SHRINK_EXPERIMENTAL, "auto"),
    ])
    def test_seed6_replicates(self, effect, imputation):
        trial = simulate_trial(SimConfig(), seed=6)
        for replicate in range(20):
            args = (trial, effect, imputation, 0, replicate)
            got = make_draws(*args)
            assert got.values.size > 30
            assert got.values.tobytes() == make_draws_per_subject(*args).values.tobytes()


def _varied_dataset(n=80, seed=31):
    """Both arms, events and censorings in and out of monotherapy, and
    censoring times both on and before the cutoff."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        s = float(rng.uniform(1, 30))
        cutoff = s if rng.random() < 0.3 else s + float(rng.uniform(0, 10))
        mono = float(s * rng.uniform(0.1, 0.9)) if rng.random() < 0.6 else None
        records.append(rec(f"id{i}", E if rng.random() < 0.5 else C, s,
                           int(rng.random() < 0.6), cutoff=cutoff, mono=mono))
    return records


class TestMakeDraws:
    def _dataset(self):
        return Trial.from_records([
            rec("c_ev", C, 10, 1, cutoff=30, mono=6.0),
            rec("c_cens", C, 12, 0, cutoff=12, mono=5.0),
            rec("c_plain", C, 8, 1, cutoff=30),
            rec("e_ev", E, 9, 1, cutoff=30, mono=4.0),
            rec("e_cens", E, 11, 0, cutoff=11, mono=4.0),
        ])

    def test_effect1_cutoff_targets_control_mono_events(self):
        data = self._dataset()
        draws = make_draws(data, Effect.INFLATE_CONTROL, "cutoff", seed=1)
        assert draws_by_id(draws, data) == {"c_ev": 30.0}
        assert np.array_equal(draws.values, data.cutoff[draws.subjects])

    def test_effect1_auto_picks_cutoff_when_admin_censoring_dominates(self):
        data = self._dataset()
        draws = make_draws(data, Effect.INFLATE_CONTROL, "auto", seed=1)
        # both censored rows sit on the cutoff
        assert draws.subjects.size and np.array_equal(draws.values, data.cutoff[draws.subjects])

    def test_effect1_auto_picks_fitted_otherwise(self):
        records = Trial.from_records([
            rec("c_ev", C, 10, 1, cutoff=30, mono=6.0),
            rec("c1", C, 12, 0, cutoff=40),
            rec("c2", E, 9, 0, cutoff=40),
            rec("c3", E, 11, 0, cutoff=11),
        ])
        draws = make_draws(records, Effect.INFLATE_CONTROL, "auto", seed=1)
        assert draws_by_id(draws, records).keys() == {"c_ev"}
        assert (draws.values > records.s[draws.subjects]).all()
        assert (draws.values != records.cutoff[draws.subjects]).all()

    def test_effect2_targets_experimental_mono_censored(self):
        data = self._dataset()
        draws = make_draws(data, Effect.SHRINK_EXPERIMENTAL, seed=1)
        by_id = draws_by_id(draws, data)
        assert set(by_id) == {"e_cens"}
        assert by_id["e_cens"] > 11.0

    def test_draws_reproducible_and_replicate_dependent(self):
        data = self._dataset()
        a = make_draws(data, Effect.SHRINK_EXPERIMENTAL, seed=42, replicate_id=3)
        b = make_draws(data, Effect.SHRINK_EXPERIMENTAL, seed=42, replicate_id=3)
        c = make_draws(data, Effect.SHRINK_EXPERIMENTAL, seed=42, replicate_id=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("effect", list(Effect))
    def test_exactly_the_subjects_needs_draw_selects(self, effect):
        records = _varied_dataset()
        trial = Trial.from_records(records)
        draws = make_draws(trial, effect, "fitted", seed=2)
        assert draws.subjects.tolist() == np.flatnonzero(needs_draw(trial, effect)).tolist()
        assert len(draws.values) == len(draws.subjects) > 0
        assert (draws.values > trial.s[draws.subjects]).all()

    @pytest.mark.parametrize("effect, imputation", [
        (Effect.INFLATE_CONTROL, "cutoff"),
        (Effect.INFLATE_CONTROL, "fitted"),
        (Effect.SHRINK_EXPERIMENTAL, "fitted"),
    ])
    def test_draws_do_not_depend_on_row_order(self, effect, imputation):
        records = _varied_dataset()
        shuffled = list(records)
        random.Random(5).shuffle(shuffled)
        assert shuffled != records
        base = draws_by_id(make_draws(Trial.from_records(records), effect, imputation, 3, 1),
                           records)
        moved = draws_by_id(make_draws(Trial.from_records(shuffled), effect, imputation, 3, 1),
                            shuffled)
        assert base and set(moved) == set(base)
        for sid, value in base.items():
            if imputation == "cutoff":
                assert moved[sid] == value
            else:
                # the model's exposure is summed in row order
                assert moved[sid] == pytest.approx(value, rel=1e-12, abs=0)
