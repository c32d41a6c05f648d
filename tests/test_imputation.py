"""Imputation model fits (hand MLEs), conditional sampling, draw selection,
and RNG keying."""

import hashlib
import math
import random
import tracemalloc
from unittest import mock

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
    make_draw_sets,
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


def _two_drawn(a, b):
    """Experimental subjects `a` and `b`, censored at 5 in monotherapy, and
    one monotherapy event (an id longer than any drawn one) to fit on:
    effect 2 draws for a and b from one floor, so only their streams, keyed
    by (seed, replicate, subject id), tell their draws apart."""
    return Trial.from_records([rec(a, E, 5.0, 0, mono=2.0), rec(b, E, 5.0, 0, mono=2.0),
                               rec("the event", E, 7.0, 1, mono=3.0)])


class TestRngKeying:
    def test_distinct_replicates_distinct_streams(self):
        a, b = make_draw_sets(_two_drawn("s1", "s2"), Effect.SHRINK_EXPERIMENTAL, seed=1,
                              replicate_ids=[0, 1])
        assert not np.allclose(a.values, b.values)

    def test_distinct_subjects_distinct_streams(self):
        (draws,) = make_draw_sets(_two_drawn("s1", "s2"), Effect.SHRINK_EXPERIMENTAL, seed=1)
        assert draws.values[0] != draws.values[1]

    def test_same_key_reproduces(self):
        # the same (seed, replicate, subject id) draws the same, at any position
        (first,) = make_draw_sets(_two_drawn("x", "y"), Effect.SHRINK_EXPERIMENTAL, seed=5,
                                  replicate_ids=[2])
        (again,) = make_draw_sets(_two_drawn("z", "x"), Effect.SHRINK_EXPERIMENTAL, seed=5,
                                  replicate_ids=[2])
        assert first.values[0] == again.values[1]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=word_ints(2**80),
           replicates=st.lists(word_ints(2**70), min_size=1, max_size=3),
           keys=st.lists(word_ints(2**64 - 1), min_size=1, max_size=6))
    def test_seed_words_are_seed_sequence_state(self, seed, replicates, keys):
        # rows replicate by replicate, whose ids may differ in word count
        got = _seed_words(seed, replicates, np.array(keys, dtype=np.uint64))
        want = np.array([np.random.SeedSequence([seed, replicate, key]).generate_state(4, np.uint64)
                         for replicate in replicates for key in keys])
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=word_ints(2**70), replicate=word_ints(2**40),
           subject_id=st.text(min_size=1, max_size=8))
    def test_draws_read_the_seed_sequence_stream(self, seed, replicate, subject_id):
        # each subject's draw is its model's draw from
        # default_rng(SeedSequence([seed, replicate, key])), as the oracle makes it
        trial = _two_drawn(subject_id, subject_id + "'")
        (got,) = make_draw_sets(trial, Effect.SHRINK_EXPERIMENTAL, "auto", seed, [replicate])
        want = make_draws_per_subject(trial, Effect.SHRINK_EXPERIMENTAL, "auto", seed, replicate)
        assert got.values.tobytes() == want.values.tobytes()

    def test_negative_seed_or_replicate_refused(self):
        for seed, replicate in ((-1, 0), (0, -1)):
            with pytest.raises(DataError, match="non-negative integer, got -1"):
                make_draw_sets(_two_drawn("x", "y"), Effect.SHRINK_EXPERIMENTAL, "auto", seed,
                               [replicate])


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


_sha256 = hashlib.sha256


class _LowKeyDigest:
    """A SHA-256 whose 64-bit subject key has high word 0 for every other
    input: no real subject id is known to hash to such a key."""

    def __init__(self, data):
        self._digest = _sha256(data).digest()

    def digest(self):
        if self._digest[0] % 2:
            return self._digest
        return self._digest[:4] + bytes(4) + self._digest[8:]


class TestDrawSets:
    """`make_draw_sets`: every replicate's draw set is
    `reference.make_draws_per_subject` of that replicate alone, byte for byte."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(records=trials(), effect=st.sampled_from(list(Effect)),
           imputation=st.sampled_from(["auto", "cutoff", "fitted"]), seed=word_ints(2**70),
           replicates=st.lists(word_ints(2**40), min_size=1, max_size=4),
           low_keys=st.booleans())
    def test_each_set_is_its_replicate_alone(self, records, effect, imputation, seed,
                                             replicates, low_keys):
        trial = Trial.from_records(records)
        with mock.patch.object(hashlib, "sha256", _LowKeyDigest if low_keys else _sha256):
            try:
                got = make_draw_sets(trial, effect, imputation, seed, replicates)
            except EstimationError as error:
                got = [(type(error), str(error))] * len(replicates)
            else:
                got = [(d.subjects.tobytes(), d.values.dtype, d.values.tobytes()) for d in got]
            want = [draws_outcome(make_draws_per_subject, trial, effect, imputation, seed, r)
                    for r in replicates]
        assert got == want

    def test_replicate_ids_of_one_and_two_words_in_one_call(self):
        trial = simulate_trial(SimConfig(n_experimental=60, n_control=40), seed=3)
        replicates = [2**32 + 5, 0, 2**32 - 1, 2**32, 7, 2**33 + 1]
        for effect in Effect:
            got = make_draw_sets(trial, effect, "fitted", 11, replicates)
            assert len(got) == len(replicates)
            for r, draws in zip(replicates, got):
                want = make_draws_per_subject(trial, effect, "fitted", 11, r)
                assert draws.values.size > 0
                assert draws.values.tobytes() == want.values.tobytes()

    def test_blocks_of_replicates(self, monkeypatch):
        # fewer key rows a block than one replicate has, and a block of two
        trial = simulate_trial(SimConfig(n_experimental=60, n_control=40), seed=3)
        effect = Effect.SHRINK_EXPERIMENTAL
        drawn = int(needs_draw(trial, effect).sum())
        want = [make_draws_per_subject(trial, effect, "auto", 4, r).values.tobytes()
                for r in range(5)]
        for block in (1, 2 * drawn, 2 * drawn + 1):
            monkeypatch.setattr("phasetip.counterfactual._KEY_BLOCK", block)
            got = make_draw_sets(trial, effect, "auto", 4, range(5))
            assert [d.values.tobytes() for d in got] == want

    @pytest.mark.parametrize("seed, replicate, imputation, message", [
        (-1, 0, "auto", "seed must be a non-negative integer, got -1"),
        (1.5, 0, "auto", "seed must be a non-negative integer, got 1.5"),
        (True, 0, "auto", "seed must be a non-negative integer, got True"),
        (0, -1, "auto", "replicate_id must be a non-negative integer, got -1"),
        (0, 2.0, "auto", "replicate_id must be a non-negative integer, got 2.0"),
        (0, "3", "auto", "replicate_id must be a non-negative integer, got '3'"),
        (0, False, "auto", "replicate_id must be a non-negative integer, got False"),
        (0, 0, "km", "imputation must be one of auto, cutoff, fitted, got 'km'"),
        (-1, -1, "km", "imputation must be one of auto, cutoff, fitted, got 'km'"),
    ])
    def test_refuses_what_make_draws_refuses(self, seed, replicate, imputation, message):
        trial = Trial.from_records(_varied_dataset())
        for effect in Effect:
            with pytest.raises(DataError) as alone:
                make_draws(trial, effect, imputation, seed, replicate)
            assert str(alone.value) == message
            for ids in ([replicate], [0, 1, replicate], [replicate, 2, 3]):
                with pytest.raises(DataError) as sets:
                    make_draw_sets(trial, effect, imputation, seed, ids)
                assert str(sets.value) == message

    def test_refuses_a_replicate_list_that_is_not_one(self):
        trial = Trial.from_records(_varied_dataset())
        with pytest.raises(DataError, match="replicate_ids must be a sequence of integers, got 3"):
            make_draw_sets(trial, Effect.SHRINK_EXPERIMENTAL, "auto", 0, 3)

    def test_no_replicates_no_draw_sets(self):
        trial = Trial.from_records(_varied_dataset())
        for effect in Effect:
            assert make_draw_sets(trial, effect, "fitted", 0, []) == []

    def test_memory_within_a_mebibyte_of_the_one_replicate_loop(self):
        # 1,000 replicates on a 3,000-subject trial: the draw sets are kept
        # in both, so only the temporaries of one block may differ
        trial = simulate_trial(SimConfig(n_experimental=2000, n_control=1000), seed=6)
        effect = Effect.SHRINK_EXPERIMENTAL
        make_draws(trial, effect, "fitted", 0, 0)   # fills the per-trial key cache

        def peak(make):
            tracemalloc.start()
            try:
                kept = make()
                return tracemalloc.get_traced_memory()[1], kept
            finally:
                tracemalloc.stop()

        loop_peak, loop = peak(lambda: [make_draws(trial, effect, "fitted", 0, r)
                                        for r in range(1000)])
        del loop
        sets_peak, sets = peak(lambda: make_draw_sets(trial, effect, "fitted", 0, range(1000)))
        assert len(sets) == 1000 and sets[0].values.size > 100
        assert sets_peak <= loop_peak + 2**20


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
        # the fitted models sum their exposure exactly rounded, in any order
        assert base and moved == base
