"""Kaplan-Meier tests against hand computations and a brute-force oracle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import C, E, rec, trials
from reference import km_estimate_sorted
from phasetip.errors import DataError
from phasetip.records import Trial
from phasetip.survival import km_estimate


def km_oracle(times, deltas):
    """Independent product-limit computation by direct risk-set counting."""
    out = {}
    s = 1.0
    for t in sorted({ti for ti, di in zip(times, deltas) if di == 1}):
        n_at = sum(1 for ti in times if ti >= t)
        d_at = sum(1 for ti, di in zip(times, deltas) if ti == t and di == 1)
        s *= 1.0 - d_at / n_at
        out[t] = s
    return out


class TestKmHandExamples:
    def test_no_events_curve_stays_at_one(self):
        records = [rec(i, E, t, 0) for i, t in enumerate([1.0, 2.0, 3.0])]
        curve = km_estimate(Trial.from_records(records))
        assert curve.times.size == 0
        assert curve.median is None
        assert curve.survival_at(2.5) == 1.0

    def test_three_subject_product_limit(self):
        # (1, event), (2, censored), (3, event):
        #   S(1) = 1 - 1/3 = 2/3;  S(3) = 2/3 * (1 - 1/1) = 0
        records = [rec(1, E, 1, 1), rec(2, E, 2, 0), rec(3, E, 3, 1)]
        curve = km_estimate(Trial.from_records(records))
        assert list(curve.times) == [1.0, 3.0]
        assert curve.surv == pytest.approx([2 / 3, 0.0], abs=1e-15)
        assert curve.median == 3.0

    def test_single_event(self):
        curve = km_estimate(Trial.from_records([rec(1, C, 5, 1)]))
        assert list(curve.times) == [5.0]
        assert curve.surv == pytest.approx([0.0])
        assert curve.median == 5.0

    def test_greenwood_first_step(self):
        # 6 subjects, events at 1,3,5,6; classic textbook case:
        # Var(S(1)) = (5/6)^2 * 1/(6*5)
        records = [
            rec(1, E, 1, 1), rec(2, E, 2, 0), rec(3, E, 3, 1),
            rec(4, E, 4, 0), rec(5, E, 5, 1), rec(6, E, 6, 1),
        ]
        curve = km_estimate(Trial.from_records(records))
        assert curve.surv[0] == pytest.approx(5 / 6, abs=1e-15)
        assert curve.greenwood_se[0] == pytest.approx(np.sqrt((5 / 6) ** 2 / 30), abs=1e-12)
        # S hits 0 at the last event; SE pinned to 0 there
        assert curve.surv[-1] == 0.0
        assert curve.greenwood_se[-1] == 0.0

    def test_arm_filter(self):
        records = [rec(1, E, 1, 1), rec(2, C, 2, 1)]
        curve = km_estimate(Trial.from_records(records), arm=C)
        assert curve.n_subjects == 1
        assert list(curve.times) == [2.0]

    def test_empty_after_filter(self):
        with pytest.raises(DataError, match="no subjects"):
            km_estimate(Trial.from_records([rec(1, E, 1, 1)]), arm=C)


class TestKmOracleEquivalence:
    def test_random_datasets_match_brute_force(self):
        rng = np.random.default_rng(20240817)
        for trial in range(25):
            n = int(rng.integers(1, 21))
            times = np.round(rng.exponential(10, n), 1) + 0.1
            deltas = rng.integers(0, 2, n)
            if deltas.sum() == 0:
                deltas[0] = 1
            records = [rec(i, E, t, d) for i, (t, d) in enumerate(zip(times, deltas))]
            curve = km_estimate(Trial.from_records(records))
            expected = km_oracle(list(times), list(deltas))
            assert len(expected) == curve.times.size
            for t, s in zip(curve.times, curve.surv):
                assert s == pytest.approx(expected[t], abs=1e-12), f"trial {trial} t={t}"

    def test_survival_non_increasing(self):
        rng = np.random.default_rng(7)
        times = rng.exponential(5, 200)
        deltas = rng.integers(0, 2, 200)
        deltas[0] = 1
        curve = km_estimate(Trial.from_records(
            rec(i, C, t + 0.01, d) for i, (t, d) in enumerate(zip(times, deltas))
        ))
        assert np.all(np.diff(curve.surv) <= 1e-15)
        assert np.all((curve.surv >= 0) & (curve.surv <= 1))

    def test_median_flat_at_half_uses_earliest_time(self):
        # 4 subjects, 2 events at t=2 bring S exactly to 0.5: median = 2
        records = [rec(1, E, 2, 1), rec(2, E, 2, 1), rec(3, E, 5, 0), rec(4, E, 6, 0)]
        curve = km_estimate(Trial.from_records(records))
        assert curve.surv[0] == pytest.approx(0.5)
        assert curve.median == 2.0


def _outcome(estimate, trial, arm):
    """The curve, or the type and message of the error it raised."""
    try:
        return estimate(trial, arm)
    except DataError as err:
        return type(err), str(err)


class TestKmAgainstSortedCount:
    """The shared at-risk count gives the sort-based curve bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(records=trials(), arm=st.sampled_from([None, E, C]))
    def test_bit_identical(self, records, arm):
        trial = Trial.from_records(records)
        got, want = _outcome(km_estimate, trial, arm), _outcome(km_estimate_sorted, trial, arm)
        if isinstance(want, tuple):
            assert got == want
            return
        for name, value in dataclasses.asdict(want).items():
            mine = getattr(got, name)
            if isinstance(value, np.ndarray):
                assert mine.dtype == value.dtype and mine.shape == value.shape, name
                assert mine.tobytes() == value.tobytes(), name
            else:
                assert type(mine) is type(value) and mine == value, name
