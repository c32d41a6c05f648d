"""Log-rank tests: hand-computed O-E/V arithmetic and invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import C, E, rec, trials
from reference import logrank_test_sorted
from phasetip.errors import DataError, EstimationError
from phasetip.records import Arm, Trial
from phasetip.survival import SortedRows, logrank_test


class TestLogRankHandExamples:
    def test_identical_groups_give_chi2_zero(self):
        outcomes = [(1.0, 1), (2.0, 0), (3.0, 1), (7.0, 1)]
        records = [rec(f"e{i}", E, t, d) for i, (t, d) in enumerate(outcomes)]
        records += [rec(f"c{i}", C, t, d) for i, (t, d) in enumerate(outcomes)]
        res = logrank_test(Trial.from_records(records))
        assert res.chi2 == pytest.approx(0.0, abs=1e-12)
        assert res.p_two_sided == 1.0
        assert res.observed[Arm.EXPERIMENTAL] == pytest.approx(res.expected[Arm.EXPERIMENTAL])

    def test_four_subject_hand_arithmetic(self):
        # A (=experimental): events at 1 and 3; B (=control): event at 2, censored at 4.
        # t=1: nA=2 nB=2 d=1 (A) -> O=1, E=0.5,  V=0.25
        # t=2: nA=1 nB=2 d=1 (B) -> O=0, E=1/3,  V=2/9
        # t=3: nA=1 nB=1 d=1 (A) -> O=1, E=0.5,  V=0.25
        # chi2 = (2 - 4/3)^2 / (13/18) = 8/13
        records = [
            rec("a1", E, 1, 1), rec("a2", E, 3, 1),
            rec("b1", C, 2, 1), rec("b2", C, 4, 0),
        ]
        res = logrank_test(Trial.from_records(records))
        assert res.observed[Arm.EXPERIMENTAL] == pytest.approx(2.0, abs=1e-10)
        assert res.expected[Arm.EXPERIMENTAL] == pytest.approx(4 / 3, abs=1e-10)
        assert res.chi2 == pytest.approx(8 / 13, abs=1e-10)
        assert 0.0 < res.p_two_sided < 1.0

    def test_stratified_symmetric_pairs(self):
        records = []
        for st in (0, 1):
            scale = 1.0 + st
            records += [
                rec(f"e{st}a", E, 1 * scale, 1, stratum=st),
                rec(f"e{st}b", E, 3 * scale, 0, stratum=st),
                rec(f"c{st}a", C, 1 * scale, 1, stratum=st),
                rec(f"c{st}b", C, 3 * scale, 0, stratum=st),
            ]
        res = logrank_test(Trial.from_records(records), stratified=True)
        assert res.chi2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_events_error(self):
        records = [rec("e", E, 1, 0), rec("c", C, 2, 0)]
        with pytest.raises(EstimationError, match="event"):
            logrank_test(Trial.from_records(records))

    def test_single_group_error(self):
        with pytest.raises(DataError, match="both arms"):
            logrank_test(Trial.from_records([rec("e1", E, 1, 1), rec("e2", E, 2, 1)]))


class TestLogRankInvariances:
    def _random_records(self, rng, n=40):
        times = rng.exponential(8, n) + 0.05
        deltas = rng.integers(0, 2, n)
        arms = [E if rng.random() < 0.5 else C for _ in range(n)]
        if deltas.sum() == 0:
            deltas[0] = 1
        arms[0], arms[1] = E, C
        return [rec(i, a, t, d) for i, (a, t, d) in enumerate(zip(arms, times, deltas))]

    def test_invariant_under_id_relabeling(self):
        rng = np.random.default_rng(11)
        records = self._random_records(rng)
        relabeled = [
            rec(f"x{i}", r.arm, r.s, r.delta) for i, r in enumerate(reversed(records))
        ]
        assert logrank_test(Trial.from_records(records)).chi2 == pytest.approx(
            logrank_test(Trial.from_records(relabeled)).chi2, abs=1e-12
        )

    def test_invariant_under_time_rescaling(self):
        rng = np.random.default_rng(13)
        records = self._random_records(rng)
        for c in (0.25, 3.0, 17.5):
            scaled = [
                rec(r.subject_id, r.arm, c * r.s, r.delta, cutoff=c * r.cutoff)
                for r in records
            ]
            assert logrank_test(Trial.from_records(scaled)).chi2 == pytest.approx(
                logrank_test(Trial.from_records(records)).chi2, abs=1e-10
            )


def _outcome(test, trial, stratified):
    """The result, or the type and message of the error it raised."""
    try:
        return repr(test(trial, stratified))
    except (DataError, EstimationError) as err:
        return type(err), str(err)


class TestLogRankAgainstSortedCount:
    """The shared at-risk count gives the sort-based test bit for bit: the
    float reprs round-trip, so equal reprs are equal bits."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(records=trials(), stratified=st.booleans())
    def test_bit_identical(self, records, stratified):
        trial = Trial.from_records(records)
        assert _outcome(logrank_test, trial, stratified) == _outcome(
            logrank_test_sorted, trial, stratified)


class TestLogRankRows:
    """`SortedRows` tests k outcomes of one trial in one pass, and each
    row gets `logrank_test` of that outcome bit for bit, errors included:
    a row's sums do not depend on the rows beside it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(records=trials(), stratified=st.booleans(), data=st.data())
    def test_each_row_is_its_own_logrank_test(self, records, stratified, data):
        trial = Trial.from_records(records)
        k = data.draw(st.integers(1, 9))
        times = st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0, 7.0])
        s = np.array([[data.draw(times) for _ in records] for _ in range(k)])
        delta = np.array([[data.draw(st.sampled_from([0, 1])) for _ in records]
                          for _ in range(k)])
        expected = [_outcome(logrank_test, trial.with_outcome(s[r], delta[r]), stratified)
                    for r in range(k)]
        try:
            got = SortedRows(trial, s, delta, stratified).tests
        except DataError as err:
            assert all(e == (DataError, str(err)) for e in expected)
            return
        assert [repr(r) if not isinstance(r, EstimationError) else (EstimationError, str(r))
                for r in got] == expected

    def test_rows_of_the_calibrated_trial(self, seed6_transforms):
        # hundreds of event times per row, so each row's terms are summed
        # pairwise in blocks, as the sort-based oracle's np.sum sums them
        for layout in seed6_transforms[:2]:   # no strata, and three strata
            s = np.array([t.s for t in seed6_transforms[::2]])
            delta = np.array([t.delta for t in seed6_transforms[::2]])
            for stratified in (False, True):
                got = SortedRows(layout, s, delta, stratified).tests
                assert [repr(r) for r in got] == [
                    _outcome(logrank_test_sorted, layout.with_outcome(s[r], delta[r]), stratified)
                    for r in range(len(s))]
