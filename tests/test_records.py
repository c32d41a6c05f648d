import pytest

from conftest import C, E, rec
from phasetip.errors import DataError
import numpy as np

from phasetip.records import Arm, CountingProcess, Trial


def counting_process(start, stop, event, trt, mono):
    """A one-row CountingProcess."""
    return CountingProcess(
        start=np.array([start]), stop=np.array([stop]), event=np.array([event]),
        trt=np.array([trt]), mono=np.array([mono]), stratum=np.array([np.nan]),
    )


class TestSubjectRecord:
    def test_valid_record(self):
        r = rec("s1", E, 10.0, 1, cutoff=30.0, mono=6.0)
        assert r.trt == 1
        assert r.in_mono

    def test_in_mono_without_transition(self):
        assert not rec("s1", C, 8.0, 0).in_mono

    def test_delta_must_be_binary(self):
        with pytest.raises(DataError, match="delta"):
            rec("s1", E, 10.0, 2)

    def test_s_must_be_positive(self):
        with pytest.raises(DataError, match="positive"):
            rec("s1", E, 0.0, 1)

    def test_cutoff_before_s_rejected(self):
        with pytest.raises(DataError, match="cutoff"):
            rec("s1", E, 31.0, 1, cutoff=30.0)

    def test_mono_start_beyond_s_rejected(self):
        with pytest.raises(DataError, match="phase time exceeds follow-up"):
            rec("s1", E, 10.0, 1, mono=12.0)

    def test_mono_start_equal_s_allowed(self):
        r = rec("s1", E, 10.0, 1, mono=10.0)
        assert r.mono_start == 10.0
        assert not r.in_mono  # no time was spent in the phase

    def test_trial_in_mono_matches_records(self):
        records = [rec("a", E, 10.0, 1, mono=6.0), rec("b", C, 8.0, 0),
                   rec("c", C, 5.0, 1, mono=5.0)]
        assert Trial.from_records(records).in_mono.tolist() == [True, False, False]
        assert [r.in_mono for r in records] == [True, False, False]

    @pytest.mark.parametrize("index", [slice(0, 2), [0, 1], np.array([0]), 0.0, "a"])
    def test_trial_refuses_non_integer_index(self, index):
        trial = Trial.from_records([rec("a", E, 10.0, 1, mono=6.0), rec("b", C, 8.0, 0)])
        assert trial[np.int64(1)].subject_id == "b"
        with pytest.raises(TypeError, match="only integer indexing"):
            trial[index]

    def test_with_outcome_extends_cutoff(self):
        r = rec("s1", C, 10.0, 1, cutoff=12.0)
        out = r.with_outcome(15.0, 0)
        assert out.s == 15.0
        assert out.delta == 0
        assert out.cutoff == 15.0

    def test_with_outcome_keeps_cutoff_when_inside(self):
        r = rec("s1", C, 10.0, 1, cutoff=30.0)
        assert r.with_outcome(12.0, 1).cutoff == 30.0


class TestArm:
    def test_codes_round_trip(self):
        assert Arm.from_code("E") is E
        assert Arm.from_code("c") is C
        assert E.code == "E" and C.code == "C"

    def test_unknown_code(self):
        with pytest.raises(DataError, match="arm"):
            Arm.from_code("X")


class TestCountingProcessRow:
    """Rows of the columnar CountingProcess."""

    def test_empty_interval_rejected(self):
        with pytest.raises(DataError, match="empty"):
            counting_process(5.0, 5.0, 1, 1, 0)

    def test_interaction_consistency(self):
        # the interaction is not stored, so it cannot disagree with trt * mono;
        # a row's group covariates are its own covariates
        names = ("trt", "mono", "trt_x_mono")
        for trt in (0, 1):
            for mono in (0, 1):
                cp = counting_process(0.0, 5.0, 1, trt, mono)
                assert cp.covariate("trt_x_mono")[0] == trt * mono
                assert cp.group[0] == trt + 2 * mono
                assert (CountingProcess.group_covariates(names)[cp.group[0]].tolist()
                        == [cp.covariate(c)[0] for c in names])
        with pytest.raises(DataError, match="covariate"):
            counting_process(0.0, 5.0, 1, 1, 1).covariate("age")

    def test_covariate_lookup(self):
        row = counting_process(0.0, 5.0, 1, 1, 1)
        assert row.covariate("trt")[0] == 1
        assert row.covariate("trt_x_mono")[0] == 1
