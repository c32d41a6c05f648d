import pytest

from conftest import C, E, rec
from phasetip.errors import DataError
import numpy as np

from phasetip.records import Arm, Trial


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


class TestArm:
    def test_codes_round_trip(self):
        assert Arm.from_code("E") is E
        assert Arm.from_code("c") is C
        assert E.code == "E" and C.code == "C"

    def test_unknown_code(self):
        with pytest.raises(DataError, match="arm"):
            Arm.from_code("X")
