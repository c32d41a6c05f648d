import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import C, E, rec, trials
from phasetip.errors import DataError, EstimationError
from phasetip.records import Arm, Trial
from phasetip.simulate import SimConfig, simulate_trial
from phasetip.survival import cox_fit, km_estimate, logrank_test, risk_table

COLUMNS = ("s", "delta", "mono_start", "trt", "cutoff", "stratum")


class TestSubjectRecord:
    def test_valid_record(self):
        r = rec("s1", E, 10.0, 1, cutoff=30.0, mono=6.0)
        assert r.trt == 1
        assert r.in_mono

    def test_in_mono_without_transition(self):
        assert not rec("s1", C, 8.0, 0).in_mono

    def test_delta_must_be_binary(self):
        with pytest.raises(DataError, match="delta"):
            Trial.from_records([rec("s1", E, 10.0, 2)])

    def test_s_must_be_positive(self):
        with pytest.raises(DataError, match="positive"):
            Trial.from_records([rec("s1", E, 0.0, 1)])

    def test_cutoff_before_s_rejected(self):
        with pytest.raises(DataError, match="cutoff"):
            Trial.from_records([rec("s1", E, 31.0, 1, cutoff=30.0)])

    def test_mono_start_beyond_s_rejected(self):
        with pytest.raises(DataError, match="phase time exceeds follow-up"):
            Trial.from_records([rec("s1", E, 10.0, 1, mono=12.0)])

    def test_mono_start_equal_s_allowed(self):
        r, = Trial.from_records([rec("s1", E, 10.0, 1, mono=10.0)])
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
    def test_codes_and_indicators(self):
        assert E.code == "E" and C.code == "C"
        assert E.trt == 1 and C.trt == 0
        assert Arm("E") is E and Arm("C") is C


@pytest.fixture(scope="module")
def seed6():
    return simulate_trial(SimConfig(), seed=6)


def _with_cell(trial, column, k, value):
    col = getattr(trial, column).copy()
    col[k] = value
    return dataclasses.replace(trial, **{column: col})


class TestTrialCheck:
    """Every value rule lives in the check a `Trial` runs when it is built.
    Each copy of the seed-6 trial below breaks one rule in one cell; before
    the check, each gave a tip or a numpy error instead of a `DataError`."""

    @pytest.mark.parametrize("column, value, message", [
        ("s", math.nan, "s must be positive and finite, got nan"),
        ("s", -1.0, "s must be positive and finite, got -1.0"),
        ("delta", 2, "delta must be 0 or 1, got 2"),
        ("trt", 5, "trt must be 0 or 1, got 5"),
    ])
    def test_bad_cell(self, seed6, column, value, message):
        with pytest.raises(DataError, match=rf"^subject E0007: {message}$") as err:
            _with_cell(seed6, column, 7, value)
        assert (err.value.column, err.value.position) == (column, 7)

    def test_repeated_id(self, seed6):
        ids = list(seed6.ids)
        ids[9] = ids[3]
        with pytest.raises(DataError,
                           match=r"^subject E0003: subject_id repeats position 3$") as err:
            dataclasses.replace(seed6, ids=tuple(ids))
        assert (err.value.column, err.value.position) == ("ids", 9)

    def test_ids_one_short(self, seed6):
        with pytest.raises(DataError, match=r"^s must be a numpy floating array of shape "
                                             r"\(508,\), one entry per id, got float64 of "
                                             r"shape \(509,\)$"):
            dataclasses.replace(seed6, ids=seed6.ids[:-1])

    def test_list_column(self, seed6):
        with pytest.raises(DataError, match=r"^s must be a numpy floating array .* got list$"):
            dataclasses.replace(seed6, s=seed6.s.tolist())

    @pytest.mark.parametrize("change, message", [
        (dict(ids=["a"]), "ids must be a tuple of str subject ids$"),
        (dict(ids=(1,)), "ids must be a tuple of str subject ids$"),
        (dict(delta=np.array([True])), r"delta must be a numpy integer .* got bool of shape \(1,\)"),
        (dict(s=np.array([[2.0]])), r"s must be a numpy floating .* got float64 of shape \(1, 1\)"),
        (dict(ids=("",)), "subject : subject_id is empty at position 0$"),
        (dict(stratum=np.array([1.5])), "subject a: stratum must be NaN or a whole number"),
        (dict(cutoff=np.array([np.inf])), "subject a: cutoff must be finite, got inf"),
        (dict(mono_start=np.array([0.0])), "subject a: mono_start must be positive, got 0.0"),
    ])
    def test_shape_type_and_value_rules(self, change, message):
        trial = Trial.from_records([rec("a", E, 2.0, 1, mono=1.0, stratum=1)])
        with pytest.raises(DataError, match=f"^{message}"):
            dataclasses.replace(trial, **change)

    def test_lowest_position_wins_and_rules_keep_their_order(self):
        records = [rec("a", E, 2.0, 1), rec("b", E, 2.0, 1), rec("a", C, 3.0, 1)]
        trial = Trial.from_records(records[:2])
        # b breaks two value rules and a later subject repeats an id: the
        # first rule of the lowest position is reported
        with pytest.raises(DataError, match=r"^subject b: delta must be 0 or 1, got 2$"):
            Trial.from_records([records[0], dataclasses.replace(records[1], delta=2, s=-1.0),
                                records[2]])
        # at one position, a value rule comes before the repeated id
        with pytest.raises(DataError, match=r"^subject a: s must be positive"):
            Trial.from_records([records[0], dataclasses.replace(records[2], s=-1.0)])
        assert len(trial) == 2 and len(Trial.from_records([])) == 0

    def test_with_outcome_skips_the_check(self):
        trial = Trial.from_records([rec("a", E, 10.0, 1, cutoff=12.0, mono=6.0)])
        out = trial.with_outcome(np.array([15.0]), np.array([0]))
        assert out.cutoff.tolist() == [15.0] and trial.cutoff.tolist() == [12.0]
        assert out.ids is trial.ids and out.mono_start is trial.mono_start
        # a time below the phase start passes the copy (risk_table refuses it)
        assert trial.with_outcome(np.array([5.0]), trial.delta).s.tolist() == [5.0]


# One cell value per column that breaks a rule of that column wherever it is
# put in a valid trial, and the words the column's messages use for it.
BAD_CELLS = {
    "s": ([math.nan, math.inf, -math.inf, -1.0, 0.0], r"s must be positive and finite"),
    "delta": ([2, -1], "delta must be 0 or 1"),
    "trt": ([2, -1], "trt must be 0 or 1"),
    "cutoff": ([math.nan, math.inf, -1.0], "cutoff"),
    "mono_start": ([math.inf, -1.0, 0.0], "mono_start must be positive|phase time exceeds"),
    "stratum": ([math.inf, -math.inf, 0.5], "stratum must be NaN or a whole number"),
}


class TestTrialCheckProperty:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trials(), st.data())
    def test_one_bad_cell_is_refused_at_its_subject(self, records, data):
        trial = Trial.from_records(records)
        column = data.draw(st.sampled_from(sorted(BAD_CELLS)))
        values, words = BAD_CELLS[column]
        k = data.draw(st.integers(0, len(trial) - 1))
        with pytest.raises(DataError, match=rf"^subject {trial.ids[k]}: ({words})") as err:
            _with_cell(trial, column, k, data.draw(st.sampled_from(values)))
        assert (err.value.column, err.value.position) == (column, k)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trials(), st.data())
    def test_a_repeated_id_short_column_or_list_is_refused(self, records, data):
        trial = Trial.from_records(records)
        n = len(trial)
        column = data.draw(st.sampled_from(COLUMNS))
        kinds = ["short", "list"] + (["repeat"] if n > 1 else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "repeat":
            j, k = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                             unique=True)))
            ids = list(trial.ids)
            ids[k] = ids[j]
            with pytest.raises(DataError, match=rf"subject_id repeats position {j}$") as err:
                dataclasses.replace(trial, ids=tuple(ids))
            assert (err.value.column, err.value.position) == ("ids", k)
        elif kind == "short":
            short = rf"^{column} must be .* of shape \({n},\), one entry per id, got \w+ "
            with pytest.raises(DataError, match=short + rf"of shape \({n - 1},\)$"):
                dataclasses.replace(trial, **{column: getattr(trial, column)[1:]})
        else:
            with pytest.raises(DataError, match=rf"^{column} must be a .* got list$"):
                dataclasses.replace(trial, **{column: getattr(trial, column).tolist()})

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trials())
    def test_records_rebuild_the_columns_bit_for_bit(self, records):
        trial = Trial.from_records(records)
        back = Trial.from_records(list(trial))
        assert back.ids == trial.ids
        for name in COLUMNS:
            a, b = getattr(trial, name), getattr(back, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _bits(x):
    """A value with every float as its bytes, so that == compares bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return tuple((k, _bits(v)) for k, v in x.items())
    if isinstance(x, (float, np.floating)):
        return np.float64(x).tobytes()
    return x


def _outcome(fn, *args):
    """The result's bits, or the type and message of the error it raised."""
    try:
        return _bits(fn(*args))
    except (DataError, EstimationError) as err:
        return type(err), str(err)


class TestRowOrder:
    """The order of a trial's subjects changes no bit of the Kaplan-Meier
    curve, the log-rank test, the risk table or a Cox fit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(trials(), st.data(), st.sampled_from(["efron", "breslow"]), st.booleans())
    def test_permuted_trial_gives_the_same_bits(self, records, data, ties, stratified):
        order = data.draw(st.permutations(range(len(records))))
        results = []
        for trial in (Trial.from_records(records),
                      Trial.from_records([records[i] for i in order])):
            table = risk_table(trial, ties, stratified)
            results.append((
                _outcome(km_estimate, trial),
                _outcome(km_estimate, trial, E),
                _outcome(logrank_test, trial, stratified),
                _bits(table.A), _bits(table.D), _bits(table.meets),
                _outcome(cox_fit, table),
                _outcome(cox_fit, table, ("trt", "mono", "trt_x_mono")),
            ))
        assert results[0] == results[1]
