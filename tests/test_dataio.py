"""Dataset file round-trip and row-level error messages."""

import re

import pytest

from conftest import C, E, rec
from phasetip.dataio import HEADER, read_dataset, write_dataset
from phasetip.errors import DataError
from phasetip.simulate import SimConfig, simulate_trial


def test_header_constant_matches_schema():
    assert HEADER == [
        "subject_id", "arm", "pfs_months", "event",
        "mono_start_months", "cutoff_months", "stratum",
    ]


class TestReadDataset:
    def test_well_formed_three_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "subject_id,arm,pfs_months,event,mono_start_months,cutoff_months,stratum\n"
            "s1,E,10.5,1,6.25,30.0,1\n"
            "s2,C,8.0,0,,30.0,\n"
            "s3,e,3.5,1,,12.0,2\n"
        )
        records = read_dataset(path)
        assert len(records) == 3
        assert records[0].mono_start == 6.25
        assert records[1].mono_start is None and records[1].stratum is None
        assert records[2].arm is E

    def test_phase_time_beyond_follow_up_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            ",".join(HEADER) + "\n"
            "s1,E,10.0,1,12.0,30.0,\n"
        )
        with pytest.raises(DataError, match=r"row 2.*phase time exceeds follow-up"):
            read_dataset(path)

    def test_repeated_subject_id_names_both_rows(self, tmp_path):
        # the imputation keys each subject's draws by its id, so two rows
        # with one id would draw the same imputed times
        path = tmp_path / "d.csv"
        path.write_text(
            ",".join(HEADER) + "\n"
            "x,E,10.0,0,4.0,30.0,\n"
            "y,C,8.0,1,,30.0,\n"
            " x ,E,12.0,0,5.0,30.0,\n"
        )
        with pytest.raises(DataError, match=r"^row 4: subject_id 'x' repeats row 2$"):
            read_dataset(path)

    def test_empty_body_valid_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",".join(HEADER) + "\n")
        assert list(read_dataset(path)) == []

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,arm,time,event\nx,E,1,1\n")
        with pytest.raises(DataError, match="header mismatch"):
            read_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_dataset(tmp_path / "absent.csv")

    def test_non_numeric_time_names_field(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",".join(HEADER) + "\ns1,E,soon,1,,30.0,\n")
        with pytest.raises(DataError, match=r"row 2: pfs_months is not a number"):
            read_dataset(path)

    def test_bad_event_flag(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",".join(HEADER) + "\ns1,E,5.0,2,,30.0,\n")
        with pytest.raises(DataError, match=r"row 2: event must be 0 or 1"):
            read_dataset(path)

    def test_cutoff_before_observed_time(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",".join(HEADER) + "\ns1,E,31.0,1,,30.0,\n")
        with pytest.raises(DataError, match=r"row 2.*cutoff"):
            read_dataset(path)

    @pytest.mark.parametrize("row, message", [
        ("s1,E,inf,1,,inf,", "s must be positive and finite"),
        ("s1,E,5.0,1,,nan,", "cutoff must be finite"),
        ("s1,E,5.0,1,,30.0,nan", "stratum is not a whole number"),
        ("s1,E,5.0,1,,30.0,inf", "stratum is not a whole number"),
        ("s1,E,5.0,1,,30.0,1.5", "stratum is not a whole number"),
    ], ids=["pfs_inf", "cutoff_nan", "stratum_nan", "stratum_inf", "stratum_fraction"])
    def test_out_of_domain_value_names_row(self, tmp_path, row, message):
        path = tmp_path / "d.csv"
        path.write_text(",".join(HEADER) + "\n" + row + "\n")
        with pytest.raises(DataError, match=rf"row 2: .*{message}"):
            read_dataset(path)

    def test_strict_stops_at_first_bad_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            ",".join(HEADER) + "\n"
            "s1,E,bad,1,,30.0,\n"
            "s2,X,5.0,1,,30.0,\n"
        )
        with pytest.raises(DataError, match="row 2"):
            read_dataset(path)


    @pytest.mark.parametrize("row, message", [
        ("s1,E,5.0,1,,30.0", "expected 7 fields, got 6"),
        (" ,E,5.0,1,,30.0,", "subject_id is empty"),
        ("s1,X,5.0,1,,30.0,", "unknown arm code 'X' (expected 'E' or 'C')"),
        ("s1,E,5.0,1,nan,30.0,", "mono_start_months is not a number: 'nan'"),
        ("s1,E,5.0,1,,30.0,x", "stratum is not a number: 'x'"),
    ], ids=["fields", "empty_id", "arm", "mono_nan", "stratum_text"])
    def test_parse_rule_names_row(self, tmp_path, row, message):
        path = tmp_path / "d.csv"
        path.write_text(",".join(HEADER) + "\ns0,C,1.0,0,,30.0,\n" + row + "\n")
        with pytest.raises(DataError, match=rf"^row 3: {re.escape(message)}$"):
            read_dataset(path)

    @pytest.mark.parametrize("rows, message", [
        # a value rule in an earlier row beats a parse rule in a later one
        (["s1,E,10.0,1,12.0,30.0,", "s2,E,bad,1,,30.0,"],
         "row 2: subject s1: phase time exceeds follow-up"),
        # and a parse rule in an earlier row beats a value rule in a later one
        (["s1,E,bad,1,,30.0,", "s2,E,10.0,1,12.0,30.0,"],
         "row 2: pfs_months is not a number: 'bad'"),
        # in one row, a parse rule comes first
        (["s1,E,10.0,2,12.0,30.0,"], "row 2: event must be 0 or 1, got '2'"),
        # a repeated id before a bad row, across a blank line
        (["x,E,10.0,0,,30.0,", "", "x,C,8.0,1,,30.0,", "y,C,8.0,1,,30.0"],
         "row 4: subject_id 'x' repeats row 2"),
    ], ids=["value_then_parse", "parse_then_value", "same_row", "repeat_then_parse"])
    def test_first_invalid_row_is_named(self, tmp_path, rows, message):
        path = tmp_path / "d.csv"
        path.write_text(",".join(HEADER) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read_dataset(path)

    def test_line_the_csv_module_cannot_split_names_row(self, tmp_path):
        # a field beyond the csv module's size limit; a bad row before it wins
        path = tmp_path / "d.csv"
        long_row = "s2,E," + "1" * 200_000 + ",1,,30.0,"
        path.write_text(",".join(HEADER) + "\ns1,E,5.0,1,,30.0,\n" + long_row + "\n")
        with pytest.raises(DataError, match=r"^row 3: field larger than field limit"):
            read_dataset(path)
        path.write_text(",".join(HEADER) + "\ns1,E,bad,1,,30.0,\n" + long_row + "\n")
        with pytest.raises(DataError, match=r"^row 2: pfs_months is not a number: 'bad'$"):
            read_dataset(path)


class TestRoundTrip:
    def test_hand_records(self, tmp_path):
        records = [
            rec("a", E, 10.5, 1, cutoff=30.0, mono=6.125),
            rec("b", C, 8.25, 0, cutoff=8.25),
            rec("c", C, 0.3333333333333333, 1, cutoff=40.0, mono=0.1, stratum=3),
        ]
        path = tmp_path / "rt.csv"
        write_dataset(records, path)
        assert list(read_dataset(path)) == records

    def test_simulated_trial_round_trips_exactly(self, tmp_path):
        records = simulate_trial(SimConfig(n_experimental=120, n_control=80), seed=5)
        path = tmp_path / "sim.csv"
        write_dataset(records, path)
        back = read_dataset(path)
        assert list(back) == list(records)  # float repr preserves every bit
