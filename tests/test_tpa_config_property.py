"""Property test: any `tpa --config` or `curve --config` file ends with
exit code 0-3, raises nothing out of `main`, and finishes within a
wall-clock bound.

The trial is small and significant at factor 1, so valid configurations
really bracket and bisect. Finite grid bounds and positive steps are kept
moderate because `curve` spends one evaluation per grid point: a long
curve is slow by design, not a hang. Steps of 0, below 0 and 1e-300 must
be refused, by the grid-point cap for the last, and so must a replicate
count above the replicate cap. Keys that no command reads are refused,
`bisection_tol` among them since the search ends at exact breakpoints. A
`tpa` run that succeeds writes each numeric cell of results.csv as a
finite number or empty.
"""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from conftest import assert_result_cells, wall_clock_bound
from phasetip.cli import main
from phasetip.dataio import write_dataset
from phasetip.simulate import SimConfig, simulate_trial

SMALL_SIM = SimConfig(
    n_experimental=90, n_control=70,
    combo_event_hazard=0.07, switch_hazard=0.05, mono_event_hazard=0.10,
    hr_combo=0.75, hr_mono=0.35,
    accrual_months=18, cutoff_months=40, dropout_hazard=0.004,
)
WALL_CLOCK_S = 60
NUMBER_JUNK = ["0", "-1", "nan", "inf", "-inf", "abc", ""]


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


# key -> (strategy of valid values, invalid or extreme values)
CONFIG_KEYS = {
    "effect": (st.sampled_from(["1", "2"]), ["0", "3", "1.0", "x"]),
    "threshold": (st.sampled_from(["a", "b"]), ["c", "A", ""]),
    "replicates": (st.sampled_from(["1", "2", "3"]), ["0", "-2", "1.5", "abc", "100000000"]),
    "grid_step": (_floats(0.05, 5.0), NUMBER_JUNK + ["1e-300", "-0.05"]),
    "grid-max": (_floats(1.0, 20.0), NUMBER_JUNK + ["0.5"]),
    "grid_min": (_floats(0.01, 1.0), NUMBER_JUNK + ["2"]),
    "alpha_level": (_floats(1e-3, 0.99), NUMBER_JUNK + ["1"]),
    "imputation": (st.sampled_from(["auto", "cutoff", "fitted"]), ["km", ""]),
    "p_source": (st.sampled_from(["logrank", "wald"]), ["bayes"]),
    "seed": (st.sampled_from(["0", "7", "99999999999999999999"]), ["-1", "abc", "1e3"]),
}
VALID_CONFIGS = st.fixed_dictionaries(
    {}, optional={key: valid for key, (valid, _) in CONFIG_KEYS.items()}
)
ANY_CONFIGS = st.fixed_dictionaries(
    {}, optional={
        key: st.one_of(valid, st.sampled_from(junk))
        for key, (valid, junk) in CONFIG_KEYS.items()
    }
)
# refused keys, among other lines
EXTRA_LINES = st.lists(
    st.sampled_from(["threads=4", "nonsense=1", "bisection_tol=0.001", "bisection-tol=0",
                     "# comment", "no equals sign"]),
    max_size=2,
)


@pytest.fixture(scope="module")
def trial_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("trial") / "trial.csv"
    write_dataset(simulate_trial(SMALL_SIM, seed=1), path)
    return str(path)


def _run_with_config(command, trial_csv, values, extra):
    lines = [f"{key}={value}" for key, value in values.items()] + extra
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("PHASETIP_SEED", None)
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        argv = [command, "--input", trial_csv, "--config", cfg, "--out", os.path.join(tmp, "out")]
        with wall_clock_bound(WALL_CLOCK_S):
            code = main(argv)
        if command == "tpa" and code == 0:
            assert_result_cells(os.path.join(tmp, "out"))
    if any(line != "# comment" for line in extra):
        assert code == 2  # a refused key or a line without "=" is a data error
    event(f"exit code {code}")
    return code


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=st.one_of(VALID_CONFIGS, ANY_CONFIGS), extra=EXTRA_LINES)
@example(values={"effect": "2"}, extra=["bisection_tol=0"])
@example(values={"effect": "1", "grid-max": "inf", "alpha_level": "0.99"}, extra=[])
@example(values={"effect": "3"}, extra=[])
@example(values={"threshold": "c"}, extra=[])
@example(values={"seed": "-1", "effect": "2"}, extra=[])
@example(values={"effect": "1", "threshold": "b"}, extra=["bisection_tol=1e-300"])
@example(values={"effect": "1", "grid_step": "1e-300"}, extra=[])
@example(values={"effect": "1", "replicates": "100000000"}, extra=[])
def test_any_config_file_ends_with_an_exit_code(trial_csv, values, extra):
    assert _run_with_config("tpa", trial_csv, values, extra) in (0, 1, 2, 3)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=st.one_of(VALID_CONFIGS, ANY_CONFIGS), extra=EXTRA_LINES)
@example(values={"effect": "2", "grid_step": "0"}, extra=[])
@example(values={"effect": "1", "grid_step": "-0.05"}, extra=[])
@example(values={"effect": "1", "grid_step": "1e-300"}, extra=[])
@example(values={"effect": "2", "grid_step": "1e-300"}, extra=[])
@example(values={"effect": "2", "grid_min": "0", "grid_step": "0.05"}, extra=[])
@example(values={"effect": "1", "grid-max": "inf"}, extra=[])
def test_any_curve_config_file_ends_with_an_exit_code(trial_csv, values, extra):
    assert _run_with_config("curve", trial_csv, values, extra) in (0, 1, 2, 3)
