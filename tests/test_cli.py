"""CLI behavior: exit codes, determinism, emitted file structure."""

import csv
import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from unittest import mock
from xml.sax import saxutils

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasetip
import phasetip.cli
from conftest import wall_clock_bound
from phasetip.cli import main
from phasetip.counterfactual import Effect
from phasetip.dataio import HEADER, write_dataset
from phasetip.records import Trial
from phasetip import survival
from phasetip.simulate import SimConfig, simulate_trial
from phasetip.svgplot import escape, find_crossings, line_plot

SMALL_SIM = SimConfig(
    n_experimental=140, n_control=110,
    combo_event_hazard=0.07, switch_hazard=0.05, mono_event_hazard=0.10,
    hr_combo=0.75, hr_mono=0.35,
    accrual_months=18, cutoff_months=40, dropout_hazard=0.004,
)
DATA = os.path.join(os.path.dirname(__file__), "data")
SEARCH_USAGE = (
    "[--config CONFIG] [--seed SEED] --input INPUT [--effect {1,2}] [--threshold {a,b}] "
    "[--alpha-level ALPHA_LEVEL] [--grid-step GRID_STEP] [--grid-max GRID_MAX] "
    "[--grid-min GRID_MIN] [--imputation {auto,cutoff,fitted}] [--p-source {logrank,wald}] "
    "--out OUT"
)
# each subcommand's --help usage line
USAGE = {
    "analyze": "usage: phasetip analyze [-h] [--config CONFIG] --input INPUT [--stratified] "
               "[--ties {efron,breslow}]",
    "tpa": f"usage: phasetip tpa [-h] {SEARCH_USAGE} [--replicates N]",
    "curve": f"usage: phasetip curve [-h] {SEARCH_USAGE}",
    "simulate": "usage: phasetip simulate [-h] [--config CONFIG] [--seed SEED] --out OUT "
                "[--n-experimental N_EXPERIMENTAL] [--n-control N_CONTROL] "
                "[--combo-event-hazard COMBO_EVENT_HAZARD] [--switch-hazard SWITCH_HAZARD] "
                "[--mono-event-hazard MONO_EVENT_HAZARD] [--hr-combo HR_COMBO] "
                "[--hr-mono HR_MONO] [--switch-multiplier SWITCH_MULTIPLIER] "
                "[--accrual-months ACCRUAL_MONTHS] [--cutoff-months CUTOFF_MONTHS] "
                "[--dropout-hazard DROPOUT_HAZARD]",
}


def run_fresh_python(*args, timeout=60):
    """Run a fresh interpreter with the package on its path."""
    src = os.path.dirname(os.path.dirname(phasetip.__file__))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def small_dataset(tmp_path):
    path = tmp_path / "trial.csv"
    write_dataset(simulate_trial(SMALL_SIM, seed=1), path)
    return str(path)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["tpa", "--nope"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "analyze" in capsys.readouterr().err

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path / "none.csv")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_row_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,arm,pfs_months,event,mono_start_months,cutoff_months,stratum\n"
            "s1,E,10.0,1,12.0,30.0,\n"
        )
        assert main(["analyze", "--input", str(path)]) == 2

    def test_repeated_subject_id_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text(
            ",".join(HEADER) + "\n"
            "x,E,10.0,0,4.0,30.0,\ny,C,8.0,1,,30.0,\nx,E,12.0,0,5.0,30.0,\n"
        )
        code = main(["tpa", "--input", str(path), "--effect", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "row 4: subject_id 'x' repeats row 2" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # complete separation: all control events strictly before experimental
        path = tmp_path / "sep.csv"
        header = "subject_id,arm,pfs_months,event,mono_start_months,cutoff_months,stratum\n"
        rows = [f"c{i},C,{1 + i},1,,60.0,\n" for i in range(4)]
        rows += [f"e{i},E,{30 + i},1,,60.0,\n" for i in range(4)]
        path.write_text(header + "".join(rows))
        assert main(["analyze", "--input", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_unwritable_output_dir_is_data_error(self, small_dataset, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main([
            "tpa", "--input", small_dataset, "--effect", "1", "--threshold", "a",
            "--replicates", "1", "--grid-step", "0.2", "--out", str(blocker),
        ])
        assert code == 2

    def test_tpa_grid_walk_beyond_point_cap_is_data_error(self, small_dataset, tmp_path,
                                                          capsys):
        # 1 + k * 1e-300 rounds to 1, so the walk never reached its bound
        with wall_clock_bound(30):
            code = main([
                "tpa", "--input", small_dataset, "--effect", "1", "--replicates", "1",
                "--grid-step", "1e-300", "--out", str(tmp_path),
            ])
        assert code == 2
        assert "10000" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["grid_min=0", "grid-min=1.5", "grid_max=0.5"])
    def test_tpa_grid_bounds_checked_up_front(self, small_dataset, tmp_path, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        with mock.patch("phasetip.cli.find_tipping") as search:
            code = main(["tpa", "--input", small_dataset, "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        search.assert_not_called()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", sorted(USAGE))
    def test_help_lists_the_same_flags_and_choices(self, capsys, command):
        # the choice lists come from the library; the usage line, with its
        # line breaks undone, pins every flag, its argument and its choices
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert " ".join(usage.split()) == USAGE[command]

    def test_python_dash_m_runs_the_cli(self):
        proc = run_fresh_python("-m", "phasetip", "--help")
        assert proc.returncode == 0
        assert "tpa" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        # a fresh interpreter, because the test run itself imports scipy
        proc = run_fresh_python("-c", "import sys, phasetip.cli; "
                                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_network_modules(self):
        # the SVG writer escapes its own text, so nothing pulls in urllib
        modules = ["urllib.request", "http.client", "ssl", "email"]
        proc = run_fresh_python("-c", "import sys, phasetip.cli; "
                                f"print([m for m in {modules!r} if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @staticmethod
    def _run_every_command_with_blocked(module, tmp_path):
        """Every command exits 0 in a fresh process where a None entry in
        sys.modules makes any import of `module` fail."""
        trial, out = str(tmp_path / "trial.csv"), str(tmp_path / "out")
        commands = [
            ["simulate", "--out", trial, "--seed", "1", "--n-experimental", "80",
             "--n-control", "60"],
            ["analyze", "--input", trial],
            ["tpa", "--input", trial, "--effect", "1", "--replicates", "2",
             "--grid-step", "0.2", "--out", out],
            ["tpa", "--input", trial, "--effect", "2", "--p-source", "wald",
             "--replicates", "2", "--grid-step", "0.2", "--out", out],
            ["curve", "--input", trial, "--effect", "2", "--grid-step", "0.2", "--out", out],
        ]
        code = (f"import sys; sys.modules[{module!r}] = None; from phasetip.cli import main; "
                f"print([main(argv) for argv in {commands!r}])")
        proc = run_fresh_python("-c", code, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == str([0] * len(commands)), proc.stderr

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency
        self._run_every_command_with_blocked("scipy", tmp_path)

    def test_every_command_runs_with_numpy_ma_blocked(self, tmp_path):
        # np.unique(x) imports numpy.ma to ask whether x is masked (numpy
        # 2.4); the package takes distinct values from a sort instead
        self._run_every_command_with_blocked("numpy.ma", tmp_path)


class TestAnalyze:
    def test_report_on_calibrated_defaults(self, tmp_path, capsys):
        path = tmp_path / "default.csv"
        write_dataset(simulate_trial(SimConfig(), seed=6), path)
        assert main(["analyze", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Experimental arm: n=337" in out
        assert "Control arm: n=172" in out
        hr = float(out.split("Overall HR=")[1].split()[0])
        assert abs(hr - 0.705) < 0.05
        assert "Combination-phase HR=" in out
        assert "Monotherapy-phase HR=" in out

    def test_empty_dataset_errors_downstream(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(
            "subject_id,arm,pfs_months,event,mono_start_months,cutoff_months,stratum\n"
        )
        assert main(["analyze", "--input", str(path)]) == 2
        assert "dataset is empty" in capsys.readouterr().err

    def test_no_transitions_flagged_in_report(self, tmp_path, capsys):
        cfg = SimConfig(
            n_experimental=60, n_control=60, switch_hazard=1e-9,
            combo_event_hazard=0.08, accrual_months=6, cutoff_months=30,
        )
        path = tmp_path / "nomono.csv"
        write_dataset(simulate_trial(cfg, seed=2), path)
        assert main(["analyze", "--input", str(path)]) == 0
        assert "not estimable" in capsys.readouterr().out


    @pytest.mark.parametrize("stratified", [False, True])
    def test_separation_is_decided_per_stratum(self, tmp_path, capsys, stratified):
        # stratum 0: one experimental subject, censored early, among 200
        # controls who all have events; stratum 1: one experimental subject
        # with an event, alone at risk. Pooled, that event meets controls at
        # risk and the fit has a maximum. Per stratum it meets no control,
        # so the likelihood rises without bound as b_trt falls, and the fit
        # is refused before Newton
        path = tmp_path / "strata.csv"
        rows = [f"c{i},C,{i}.0,1,,210.0,0" for i in range(1, 201)]
        rows += ["e0,E,1.5,0,,210.0,0", "e1,E,3.0,1,,210.0,1"]
        path.write_text(",".join(HEADER) + "\n" + "\n".join(rows) + "\n")
        flags = ["--stratified"] if stratified else []
        code = main(["analyze", "--input", str(path), *flags])
        out, err = capsys.readouterr()
        if stratified:
            assert code == 3
            assert ("numerical failure: separation detected: the partial likelihood rises "
                    "without bound along trt=-1" in err)
        else:
            assert code == 0
            assert "Overall HR=" in out

    def test_arm_without_events_is_numerical_failure(self, tmp_path, capsys):
        # one experimental subject, censored early, among 200 controls who
        # all have events: the experimental arm is at risk but has no event,
        # so the likelihood has no maximum. The fit refuses it before its
        # first Newton step, instead of stopping at a flat gradient near
        # b = -14 and reporting HR 8.2e-7 (0, inf)
        path = tmp_path / "monotone.csv"
        rows = [f"c{i},C,{i}.0,1,,210.0," for i in range(1, 201)] + ["e0,E,1.5,0,,210.0,"]
        path.write_text(",".join(HEADER) + "\n" + "\n".join(rows) + "\n")
        assert main(["analyze", "--input", str(path)]) == 3
        assert ("numerical failure: separation detected: the partial likelihood rises "
                "without bound along trt=-1" in capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [[], ["--stratified", "--ties", "breslow"]])
    def test_risk_table_is_built_once(self, tmp_path, capsys, flags):
        path = tmp_path / "default.csv"
        write_dataset(simulate_trial(SimConfig(), seed=6), path)
        counter = mock.Mock(wraps=survival.risk_table)
        with mock.patch.object(survival, "risk_table", counter), \
                mock.patch.object(phasetip.cli, "risk_table", counter):
            assert main(["analyze", "--input", str(path), *flags]) == 0
        assert counter.call_count == 1
        assert "Monotherapy-phase HR=" in capsys.readouterr().out

    def test_negative_contrast_variance_is_numerical_failure(self, tmp_path, capsys):
        # no experimental subject enters monotherapy, so the interaction never
        # varies on the risk sets, and within each stratum beta = 0 is already
        # stationary: the information there is singular
        path = tmp_path / "indefinite.csv"
        path.write_text(",".join(HEADER) + "\n" + "\n".join([
            "s0,C,2.0,1,1.0,3.0,1", "s1,C,2.0,1,,3.0,1", "s2,E,2.0,1,,3.0,1",
            "s3,C,4.0,1,2.0,6.0,2", "s4,C,4.0,1,,6.0,2", "s5,E,4.0,1,,6.0,2",
        ]) + "\n")
        assert main(["analyze", "--input", str(path), "--stratified"]) == 3
        # the fit itself refuses its singular information matrix
        assert ("numerical failure: information at the optimum is not positive definite"
                in capsys.readouterr().err)


class TestAnalyzeConfig:
    """`analyze` takes `stratified` and `ties` from its config file; flags win."""

    @pytest.fixture
    def tied_strata_dataset(self, tmp_path):
        # whole-month times and two strata, so both settings change the fits
        records = []
        for i, r in enumerate(simulate_trial(SMALL_SIM, seed=1)):
            s = float(math.ceil(r.s))
            records.append(dataclasses.replace(r, s=s, cutoff=max(r.cutoff, s), stratum=i % 2))
        path = tmp_path / "tied.csv"
        write_dataset(records, path)
        return str(path)

    def _report(self, capsys, dataset, *args):
        assert main(["analyze", "--input", dataset, *args]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("lines, flags", [
        ("stratified=true", ["--stratified"]),
        ("stratified=1\nties=breslow", ["--stratified", "--ties", "breslow"]),
        ("stratified=false\nties=efron", []),
        ("stratified=0", []),
        ("ties=breslow", ["--ties", "breslow"]),
    ])
    def test_config_file_sets_stratified_and_ties(self, tied_strata_dataset, tmp_path, capsys,
                                                  lines, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines + "\n")
        expected = self._report(capsys, tied_strata_dataset, *flags)
        assert self._report(capsys, tied_strata_dataset, "--config", str(cfg)) == expected

    def test_settings_change_the_report_and_flags_win(self, tied_strata_dataset, tmp_path,
                                                      capsys):
        plain = self._report(capsys, tied_strata_dataset)
        stratified = self._report(capsys, tied_strata_dataset, "--stratified")
        breslow = self._report(capsys, tied_strata_dataset, "--ties", "breslow")
        assert len({plain, stratified, breslow}) == 3
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stratified=false\nties=breslow\n")
        assert self._report(capsys, tied_strata_dataset, "--config", str(cfg),
                            "--stratified", "--ties", "efron") == stratified

    @pytest.mark.parametrize("lines", [
        "stratified=yes", "stratified=", "stratified=True", "ties=exact", "nonsense=1",
    ])
    def test_bad_config_is_data_error(self, small_dataset, tmp_path, capsys, lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines + "\n")
        assert main(["analyze", "--input", small_dataset, "--config", str(cfg)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_config_file_is_data_error(self, small_dataset, tmp_path):
        missing = str(tmp_path / "none.cfg")
        assert main(["analyze", "--input", small_dataset, "--config", missing]) == 2


class TestMonoStartAtFollowUp:
    """A subject whose monotherapy starts at its follow-up time gets no draw
    and passes through every transform unchanged."""

    @pytest.mark.parametrize("effect, row", [
        ("1", "zz1,C,5.0,1,5.0,40.0,"), ("2", "zz2,E,6.0,0,6.0,40.0,"),
    ])
    def test_tpa_exits_zero(self, tmp_path, effect, row):
        path = tmp_path / "trial.csv"
        write_dataset(simulate_trial(SimConfig(), seed=6), path)
        with open(path, "a") as handle:
            handle.write(row + "\n")
        assert main(["tpa", "--input", str(path), "--effect", effect, "--replicates", "2",
                     "--seed", "0", "--out", str(tmp_path / "out")]) == 0


class TestTpaDeterminism:
    def _run(self, dataset, outdir):
        code = main([
            "tpa", "--input", dataset, "--effect", "2", "--threshold", "a",
            "--replicates", "4", "--seed", "7", "--grid-step", "0.1",
            "--out", outdir,
        ])
        assert code == 0
        with open(os.path.join(outdir, "results.csv"), "rb") as fh:
            return fh.read()

    def test_identical_seed_byte_identical_results(self, small_dataset, tmp_path):
        a = self._run(small_dataset, str(tmp_path / "run1"))
        b = self._run(small_dataset, str(tmp_path / "run2"))
        assert a == b

    def test_results_csv_has_published_table_columns(self, small_dataset, tmp_path):
        out = str(tmp_path / "cols")
        self._run(small_dataset, out)
        header = open(os.path.join(out, "results.csv")).readline().strip().split(",")
        for col in ("effect_method", "adjustment_factor_at_tip", "avg_n_events",
                    "hr_at_tip", "p_at_tip"):
            assert col in header


class TestConfigKeys:
    # the search ends at exact breakpoints, so bisection_tol sets nothing
    @pytest.mark.parametrize("line", ["grid_stepp=0.5", "threads=4", "nonsense=1",
                                      "bisection_tol=0.001"])
    def test_unknown_key_is_data_error_naming_it(self, small_dataset, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"effect=1\n{line}\n")
        code = main(["tpa", "--input", small_dataset, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert repr(line.split("=")[0]) in capsys.readouterr().err

    def test_key_read_by_another_command_is_accepted(self, tmp_path):
        # one file may serve several commands: tpa keys do not stop simulate
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("seed=5\nn_control=20\nn-experimental=25\ngrid_step=0.1\n"
                       "alpha_level=0.01\n")
        assert main(["simulate", "--out", str(tmp_path / "s.csv"), "--config", str(cfg)]) == 0

    def test_config_file_does_not_reach_the_next_call(self, tmp_path, monkeypatch):
        # main builds its parser once per process; what one call's file
        # sets stays on that call's arguments
        monkeypatch.delenv("PHASETIP_SEED", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\nn_experimental=7\n")
        argv = ["simulate", "--n-control", "6", "--out"]
        assert main([*argv, str(tmp_path / "first.csv"), "--config", str(cfg)]) == 0
        assert main([*argv, str(tmp_path / "second.csv")]) == 0
        proc = run_fresh_python("-m", "phasetip", *argv, str(tmp_path / "fresh.csv"))
        assert proc.returncode == 0, proc.stderr
        fresh = (tmp_path / "fresh.csv").read_bytes()
        assert (tmp_path / "second.csv").read_bytes() == fresh
        assert (tmp_path / "first.csv").read_bytes() != fresh

    def test_import_builds_no_parser(self):
        proc = run_fresh_python("-c", "import phasetip.cli as cli; "
                                "print(cli._parser.cache_info().currsize)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    @pytest.mark.parametrize("command", ["tpa", "curve"])
    def test_fit_settings_the_command_cannot_use_are_refused(self, small_dataset, tmp_path,
                                                             capsys, command):
        # tpa and curve fit unstratified models with Efron ties: a file that
        # asks for strata or Breslow ties is refused, naming the key
        argv = [command, "--input", small_dataset, "--effect", "1", "--grid-step", "0.2",
                "--out", str(tmp_path / "out")]
        if command == "tpa":
            argv += ["--replicates", "1"]
        cfg = tmp_path / "run.cfg"
        for lines in ("stratified=true", "stratified=1", "ties=breslow",
                      "stratified=0\nties=breslow"):
            cfg.write_text(lines + "\n")
            assert main([*argv, "--config", str(cfg)]) == 2
            key = lines.splitlines()[-1].split("=")[0]
            assert f"config key {key}=" in capsys.readouterr().err
        for lines in ("stratified=false", "stratified=0\nties=efron"):
            cfg.write_text(lines + "\n")
            assert main([*argv, "--config", str(cfg)]) == 0


# each search setting -> (a value, flags under which that value matters)
SEARCH_SETTINGS = {
    "effect": ("2", []),
    "threshold": ("b", []),
    "alpha-level": ("0.1", []),
    "grid-step": ("0.2", []),
    "grid-max": ("2.5", ["--effect", "1"]),
    "grid-min": ("0.5", ["--effect", "2"]),
    "imputation": ("fitted", ["--effect", "1"]),
    "p-source": ("wald", []),
    "seed": ("9", ["--effect", "2"]),
    "replicates": ("3", []),
}


class TestConfigThroughFlags:
    """A config key is its long flag without the dashes: it sets what the
    flag sets, cast and checked as the flag is."""

    @staticmethod
    def _outputs(outdir):
        return {name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))}

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in ("tpa", "curve") for key in SEARCH_SETTINGS
        if (command, key) != ("curve", "replicates")
    ])
    def test_flag_and_config_key_write_the_same_bytes(self, small_dataset, tmp_path, command,
                                                      key):
        value, context = SEARCH_SETTINGS[key]
        argv = [command, "--input", small_dataset, *context]
        base = {"grid-step": "0.1", **({"replicates": "2"} if command == "tpa" else {})}
        for flag, setting in base.items():
            if flag != key:
                argv += [f"--{flag}", setting]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key.replace('-', '_')}={value}\n")
        assert main([*argv, f"--{key}", value, "--out", str(tmp_path / "flag")]) == 0
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        assert self._outputs(tmp_path / "flag") == self._outputs(tmp_path / "file")

    def test_config_keys_are_the_long_flags(self, tmp_path, capsys):
        flags = set()
        for command in ("analyze", "tpa", "simulate", "curve"):
            assert main([command, "--help"]) == 0
            flags |= set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
        with mock.patch("phasetip.cli._load_config", return_value={}) as load:
            assert main(["simulate", "--config", "run.cfg", "--out", str(tmp_path / "s.csv"),
                         "--n-experimental", "5", "--n-control", "5"]) == 0
        assert load.call_args.args[1] == flags - {"input", "out", "config", "help"}

    @pytest.mark.parametrize("line", ["effect=01", "imputation=km", "p_source=bayes"])
    def test_value_outside_the_flags_choices_is_refused(self, small_dataset, tmp_path, capsys,
                                                        line):
        key, value = line.split("=")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with mock.patch("phasetip.cli.find_tipping") as search:
            code = main(["tpa", "--input", small_dataset, "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        search.assert_not_called()
        message = f"config value for {key.replace('_', '-')} is invalid: {value!r}"
        assert message in capsys.readouterr().err


class TestGoldenOutputs:
    """`results.csv` and the curve CSV are byte-identical to recorded files.

    The rule-a files and the curve were recorded before the columnar
    evaluation core replaced the per-record one. The two rule-b files were
    re-recorded when rule b's tip became the root of hr_mono = 1 in place
    of the first probe within 0.01 of it. All five were re-recorded when
    `math.erfc` replaced `scipy.special` for the p-values: only p cells
    moved, by at most 1.2e-14 relative (2.5e-15 in `results.csv`). All six
    were re-recorded again when `cox_fit` began fitting from the grouped
    risk-set table instead of the intervals: only HR cells moved, by at most
    6.1e-15 relative (2.6e-15 in `results.csv`); tips and p-values did not.
    The five `tpa` files were re-recorded when the search began to end at
    an exact rank breakpoint instead of a bisection tolerance: tips moved
    by at most 9.1e-4, HR and p cells by at most 2.6e-4, event counts not
    at all; the curve file did not change. All but the two rule-a `seed6_*`
    files were re-recorded when the Cox likelihood began to read the 4 x 4
    cross product of the risk-set shares: only HR cells moved, by at most
    1.5e-15 relative; tips, p-values and event counts did not.
    `tpa_effect1_fitted_a.csv` and the two effect-2 `seed6_*` files were
    re-recorded when the fitted imputation models began to sum their
    exposure with `math.fsum`: only tip_min, tip_max and tip_sd cells moved,
    by at most 2.9e-16, 1.4e-16 and 1.7e-15 relative.
    `tpa_effect1_fitted_a.csv` pins the fitted censoring imputation, which
    the other effect-1 files (cutoff imputation) never reach. The four
    `seed6_*` files are `tpa` at CLI defaults (imputation seed 0) on the
    calibrated seed-6 trial (`simulate --seed 6`), for effect 1/2 x rule a/b."""

    @pytest.mark.parametrize("golden,flags", [
        ("tpa_effect1_a", ["--effect", "1", "--threshold", "a"]),
        ("tpa_effect2_a", ["--effect", "2", "--threshold", "a"]),
        ("tpa_effect1_b", ["--effect", "1", "--threshold", "b"]),
        ("tpa_effect2_b", ["--effect", "2", "--threshold", "b"]),
        ("tpa_effect1_fitted_a",
         ["--effect", "1", "--threshold", "a", "--imputation", "fitted"]),
    ], ids=["a-1", "a-2", "b-1", "b-2", "fitted-a-1"])
    def test_tpa_results_csv(self, small_dataset, tmp_path, golden, flags):
        code = main([
            "tpa", "--input", small_dataset, *flags,
            "--replicates", "4", "--seed", "7", "--grid-step", "0.1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        golden = os.path.join(DATA, f"{golden}.csv")
        assert (tmp_path / "results.csv").read_bytes() == open(golden, "rb").read()

    @pytest.fixture(scope="class")
    def seed6_dataset(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("seed6") / "trial.csv"
        write_dataset(simulate_trial(SimConfig(), seed=6), path)
        return str(path)

    @pytest.mark.parametrize("effect", ["1", "2"])
    @pytest.mark.parametrize("threshold", ["a", "b"])
    def test_seed6_results_csv_at_cli_defaults(self, seed6_dataset, tmp_path, monkeypatch,
                                               effect, threshold):
        monkeypatch.delenv("PHASETIP_SEED", raising=False)
        code = main(["tpa", "--input", seed6_dataset, "--effect", effect,
                     "--threshold", threshold, "--out", str(tmp_path)])
        assert code == 0
        golden = os.path.join(DATA, f"seed6_effect{effect}_{threshold}.csv")
        assert (tmp_path / "results.csv").read_bytes() == open(golden, "rb").read()

    def test_curve_csv(self, small_dataset, tmp_path):
        code = main([
            "curve", "--input", small_dataset, "--effect", "2", "--threshold", "a",
            "--seed", "5", "--grid-step", "0.05", "--grid-min", "0.15", "--out", str(tmp_path),
        ])
        assert code == 0
        golden = os.path.join(DATA, "curve_2_a.csv")
        assert (tmp_path / "curve_2_a.csv").read_bytes() == open(golden, "rb").read()


class TestRowOrder:
    """The order of a trial's rows changes no bit of the output: the seed-6
    trial and two shuffles of its rows give byte-identical files."""

    @staticmethod
    def _orders(records, tmp_path_factory):
        paths = []
        for shuffle in (None, 1, 2):
            rows = list(records)
            if shuffle is not None:
                random.Random(shuffle).shuffle(rows)
            path = tmp_path_factory.mktemp("order") / "trial.csv"
            write_dataset(Trial.from_records(rows), path)
            paths.append(str(path))
        return paths

    @pytest.fixture(scope="class")
    def seed6_orders(self, tmp_path_factory):
        return self._orders(simulate_trial(SimConfig(), seed=6), tmp_path_factory)

    @pytest.fixture(scope="class")
    def tied_strata_orders(self, tmp_path_factory):
        # whole-month times in three strata, so ties and strata enter the fits
        records = []
        for i, r in enumerate(simulate_trial(SimConfig(), seed=6)):
            s = float(math.ceil(r.s))
            mono = None if r.mono_start is None else float(math.ceil(r.mono_start))
            records.append(dataclasses.replace(r, s=s, cutoff=max(r.cutoff, s), mono_start=mono,
                                               stratum=i % 3))
        return self._orders(records, tmp_path_factory)

    def _outputs(self, paths, tmp_path, argv, name):
        outputs = []
        for k, path in enumerate(paths):
            out = tmp_path / str(k)
            assert main([*argv, "--input", path, "--out", str(out)]) == 0
            outputs.append((out / name).read_bytes())
        return outputs

    @pytest.mark.parametrize("flags", [
        ["--effect", "1", "--threshold", "a"],
        ["--effect", "1", "--threshold", "b"],
        ["--effect", "2", "--threshold", "a"],
        ["--effect", "2", "--threshold", "b"],
        ["--effect", "1", "--threshold", "a", "--imputation", "fitted"],
    ], ids=["a-1", "b-1", "a-2", "b-2", "fitted-a-1"])
    def test_tpa_results_csv(self, seed6_orders, tmp_path, flags):
        outputs = self._outputs(seed6_orders, tmp_path,
                                ["tpa", *flags, "--replicates", "6"], "results.csv")
        assert outputs[1:] == outputs[:-1]

    def test_curve(self, seed6_orders, tmp_path):
        argv = ["curve", "--effect", "2", "--threshold", "b", "--grid-step", "0.01"]
        for name in ("curve_2_b.csv", "curve_2_b.svg"):
            outputs = self._outputs(seed6_orders, tmp_path / name, argv, name)
            assert outputs[1:] == outputs[:-1]

    @pytest.mark.parametrize("flags", [[], ["--stratified", "--ties", "breslow"]])
    @pytest.mark.parametrize("orders", ["seed6_orders", "tied_strata_orders"])
    def test_analyze_report(self, request, orders, capsys, flags):
        reports = []
        for path in request.getfixturevalue(orders):
            assert main(["analyze", "--input", path, *flags]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[1:] == reports[:-1]


class TestSimulateCommand:
    def test_emits_ingestible_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--out", str(out), "--seed", "3",
            "--n-experimental", "50", "--n-control", "40",
        ])
        assert code == 0
        assert "wrote 90 subjects" in capsys.readouterr().out
        assert main(["analyze", "--input", str(out)]) == 0

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("PHASETIP_SEED", "11")
        assert main(["simulate", "--out", str(out1), "--n-experimental", "30",
                     "--n-control", "30"]) == 0
        monkeypatch.delenv("PHASETIP_SEED")
        assert main(["simulate", "--out", str(out2), "--n-experimental", "30",
                     "--n-control", "30", "--seed", "11"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_seed_env_is_data_error_only_when_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PHASETIP_SEED", "abc")
        argv = ["simulate", "--out", str(tmp_path / "s.csv"), "--n-experimental", "20",
                "--n-control", "20"]
        assert main(argv) == 2
        assert "PHASETIP_SEED" in capsys.readouterr().err
        assert main([*argv, "--seed", "3"]) == 0
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=3\n")
        assert main([*argv, "--config", str(cfg)]) == 0

    def test_negative_seed_is_data_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "s.csv"), "--seed", "-1"]) == 2

    def test_analyze_takes_no_seed(self, small_dataset, tmp_path, capsys):
        # analyze draws nothing; a seed in a shared config file is still accepted
        assert main(["analyze", "--input", small_dataset, "--seed", "5"]) == 1
        assert "--seed" in capsys.readouterr().err
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("seed=5\n")
        assert main(["analyze", "--input", small_dataset, "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("flag", [flag for flag, cast in phasetip.cli.SIM_FLAGS.items()
                                      if cast is float])
    def test_bad_setting_is_data_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--out", str(out), f"--{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and flag.replace("-", "_") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_file_supplies_defaults_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nn-experimental=25\nn_control=20\n")
        out1 = tmp_path / "c1.csv"
        assert main(["simulate", "--out", str(out1), "--config", str(cfg)]) == 0
        assert sum(1 for _ in open(out1)) == 1 + 45
        out2 = tmp_path / "c2.csv"
        assert main(["simulate", "--out", str(out2), "--config", str(cfg),
                     "--n-experimental", "30"]) == 0
        assert sum(1 for _ in open(out2)) == 1 + 50


class TestCurveCommand:
    def test_curve_csv_monotone_grid_and_svg_crossing(self, small_dataset, tmp_path):
        out = str(tmp_path / "curves")
        code = main([
            "curve", "--input", small_dataset, "--effect", "2", "--threshold", "a",
            "--seed", "5", "--grid-step", "0.05", "--grid-min", "0.15", "--out", out,
        ])
        assert code == 0
        csv_path = os.path.join(out, "curve_2_a.csv")
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "gamma,p,hr_overall,hr_mono"
        gammas = [float(line.split(",")[0]) for line in lines[1:]]
        assert gammas == sorted(gammas, reverse=True)

        svg_path = os.path.join(out, "curve_2_a.svg")
        root = ET.parse(svg_path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = root.findall(".//svg:polyline", ns)
        assert len(polylines) == 1
        circles = root.findall(".//svg:circle", ns)
        assert len(circles) == 1  # single significance crossing

    @pytest.mark.parametrize("step", ["0.05", "0.01", "0.002"])
    def test_grid_min_below_float_resolution_keeps_factors_positive(
            self, small_dataset, tmp_path, step):
        # the grid's last step from 1 lands at about -8.9e-16, not at 0
        out = str(tmp_path / "tiny")
        code = main([
            "curve", "--input", small_dataset, "--effect", "2", "--threshold", "a",
            "--seed", "5", "--grid-step", step, "--grid-min", "1e-10", "--out", out,
        ])
        assert code == 0
        lines = open(os.path.join(out, "curve_2_a.csv")).read().strip().splitlines()
        gammas = [float(line.split(",")[0]) for line in lines[1:]]
        assert gammas and all(g > 0 for g in gammas)

    def test_three_point_curve_svg_structure(self, small_dataset, tmp_path):
        out = str(tmp_path / "c3")
        code = main([
            "curve", "--input", small_dataset, "--effect", "1", "--threshold", "a",
            "--seed", "5", "--grid-step", "0.25", "--grid-max", "1.5", "--out", out,
        ])
        assert code == 0
        root = ET.parse(os.path.join(out, "curve_1_a.svg")).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = root.findall(".//svg:polyline", ns)
        assert len(polylines) == 1
        vertices = polylines[0].get("points").split()
        assert len(vertices) == 3

    def test_threshold_b_curve_uses_mono_hr(self, small_dataset, tmp_path):
        out = str(tmp_path / "cb")
        code = main([
            "curve", "--input", small_dataset, "--effect", "1", "--threshold", "b",
            "--seed", "5", "--grid-step", "0.25", "--grid-max", "4.0", "--out", out,
        ])
        assert code == 0
        assert os.path.exists(os.path.join(out, "curve_1_b.csv"))
        assert os.path.exists(os.path.join(out, "curve_1_b.svg"))

    @pytest.mark.parametrize("flags", [
        ["--effect", "2", "--grid-step", "0"],
        ["--effect", "1", "--grid-step=-0.1"],
        ["--effect", "1", "--grid-step", "1e-300"],
        ["--effect", "2", "--grid-step", "1e-300"],
        ["--effect", "1", "--grid-step", "nan"],
        ["--effect", "1", "--grid-max", "1e300"],
        ["--effect", "1", "--grid-max", "nan"],
        ["--effect", "2", "--grid-min", "0"],
        ["--effect", "2", "--grid-min=-inf"],
    ])
    def test_bad_grid_is_data_error_before_any_grid(self, small_dataset, tmp_path, flags):
        # the point count is checked from the bounds and the step, so no grid
        # is allocated and nothing is evaluated
        with mock.patch("phasetip.tipping.np.arange") as arange, \
                mock.patch("phasetip.cli.grid_scan") as scan, wall_clock_bound(30):
            code = main(["curve", "--input", small_dataset, *flags, "--out", str(tmp_path)])
        assert code == 2
        arange.assert_not_called()
        scan.assert_not_called()

    def test_config_sets_p_source_and_alpha_level(self, small_dataset, tmp_path, capsys):
        # the file sets the p column, the reference line and the crossings
        # counted, as --p-source and --alpha-level do
        from phasetip.dataio import read_dataset
        from phasetip.tipping import SearchConfig, grid_scan

        argv = ["curve", "--input", small_dataset, "--effect", "2", "--threshold", "a",
                "--seed", "5", "--grid-step", "0.05", "--grid-min", "0.15"]
        assert main([*argv, "--out", str(tmp_path / "logrank")]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p-source=wald\nalpha-level=0.1\n")
        capsys.readouterr()
        with mock.patch("phasetip.cli.line_plot", wraps=line_plot) as plot:
            assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "wald")]) == 0
        assert plot.call_args.kwargs["ref_y"] == 0.1

        with open(tmp_path / "wald" / "curve_2_a.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gammas = [float(row["gamma"]) for row in rows]
        config = SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL, p_source="wald", seed=5)
        wald = [pt.p_two_sided for pt in grid_scan(read_dataset(small_dataset), config, gammas)]
        assert [float(row["p"]) for row in rows] == wald
        logrank = (tmp_path / "logrank" / "curve_2_a.csv").read_bytes()
        assert (tmp_path / "wald" / "curve_2_a.csv").read_bytes() != logrank

        n_cross = len(find_crossings(gammas, wald, 0.1))
        assert n_cross >= 1
        assert f"{len(rows)} points, {n_cross} crossing(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, setting", [
        (["--effect", "1", "--grid-max", "0.99"], "grid_max"),
        (["--effect", "2", "--grid-min", "1.5"], "grid_min"),
        (["--effect", "1", "--grid-min", "5"], "grid_min"),
    ])
    def test_bound_outside_its_range_is_refused_as_by_tpa(self, small_dataset, tmp_path,
                                                          capsys, flags, setting):
        out = tmp_path / "refused"
        code = main(["curve", "--input", small_dataset, "--threshold", "a", "--seed", "5",
                     *flags, "--out", str(out)])
        assert code == 2
        assert f"{setting} must be" in capsys.readouterr().err
        assert not out.exists()

    def _rewritten(self, tmp_path, change):
        path = tmp_path / "trial.csv"
        records = simulate_trial(SMALL_SIM, seed=1)
        write_dataset([change(r) for r in records], path)
        return str(path)

    def test_threshold_b_without_monotherapy_is_data_error(self, tmp_path, capsys):
        path = self._rewritten(tmp_path, lambda r: dataclasses.replace(r, mono_start=None))
        out = str(tmp_path / "out")
        for command in ("curve", "tpa"):
            code = main([command, "--input", path, "--effect", "1", "--threshold", "b",
                         "--out", out])
            assert code == 2
            assert "no mono phase to neutralize" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_threshold_b_without_mono_events_writes_csv_no_svg(self, tmp_path, capsys):
        # every monotherapy subject censored: no point has a monotherapy HR
        path = self._rewritten(
            tmp_path, lambda r: dataclasses.replace(r, delta=0) if r.in_mono else r)
        out = str(tmp_path / "out")
        code = main(["curve", "--input", path, "--effect", "1", "--threshold", "b",
                     "--grid-max", "1.5", "--out", out])
        assert code == 0
        assert "no grid point has a monotherapy-phase HR" in capsys.readouterr().out
        with open(os.path.join(out, "curve_1_b.csv")) as handle:
            header, *rows = handle.read().splitlines()
        assert header == "gamma,p,hr_overall,hr_mono"
        assert len(rows) == 11 and all(row.endswith(",") for row in rows)
        assert not os.path.exists(os.path.join(out, "curve_1_b.svg"))


    def test_crossing_count_is_the_circles_drawn_across_a_gap(self, small_dataset, tmp_path,
                                                              capsys):
        # the middle point has no monotherapy HR: the plot joins its
        # neighbours across the gap, crossing 1 there, and the printed count
        # is that of the circles drawn
        from phasetip.tipping import TpaCurvePoint

        points = [TpaCurvePoint(gamma=g, p_two_sided=0.01, hr_overall=0.8, hr_mono=hr,
                                n_events=10)
                  for g, hr in ((1.0, 0.95), (0.9, None), (0.8, 1.05))]
        out = tmp_path / "out"
        with mock.patch("phasetip.cli.grid_scan", return_value=points):
            assert main(["curve", "--input", small_dataset, "--effect", "2",
                         "--threshold", "b", "--out", str(out)]) == 0
        assert "(3 points, 1 crossing(s))" in capsys.readouterr().out
        root = ET.parse(out / "curve_2_b.svg").getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 1

    def test_line_plot_returns_the_crossings_it_marks(self, tmp_path):
        xs, ys = [1.0, 0.9, 0.8], [0.95, None, 1.05]
        assert find_crossings(xs, ys, 1.0) == []   # the gap breaks the series
        assert line_plot(xs, ys, tmp_path / "gap.svg", ref_y=1.0) == [pytest.approx(0.9)]
        assert line_plot(xs, ys, tmp_path / "plain.svg") == []


class TestSvgEscape:
    @pytest.mark.parametrize("text", [
        "", "plain", "a < b & c > d", "&amp; already", "<script>&lt;</script>",
        "&&<<>>", "quotes ' and \" stay", "\u00e9\u2264\U0001f600 <\x00>",
    ])
    def test_same_as_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=st.text(alphabet=st.sampled_from("&<>;amptgl#x \"'\u00e9\U0001f600"),
                        max_size=30) | st.text(max_size=30))
    def test_same_as_saxutils_on_generated_text(self, text):
        assert escape(text) == saxutils.escape(text)


class TestEmitResults:
    def test_one_row_per_effect_threshold(self, small_dataset, tmp_path):
        from phasetip.cli import emit_results
        from phasetip.counterfactual import Effect, Threshold
        from phasetip.dataio import read_dataset
        from phasetip.tipping import SearchConfig, find_tipping

        records = read_dataset(small_dataset)
        results = []
        for effect in Effect:
            for threshold in Threshold:
                cfg = SearchConfig(effect=effect, threshold=threshold,
                                   grid_step=0.2, mi_replicates=1, seed=2)
                results.append(find_tipping(records, cfg))
        path = emit_results(results, str(tmp_path / "all"))
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 5
        tags = [line.split(",")[0] for line in lines[1:]]
        assert tags == [
            "effect1_threshold_a", "effect1_threshold_b",
            "effect2_threshold_a", "effect2_threshold_b",
        ]

    def test_reported_point_without_hr_writes_empty_cells(self, small_dataset, tmp_path,
                                                         capsys):
        # every Cox fit fails, every log-rank test works: rule a still finds
        # its tip, and the reported point carries p but no HR
        import phasetip.tipping
        from phasetip.errors import SeparationError

        def failing_fit(*args, **kwargs):
            raise SeparationError()

        out = str(tmp_path / "nohr")
        with mock.patch.object(phasetip.tipping, "cox_fit", failing_fit):
            code = main(["tpa", "--input", small_dataset, "--effect", "1", "--threshold", "a",
                         "--replicates", "1", "--grid-step", "0.2", "--out", out])
        assert code == 0
        assert "HR at tip n/a" in capsys.readouterr().out
        with open(os.path.join(out, "results.csv"), newline="") as fh:
            header, row = list(csv.reader(fh))
        cells = dict(zip(header, row))
        assert cells["hr_at_tip"] == ""
        assert float(cells["p_at_tip"]) > 0.05
        assert float(cells["adjustment_factor_at_tip"]) > 1.0
        assert "None" not in row and "skipped" not in cells["flags"]
