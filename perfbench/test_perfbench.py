"""Quick self-test of the benchmark on a tiny trial (50 subjects, 2 replicates).

    python3 -m pytest perfbench

Exercises the generator, the output checks and the tracer in seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
from checks import check_output, parse_output
from run import HERE, ROOT, SRC, check_calls, run_worker
from tracer import LAYER_UNITS, layer_metrics, load_spans, self_times
from workloads import Workload, trial_fingerprint, trial_rows, write_input

sys.path.insert(0, str(SRC))

TINY_TPA = Workload(
    name="tiny_tpa", why="self-test", arms=(30, 20),
    args=("tpa", "--effect", "2", "--threshold", "b", "--replicates", "2",
          "--grid-step", "0.05"),
    effect=2, replicates=2,
)
TINY_CURVE = Workload(
    name="tiny_curve", why="self-test", arms=(30, 20),
    args=("curve", "--effect", "1", "--threshold", "b", "--grid-max", "1.5",
          "--grid-step", "0.05"),
    effect=1, replicates=1,
)


def traced_run(workload, tmp_path, seed=3):
    tmp_path.mkdir(exist_ok=True)
    input_path = tmp_path / "trial.csv"
    write_input(trial_rows(workload.arms), seed, input_path)
    return run_worker(workload, input_path, tmp_path, 0, 2, True, 120)


def test_generator_depends_only_on_the_seed(tmp_path):
    rows = trial_rows(TINY_TPA.arms)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (1, 1, 2)):
        write_input(rows, seed, path)
    a, b, c = (path.read_text() for path in paths)
    assert a == b
    assert a != c
    assert sorted(a.splitlines()) == sorted(c.splitlines())
    assert trial_fingerprint(rows) == trial_fingerprint(trial_rows(TINY_TPA.arms))


@pytest.mark.parametrize("workload", [TINY_TPA, TINY_CURVE], ids=lambda w: w.name)
def test_traced_run_matches_untraced_and_reports_every_layer(workload, tmp_path):
    result = traced_run(workload, tmp_path)
    calls = result["calls"]
    assert [c["traced"] for c in calls] == [False, True]
    assert [c["code"] for c in calls] == [0, 0]
    assert len(result["probes"]) == len(calls) + 1
    ref = parse_output(workload, calls[0]["out"])
    # both commands pass the checks, and their outputs are byte-identical
    assert check_calls(workload, calls, ref) == [[], []]

    spans = load_spans(result["spans"])
    assert {s[4] for s in spans} == {1}
    metrics = layer_metrics(spans, 0.0)
    assert list(metrics) == list(LAYER_UNITS)
    assert metrics["tipping.evaluate_at.calls"]["value"] > 0
    assert metrics["tipping.searches"]["value"] == workload.replicates
    assert metrics["dataio.read_dataset.ms"]["value"] > 0
    assert all(t >= 0 for t in self_times(spans))


def test_checks_reject_outputs_off_the_reference(tmp_path):
    calls = traced_run(TINY_TPA, tmp_path / "tpa")["calls"]
    ref = parse_output(TINY_TPA, calls[0]["out"])
    off = dict(ref, adjustment_factor_at_tip=ref["adjustment_factor_at_tip"] + 0.01)
    assert check_output(TINY_TPA, calls[0]["out"], off)
    assert check_output(TINY_TPA, calls[0]["out"], dict(ref, n_degenerate="1"))

    calls = traced_run(TINY_CURVE, tmp_path / "curve")["calls"]
    ref = parse_output(TINY_CURVE, calls[0]["out"])
    off = dict(ref, p=[p * (1 + 1e-7) for p in ref["p"]])
    assert check_output(TINY_CURVE, calls[0]["out"], off)


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, None, 0, {}],
        ["a", 1.0, 4.0, 0, 0, {}],
        ["b", 3.0, 6.0, 0, 0, {}],   # overlaps a: the union is 5
        ["c", 1.5, 2.0, 1, 0, {}],
    ]
    assert self_times(spans) == [5.0, 2.5, 3.0, 0.5]


def test_rescaling_uses_the_kernel_times_around_each_command():
    ref = hostspeed.REFERENCE_S
    kernel_times = hostspeed.around([2 * ref, 2 * ref, ref])
    assert kernel_times == pytest.approx([2 * ref, 1.5 * ref])
    # 6 s with the kernel at twice its reference time reads 3 s
    assert hostspeed.rescale([6.0], kernel_times[:1]) == pytest.approx(3.0)
    # a ratio of sums: (6 + 3) s over (2 + 1.5) reference kernel times
    assert hostspeed.rescale([6.0, 3.0], kernel_times) == pytest.approx(9.0 / 3.5)


def test_run_fails_where_there_are_no_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "shrink_mi_509", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert sorted(p.name for p in Path(tmp_path).iterdir()) == ["BENCHMARK.json", HERE.name]
