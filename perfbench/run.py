"""Benchmark of the phasetip CLI, run the way a statistician runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
`src`, as the tests do, and outputs go to `.perfbench_work/`. The program
receives only a generated trial CSV and the argv of `phasetip.cli.main`.

With `--trace 0` a fresh worker process imports phasetip.cli and runs the
workload's command over and over for about S seconds. It reports:

  wall_s       time from calling main(argv) to its return
  cpu_s        user + system CPU time over the same interval, children
               included
  setup_s      time for a fresh process to import phasetip.cli, read the
               trial and make every replicate's draws, over several
  peak_rss_mb  peak resident memory of the worker process and its children

The three times are rescaled to a reference host speed: a fixed kernel
(hostspeed.py) is timed before and after every command and set-up
process, and the mean time is multiplied by REFERENCE_S over the mean of
the kernel times around those commands. The mean times as measured are
printed as well.

With `--trace 1` the commands alternate untraced and traced, and the spans
of the traced ones give the per-layer metrics (see tracer.py), with
`trace.overhead_s` the traced minus the untraced rescaled wall time.

Every command is checked against references.json; a non-zero exit code or
a failed check counts it as failed, and fail_frac = failed / attempted.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from checks import check_output, read_outputs
from tracer import layer_metrics, load_spans
from workloads import IMPUTATION_SEED, WORKLOADS, trial_fingerprint, trial_rows, write_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 3
MIN_CALLS = 2
TIME_LIMIT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code under test
    also in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "phasetip").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(load_average) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": source_sha256(),
        "load_average": list(load_average),
    }


def prepare_input(workload, seed, work, references):
    """Write the workload's trial CSV; returns (path, problems)."""
    rows = trial_rows(workload.arms)
    path = work / "trial.csv"
    write_input(rows, seed, path)
    problems = []
    trial = "x".join(map(str, workload.arms))
    expected = references["trials"].get(trial) if references else None
    if expected is not None and trial_fingerprint(rows) != expected:
        problems.append(f"trial {trial} differs from the one the references were recorded on")
    return path, problems


def setup_seconds(workload, input_path) -> tuple[float, float]:
    """Mean wall time of fresh processes doing the set-up of one command,
    rescaled to the reference host speed and as measured."""
    argv = [
        sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(input_path),
        str(workload.effect), str(IMPUTATION_SEED), str(workload.replicates),
    ]
    times, probes = [], [hostspeed.measure()[0]]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        probes.append(hostspeed.measure()[0])
    return hostspeed.rescale(times, hostspeed.around(probes)), statistics.mean(times)


def run_worker(workload, input_path, work, seconds, min_calls, trace, timeout) -> dict:
    """Run the measured process and return its JSON result."""
    spec = {
        "src": str(SRC), "argv": workload.argv(input_path), "work": str(work),
        "seconds": seconds, "min_calls": min_calls, "trace": bool(trace),
        "result": str(work / "worker.json"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        check=True, capture_output=True, timeout=timeout,
    )
    return json.loads((work / "worker.json").read_text())


def check_calls(workload, calls, ref) -> list[list[str]]:
    """Problems of each command: exit code, reference checks, and outputs
    that differ from the first command's (traced or not)."""
    first = None
    found = []
    for call in calls:
        problems = []
        if call["code"] != 0:
            problems.append(f"exit code {call['code']}: {call['stderr'].strip()[-400:]}")
        else:
            problems += check_output(workload, call["out"], ref)
            outputs = read_outputs(call["out"])
            if first is None:
                first = outputs
            elif outputs != first:
                problems.append("outputs differ from the first command's")
        found.append(problems)
    return found


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    started = time.perf_counter()
    load_average = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "phasetip" / "cli.py").is_file():
        print(f"perfbench: no phasetip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    references = json.loads(REFERENCES.read_text())
    ref = references["workloads"][workload.name]

    work = ROOT / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(load_average)
    print("env " + json.dumps(env), flush=True)

    input_path, run_problems = prepare_input(workload, args.seed, work, references)
    try:
        setup_s, raw_setup_s = (None, None) if args.trace else setup_seconds(workload, input_path)
        remaining = TIME_LIMIT_S - (time.perf_counter() - started)
        result = run_worker(
            workload, input_path, work, args.seconds, MIN_CALLS, args.trace, remaining
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload.name} did not finish within the time limit",
              file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as err:
        print(f"perfbench: {err.cmd[1]} failed:\n{err.stderr.decode()}", file=sys.stderr)
        return 1

    calls = result["calls"]
    problems = check_calls(workload, calls, ref)
    for problem in run_problems:
        print(f"perfbench: every command failed: {problem}", file=sys.stderr)
    for index, found in enumerate(problems):
        for problem in found:
            print(f"perfbench: command {index} failed: {problem}", file=sys.stderr)
    attempted = len(calls)
    failed = attempted if run_problems else sum(1 for found in problems if found)

    kernel_wall = hostspeed.around([p[0] for p in result["probes"]])
    kernel_cpu = hostspeed.around([p[1] for p in result["probes"]])

    def rescaled(key, kernel_times, traced=False):
        picked = [i for i, c in enumerate(calls) if c["traced"] == traced]
        return hostspeed.rescale([calls[i][key] for i in picked],
                                 [kernel_times[i] for i in picked])

    wall_s = rescaled("wall_s", kernel_wall)
    if args.trace:
        traced_wall = rescaled("wall_s", kernel_wall, traced=True)
        metrics = layer_metrics(load_spans(result["spans"]), traced_wall - wall_s)
    else:
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "cpu_s": _metric(rescaled("cpu_s", kernel_cpu), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
    untraced = [c for c in calls if not c["traced"]]
    measured = {
        "wall_s": statistics.mean(c["wall_s"] for c in untraced),
        "cpu_s": statistics.mean(c["cpu_s"] for c in untraced),
        "setup_s": raw_setup_s,
        "host kernel": statistics.mean(p[0] for p in result["probes"]),
    }

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} commands")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>12.6g} {metric['unit']}")
    for name, value in measured.items():
        if value is not None:
            print(f"  {name + ' as measured':<44} {value:>12.6g} s")
    print(f"  {'fail_frac':<44} {failed / attempted:>12.6g} "
          f"({failed} of {attempted} commands failed)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
