"""Benchmark workloads and the input generator.

Every workload runs one `phasetip` CLI command on a trial CSV that the
benchmark generates. The trials are the calibrated ones: the package's
own simulator at trial seed 6, with the default 509-subject arms or with
2000/1000 subjects, and the imputation seed is fixed. Neither changes with
the workload seed, because both move the tipping points and so the amount
of work: on trial seeds 0-23 one replicate's search spends anywhere from 1
to 80 evaluations, and over imputation seeds 0-15 a `shrink_mi_509` command
spends 707 to 757. The run times would then measure the seed as well as
the program.

The workload seed shuffles the rows of the CSV instead. Every seed gives
another input file with the same content, so the results may move only by
floating-point rounding, which the reference checks allow.

`inflate_3000` runs like the others but is not listed in BENCHMARK.json:
its 10 s commands track the host-speed kernel (hostspeed.py) worst, and
without it the two listed workloads can run 45 s each within the time all
runs of the benchmark are given. Every layer it reaches is reached by
those two.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass

TRIAL_SEED = 6
IMPUTATION_SEED = 0
HEADER = [
    "subject_id", "arm", "pfs_months", "event",
    "mono_start_months", "cutoff_months", "stratum",
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    arms: tuple            # (n_experimental, n_control) of the simulated trial
    args: tuple            # CLI arguments before --input/--seed/--out
    effect: int
    replicates: int        # draw sets the command makes (set-up time probe)

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def threshold(self) -> str:
        return self.args[self.args.index("--threshold") + 1]

    def argv(self, input_path) -> list[str]:
        """CLI arguments; the measured process appends --out."""
        return [*self.args, "--input", str(input_path), "--seed", str(IMPUTATION_SEED)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="shrink_mi_509",
            why="effect 2, rule a, CLI defaults: fitted imputation gives 20 distinct "
                "draw sets, so per-evaluation cost, evaluations per search and "
                "replicate parallelism all show",
            arms=(337, 172),
            args=("tpa", "--effect", "2", "--threshold", "a"),
            effect=2, replicates=20,
        ),
        Workload(
            name="inflate_3000",
            why="effect 1, rule b on 3000 subjects: cutoff imputation shares one "
                "search across replicates; a long grid walk stresses per-row "
                "survival code at 6x the working set",
            arms=(2000, 1000),
            args=("tpa", "--effect", "1", "--threshold", "b"),
            effect=1, replicates=20,
        ),
        Workload(
            name="curve_grid_509",
            why="effect 2, rule b curve over a fixed 301-point grid: the evaluation "
                "count is fixed, so only per-evaluation cost and the CSV/SVG "
                "output path show",
            arms=(337, 172),
            args=("curve", "--effect", "2", "--threshold", "b",
                  "--grid-min", "0.4", "--grid-step", "0.002"),
            effect=2, replicates=1,
        ),
    )
}


def trial_rows(arms) -> list[list[str]]:
    """Rows of the simulated trial in the dataset schema, in subject order."""
    from phasetip import SimConfig, simulate_trial

    n_experimental, n_control = arms
    records = simulate_trial(
        SimConfig(n_experimental=n_experimental, n_control=n_control), seed=TRIAL_SEED
    )
    return [
        [
            r.subject_id,
            r.arm.code,
            repr(float(r.s)),
            str(r.delta),
            "" if r.mono_start is None else repr(float(r.mono_start)),
            repr(float(r.cutoff)),
            "" if r.stratum is None else str(r.stratum),
        ]
        for r in records
    ]


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def trial_fingerprint(rows) -> str:
    """SHA-256 of the trial in subject order; the references hold it, so a
    simulator change that alters the inputs is caught, not compared."""
    return hashlib.sha256(_csv_text(rows).encode()).hexdigest()


def write_input(rows, seed: int, path) -> None:
    """Write the trial with its rows shuffled by `seed`."""
    shuffled = list(rows)
    random.Random(seed).shuffle(shuffled)
    with open(path, "w", newline="") as handle:
        handle.write(_csv_text(shuffled))
