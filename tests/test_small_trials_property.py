"""Property test: every command ends with an exit code on any small valid
trial.

The trials have 1 to 14 subjects whose times come from a short list, so
tied times, a monotherapy start equal to the follow-up time, subjects
without a monotherapy phase, strata and one-arm trials all occur. Each
trial runs through `analyze` (plain and stratified), `tpa` for both effects
and both stop rules, and `curve` for both effects. Every run must return
0-3 from `main` within a wall-clock bound, and no run may fail for want of
an imputed time: the draws always cover what the transforms need. A `tpa`
run that succeeds writes each numeric cell of results.csv as a finite
number, or empty where no replicate's point has that value.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, event, example, given, settings

from conftest import C, E, assert_result_cells, rec, trials, wall_clock_bound
from phasetip.cli import main
from phasetip.dataio import write_dataset

WALL_CLOCK_S = 60
TPA = ["--replicates", "2", "--grid-step", "0.25"]
COMMANDS = [
    ["analyze"],
    ["analyze", "--stratified"],
    *(["tpa", "--effect", e, "--threshold", t, *TPA] for e in "12" for t in "ab"),
    ["curve", "--effect", "1"],
    ["curve", "--effect", "2"],
]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(records=trials(max_size=14))
# information matrices that pass the Cholesky check and are then singular
# to the inverse, once under each likelihood arithmetic
@example(records=[
    rec(0, E, 2.0, 1, cutoff=3.5, mono=2.0, stratum=0), rec(1, E, 4.0, 1, cutoff=4.0, stratum=0),
    rec(2, E, 2.0, 1, cutoff=8.0, mono=1.0), rec(3, C, 7.0, 0, cutoff=7.0, mono=1.0, stratum=0),
    rec(4, C, 2.5, 1, cutoff=8.5, mono=0.5), rec(5, E, 1.0, 0, cutoff=7.0),
    rec(6, E, 7.0, 0, cutoff=13.0, mono=2.0), rec(7, C, 0.5, 0, cutoff=6.5),
])
@example(records=[
    rec(0, E, 7.0, 1, cutoff=7.0, mono=7.0, stratum=0), rec(1, C, 1.0, 0, cutoff=7.0, mono=0.5),
    rec(2, E, 7.0, 1, cutoff=7.0, mono=4.0), rec(3, C, 2.5, 0, cutoff=2.5, stratum=1),
    rec(4, C, 1.0, 0, cutoff=7.0, stratum=1), rec(5, E, 0.5, 1, cutoff=6.5, mono=0.5, stratum=0),
    rec(6, E, 1.0, 0, cutoff=1.0, mono=1.0, stratum=0), rec(7, C, 2.5, 1, cutoff=4.0),
    rec(8, C, 0.5, 0, cutoff=6.5, mono=0.5, stratum=0), rec(9, E, 2.0, 0, cutoff=8.0),
])
def test_every_command_ends_with_an_exit_code(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trial.csv")
        write_dataset(records, path)
        outdir = os.path.join(tmp, "out")
        for command in COMMANDS:
            # analyze draws nothing, so it takes neither a seed nor an output directory
            more = [] if command[0] == "analyze" else ["--seed", "0", "--out", outdir]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    wall_clock_bound(WALL_CLOCK_S):
                code = main([*command, "--input", path, *more])
            event(f"{' '.join(command[:5])}: exit code {code}")
            assert code in (0, 1, 2, 3), command
            assert "missing imputed" not in err.getvalue(), (command, err.getvalue())
            if command[0] == "tpa" and code == 0:
                assert_result_cells(outdir)
