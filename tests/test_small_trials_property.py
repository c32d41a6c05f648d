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

from hypothesis import HealthCheck, event, given, settings

from conftest import assert_result_cells, trials, wall_clock_bound
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
def test_every_command_ends_with_an_exit_code(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trial.csv")
        write_dataset(records, path)
        for command in COMMANDS:
            out = [] if command[0] == "analyze" else ["--out", os.path.join(tmp, "out")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    wall_clock_bound(WALL_CLOCK_S):
                code = main([*command, "--input", path, "--seed", "0", *out])
            event(f"{' '.join(command[:5])}: exit code {code}")
            assert code in (0, 1, 2, 3), command
            assert "missing imputed" not in err.getvalue(), (command, err.getvalue())
            if command[0] == "tpa" and code == 0:
                assert_result_cells(out[1])
