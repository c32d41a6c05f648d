"""Record references.json from the code in this checkout.

    python3 perfbench/record_references.py

The references are the results of the seed code; a later change is
checked against them, so re-record only when a change is meant to alter
results, and say so. Each workload runs once, on the input of workload
seed 0, and the trial fingerprints are recorded too.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import parse_output
from run import REFERENCES, ROOT, SRC, prepare_input, run_worker, source_sha256
from workloads import WORKLOADS, trial_fingerprint, trial_rows


def main() -> int:
    sys.path.insert(0, str(SRC))
    references = {"source_sha256": source_sha256(), "trials": {}, "workloads": {}}
    for workload in WORKLOADS.values():
        trial = "x".join(map(str, workload.arms))
        references["trials"][trial] = trial_fingerprint(trial_rows(workload.arms))
        work = ROOT / ".perfbench_work" / f"reference-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        input_path, _ = prepare_input(workload, 0, work, None)
        (call,) = run_worker(workload, input_path, work, 0, 1, False, None)["calls"]
        if call["code"] != 0:
            print(f"{workload.name} failed:\n{call['stderr']}", file=sys.stderr)
            return 1
        references["workloads"][workload.name] = parse_output(workload, call["out"])
        print(f"{workload.name}: {call['wall_s']:.2f} s", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
