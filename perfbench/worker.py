"""The measured process: imports phasetip.cli once, then times CLI commands.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds `src` (the directory holding the phasetip package), `argv` (the
CLI arguments without --out), `work` (the directory for outputs),
`seconds`, `min_calls`, `trace` and `result` (where to write the JSON
result). Commands run one after another until the next one would end
after `seconds`, and at least `min_calls` run. The host-speed kernel (see
hostspeed.py) is timed before the first command and after each one. With
`trace`, every second command runs with the tracer installed and the spans
are written to `work/spans.jsonl`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import hostspeed
from hostspeed import cpu_seconds

ROUNDS_WARMUP = 100     # kernel rounds run once before the first timed one


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child
    (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import phasetip.cli

    from tracer import ROOT, Tracer

    tracer = Tracer() if spec["trace"] else None
    calls = []
    start = time.perf_counter()
    hostspeed.kernel(ROUNDS_WARMUP)
    probes = [hostspeed.measure()]
    while True:
        index = len(calls)
        traced = tracer is not None and index % 2 == 1
        outdir = os.path.join(spec["work"], f"call{index}")
        argv = [*spec["argv"], "--out", outdir]
        out, err = io.StringIO(), io.StringIO()
        if traced:
            tracer.run_id = index
            tracer.install()
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    code = tracer.call(ROOT, phasetip.cli.main, (argv,))
                else:
                    code = phasetip.cli.main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if traced:
            tracer.uninstall()
        probes.append(hostspeed.measure())
        calls.append({
            "out": outdir, "code": code, "traced": traced,
            "wall_s": wall, "cpu_s": cpu, "stderr": err.getvalue(),
        })
        elapsed = time.perf_counter() - start
        if len(calls) >= spec["min_calls"] and elapsed * (1 + 1 / len(calls)) > spec["seconds"]:
            break

    spans = None
    if tracer is not None:
        spans = os.path.join(spec["work"], "spans.jsonl")
        tracer.dump(spans)
    return {"calls": calls, "probes": probes, "peak_rss_mb": peak_rss_mb(), "spans": spans}


def main(argv) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
