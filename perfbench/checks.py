"""Output checks against reference values recorded from the seed code.

A CLI command fails when it exits with a non-zero code or when one of
these checks finds a problem. The tolerances are the ones a change to the
search may use: tips within `bisection_tol` of the reference, which is
what a new search algorithm is allowed to move them by.
"""

from __future__ import annotations

import csv
import os

TIP_TOL = 1e-3          # SearchConfig.bisection_tol
HR_TOL = 1e-3
CURVE_REL_TOL = 1e-9
ALPHA = 0.05
TIP_KEYS = ("adjustment_factor_at_tip", "tip_min", "tip_max")
EXACT_KEYS = ("effect_method", "n_replicates", "n_degenerate", "flags")
CURVE_KEYS = ("gamma", "p", "hr_overall", "hr_mono")


def _rows(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def output_path(workload, outdir) -> str:
    if workload.command == "tpa":
        return os.path.join(outdir, "results.csv")
    return os.path.join(outdir, f"curve_{workload.effect}_{workload.threshold}.csv")


def parse_tpa(path) -> dict:
    """The one results.csv row, with the checked fields typed."""
    (row,) = _rows(path)
    parsed = {key: row[key] for key in EXACT_KEYS}
    for key in TIP_KEYS + ("hr_at_tip", "p_at_tip"):
        parsed[key] = _float(row[key])
    return parsed


def parse_curve(path) -> dict:
    """Curve CSV as one list per column (None where a value is missing)."""
    rows = _rows(path)
    return {key: [_float(row[key]) for row in rows] for key in CURVE_KEYS}


def parse_output(workload, outdir) -> dict:
    """The checked content of a command's output, as references.json holds it."""
    path = output_path(workload, outdir)
    return parse_tpa(path) if workload.command == "tpa" else parse_curve(path)


def check_tpa(path, ref: dict, threshold: str) -> list[str]:
    try:
        got = parse_tpa(path)
    except (OSError, ValueError, KeyError) as err:
        return [f"cannot read {path}: {err!r}"]
    problems = [
        f"{key}={got[key]!r}, reference {ref[key]!r}"
        for key in EXACT_KEYS if got[key] != ref[key]
    ]
    for key, tol in [(k, TIP_TOL) for k in TIP_KEYS] + [("hr_at_tip", HR_TOL)]:
        if got[key] is None or abs(got[key] - ref[key]) > tol:
            problems.append(f"{key}={got[key]!r}, reference {ref[key]!r} +- {tol}")
    if threshold == "a" and not (got["p_at_tip"] is not None and got["p_at_tip"] > ALPHA):
        problems.append(f"p_at_tip={got['p_at_tip']!r} is not above {ALPHA}")
    return problems


def crossings(ys, level) -> int:
    """Sign changes of y - level along the curve."""
    above = [y > level for y in ys]
    return sum(a != b for a, b in zip(above, above[1:]))


def check_curve(path, ref: dict, threshold: str) -> list[str]:
    try:
        got = parse_curve(path)
    except (OSError, ValueError, KeyError) as err:
        return [f"cannot read {path}: {err!r}"]
    n_ref = len(ref["gamma"])
    if len(got["gamma"]) != n_ref:
        return [f"{len(got['gamma'])} evaluable points, reference {n_ref}"]
    problems = []
    for key in CURVE_KEYS:
        bad = [
            i for i, (a, b) in enumerate(zip(got[key], ref[key]))
            if a is None or abs(a - b) > CURVE_REL_TOL * abs(b)
        ]
        if bad:
            i = bad[0]
            problems.append(
                f"{key}: {len(bad)} point(s) off the reference, first at row {i}: "
                f"{got[key][i]!r} vs {ref[key][i]!r}"
            )
    if not problems:
        ys, level = (got["p"], ALPHA) if threshold == "a" else (got["hr_mono"], 1.0)
        n = crossings(ys, level)
        if n != 1:
            problems.append(f"{n} crossings of {level}, expected exactly 1")
    svg = path[: -len(".csv")] + ".svg"
    if not os.path.isfile(svg) or os.path.getsize(svg) == 0:
        problems.append(f"missing plot {svg}")
    return problems


def check_output(workload, outdir, ref) -> list[str]:
    path = output_path(workload, outdir)
    if workload.command == "tpa":
        return check_tpa(path, ref, workload.threshold)
    return check_curve(path, ref, workload.threshold)


def read_outputs(outdir) -> dict:
    """Every output file's bytes, by file name."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as handle:
            out[name] = handle.read()
    return out
