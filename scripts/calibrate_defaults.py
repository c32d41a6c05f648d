#!/usr/bin/env python3
"""Calibration search for the simulator defaults.

Measures, for a candidate hazard configuration, the quantities the defaults
must reproduce: per-arm medians, overall HR, phase HRs, transition fraction,
event counts and phase mix, censoring composition, and coarse tipping-point
locations for both adjustment directions and both stop rules. Run with no
arguments to evaluate the committed defaults; pass field=value pairs to try
alternatives, e.g.:

    python scripts/calibrate_defaults.py combo_event_hazard=0.06 seeds=10
"""

import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from phasetip.counterfactual import Effect, cutoff_censoring_fraction  # noqa: E402
from phasetip.simulate import SimConfig, simulate_trial, summarize_trial  # noqa: E402
from phasetip.survival import cox_fit, logrank_test, phase_hr, risk_table  # noqa: E402
from phasetip.tipping import SearchConfig, grid_scan  # noqa: E402


def first_crossing(xs, ys, level, rising):
    for x, y in zip(xs, ys):
        if y is not None and ((y > level) if rising else (y >= level)):
            return x, y
    return None, None


def trial_measures(cfg, seed):
    trial = simulate_trial(cfg, seed=seed)
    summ = summarize_trial(trial)
    table = risk_table(trial)
    res = phase_hr(trial, table)
    overall = cox_fit(table, ("trt",)).hr("trt")
    p = logrank_test(trial).p_two_sided
    mono_events = int(trial.delta[trial.in_mono].sum())
    return dict(
        median_c=summ.arms[list(summ.arms)[1]].median_pfs,
        median_e=summ.arms[list(summ.arms)[0]].median_pfs,
        overall_hr=overall,
        p=p,
        hr_combo=res.hr_combo,
        hr_mono=res.hr_mono,
        mono_fraction=summ.mono_fraction,
        events=summ.total_events,
        mono_event_share=mono_events / summ.total_events,
        cutoff_censor_frac=cutoff_censoring_fraction(trial),
    )


# per effect: the key suffix of its measures and its coarse factor grid
TIPPING_GRIDS = {
    Effect.INFLATE_CONTROL: ("c", np.round(np.arange(1.0, 4.01, 0.05), 4)),
    Effect.SHRINK_EXPERIMENTAL: ("e", np.round(np.arange(1.0, 0.29, -0.02), 4)),
}


def tipping_measures(cfg, seed):
    trial = simulate_trial(cfg, seed=seed)
    out = {}
    for effect, (arm, gammas) in TIPPING_GRIDS.items():
        pts = grid_scan(trial, SearchConfig(effect=effect, seed=seed), gammas)
        g_tip, _ = first_crossing(gammas, [pt.p_two_sided for pt in pts], 0.05, rising=True)
        out[f"gamma_{arm}_tip"] = g_tip
        if g_tip is not None:
            i = list(gammas).index(g_tip)
            out[f"hr_at_gamma_{arm}_tip"] = pts[i].hr_overall
            if effect is Effect.SHRINK_EXPERIMENTAL:
                out[f"events_at_gamma_{arm}_tip"] = pts[i].n_events
        a_tip, _ = first_crossing(gammas, [pt.hr_mono for pt in pts], 1.0, rising=False)
        out[f"alpha_{arm}_tip"] = a_tip
        if a_tip is not None:
            i = list(gammas).index(a_tip)
            out[f"theta_{arm}"] = pts[i].hr_overall
    return out


def main(argv):
    overrides = {}
    seeds = 10
    do_tipping = True
    for arg in argv:
        key, _, val = arg.partition("=")
        if key == "seeds":
            seeds = int(val)
        elif key == "tipping":
            do_tipping = val.lower() in ("1", "true", "yes")
        else:
            overrides[key] = float(val) if "." in val or "e" in val else int(val)
    cfg = replace(SimConfig(), **overrides) if overrides else SimConfig()
    print(f"config: {cfg}")

    keys = None
    rowsum = {}
    for sd in range(seeds):
        m = trial_measures(cfg, seed=sd)
        if keys is None:
            keys = list(m)
            rowsum = {k: [] for k in keys}
        for k in keys:
            rowsum[k].append(m[k])
    print(f"\n=== trial measures over {seeds} seeds (mean [min, max]) ===")
    for k in keys:
        vals = np.array([v for v in rowsum[k] if v is not None], dtype=float)
        print(f"{k:22s} {vals.mean():8.4f}  [{vals.min():8.4f}, {vals.max():8.4f}]")

    if do_tipping:
        print(f"\n=== coarse tipping measures over {min(seeds, 5)} seeds ===")
        agg = {}
        for sd in range(min(seeds, 5)):
            t = tipping_measures(cfg, seed=sd)
            for k, v in t.items():
                agg.setdefault(k, []).append(v)
        for k, vals in agg.items():
            arr = np.array([v for v in vals if v is not None], dtype=float)
            if arr.size:
                print(f"{k:22s} {arr.mean():8.4f}  [{arr.min():8.4f}, {arr.max():8.4f}]  (n={arr.size})")
            else:
                print(f"{k:22s} no crossing found")


if __name__ == "__main__":
    main(sys.argv[1:])
