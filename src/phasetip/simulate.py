"""Synthetic two-phase trial generator with exact phase-specific hazard ratios.

Each subject enters uniformly over the accrual window and then moves through
a combination phase where an event (hazard `combo_event_hazard`, scaled by
`hr_combo` on the experimental arm) competes with a transition to
monotherapy (hazard `switch_hazard`). After a transition, the event hazard
becomes `mono_event_hazard`, scaled by `hr_mono` on the experimental arm.
Follow-up is administratively censored at the calendar cutoff and,
independently, by an optional dropout hazard.

Piecewise-exponential mechanics make the phase-specific hazard-ratio targets
exact in the generator, matching the estimand of the time-varying Cox model.
Default rates were calibrated with scripts/calibrate_defaults.py to land on
the published trial summaries this generator stands in for.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_seed
from .records import Arm, SubjectRecord, Trial
from .survival import km_estimate

__all__ = ["SimConfig", "ArmSummary", "TrialSummary", "simulate_trial", "summarize_trial"]

_SIM_STREAM = 0x5EED_51  # fixed stream tag separating sim draws from imputation draws


@dataclass(frozen=True)
class SimConfig:
    n_experimental: int = 337
    n_control: int = 172
    combo_event_hazard: float = 0.052   # control-arm events per month, combination phase
    switch_hazard: float = 0.042        # transitions to monotherapy per month
    mono_event_hazard: float = 0.100    # control-arm events per month, monotherapy phase
    hr_combo: float = 0.811
    hr_mono: float = 0.493
    switch_multiplier: float = 1.0      # experimental-arm multiplier on the switch hazard
    accrual_months: float = 30.0
    cutoff_months: float = 40.0         # calendar time of the data cutoff
    dropout_hazard: float = 0.009       # non-administrative censoring

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            kind, what = ((numbers.Integral, "an integer") if type(field.default) is int
                          else (numbers.Real, "a number"))
            if not isinstance(value, kind) or isinstance(value, bool):
                raise DataError(f"{field.name} must be {what}, got {value!r}")
        for name in ("combo_event_hazard", "switch_hazard", "mono_event_hazard",
                     "hr_combo", "hr_mono", "switch_multiplier"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DataError(f"{name} must be finite and positive, got {value}")
        for name in ("dropout_hazard", "accrual_months"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise DataError(f"{name} must be finite and non-negative, got {value}")
        if not self.accrual_months < self.cutoff_months < math.inf:
            raise DataError(f"cutoff_months must be finite and beyond the accrual window "
                            f"of {self.accrual_months} months, got {self.cutoff_months}")
        if self.n_experimental < 1 or self.n_control < 1:
            raise DataError("both arms need at least one subject")


def simulate_trial(config: SimConfig, seed: int = 0) -> Trial:
    """Generate one trial. Draws are indexed per subject (row i of the draw
    matrix belongs to subject i), so generation is order-independent. Each
    subject is validated as a `SubjectRecord`."""
    check_seed(seed, "seed")
    n = config.n_experimental + config.n_control
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _SIM_STREAM]))

    entry = rng.uniform(0.0, config.accrual_months, n)
    u = rng.exponential(1.0, (n, 4))  # unit exponentials: combo event, switch, mono event, dropout

    records = []
    for i in range(n):
        trt = 1 if i < config.n_experimental else 0
        arm = Arm.EXPERIMENTAL if trt else Arm.CONTROL
        lam_event = config.combo_event_hazard * (config.hr_combo if trt else 1.0)
        lam_switch = config.switch_hazard * (config.switch_multiplier if trt else 1.0)
        lam_mono = config.mono_event_hazard * (config.hr_mono if trt else 1.0)

        t_event = u[i, 0] / lam_event
        t_switch = u[i, 1] / lam_switch
        if t_switch < t_event:
            mono_at = t_switch
            event_time = mono_at + u[i, 2] / lam_mono
        else:
            mono_at = None
            event_time = t_event

        c_admin = config.cutoff_months - entry[i]
        c_drop = u[i, 3] / config.dropout_hazard if config.dropout_hazard > 0 else math.inf
        censor_time = min(c_admin, c_drop)

        s = min(event_time, censor_time)
        delta = 1 if event_time <= censor_time else 0
        mono_start = mono_at if (mono_at is not None and 0.0 < mono_at < s) else None
        sid = f"{arm.code}{i:04d}"
        records.append(
            SubjectRecord(sid, arm, s, delta, cutoff=c_admin, mono_start=mono_start)
        )
    return Trial.from_records(records)


@dataclass(frozen=True)
class ArmSummary:
    n: int
    events: int
    censored: int
    transitioned: int
    median_pfs: float | None


@dataclass(frozen=True)
class TrialSummary:
    arms: dict
    mono_fraction: float
    total_events: int


def summarize_trial(trial: Trial) -> TrialSummary:
    """Arm-level counts and medians, the monotherapy fraction and the
    event total."""
    arms = {}
    for arm in Arm:
        on_arm = trial.trt == arm.trt
        n, events = int(on_arm.sum()), int(trial.delta[on_arm].sum())
        arms[arm] = ArmSummary(
            n=n,
            events=events,
            censored=n - events,
            transitioned=int(trial.in_mono[on_arm].sum()),
            median_pfs=km_estimate(trial, arm).median if n else None,
        )
    n_total = len(trial)
    return TrialSummary(
        arms=arms,
        mono_fraction=int(trial.in_mono.sum()) / n_total if n_total else 0.0,
        total_events=int(trial.delta.sum()),
    )
