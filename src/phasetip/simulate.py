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
from .records import Arm, Trial
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
    matrix belongs to subject i), so generation is order-independent. The
    experimental arm comes first; subject i's id is its arm code and i."""
    check_seed(seed, "seed")
    n_e, n = config.n_experimental, config.n_experimental + config.n_control
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _SIM_STREAM]))

    entry = rng.uniform(0.0, config.accrual_months, n)
    u = rng.exponential(1.0, (n, 4))  # unit exponentials: combo event, switch, mono event, dropout
    experimental = np.arange(n) < n_e

    def rate(hazard, factor):  # a setting may be any real number: float it first
        return float(hazard) * np.where(experimental, float(factor), 1.0)

    t_event = u[:, 0] / rate(config.combo_event_hazard, config.hr_combo)
    t_switch = u[:, 1] / rate(config.switch_hazard, config.switch_multiplier)
    switched = t_switch < t_event
    event_time = np.where(
        switched, t_switch + u[:, 2] / rate(config.mono_event_hazard, config.hr_mono), t_event)

    c_admin = float(config.cutoff_months) - entry
    dropout = float(config.dropout_hazard)
    censor_time = np.minimum(c_admin, u[:, 3] / dropout if dropout > 0 else np.inf)
    s = np.minimum(event_time, censor_time)
    in_mono = switched & (0.0 < t_switch) & (t_switch < s)
    return Trial(ids=tuple(f"{'E' if i < n_e else 'C'}{i:04d}" for i in range(n)), s=s,
                 delta=(event_time <= censor_time).astype(int),
                 mono_start=np.where(in_mono, t_switch, np.nan), trt=experimental.astype(int),
                 cutoff=c_admin, stratum=np.full(n, np.nan))


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
