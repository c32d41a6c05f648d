"""Counterfactual phase transforms and imputation of unobserved times.

Two directions of adjustment are supported. Effect 1 inflates the
control-arm monotherapy durations (adjustment factor >= 1), standing in
for the counterfactual where control subjects had received active
maintenance. Effect 2 shrinks the experimental-arm monotherapy durations
(factor in (0, 1]), standing in for the counterfactual without active
maintenance.

For Effect 1, subjects who had an event after transitioning need an
imputed censoring time: either the administrative cutoff (when censoring
is dominated by the data cutoff) or a draw from a censoring distribution
fitted with reversed event indicators, conditioned to lie at or beyond
the observed time. For Effect 2, subjects censored during monotherapy
need an imputed event time drawn from an exponential fit to the
experimental monotherapy durations; memorylessness makes the conditional
draw a fresh exponential added to the observed time.

Draws are made once per replicate with a counter-keyed generator per
(seed, replicate, subject), so results do not depend on iteration order,
and the same draws are reused across the whole adjustment-factor grid.

`apply_transform` is the transform the analysis runs: it works on a
`Trial`, one array per field, with both effects written as array
expressions, and returns a new `Trial`. A replicate's draws, keyed by
subject id, are aligned once to the trial's subject order as an array
with NaN for "no draw". The per-record `transform_effect1` and
`transform_effect2` state the same rules one subject at a time; they are
the reference the array transform is tested against. `make_draws` and the
imputation models still read validated `SubjectRecord`s.

Every transform acts on the subjects of the effect's target arm that spent
time in monotherapy (`Effect.target_arm` and `in_mono` from `records`), and
`make_draws` draws for exactly those of them whose event status the
transform may change, so a replicate's draws always suffice. A subject
whose monotherapy starts at its follow-up time passes through unchanged.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EstimationError
from .records import Arm, SubjectRecord, Trial, as_trial

__all__ = [
    "Effect",
    "Threshold",
    "TransformParams",
    "CensoringModel",
    "MonoEventModel",
    "ImputationDraws",
    "keyed_rng",
    "impute_censoring_cutoff",
    "fit_censoring_model",
    "sample_censoring_conditional",
    "fit_mono_event_model",
    "impute_event_time",
    "transform_effect1",
    "transform_effect2",
    "apply_transform",
    "naive_transform",
    "cutoff_censoring_fraction",
    "make_draws",
]


class Effect(enum.Enum):
    """Which arm's monotherapy phase the adjustment factor acts on."""

    INFLATE_CONTROL = 1
    SHRINK_EXPERIMENTAL = 2

    @classmethod
    def from_number(cls, n) -> "Effect":
        return cls(int(n))

    @property
    def number(self) -> int:
        return self.value

    @property
    def target_arm(self) -> Arm:
        return Arm.CONTROL if self is Effect.INFLATE_CONTROL else Arm.EXPERIMENTAL


class Threshold(enum.Enum):
    SIGNIFICANCE = "a"   # stop when the between-arm difference loses significance
    NEUTRALIZE = "b"     # stop when the monotherapy-phase HR reaches 1


def _check_factor(effect: Effect, gamma: float) -> None:
    """Refuse a factor outside the effect's range: >= 1 for effect 1,
    (0, 1] for effect 2."""
    if effect is Effect.INFLATE_CONTROL and not gamma >= 1.0:
        raise DataError(f"inflation factor must be >= 1, got {gamma}")
    if effect is Effect.SHRINK_EXPERIMENTAL and not 0.0 < gamma <= 1.0:
        raise DataError(f"shrinkage factor must be in (0, 1], got {gamma}")


@dataclass(frozen=True)
class TransformParams:
    effect: Effect
    gamma: float

    def __post_init__(self):
        _check_factor(self.effect, self.gamma)


@dataclass(frozen=True)
class CensoringModel:
    """Exponential censoring-time distribution (event indicators reversed)."""

    rate: float
    n_censorings: int
    exposure: float

    def __post_init__(self):
        if not self.rate > 0:
            raise EstimationError("censoring model needs a positive rate")


@dataclass(frozen=True)
class MonoEventModel:
    """Exponential fit to experimental-arm time from mono start to event."""

    rate: float
    n_events: int
    exposure: float

    def __post_init__(self):
        if not self.rate > 0:
            raise EstimationError("mono event model needs a positive rate")


@dataclass(frozen=True)
class ImputationDraws:
    """Per-subject imputed times for one replicate.

    Effect 1 stores censoring times (for control mono subjects with an
    event); Effect 2 stores event times (for experimental mono subjects
    censored during monotherapy).
    """

    effect: Effect
    replicate_id: int
    seed: int
    method: str
    values: dict = field(default_factory=dict)


def _subject_key(subject_id: str) -> int:
    digest = hashlib.sha256(subject_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def keyed_rng(seed: int, replicate_id: int, subject_id: str) -> np.random.Generator:
    """Independent generator per (seed, replicate, subject)."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(replicate_id), _subject_key(subject_id)])
    )


# ---------------------------------------------------------------------------
# Imputation models


def impute_censoring_cutoff(record: SubjectRecord) -> float:
    """Administrative imputation: the unobserved censoring time is the
    months from randomization to the data-cutoff date."""
    if record.delta != 1:
        raise DataError("cutoff imputation applies to subjects with an event")
    return record.cutoff


def cutoff_censoring_fraction(records) -> float:
    """Share of censored observations that are censored at the cutoff."""
    censored = [r for r in records if r.delta == 0]
    if not censored:
        return 1.0
    at_cutoff = sum(1 for r in censored if math.isclose(r.s, r.cutoff, rel_tol=1e-9, abs_tol=1e-9))
    return at_cutoff / len(censored)


def fit_censoring_model(records) -> CensoringModel:
    """Fit an exponential censoring distribution by reversing the event
    indicator: the MLE rate is censorings over total exposure."""
    n_cens = sum(1 for r in records if r.delta == 0)
    if n_cens == 0:
        raise EstimationError("no censored observations to fit a censoring model")
    exposure = float(sum(r.s for r in records))
    return CensoringModel(n_cens / exposure, n_cens, exposure)


def sample_censoring_conditional(model: CensoringModel, floor: float, rng) -> float:
    """Draw a censoring time conditioned to be at or beyond `floor`; by
    memorylessness this is the floor plus a fresh exponential."""
    if floor < 0:
        raise DataError("conditioning floor must be non-negative")
    return floor + rng.exponential(1.0 / model.rate)


def fit_mono_event_model(records) -> MonoEventModel:
    """Censoring-aware exponential MLE on experimental mono durations."""
    subset = [r for r in records if r.arm is Arm.EXPERIMENTAL and r.in_mono]
    n_events = sum(r.delta for r in subset)
    if n_events == 0:
        raise EstimationError("no monotherapy-phase events on the experimental arm")
    exposure = float(sum(r.s - r.mono_start for r in subset))
    return MonoEventModel(n_events / exposure, int(n_events), exposure)


def impute_event_time(record: SubjectRecord, model: MonoEventModel, rng) -> float:
    """Event time for a subject censored during monotherapy: the observed
    time plus a fresh exponential residual (strictly beyond the observed
    time, so the identity transform leaves the record unchanged)."""
    if record.delta != 0:
        raise DataError("event-time imputation applies to censored subjects")
    residual = rng.exponential(1.0 / model.rate)
    while residual == 0.0:
        residual = rng.exponential(1.0 / model.rate)
    return record.s + residual


# ---------------------------------------------------------------------------
# Transforms


def transform_effect1(record: SubjectRecord, gamma: float,
                      imputed_r: float | None = None) -> SubjectRecord:
    """Inflate a control subject's monotherapy duration by `gamma`.

    Censored subjects are unchanged (their counterfactual time only moves
    further beyond the censoring time). An observed event moves to
    t' = x + gamma*(s - x); it stays an event if t' is within the imputed
    censoring time, otherwise the subject becomes censored there.
    Non-control subjects and subjects without a monotherapy phase pass
    through untouched.
    """
    _check_factor(Effect.INFLATE_CONTROL, gamma)
    if record.arm is not Arm.CONTROL or not record.in_mono:
        return record
    if record.delta == 0:
        return record
    if imputed_r is None:
        raise DataError(f"subject {record.subject_id}: missing imputed censoring time")
    # algebraically x + gamma*(s - x); this form is exact at gamma == 1
    t_prime = record.s + (gamma - 1.0) * (record.s - record.mono_start)
    if t_prime <= imputed_r:
        return record.with_outcome(t_prime, 1)
    return record.with_outcome(imputed_r, 0)


def transform_effect2(record: SubjectRecord, gamma: float,
                      imputed_t: float | None = None) -> SubjectRecord:
    """Shrink an experimental subject's monotherapy duration by `gamma`.

    Observed events stay events with shortened time x + gamma*(s - x).
    A subject censored during monotherapy gets an imputed event time
    t-hat beyond the observed time; the shrunk time x + gamma*(t-hat - x)
    becomes an observed event if it lands at or before the observed
    censoring time (the observed s), otherwise the record is unchanged.
    """
    _check_factor(Effect.SHRINK_EXPERIMENTAL, gamma)
    if record.arm is not Arm.EXPERIMENTAL or not record.in_mono:
        return record
    x = record.mono_start
    if record.delta == 1:
        t_prime = record.s + (gamma - 1.0) * (record.s - x)
        return record.with_outcome(t_prime, 1)
    if imputed_t is None:
        raise DataError(f"subject {record.subject_id}: missing imputed event time")
    t_prime = imputed_t + (gamma - 1.0) * (imputed_t - x)
    if t_prime <= record.s:
        return record.with_outcome(t_prime, 1)
    return record


def _missing_draw(trial: Trial, missing: np.ndarray, what: str):
    if missing.any():
        sid = trial.ids[np.flatnonzero(missing)[0]]
        raise DataError(f"subject {sid}: missing imputed {what}")


def apply_transform(data, params: TransformParams, draws: ImputationDraws) -> Trial:
    """Counterfactual trial under `params`, using per-subject draws.

    The array form of `transform_effect1` (effect 1) and
    `transform_effect2` (effect 2) over every subject at once; `data` is a
    Trial or a list of records.
    """
    trial = as_trial(data)
    s, delta, x = trial.s, trial.delta, trial.mono_start
    target = (trial.trt == params.effect.target_arm.trt) & trial.in_mono
    imputed = trial.imputed(draws)
    # algebraically x + gamma*(s - x); this form is exact at gamma == 1
    gamma_minus_1 = params.gamma - 1.0
    if params.effect is Effect.INFLATE_CONTROL:
        moved = target & (delta == 1)
        _missing_draw(trial, moved & np.isnan(imputed), "censoring time")
        t_prime = s + gamma_minus_1 * (s - x)
        stays = t_prime <= imputed
        new_s = np.where(moved, np.where(stays, t_prime, imputed), s)
        new_delta = np.where(moved & ~stays, 0, delta)
    else:
        events = target & (delta == 1)
        censored = target & (delta == 0)
        _missing_draw(trial, censored & np.isnan(imputed), "event time")
        t_imputed = imputed + gamma_minus_1 * (imputed - x)
        uncovered = censored & (t_imputed <= s)
        new_s = np.where(events, s + gamma_minus_1 * (s - x), np.where(uncovered, t_imputed, s))
        new_delta = np.where(uncovered, 1, delta)
    return trial.with_outcome(new_s, new_delta)


def naive_transform(records, effect: Effect, gamma: float):
    """Rescale monotherapy durations regardless of event status.

    Event indicators never change, so the total number of events is
    preserved by construction; the cutoff is extended when an inflated
    time moves past it.
    """
    _check_factor(effect, gamma)
    out = []
    for r in records:
        if r.arm is not effect.target_arm or not r.in_mono:
            out.append(r)
            continue
        s_new = r.s + (gamma - 1.0) * (r.s - r.mono_start)
        out.append(r.with_outcome(s_new, r.delta))
    return out


# ---------------------------------------------------------------------------
# Replicate draw generation


def make_draws(records, effect: Effect, imputation: str = "auto",
               seed: int = 0, replicate_id: int = 0) -> ImputationDraws:
    """All imputed times one replicate needs, keyed per subject.

    Effect 1: imputed censoring times for control mono subjects with an
    event. `imputation` picks the source: "cutoff", "fitted" (exponential
    censoring model), or "auto", which uses the cutoff when at least half
    of the censored observations sit on the cutoff date.

    Effect 2: imputed event times for experimental subjects censored
    during monotherapy, from the exponential mono-duration fit.
    """
    if imputation not in ("auto", "cutoff", "fitted"):
        raise DataError(f"unknown imputation method {imputation!r}")

    # effect 1 draws for the events, effect 2 for the censorings
    arm, delta = effect.target_arm, 1 if effect is Effect.INFLATE_CONTROL else 0
    needing = [r for r in records if r.arm is arm and r.delta == delta and r.in_mono]
    values = {}
    if effect is Effect.INFLATE_CONTROL:
        method = imputation
        if method == "auto":
            method = "cutoff" if cutoff_censoring_fraction(records) >= 0.5 else "fitted"
        if method == "cutoff":
            for r in needing:
                values[r.subject_id] = impute_censoring_cutoff(r)
        else:
            model = fit_censoring_model(records) if needing else None
            for r in needing:
                rng = keyed_rng(seed, replicate_id, r.subject_id)
                values[r.subject_id] = sample_censoring_conditional(model, r.s, rng)
    else:
        method = "fitted"
        model = fit_mono_event_model(records) if needing else None
        for r in needing:
            rng = keyed_rng(seed, replicate_id, r.subject_id)
            values[r.subject_id] = impute_event_time(r, model, rng)

    return ImputationDraws(
        effect=effect, replicate_id=replicate_id, seed=seed,
        method=method, values=values,
    )
