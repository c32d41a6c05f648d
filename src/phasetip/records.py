"""Core subject-level data types.

A trial subject is observed once: a possibly censored time-to-event outcome
together with the time (if any) at which the subject entered the maintenance
monotherapy phase. The counting-process row type is the start-stop expansion
used by the time-varying Cox model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .errors import DataError

__all__ = ["Arm", "SubjectRecord", "CountingProcessRow"]


class Arm(enum.Enum):
    EXPERIMENTAL = "E"
    CONTROL = "C"

    @classmethod
    def from_code(cls, code: str) -> "Arm":
        try:
            return cls(code.strip().upper())
        except ValueError:
            raise DataError(f"unknown arm code {code!r} (expected 'E' or 'C')") from None

    @property
    def code(self) -> str:
        return self.value

    @property
    def trt(self) -> int:
        """Treatment indicator: 1 for the experimental arm."""
        return 1 if self is Arm.EXPERIMENTAL else 0


@dataclass(frozen=True, slots=True)
class SubjectRecord:
    """One subject's observed outcome.

    ``s`` is the observed follow-up time in months (event or censoring,
    whichever came first), ``delta`` the event indicator, ``mono_start`` the
    time the subject entered the monotherapy phase (None if never), and
    ``cutoff`` the months from randomization to the data-cutoff date.
    """

    subject_id: str
    arm: Arm
    s: float
    delta: int
    cutoff: float
    mono_start: float | None = None
    stratum: int | None = None

    def __post_init__(self):
        if self.delta not in (0, 1):
            raise DataError(f"subject {self.subject_id}: delta must be 0 or 1, got {self.delta!r}")
        if not self.s > 0:
            raise DataError(f"subject {self.subject_id}: s must be positive, got {self.s!r}")
        if self.cutoff < self.s:
            raise DataError(
                f"subject {self.subject_id}: cutoff {self.cutoff!r} is before observed time {self.s!r}"
            )
        if self.mono_start is not None:
            if not 0 < self.mono_start:
                raise DataError(
                    f"subject {self.subject_id}: mono_start must be positive, got {self.mono_start!r}"
                )
            if self.mono_start > self.s:
                raise DataError(f"subject {self.subject_id}: phase time exceeds follow-up")

    @property
    def trt(self) -> int:
        return self.arm.trt

    @property
    def mono_duration(self) -> float:
        """Observed time spent in the monotherapy phase (0 if never entered)."""
        if self.mono_start is None:
            return 0.0
        return self.s - self.mono_start

    def with_outcome(self, s: float, delta: int) -> "SubjectRecord":
        """Copy with a new (s, delta), extending the cutoff if s moved past it."""
        return replace(self, s=s, delta=delta, cutoff=max(self.cutoff, s))


@dataclass(frozen=True, slots=True)
class CountingProcessRow:
    """One (start, stop] interval with interval-constant covariates."""

    subject_id: str
    start: float
    stop: float
    event_at_stop: int
    trt: int
    mono: int
    trt_x_mono: int
    stratum: int | None = None

    def __post_init__(self):
        if not self.start < self.stop:
            raise DataError(
                f"subject {self.subject_id}: interval ({self.start}, {self.stop}] is empty"
            )
        if self.trt_x_mono != self.trt * self.mono:
            raise DataError(f"subject {self.subject_id}: trt_x_mono must equal trt * mono")

    def covariate(self, name: str) -> int:
        return getattr(self, name)
