"""Core data types: the subject record at the I/O boundary, and the
columnar forms the analysis runs on.

A trial subject is observed once: a possibly censored time-to-event outcome
together with the time (if any) at which the subject entered the maintenance
monotherapy phase. `SubjectRecord` validates one subject: the dataset reader
and the simulator build one per row and return the whole trial as a `Trial`,
which holds the same fields as one array per field. Every analysis function
takes a `Trial`: the imputation models and draws read its columns, a draw
set refers to its subjects by position, and every counterfactual transform
returns a new `Trial`. The time-varying Cox model is fitted from a grouped
risk-set table that `survival.risk_table` builds straight from a `Trial`;
the package has no start-stop expansion type.

Whether a subject spent time in the monotherapy phase is decided only by
`SubjectRecord.in_mono` and `Trial.in_mono` (the phase starts before the
follow-up time ends), so a subject whose monotherapy starts at its
follow-up time counts as never entering the phase everywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

__all__ = ["Arm", "SubjectRecord", "Trial"]


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
        # NaN fails both comparisons; a finite s also bounds mono_start
        if not 0 < self.s < math.inf:
            raise DataError(f"subject {self.subject_id}: s must be positive and finite, got {self.s!r}")
        if not self.cutoff < math.inf:
            raise DataError(f"subject {self.subject_id}: cutoff must be finite, got {self.cutoff!r}")
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
    def in_mono(self) -> bool:
        """The subject spent time in monotherapy: ``mono_start < s``."""
        return self.mono_start is not None and self.mono_start < self.s


def _optional(value) -> float:
    return np.nan if value is None else value


@dataclass(frozen=True, eq=False)
class Trial:
    """A trial as columns, one entry per subject in input order.

    ``mono_start`` is NaN for a subject who never entered monotherapy and
    ``stratum`` is NaN for a subject without one. ``trt`` is 1 on the
    experimental arm. Indexing with an integer or iterating gives the
    subjects back as `SubjectRecord`s.
    """

    ids: tuple
    s: np.ndarray
    delta: np.ndarray
    mono_start: np.ndarray
    trt: np.ndarray
    cutoff: np.ndarray
    stratum: np.ndarray

    @classmethod
    def from_records(cls, records) -> "Trial":
        records = list(records)
        return cls(
            ids=tuple(r.subject_id for r in records),
            s=np.array([r.s for r in records], dtype=float),
            delta=np.array([r.delta for r in records], dtype=int),
            mono_start=np.array([_optional(r.mono_start) for r in records], dtype=float),
            trt=np.array([r.trt for r in records], dtype=int),
            cutoff=np.array([r.cutoff for r in records], dtype=float),
            stratum=np.array([_optional(r.stratum) for r in records], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def in_mono(self) -> np.ndarray:
        """`SubjectRecord.in_mono` per subject (a NaN mono_start compares False)."""
        return self.mono_start < self.s

    def __getitem__(self, i) -> SubjectRecord:
        if not isinstance(i, (int, np.integer)):
            raise TypeError(f"Trial supports only integer indexing, not {type(i).__name__}")
        mono, stratum = self.mono_start[i], self.stratum[i]
        return SubjectRecord(
            subject_id=self.ids[i],
            arm=Arm.EXPERIMENTAL if self.trt[i] else Arm.CONTROL,
            s=float(self.s[i]),
            delta=int(self.delta[i]),
            cutoff=float(self.cutoff[i]),
            mono_start=None if np.isnan(mono) else float(mono),
            stratum=None if np.isnan(stratum) else int(stratum),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def with_outcome(self, s: np.ndarray, delta: np.ndarray) -> "Trial":
        """Copy with new (s, delta), extending each cutoff that s moved past."""
        return replace(self, s=s, delta=delta, cutoff=np.maximum(self.cutoff, s))
