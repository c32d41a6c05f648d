"""Core data types: a trial as checked columns, and the one-subject view.

A trial subject is observed once: a possibly censored time-to-event outcome
together with the time (if any) at which the subject entered the maintenance
monotherapy phase. A `Trial` holds a trial as one array per field and checks
every data rule whenever one is built; the dataset reader and the simulator
build its columns directly. Indexing or iterating a `Trial` gives one
`SubjectRecord` per subject, and `Trial.from_records` builds one from them.
Every analysis function takes a `Trial`: a draw set refers to its subjects
by position, and every counterfactual transform returns a new `Trial`
through `Trial.with_outcome`, the one copy that skips the check. The Cox
model is fitted from the risk-set table that `survival.risk_table` builds
straight from a `Trial`; there is no start-stop expansion type.

Whether a subject spent time in the monotherapy phase is decided only by
`SubjectRecord.in_mono` and `Trial.in_mono` (the phase starts before the
follow-up time ends), so a subject whose monotherapy starts at its
follow-up time counts as never entering the phase everywhere.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["Arm", "SubjectRecord", "Trial"]


class Arm(enum.Enum):
    EXPERIMENTAL = "E"
    CONTROL = "C"

    @property
    def code(self) -> str:
        return self.value

    @property
    def trt(self) -> int:
        """Treatment indicator: 1 for the experimental arm."""
        return 1 if self is Arm.EXPERIMENTAL else 0


@dataclass(frozen=True, slots=True)
class SubjectRecord:
    """One subject's observed outcome, as a `Trial` gives it back.

    ``s`` is the observed follow-up time in months (event or censoring,
    whichever came first), ``delta`` the event indicator, ``mono_start`` the
    time the subject entered the monotherapy phase (None if never), and
    ``cutoff`` the months from randomization to the data-cutoff date. A
    record checks nothing; the `Trial` built from it does.
    """

    subject_id: str
    arm: Arm
    s: float
    delta: int
    cutoff: float
    mono_start: float | None = None
    stratum: int | None = None

    @property
    def trt(self) -> int:
        return self.arm.trt

    @property
    def in_mono(self) -> bool:
        """The subject spent time in monotherapy: ``mono_start < s``."""
        return self.mono_start is not None and self.mono_start < self.s


# The array columns of a Trial in field order, with the dtype each must have.
_COLUMNS = (("s", np.floating), ("delta", np.integer), ("mono_start", np.floating),
            ("trt", np.integer), ("cutoff", np.floating), ("stratum", np.floating))


@dataclass(frozen=True, eq=False)
class Trial:
    """A trial as columns, one entry per subject in input order.

    ``ids`` holds distinct, non-empty str; every other field is a numpy
    array with one entry per id. ``s`` is finite and positive, ``cutoff``
    finite and at least ``s``, ``delta`` and ``trt`` (1 on the experimental
    arm) are integers 0 or 1, ``mono_start`` is NaN (never entered
    monotherapy) or in (0, ``s``], and ``stratum`` NaN (none) or a whole
    number. Building a `Trial` checks all of this; its `DataError` names
    the column and the lowest subject position that breaks a rule.
    """

    ids: tuple
    s: np.ndarray
    delta: np.ndarray
    mono_start: np.ndarray
    trt: np.ndarray
    cutoff: np.ndarray
    stratum: np.ndarray

    def __post_init__(self):
        ids, n = self.ids, len(self.ids)
        if not (isinstance(ids, tuple) and all(isinstance(sid, str) for sid in ids)):
            raise DataError("ids must be a tuple of str subject ids", "ids")
        for name, kind in _COLUMNS:
            col = getattr(self, name)
            if not (isinstance(col, np.ndarray) and np.issubdtype(col.dtype, kind)
                    and col.shape == (n,)):
                got = (f"{col.dtype} of shape {col.shape}" if isinstance(col, np.ndarray)
                       else type(col).__name__)
                raise DataError(f"{name} must be a numpy {kind.__name__} array of shape ({n},), "
                                f"one entry per id, got {got}", name)
        s, x, c, st, seen = self.s, self.mono_start, self.cutoff, self.stratum, {}
        first = None  # each id's first position, when some id repeats
        if len(set(ids)) < n:
            first = [seen.setdefault(sid, k) for k, sid in enumerate(ids)]
        # (column, refused subjects, message) in the order a subject is checked;
        # NaN fails every comparison, and a finite s bounds cutoff and mono_start
        rules = (
            ("delta", (self.delta != 0) & (self.delta != 1),
             "delta must be 0 or 1, got {delta!r}"),
            ("trt", (self.trt != 0) & (self.trt != 1), "trt must be 0 or 1, got {trt!r}"),
            ("s", ~((s > 0) & (s < np.inf)), "s must be positive and finite, got {s!r}"),
            ("cutoff", ~(c < np.inf), "cutoff must be finite, got {cutoff!r}"),
            ("cutoff", c < s, "cutoff {cutoff!r} is before observed time {s!r}"),
            ("mono_start", x <= 0, "mono_start must be positive, got {mono_start!r}"),
            ("mono_start", x > s, "phase time exceeds follow-up"),
            ("stratum", ~(np.isnan(st) | (np.isfinite(st) & (np.floor(st) == st))),
             "stratum must be NaN or a whole number, got {stratum!r}"),
            ("ids", np.fromiter(map(len, ids), int, n) == 0,
             "subject_id is empty at position {k}"),
            ("ids", np.zeros(n, bool) if first is None else np.not_equal(first, range(n)),
             "subject_id repeats position {first}"),
        )
        refused = np.logical_or.reduce([bad for _, bad, _ in rules])
        if refused.any():
            k = int(refused.argmax())
            column, _, message = next(rule for rule in rules if rule[1][k])
            values = {name: getattr(self, name)[k].item() for name, _ in _COLUMNS}
            message = message.format(k=k, first=first and first[k], **values)
            raise DataError(f"subject {ids[k]}: {message}", column, k)

    @classmethod
    def from_records(cls, records) -> "Trial":
        records = list(records)
        return cls(
            ids=tuple(r.subject_id for r in records),
            s=np.array([r.s for r in records], dtype=float),
            delta=np.array([r.delta for r in records], dtype=int),
            mono_start=np.array([r.mono_start for r in records], dtype=float),  # None: NaN
            trt=np.array([r.trt for r in records], dtype=int),
            cutoff=np.array([r.cutoff for r in records], dtype=float),
            stratum=np.array([r.stratum for r in records], dtype=float),
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
        """Copy with new (s, delta), extending each cutoff that s moved past.
        It skips the check, as each probe makes one: the transforms keep the
        rules but for rounding, which can put a time just below its
        mono_start, and `survival.risk_table` refuses that."""
        out = copy.copy(self)
        out.__dict__.update(s=s, delta=delta, cutoff=np.maximum(self.cutoff, s))
        return out
