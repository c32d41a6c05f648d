"""Dataset file ingestion and emission.

One CSV schema, fixed header:

    subject_id,arm,pfs_months,event,mono_start_months,cutoff_months,stratum

A `subject_id` appears once: the imputation keys each subject's draws by
it, so two rows with one id would draw the same times. `arm` is E or C; an
empty `mono_start_months` means the subject never entered the monotherapy
phase, and one equal to `pfs_months` means it spent no time there (see
`SubjectRecord.in_mono`); `stratum` is an optional whole number. Times are
finite decimal months. Each row is validated as a `SubjectRecord`; reading
stops at the first invalid row, with a `DataError` naming it (and, for a
repeated id, the row that holds it first), and returns the trial as a
`Trial`. Floats are written with repr so that a write followed by a read
reproduces the trial exactly.
"""

from __future__ import annotations

import csv

from .errors import DataError
from .records import Arm, SubjectRecord, Trial

__all__ = ["HEADER", "read_dataset", "write_dataset"]

HEADER = [
    "subject_id", "arm", "pfs_months", "event",
    "mono_start_months", "cutoff_months", "stratum",
]


def _parse_row(row, lineno) -> SubjectRecord:
    if len(row) != len(HEADER):
        raise DataError(f"row {lineno}: expected {len(HEADER)} fields, got {len(row)}")
    sid, arm_code, pfs, event, mono, cutoff, stratum = (v.strip() for v in row)
    if not sid:
        raise DataError(f"row {lineno}: subject_id is empty")

    def number(value, name):
        try:
            return float(value)
        except ValueError:
            raise DataError(f"row {lineno}: {name} is not a number: {value!r}") from None

    def whole(value, name):
        x = number(value, name)
        if not x.is_integer():  # False for NaN and infinities
            raise DataError(f"row {lineno}: {name} is not a whole number: {value!r}")
        return int(x)

    if event not in ("0", "1"):
        raise DataError(f"row {lineno}: event must be 0 or 1, got {event!r}")
    try:
        arm = Arm.from_code(arm_code)
        return SubjectRecord(
            subject_id=sid,
            arm=arm,
            s=number(pfs, "pfs_months"),
            delta=int(event),
            cutoff=number(cutoff, "cutoff_months"),
            mono_start=number(mono, "mono_start_months") if mono else None,
            stratum=whole(stratum, "stratum") if stratum else None,
        )
    except DataError as err:
        msg = str(err)
        if not msg.startswith(f"row {lineno}"):
            msg = f"row {lineno}: {msg}"
        raise DataError(msg) from None


def read_dataset(path) -> Trial:
    """Read and validate a dataset file, stopping at the first bad row.

    An empty body with a valid header yields an empty dataset.
    """
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot read dataset: {err}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: missing header") from None
        if [h.strip() for h in header] != HEADER:
            raise DataError(
                f"header mismatch: expected {','.join(HEADER)!r}, got {','.join(header)!r}"
            )
        records, first_row = [], {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            record = _parse_row(row, lineno)
            first = first_row.setdefault(record.subject_id, lineno)
            if first != lineno:
                raise DataError(f"row {lineno}: subject_id {record.subject_id!r} repeats row {first}")
            records.append(record)
        return Trial.from_records(records)


def write_dataset(trial, path) -> None:
    """Write the subjects of `trial` in the schema, one row each."""
    try:
        handle = open(path, "w", newline="")
    except OSError as err:
        raise DataError(f"cannot write dataset: {err}") from None
    with handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for r in trial:
            writer.writerow([
                r.subject_id,
                r.arm.code,
                repr(float(r.s)),
                r.delta,
                "" if r.mono_start is None else repr(float(r.mono_start)),
                repr(float(r.cutoff)),
                "" if r.stratum is None else r.stratum,
            ])
