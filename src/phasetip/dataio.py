"""Dataset file ingestion and emission.

One CSV schema, fixed header:

    subject_id,arm,pfs_months,event,mono_start_months,cutoff_months,stratum

A `subject_id` appears once: the imputation keys each subject's draws by
it, so two rows with one id would draw the same times. `arm` is E or C; an
empty `mono_start_months` means the subject never entered the monotherapy
phase, and one equal to `pfs_months` means it spent no time there (see
`SubjectRecord.in_mono`); `stratum` is an optional whole number. Times are
finite decimal months. The reader parses the file into columns and builds
one `Trial`, whose check holds the value rules and the one-id rule; it
stops at the first invalid row, with a `DataError` naming it (and, for a
repeated id, the row that holds it first). Floats are written with repr so
that a write followed by a read reproduces the trial exactly.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DataError
from .records import Trial

__all__ = ["HEADER", "read_dataset", "write_dataset"]

HEADER = [
    "subject_id", "arm", "pfs_months", "event",
    "mono_start_months", "cutoff_months", "stratum",
]


def _parse(rows):
    """The `Trial` columns of `rows` before the first row a parse rule
    refuses, that row's position and the rule's message (len(rows) and
    None if none does). A row's rules run in this order: field count,
    subject_id, event, arm, pfs_months, cutoff_months, mono_start_months
    and stratum."""
    width = len(HEADER)
    stop = next((k for k, row in enumerate(rows) if len(row) != width), len(rows))
    problem = None if stop == len(rows) else f"expected {width} fields, got {len(rows[stop])}"
    sid, arm, pfs, event, mono, cutoff, stratum = (
        [list(map(str.strip, col)) for col in zip(*rows[:stop])] or [[]] * width)

    def refuse(bad, texts, message):
        """Stop at the first text before `stop` that `bad` marks."""
        nonlocal stop, problem
        bad = np.asarray(bad[:stop], dtype=bool)
        if bad.any():
            stop = int(bad.argmax())
            problem = message.format(texts[stop])

    def floats(texts, name, optional=False):
        """The texts before `stop` as floats, an empty optional one as NaN."""
        try:
            return np.array([float(v) if v or not optional else np.nan for v in texts[:stop]])
        except ValueError:
            refuse([(v or not optional) and _number(v) is None for v in texts], texts,
                   name + " is not a number: {!r}")
            return floats(texts, name, optional)

    def given(texts):
        return np.fromiter(map(bool, texts[:stop]), bool, stop)

    if "" in sid[:stop]:
        refuse([not v for v in sid], sid, "subject_id is empty")
    if not set(event[:stop]) <= {"0", "1"}:
        refuse([v not in ("0", "1") for v in event], event, "event must be 0 or 1, got {!r}")
    trt = list(map(str.upper, arm[:stop]))
    if not set(trt) <= {"E", "C"}:
        refuse([v not in ("E", "C") for v in trt], arm,
               "unknown arm code {!r} (expected 'E' or 'C')")
    s, c = floats(pfs, "pfs_months"), floats(cutoff, "cutoff_months")
    x = floats(mono, "mono_start_months", optional=True)
    # a NaN text must not read as an empty one, which means no monotherapy
    refuse(np.isnan(x) & given(mono), mono,
           "mono_start_months is not a number: {!r}")
    st = floats(stratum, "stratum", optional=True) + 0.0  # a whole "-0" is 0
    refuse(~(np.isfinite(st) & (np.floor(st) == st)) & given(stratum),
           stratum, "stratum is not a whole number: {!r}")
    return dict(ids=tuple(sid[:stop]), s=s[:stop], cutoff=c[:stop], mono_start=x[:stop],
                stratum=st[:stop], delta=np.fromiter(map("1".__eq__, event[:stop]), int, stop),
                trt=np.fromiter(map("E".__eq__, trt[:stop]), int, stop)), stop, problem


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def read_dataset(path) -> Trial:
    """Read and check a dataset file, stopping at the first bad row.

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
        rows, broken = [], None  # the rows before a line the csv module cannot split
        try:
            for row in reader:
                rows.append(row)
        except csv.Error as err:
            broken = f"row {len(rows) + 2}: {err}"
    linenos = [lineno for lineno, row in enumerate(rows, start=2) if row]
    rows = [row for row in rows if row]
    columns, stop, problem = _parse(rows)
    try:
        trial = Trial(**columns)  # the rows before the first that does not parse
    except DataError as err:
        k, ids = err.position, columns["ids"]
        if err.column == "ids":  # an id that repeats: an empty one does not parse
            raise DataError(f"row {linenos[k]}: subject_id {ids[k]!r} "
                            f"repeats row {linenos[ids.index(ids[k])]}") from None
        raise DataError(f"row {linenos[k]}: {err}") from None
    if problem is not None:
        raise DataError(f"row {linenos[stop]}: {problem}")
    if broken is not None:
        raise DataError(broken)
    return trial


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
