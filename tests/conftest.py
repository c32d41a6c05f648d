import contextlib
import csv
import dataclasses
import math
import os
import signal
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from reference import transformed
from phasetip.counterfactual import Effect, make_draws
from phasetip.records import Arm, SubjectRecord
from phasetip.simulate import SimConfig, simulate_trial

E, C = Arm.EXPERIMENTAL, Arm.CONTROL


def rec(sid, arm, s, delta, cutoff=100.0, mono=None, stratum=None):
    """Shorthand SubjectRecord constructor for fixtures."""
    return SubjectRecord(
        subject_id=str(sid), arm=arm, s=float(s), delta=int(delta),
        cutoff=float(cutoff), mono_start=mono, stratum=stratum,
    )


def draws_by_id(draws, records) -> dict:
    """A draw set's imputed times keyed by the subject id of each position."""
    ids = [r.subject_id for r in records]
    return {ids[k]: v for k, v in zip(draws.subjects.tolist(), draws.values.tolist())}


# Times of the generated subjects: a short list, so that tied times, a
# monotherapy start equal to the follow-up time, subjects without a
# monotherapy phase and one-arm trials all occur often.
TIMES = [0.5, 1.0, 2.0, 2.5, 4.0, 7.0]


@st.composite
def subjects(draw, index):
    s = draw(st.sampled_from(TIMES))
    mono = draw(st.sampled_from([None, s, *[t for t in TIMES if t < s]]))
    return rec(
        index, draw(st.sampled_from([E, C])), s, draw(st.sampled_from([0, 1])),
        cutoff=s + draw(st.sampled_from([0.0, 1.5, 6.0])), mono=mono,
        stratum=draw(st.sampled_from([None, 0, 1])),
    )


@st.composite
def trials(draw, max_size=12):
    n = draw(st.integers(1, max_size))
    return [draw(subjects(i)) for i in range(n)]


@pytest.fixture(scope="session")
def seed6_transforms():
    """The calibrated seed-6 trial shrunk by effect 2 (replicate-0 draws of
    imputation seed 0) at five factors, each also with its subjects dealt
    into three strata, the third without a stratum (NaN)."""
    trial = simulate_trial(SimConfig(), seed=6)
    draws = make_draws(trial, Effect.SHRINK_EXPERIMENTAL, "auto", 0, 0)
    strata = np.array([0.0, 1.0, np.nan])[np.arange(len(trial)) % 3]
    out = []
    for gamma in (1.0, 0.83, 0.7, 0.55, 0.4):
        data = transformed(trial, Effect.SHRINK_EXPERIMENTAL, gamma, draws)
        out += [data, dataclasses.replace(data, stratum=strata)]
    return out


class Hang(BaseException):
    """Raised in a body that outran its wall-clock bound."""


@contextlib.contextmanager
def wall_clock_bound(seconds):
    """Raise Hang in the body if it runs longer than `seconds`."""
    def hang(signum, frame):
        raise Hang(f"ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_result_cells(outdir):
    """Every numeric cell of `outdir`/results.csv is a finite number or
    empty (a value the search could not compute), never the text None."""
    with open(os.path.join(outdir, "results.csv"), newline="") as handle:
        header, *rows = list(csv.reader(handle))
    assert rows
    for row in rows:
        for name, cell in zip(header, row):
            if name not in ("effect_method", "flags") and cell != "":
                assert math.isfinite(float(cell)), (name, cell)
