"""Property tests of the columnar transform against per-subject references.

`apply_transform` must give exactly what the reference `transform_effect1`
and `transform_effect2` give one record at a time. The generated trials are
small and draw their times from a short list, so tied times, a monotherapy
start equal to the follow-up time and subjects without a monotherapy phase
all occur often.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import C, E, draws_by_id, rec, trials
from reference import transform_effect1, transform_effect2
from phasetip.counterfactual import (
    Effect,
    ImputationDraws,
    TransformParams,
    apply_transform,
    make_draws,
    transform_lines,
)
from phasetip.errors import DataError, EstimationError
from phasetip.records import Trial

@st.composite
def draw_sets(draw, records):
    """Imputed times beyond each subject's observed time, ties included;
    some subjects may have none."""
    subjects, values = [], []
    for k, r in enumerate(records):
        if draw(st.integers(0, 3)):  # one subject in four has no draw
            subjects.append(k)
            values.append(r.s + draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 9.0])))
    return ImputationDraws(subjects=np.array(subjects, dtype=int),
                           values=np.array(values, dtype=float))


GAMMAS = {
    Effect.INFLATE_CONTROL: st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                                      st.floats(1.0, 10.0)),
    Effect.SHRINK_EXPERIMENTAL: st.one_of(st.sampled_from([1.0, 0.5, 0.25]),
                                          st.floats(0.01, 1.0)),
}
REFERENCE = {Effect.INFLATE_CONTROL: transform_effect1,
             Effect.SHRINK_EXPERIMENTAL: transform_effect2}


def reference_transform(records, params, draws):
    """The per-record transform, subject by subject; the error text of the
    first subject that cannot be transformed, if any."""
    by_id = draws_by_id(draws, records)
    try:
        return [REFERENCE[params.effect](r, params.gamma, by_id.get(r.subject_id))
                for r in records], None
    except DataError as err:
        return None, str(err)


def assert_same_subjects(trial, records):
    assert list(trial) == list(records)
    assert np.array_equal(trial.s, [r.s for r in records])
    assert np.array_equal(trial.delta, [r.delta for r in records])
    assert np.array_equal(trial.cutoff, [r.cutoff for r in records])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), records=trials(), effect=st.sampled_from(list(Effect)))
def test_vectorized_transform_equals_per_record_reference(data, records, effect):
    draws = data.draw(draw_sets(records))
    params = TransformParams(effect, data.draw(GAMMAS[effect]))
    expected, error = reference_transform(records, params, draws)
    if error is not None:
        with pytest.raises(DataError) as err:
            apply_transform(Trial.from_records(records), params, draws)
        assert str(err.value) == error
        return
    out = apply_transform(Trial.from_records(records), params, draws)
    assert_same_subjects(out, expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), records=trials(), effect=st.sampled_from(list(Effect)),
       seed=st.integers(0, 3))
def test_transform_with_made_draws_equals_reference(data, records, effect, seed):
    try:
        draws = make_draws(Trial.from_records(records), effect, "auto", seed=seed)
    except EstimationError:
        return  # no data to fit the imputation model on
    params = TransformParams(effect, data.draw(GAMMAS[effect]))
    expected, error = reference_transform(records, params, draws)
    assert error is None  # the draws of make_draws always suffice
    assert_same_subjects(apply_transform(Trial.from_records(records), params, draws), expected)


def test_draws_are_read_at_their_trial_positions():
    # each effect has one subject to draw for, at position 1 of three
    records = [rec("a", E, 4.0, 1, mono=1.0), rec("b", C, 4.0, 1, mono=1.0),
               rec("c", C, 3.0, 0, mono=2.0)]
    trial = Trial.from_records(records)
    params = TransformParams(Effect.INFLATE_CONTROL, 3.0)  # b moves to 10
    for cens, expected in ((12.0, (10.0, 1)), (8.0, (8.0, 0))):
        draws = ImputationDraws(np.array([1]), np.array([cens]))
        out = apply_transform(trial, params, draws)
        assert (out[1].s, out[1].delta) == expected
        assert list(out)[::2] == records[::2]
    no_draw = ImputationDraws(np.array([0]), np.array([9.0]))
    with pytest.raises(DataError, match="subject b: missing imputed censoring time"):
        apply_transform(trial, params, no_draw)


def test_draws_of_the_other_effect_are_refused():
    # effect 1 draws for the control event b; effect 2 needs a draw for the
    # experimental subject a, censored in monotherapy
    trial = Trial.from_records([rec("a", E, 4.0, 0, mono=1.0), rec("b", C, 4.0, 1, mono=1.0)])
    draws = make_draws(trial, Effect.INFLATE_CONTROL, "cutoff")
    assert draws.subjects.tolist() == [1]
    with pytest.raises(DataError, match="subject a: missing imputed event time"):
        transform_lines(trial, Effect.SHRINK_EXPERIMENTAL, draws)
