"""The benchmark's tracer and set-up probe still find what they read.

`perfbench/tracer.py` wraps functions by name in `phasetip.tipping` and
`phasetip.cli` and reads some arguments by position; a name it no longer
finds is skipped and its per-layer metrics read 0. These tests load the
tracer from its file, unchanged, and check each name and position against
the program, so a refactor cannot silently zero those metrics. A hook
whose function left the program on purpose is named in RETIRED instead.
"""

import importlib.util
import inspect
import os
import sys

import numpy as np

import phasetip.cli
import phasetip.tipping
from phasetip.counterfactual import Effect, make_draws, needs_draw
from phasetip.dataio import write_dataset
from phasetip.records import Trial
from phasetip.simulate import SimConfig, simulate_trial
from phasetip.tipping import SearchConfig, find_tipping, grid_scan

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
# Tipping hooks whose function the program no longer has. The Cox fits read
# a risk table built straight from the Trial, so there is no expansion to
# time, and the tracer's survival.to_counting_process.ms_per_call and
# survival.rows_per_eval read 0. Every transformed row of the search layer
# comes from `transform_outcomes` in blocks, so it never calls
# `apply_transform`, and counterfactual.apply_transform.ms_per_call reads 0.
RETIRED = {"to_counting_process", "apply_transform"}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_every_hook_name_is_a_callable_of_its_module():
    tracer = _load("tracer")
    assert RETIRED <= set(tracer.TIPPING_HOOKS)
    for attr in RETIRED:
        assert not hasattr(phasetip.tipping, attr), f"phasetip.tipping.{attr}"
    for module, hooks in ((phasetip.tipping, set(tracer.TIPPING_HOOKS) - RETIRED),
                          (phasetip.cli, tracer.CLI_HOOKS)):
        for attr in hooks:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_argument_positions_the_tracer_reads():
    assert _parameters(phasetip.tipping.cox_fit)[1] == "covariates"
    assert _parameters(phasetip.tipping.evaluate_at)[2] == "draws"


def test_setup_probe_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the probe prepends its SRC
    path = tmp_path / "trial.csv"
    write_dataset(simulate_trial(SimConfig(n_experimental=30, n_control=20), seed=1), path)
    # the probe hands what `read_dataset` returns to `make_draws` once per
    # replicate; that is a Trial, so the read is the only Trial it builds.
    # Every build runs the column check, so the spy counts the checks.
    assert isinstance(phasetip.cli.read_dataset(path), Trial)
    built = []
    check = Trial.__post_init__

    def counted(trial):
        built.append(trial)
        check(trial)

    monkeypatch.setattr(Trial, "__post_init__", counted)
    src = os.path.dirname(os.path.dirname(phasetip.cli.__file__))
    probe = _load("setup_probe")
    for effect in ("1", "2"):
        built.clear()
        assert probe.main(["setup_probe.py", src, str(path), effect, "0", "2"]) == 0
        assert len(built) == 1


def test_imputed_values_count_the_drawn_subjects():
    # the tracer's counterfactual.imputed_values is len(make_draws(...).values)
    records = simulate_trial(SimConfig(n_experimental=30, n_control=20), seed=1)
    for effect in Effect:
        selected = int(needs_draw(records, effect).sum())
        assert selected > 0
        assert len(make_draws(records, effect, "fitted", seed=0).values) == selected


def test_evaluations_and_draw_sets_the_tracer_counts(monkeypatch):
    # the tracer counts tipping.evaluate_at calls, and tipping.searches as
    # the distinct `draws` arguments of those calls: a curve evaluates each
    # point with its one draw set, and a search evaluates its reported
    # point once, with its own draw set
    arg = _load("tracer")._arg
    seen = []
    real = phasetip.tipping.evaluate_at

    def spy(*args, **kwargs):
        seen.append(arg(args, kwargs, 2, "draws"))
        return real(*args, **kwargs)

    monkeypatch.setattr(phasetip.tipping, "evaluate_at", spy)
    trial = simulate_trial(SimConfig(), seed=6)
    grid = np.arange(1.0, 0.69, -0.02)
    grid_scan(trial, SearchConfig(effect=Effect.SHRINK_EXPERIMENTAL), grid)
    assert len(seen) == grid.size and len({id(d) for d in seen}) == 1

    seen.clear()
    config = SearchConfig(effect=Effect.INFLATE_CONTROL, imputation="fitted", mi_replicates=3)
    result = find_tipping(trial, config)
    assert all(o.point is not None for o in result.replicates)
    draw_sets = {make_draws(trial, config.effect, "fitted", config.seed, r).values.tobytes()
                 for r in range(config.mi_replicates)}
    assert len(draw_sets) == 3
    assert len(seen) == len({id(d) for d in seen}) == 3
    assert {d.values.tobytes() for d in seen} == draw_sets
