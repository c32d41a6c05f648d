"""The package's public surface: the top-level names, each module's
`__all__`, and the README's library example, which must run on the
package as it is."""

import importlib
import math
import os
import pkgutil
import re

import phasetip

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# what a command or the README's library example calls, and what those
# return or raise; `phasetip/__init__.py` gives the reason for the others
TOP_LEVEL = {
    "Arm", "Trial",
    "PhasetipError", "DataError", "EstimationError", "ConvergenceError", "SeparationError",
    "KmCurve", "LogRankResult", "CoxFit", "PhaseHr", "RiskTable",
    "km_estimate", "logrank_test", "risk_table", "cox_fit", "phase_hr",
    "Effect", "Threshold", "naive_transform",
    "SearchConfig", "TpaCurvePoint", "TpaResult", "find_tipping", "grid_scan",
    "SimConfig", "simulate_trial", "summarize_trial",
    "read_dataset", "write_dataset",
    "__version__",
}


def test_top_level_names():
    assert len(phasetip.__all__) == len(TOP_LEVEL)
    assert set(phasetip.__all__) == TOP_LEVEL


def test_every_exported_name_resolves():
    modules = [phasetip] + [importlib.import_module(f"phasetip.{info.name}")
                            for info in pkgutil.iter_modules(phasetip.__path__)
                            if info.name != "__main__"]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_one_row_wrappers_are_gone():
    for module, name in (("counterfactual", "keyed_rng"), ("counterfactual", "apply_transform"),
                         ("survival", "partial_loglik_and_gradient")):
        assert not hasattr(importlib.import_module(f"phasetip.{module}"), name)
        assert not hasattr(phasetip, name)


def test_readme_library_example_runs(capsys):
    with open(README, encoding="utf-8") as handle:
        (example,) = re.findall(r"^```python\n(.*?)^```", handle.read(), re.S | re.M)
    exec(compile(example, README, "exec"), {})
    printed = [float(word) for word in capsys.readouterr().out.split()]
    assert printed and all(math.isfinite(x) for x in printed)
