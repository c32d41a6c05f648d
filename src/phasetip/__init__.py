"""phasetip: tipping-point assessment of treatment-phase contributions.

Survival engine (Kaplan-Meier, log-rank, time-varying Cox), counterfactual
phase transforms with censoring/event imputation, tipping-point search with
multiple imputation, a calibrated two-phase trial simulator, and a CLI.

The top level holds what a command or the README's library example
calls, and what those return or raise. Everything else is imported from
its module: `phasetip.counterfactual` (draws, transform lines,
breakpoints), `phasetip.tipping` (`evaluate_at`, `mi_aggregate`),
`phasetip.records` (`SubjectRecord`) and `phasetip.dataio` (`HEADER`).
"""

from .counterfactual import Effect, Threshold, naive_transform
from .dataio import read_dataset, write_dataset
from .errors import (
    ConvergenceError,
    DataError,
    EstimationError,
    PhasetipError,
    SeparationError,
)
from .records import Arm, Trial
from .simulate import SimConfig, simulate_trial, summarize_trial
from .survival import (
    CoxFit,
    KmCurve,
    LogRankResult,
    PhaseHr,
    RiskTable,
    cox_fit,
    km_estimate,
    logrank_test,
    phase_hr,
    risk_table,
)
from .tipping import SearchConfig, TpaCurvePoint, TpaResult, find_tipping, grid_scan

__version__ = "0.1.0"

__all__ = [
    "Arm", "Trial",
    # ConvergenceError and SeparationError: the EstimationErrors a fit
    # raises, so that a caller can catch each by name
    "PhasetipError", "DataError", "EstimationError", "ConvergenceError",
    "SeparationError",
    # the types the functions below return
    "KmCurve", "LogRankResult", "CoxFit", "PhaseHr", "RiskTable",
    # km_estimate: the curve whose medians `analyze` reports
    # (`summarize_trial`)
    "km_estimate", "logrank_test", "risk_table", "cox_fit", "phase_hr",
    # naive_transform: the paper's naive sensitivity check, which acceptance
    # criterion 7 tests; no command runs it yet (ROADMAP item 6)
    "Effect", "Threshold", "naive_transform",
    # TpaCurvePoint: the points `grid_scan` returns and `curve` writes
    "SearchConfig", "TpaCurvePoint", "TpaResult", "find_tipping", "grid_scan",
    "SimConfig", "simulate_trial", "summarize_trial",
    "read_dataset", "write_dataset",
    "__version__",
]
