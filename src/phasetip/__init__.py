"""phasetip: tipping-point assessment of treatment-phase contributions.

Survival engine (Kaplan-Meier, log-rank, time-varying Cox), counterfactual
phase transforms with censoring/event imputation, tipping-point search with
multiple imputation, a calibrated two-phase trial simulator, and a CLI.
"""

from .counterfactual import (
    Effect,
    ExponentialModel,
    ImputationDraws,
    Threshold,
    TransformParams,
    apply_transform,
    fit_censoring_model,
    fit_mono_event_model,
    make_draw_sets,
    make_draws,
    naive_transform,
    needs_draw,
)
from .dataio import HEADER, read_dataset, write_dataset
from .errors import (
    ConvergenceError,
    DataError,
    EstimationError,
    PhasetipError,
    SeparationError,
)
from .records import Arm, SubjectRecord, Trial
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
    partial_loglik_and_gradient,
    phase_hr,
    risk_table,
)
from .tipping import (
    SearchConfig,
    TpaCurvePoint,
    TpaResult,
    evaluate_at,
    find_tipping,
    grid_scan,
    mi_aggregate,
)

__version__ = "0.1.0"

__all__ = [
    "Arm", "SubjectRecord", "Trial",
    "PhasetipError", "DataError", "EstimationError", "ConvergenceError",
    "SeparationError",
    "KmCurve", "LogRankResult", "CoxFit", "PhaseHr", "RiskTable",
    "km_estimate", "logrank_test", "risk_table", "cox_fit",
    "partial_loglik_and_gradient", "phase_hr",
    "Effect", "Threshold", "TransformParams", "ExponentialModel",
    "ImputationDraws", "needs_draw", "fit_censoring_model",
    "fit_mono_event_model", "apply_transform", "naive_transform", "make_draws",
    "make_draw_sets",
    "SearchConfig", "TpaCurvePoint", "TpaResult",
    "evaluate_at", "find_tipping", "grid_scan", "mi_aggregate",
    "SimConfig", "simulate_trial", "summarize_trial",
    "HEADER", "read_dataset", "write_dataset",
    "__version__",
]
