"""Peak-aware generation scheduling under demand uncertainty.

Offline oracles, online threshold algorithms (pure and prediction-
assisted, deterministic and randomized), layering for integer demand,
ramp projection, and a numerical verification harness for the
robustness / consistency guarantees.

``import peaksched`` loads the scheduling core only.  The experiment
harness (trace CSVs, sweeps, theorem verification and the command line)
is the ``harness`` subpackage, imported the first time
``peaksched.harness`` is read; the instance-bank engine
(``peaksched.bank``) is imported the first time ``TraceBank`` is read or a
bank is built.
"""

from .analysis import (
    Bounds,
    cost_ratio,
    deterministic_bounds,
    empirical_ratio,
    expected_ratio,
    expected_ratio_closed_form,
    expected_ratios,
    naive_randomized_bounds,
    randomized_bounds,
    worst_case_bank,
    worst_case_instance,
    worst_case_ratio,
)
from .errors import (
    DomainError,
    InfeasibleError,
    NumericError,
    PeakSchedError,
    StructuralError,
    UndefinedRatioError,
    ValidationError,
)
from .layering import (
    LayerStack,
    decompose,
    flipped_layer_sigma_hats,
    predicted_layer_sigma_hats,
    project_ramp,
    run_layered,
    true_layer_sigma_hats,
)
from .model import (
    MONEY_TOL,
    BillingParams,
    CostBreakdown,
    Schedule,
    Trace,
    beta,
    check_pairing,
    cost_of,
    cost_reduction,
    sigma,
    validate_schedule,
)
from .offline import OracleResult, optimal_basic, optimal_general, optimal_with_ramp
from .online import (
    Algorithm,
    DistributionSpec,
    RunRecord,
    SwitchPolicy,
    bed_policy,
    lambda_bed_policy,
    lambda_red_distribution,
    naive_red_distribution,
    policy_distribution,
    red_distribution,
    run_algorithm,
    run_threshold,
    sample,
    select_policy,
    switch_costs,
    switch_schedule,
    switch_slots,
)
from .prediction import (
    Prediction,
    adversarial_predictor,
    gaussian_predictor,
    perfect_prediction,
    sigma_hat,
)

__all__ = [
    "Algorithm",
    "BillingParams",
    "Bounds",
    "CostBreakdown",
    "DistributionSpec",
    "DomainError",
    "InfeasibleError",
    "LayerStack",
    "MONEY_TOL",
    "NumericError",
    "OracleResult",
    "PeakSchedError",
    "Prediction",
    "RunRecord",
    "Schedule",
    "StructuralError",
    "SwitchPolicy",
    "Trace",
    "TraceBank",
    "UndefinedRatioError",
    "ValidationError",
    "adversarial_predictor",
    "bed_policy",
    "beta",
    "check_pairing",
    "cost_of",
    "cost_ratio",
    "cost_reduction",
    "decompose",
    "deterministic_bounds",
    "empirical_ratio",
    "expected_ratio",
    "expected_ratio_closed_form",
    "expected_ratios",
    "flipped_layer_sigma_hats",
    "gaussian_predictor",
    "harness",
    "lambda_bed_policy",
    "lambda_red_distribution",
    "naive_randomized_bounds",
    "naive_red_distribution",
    "optimal_basic",
    "optimal_general",
    "optimal_with_ramp",
    "perfect_prediction",
    "policy_distribution",
    "predicted_layer_sigma_hats",
    "project_ramp",
    "randomized_bounds",
    "red_distribution",
    "run_algorithm",
    "run_layered",
    "run_threshold",
    "sample",
    "select_policy",
    "sigma",
    "sigma_hat",
    "switch_costs",
    "switch_schedule",
    "switch_slots",
    "true_layer_sigma_hats",
    "validate_schedule",
    "worst_case_bank",
    "worst_case_instance",
    "worst_case_ratio",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: called only for names the module does not hold, so after the
    # first read ``harness`` is a plain attribute, set by the import system
    if name == "harness":
        import importlib

        return importlib.import_module(".harness", __name__)
    if name == "TraceBank":
        from .bank import TraceBank

        return TraceBank
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "harness", "TraceBank"})
