"""Black-box predictors and the predicted premium mass.

Predictions are just per-slot price and demand vectors from any source; the
algorithms only consume the predicted premium mass ``sigma_hat``, so a
scalar estimate can also be fed to them directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError
from .model import BillingParams, Trace, _checked_range, _premium_mass, _readonly_vector, sigma as true_sigma
from .validators import SCALAR, check_seed, read_reals


@dataclass(frozen=True, eq=False)
class Prediction:
    """Predicted per-slot prices and demands for a billing cycle.

    Every entry must be finite and demands >= 0.  Prices may be negative:
    an overpriced prediction pushes the predicted premium mass below 0.
    """

    prices: np.ndarray
    demands: np.ndarray

    def __post_init__(self):
        prices = _readonly_vector(self.prices, "predicted prices")
        demands = _readonly_vector(self.demands, "predicted demands")
        if len(prices) != len(demands):
            raise StructuralError("predicted prices and demands must be 1-d vectors of equal length")
        if len(prices):  # an empty prediction has no slot to check
            _checked_range(prices, "predicted price", "must be finite", above=-np.inf)
            _checked_range(demands, "predicted demand", "must be finite and >= 0 (clamp first)")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "demands", demands)

    def __len__(self) -> int:
        return len(self.prices)


def sigma_hat(prediction: Prediction, params: BillingParams) -> float:
    """Predicted premium mass ``(1/p_m) sum (p_g - p_hat(t)) d_hat(t)``.

    May be negative when predicted prices exceed the generation cost; only
    the comparison against 1 matters downstream.
    """
    return _premium_mass(params.p_g - prediction.prices, prediction.demands, params.p_m)


def perfect_prediction(trace: Trace) -> Prediction:
    """The identity predictor."""
    return Prediction(prices=trace.prices, demands=trace.demands)


def gaussian_predictor(
    trace: Trace,
    sigma1: float | None = None,
    sigma2: float | None = None,
    seed: int = 0,
) -> Prediction:
    """Ground truth plus independent Gaussian noise.

    Noise standard deviations default to half the maximum price and half
    the maximum demand.  Negative noisy demands are clamped to zero;
    prices are left unclamped so overpriced predictions can push the
    predicted premium mass negative.
    """
    if sigma1 is None:
        sigma1 = trace.max_price / 2
    if sigma2 is None:
        sigma2 = trace.max_demand / 2
    sigma1, sigma2 = (
        read_reals(value, f"noise standard deviation {name}", SCALAR, ValidationError)
        for name, value in (("sigma1", sigma1), ("sigma2", sigma2))
    )
    if sigma1 < 0 or sigma2 < 0:
        raise ValidationError("noise standard deviations must be >= 0")
    for name, value in (("sigma1", sigma1), ("sigma2", sigma2)):
        # NaN fails both `< 0` and `> 0`, and would draw no noise at all
        if not math.isfinite(value):
            raise ValidationError(f"noise standard deviation {name} must be finite, got {value}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    eps1 = rng.normal(0.0, sigma1, len(trace)) if sigma1 > 0 else np.zeros(len(trace))
    eps2 = rng.normal(0.0, sigma2, len(trace)) if sigma2 > 0 else np.zeros(len(trace))
    return Prediction(
        prices=trace.prices + eps1,
        demands=np.maximum(0.0, trace.demands + eps2),
    )


def adversarial_predictor(trace: Trace, params: BillingParams) -> Prediction:
    """A prediction whose premium mass lands on the wrong side of 1.

    Instances with true mass above 1 get a zero-demand prediction (mass 0);
    the rest get their demand scaled so the predicted mass is exactly 2.
    Zero-premium instances fall back to a flat fabricated demand against
    zero prices to reach mass 2.
    """
    s = true_sigma(trace, params)
    if s > 1:
        return Prediction(prices=trace.prices, demands=np.zeros(len(trace)))
    if s > 0:
        return Prediction(prices=trace.prices, demands=trace.demands * (2.0 / s))
    flat = 2.0 * params.p_m / (params.p_g * len(trace))
    return Prediction(prices=np.zeros(len(trace)), demands=np.full(len(trace), flat))
