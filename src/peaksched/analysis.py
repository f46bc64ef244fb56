"""Competitive-ratio analysis: exact ratio curves, guarantee formulas,
expected ratios of randomized policies, and worst-case instance builders.

Everything is parameterized by the premium mass ``sigma`` of an instance
(total local-serving premium in units of the peak price) and the hardness
parameter ``beta`` (minimum grid price over generation cost).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UndefinedRatioError
from .model import BillingParams, Trace
from .online import DistributionSpec, SwitchPolicy
from .quadrature import integrate
from .validators import check_beta, check_lambda

_E = math.e


def _check_mass(sigma: float) -> None:
    if not sigma >= 0:
        raise DomainError(f"premium mass must be >= 0, got {sigma}")


def cost_ratio(policy: SwitchPolicy | float, sigma: float, beta: float) -> float:
    """Worst-case cost ratio of a fixed threshold policy on instances with
    premium mass ``sigma``.

    A policy that never pays the peak (``s`` above ``sigma``, including
    never-switch) is optimal when ``sigma <= 1`` and loses only the peak
    escape when ``sigma > 1``.  A policy that does switch pays up to
    ``s * p_m`` of premium on top of the optimum.  The atoms: grid from
    the start evaluates the switching branch at ``s = -1`` when
    ``sigma <= 1`` (yielding ``beta``), and is exactly optimal when
    ``sigma > 1`` since the optimum is itself all-grid.  ``sigma = 0``
    returns 1 by convention (no demand, both costs vanish).
    """
    s = policy.s if isinstance(policy, SwitchPolicy) else float(policy)
    check_beta(beta)
    _check_mass(sigma)
    return _ratio(s, sigma, beta)


def _ratio(s: float, sigma: float, beta: float) -> float:
    """:func:`cost_ratio` of threshold ``s`` for arguments already checked."""
    if sigma == 0:
        return 1.0
    if sigma <= 1:
        if s > sigma:
            return 1.0
        return 1.0 + (1.0 - sigma + s) * (1.0 - beta) / sigma
    if s == -1.0:
        return 1.0
    denom = (sigma - 1.0) * beta + 1.0
    if s > sigma:
        return 1.0 + (sigma - 1.0) * (1.0 - beta) / denom
    return 1.0 + s * (1.0 - beta) / denom


def worst_case_ratio(s: float, beta: float) -> float:
    """Competitive ratio of the threshold policy ``s``: the supremum of
    :func:`cost_ratio` over premium masses, attained at ``sigma = s``."""
    check_beta(beta)
    if not s > 0:
        raise DomainError(f"threshold multiplier must be > 0, got {s}")
    if s <= 1:
        return 1.0 + (1.0 - beta) / s
    return 1.0 + s * (1.0 - beta) / ((s - 1.0) * beta + 1.0)


class Bounds(NamedTuple):
    robustness: float
    consistency: float


def deterministic_bounds(lam: float, beta: float) -> Bounds:
    """Guarantees of the prediction-assisted deterministic rule.

    Robust to ``1 + (1 - beta) / lambda`` under arbitrary prediction error
    and ``(1 + lambda)``-competitive under perfect prediction.
    """
    check_lambda(lam)
    check_beta(beta)
    return Bounds(1.0 + (1.0 - beta) / lam, 1.0 + lam)


def randomized_bounds(lam: float, beta: float) -> Bounds:
    """Guarantees of the prediction-weighted randomized rule.

    ``lam = 1`` collapses both to ``e / (e - 1 + beta)``, the pure
    randomized competitive ratio; ``lam = 0`` drives consistency to 1.
    """
    check_lambda(lam, allow_zero=True)
    check_beta(beta)
    phi = 1.0 / (_E - 1.0 + beta)
    robustness = phi * (_E + (1.0 - lam) * (1.0 - beta) * (_E - 1.0 + beta) / beta)
    consistency = phi * (
        _E + (lam - 1.0) * (1.0 - beta) + lam * (1.0 - lam) * (1.0 - beta) * (_E - 1.0) / beta
    )
    return Bounds(robustness, consistency)


def naive_randomized_bounds(lam: float, beta: float) -> Bounds:
    """Guarantees of the support-stretching randomized variant.

    Its consistency is stuck at ``1 / beta``, which is why the
    mass-shifting construction of :func:`randomized_bounds` exists.
    """
    check_lambda(lam)
    check_beta(beta)
    inv = 1.0 / lam
    stretched = math.exp(inv) / (math.exp(inv) - 1.0 + beta)
    shrunk = math.exp(lam) / (math.exp(lam) - 1.0 + beta)
    robustness = max(min(1.0 / beta, inv) * stretched, shrunk)
    return Bounds(robustness, 1.0 / beta)


def expected_ratio(spec: DistributionSpec, sigma: float, beta: float) -> float:
    """Expected worst-case cost ratio of a randomized threshold policy.

    Atom contributions are summed exactly; the exponential density segment
    is integrated adaptively to absolute error 1e-9, split at the branch
    point ``s = sigma`` where the ratio curve has a kink.
    """
    check_beta(beta)
    _check_mass(sigma)
    spec.require_normalized()
    total = sum(mass * _ratio(where, sigma, beta) for where, mass in spec.atoms)
    if spec.coeff > 0 and spec.hi > spec.lo:
        coeff = spec.coeff
        value, _ = integrate(
            lambda s: coeff * math.exp(s) * _ratio(s, sigma, beta),
            spec.lo,
            spec.hi,
            abs_tol=1e-9,
            breakpoints=(sigma,),
        )
        total += value
    return total


def expected_ratio_closed_form(predicted_high: bool, sigma: float, lam: float, beta: float) -> float:
    """Closed form of :func:`expected_ratio` for the prediction-weighted
    randomized rule, by branch of the prediction and of the true mass.

    Requires ``sigma > 0``.  The two ``sigma <= 1`` branches are constant
    in ``sigma``; the two ``sigma > 1`` branches grow toward their
    ``sigma -> inf`` envelope, which is what the robustness and consistency
    formulas of :func:`randomized_bounds` cap.
    """
    check_lambda(lam, allow_zero=True)
    check_beta(beta)
    if not sigma > 0:
        raise DomainError("closed forms assume a positive premium mass")
    phi = 1.0 / (_E - 1.0 + beta)
    moved = (1.0 - lam) * (_E - 1.0) + beta
    if sigma <= 1:
        if predicted_high:
            return phi * (_E - (1.0 - lam) * (1.0 - beta) * (1.0 + moved))
        return phi * (_E - 1.0 + beta + lam * (1.0 - beta))
    denom = (sigma - 1.0) * beta + 1.0
    if predicted_high:
        return phi * (
            _E - 1.0 + beta + lam * (1.0 - beta)
            + lam * (1.0 - lam) * (1.0 - beta) * (sigma - 1.0) * (_E - 1.0) / denom
        )
    return phi * (_E + (1.0 - beta) * (1.0 - lam) * ((sigma - 1.0) * (_E - 1.0) - 1.0) / denom)


def worst_case_instance(
    s: float, beta: float, p_m: float = 100.0, slots: int = 1000
) -> tuple[Trace, BillingParams]:
    """Build the adversarial instance for the threshold policy ``s``.

    Constant prices at ``beta * p_g`` and unit demand on every slot, with
    the generation cost tuned so the premium mass equals ``s`` exactly:
    demand dries up right as the policy finishes paying its premium.  The
    policy's empirical ratio approaches :func:`worst_case_ratio` from below
    at rate ``(1 - beta) / slots``.  With ``beta = 1`` there is no premium
    to tune, the mass is 0, and every policy is optimal.
    """
    if not s > 0:
        raise DomainError(f"threshold multiplier must be > 0, got {s}")
    check_beta(beta)
    if p_m <= 0:
        raise DomainError(f"peak price must be > 0, got {p_m}")
    if slots < 1:
        raise DomainError(f"need at least one slot, got {slots}")
    if beta == 1.0:
        p_g = 1.0
    else:
        p_g = s * p_m / ((1.0 - beta) * slots)
    trace = Trace(prices=np.full(slots, beta * p_g), demands=np.ones(slots))
    params = BillingParams(p_g=p_g, p_m=p_m, capacity=1)
    return trace, params


def empirical_ratio(alg_total: float, opt_total: float) -> float:
    """Cost of an online run over the exact offline optimum."""
    if opt_total <= 0:
        raise UndefinedRatioError(f"offline optimum must be > 0, got {opt_total}")
    return alg_total / opt_total
