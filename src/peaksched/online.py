"""Online threshold policies and the break-even family of algorithms.

Every algorithm here is a switch policy: serve demand from the local
generator until the cumulative premium ``S(t) = sum_{tau<=t} (p_g -
p(tau)) d(tau)`` reaches ``s * p_m``, then buy from the grid for the rest
of the cycle.  The threshold multiplier ``s`` carries two extreme atoms:
``-1`` buys from the grid from the very first slot, ``inf`` never
switches.

Deterministic variants fix ``s`` (the break-even rule uses ``s = 1``; the
prediction-assisted rule picks ``s = lambda`` or ``1/lambda`` depending on
the predicted premium mass).  Randomized variants draw ``s`` from a mixed
distribution with an exponential density segment and up to two atoms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ValidationError
from .model import BillingParams, Schedule, Trace, _frozen, beta as beta_of, check_pairing
from .validators import check_beta, check_lambda, check_sigma_hat

#: Tolerance on the total mass of a switch-threshold distribution.
MASS_TOL = 1e-12

_GRID_FROM_START = -1.0


@dataclass(frozen=True)
class SwitchPolicy:
    """Threshold multiplier governing the generator-to-grid switch.

    ``s`` is either ``-1.0`` (grid from the first slot), a finite value
    ``>= 0``, or ``inf`` (never switch).
    """

    s: float

    def __post_init__(self):
        if self.s == _GRID_FROM_START or self.s == math.inf:
            return
        if not (self.s >= 0 and math.isfinite(self.s)):
            raise DomainError(f"threshold multiplier must be -1, >= 0, or inf; got {self.s}")

    @classmethod
    def at(cls, s: float) -> "SwitchPolicy":
        return cls(float(s))

    @classmethod
    def grid_from_start(cls) -> "SwitchPolicy":
        return cls(_GRID_FROM_START)

    @classmethod
    def never_switch(cls) -> "SwitchPolicy":
        return cls(math.inf)

    @property
    def is_grid_from_start(self) -> bool:
        return self.s == _GRID_FROM_START

    @property
    def is_never_switch(self) -> bool:
        return self.s == math.inf

    @property
    def is_finite(self) -> bool:
        return not (self.is_grid_from_start or self.is_never_switch)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one threshold run.

    ``switch_slot`` is the 0-based index of the first grid-served slot, or
    None when the policy never switched.  ``cumulative_premium`` is the
    final ``S(T)``, accumulated over every slot regardless of which source
    served it, so ``S(T) = sigma * p_m`` is an identity.
    """

    schedule: Schedule
    switch_slot: int | None
    policy: SwitchPolicy
    cumulative_premium: float


def run_threshold(trace: Trace, params: BillingParams, policy: SwitchPolicy) -> RunRecord:
    """Execute a switch policy on a 0/1-demand trace: the one-threshold
    case of :func:`switch_slots`.

    The slot that first satisfies ``S(t) >= s * p_m`` is itself served from
    the grid, so the premium actually paid stays strictly below
    ``s * p_m``.
    """
    slot, premium = _crossings(trace, params, policy.s)
    switch = int(slot)
    if switch == len(trace):
        switch = None
    return RunRecord(
        schedule=switch_schedule(trace, switch),
        switch_slot=switch,
        policy=policy,
        cumulative_premium=premium,
    )


def switch_slots(trace: Trace, params: BillingParams, thresholds) -> np.ndarray:
    """First grid-served slot of each threshold multiplier in ``thresholds``,
    from one pass over the cumulative premium; ``len(trace)`` where the
    policy never switches.  Slot for slot what :func:`run_threshold` gives
    each threshold alone."""
    slots, _ = _crossings(trace, params, np.asarray(thresholds, dtype=float))
    return slots


def _crossings(trace: Trace, params: BillingParams, s):
    """Switch slots of the threshold multipliers ``s`` (a float or an
    array), and the final cumulative premium ``S(T)``.

    Premiums are non-negative, so the cumulative sum is sorted and each
    first crossing is a binary search away.  The atoms need no cases of
    their own: ``s = -1`` asks for ``-p_m``, which slot 0 already meets,
    and ``s = inf`` for ``inf``, which no slot meets.
    """
    if not trace.has_binary_demands():
        raise DomainError("threshold runs require 0/1 demands; decompose general demand into layers")
    check_pairing(trace, params)
    cumulative = ((params.p_g - trace.prices) * trace.demands).cumsum()
    return cumulative.searchsorted(s * params.p_m, side="left"), float(cumulative[-1])


def switch_schedule(trace: Trace, switch: int | None) -> Schedule:
    """Serve a 0/1-demand trace locally before slot ``switch`` and from the
    grid from it on; None serves every slot locally."""
    d = trace.demands
    u = d.copy()
    if switch is not None:
        u[switch:] = 0.0
    return Schedule(u=_frozen(u), v=_frozen(d - u))


def bed_policy() -> SwitchPolicy:
    """Break-even rule: switch once the paid premium would reach one peak charge."""
    return SwitchPolicy.at(1.0)


def lambda_bed_policy(sigma_hat: float, lam: float) -> SwitchPolicy:
    """Prediction-assisted deterministic rule.

    Trusting the prediction (small ``lam``) switches quickly when the
    predicted premium mass exceeds 1 and very late otherwise; ``lam = 1``
    collapses both branches to the plain break-even rule.
    """
    check_lambda(lam)
    check_sigma_hat(sigma_hat)
    return SwitchPolicy.at(lam if sigma_hat > 1 else 1.0 / lam)


@dataclass(frozen=True)
class DistributionSpec:
    """Mixed distribution over switch thresholds.

    Point masses sit at the policy atoms (``-1`` and/or ``inf``); the
    continuous part has density ``coeff * e^s`` on ``[lo, hi]``.  Total
    mass must be 1 within :data:`MASS_TOL`.
    """

    atoms: tuple[tuple[float, float], ...]
    coeff: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.coeff < 0:
            raise ValidationError(f"density coefficient must be >= 0, got {self.coeff}")
        if self.hi < self.lo:
            raise ValidationError(f"empty density support [{self.lo}, {self.hi}]")
        for where, mass in self.atoms:
            if mass < 0:
                raise ValidationError(f"atom at {where} has negative mass {mass}")

    def atom_mass(self, where: float) -> float:
        return sum(mass for loc, mass in self.atoms if loc == where)

    def continuous_mass(self) -> float:
        return self.coeff * (math.exp(self.hi) - math.exp(self.lo))

    def total_mass(self) -> float:
        return self.continuous_mass() + sum(mass for _, mass in self.atoms)

    def require_normalized(self) -> None:
        total = self.total_mass()
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"distribution mass is {total}, not 1 within {MASS_TOL}")


def _spec(atoms: list[tuple[float, float]], coeff: float, lo: float, hi: float) -> DistributionSpec:
    kept = tuple((where, mass) for where, mass in atoms if mass > 0)
    return DistributionSpec(atoms=kept, coeff=coeff, lo=lo, hi=hi)


def red_distribution(beta: float) -> DistributionSpec:
    """Threshold distribution of the pure randomized algorithm.

    Density ``e^s / (e - 1 + beta)`` on [0, 1] plus a never-switch atom
    carrying the remaining ``beta`` mass.
    """
    check_beta(beta)
    norm = math.e - 1 + beta
    return _spec([(math.inf, beta / norm)], coeff=1.0 / norm, lo=0.0, hi=1.0)


def lambda_red_distribution(sigma_hat: float, lam: float, beta: float) -> DistributionSpec:
    """Prediction-weighted randomized threshold distribution.

    Both branches scale the exponential segment by ``lam`` and move the
    freed mass onto atoms.  When the prediction says the premium mass
    exceeds 1, the atom mass splits between grid-from-start (weight
    ``1 - lam``) and never-switch (weight ``lam``); otherwise it sits
    entirely on never-switch.  ``lam = 1`` recovers the pure randomized
    distribution; ``lam = 0`` degenerates to a single atom.
    """
    check_lambda(lam, allow_zero=True)
    check_beta(beta)
    check_sigma_hat(sigma_hat)
    norm = math.e - 1 + beta
    moved = (1 - lam) * (math.e - 1) + beta
    if sigma_hat > 1:
        atoms = [
            (_GRID_FROM_START, moved * (1 - lam) / norm),
            (math.inf, moved * lam / norm),
        ]
    else:
        atoms = [(math.inf, moved / norm)]
    return _spec(atoms, coeff=lam / norm, lo=0.0, hi=1.0)


def naive_red_distribution(sigma_hat: float, lam: float, beta: float) -> DistributionSpec:
    """Straightforward re-scaling of the pure randomized distribution.

    Stretches or shrinks the density support to ``[0, lam]`` or
    ``[0, 1/lam]`` and renormalizes, keeping a never-switch atom with the
    ``beta`` share of the mass.  Kept as a comparison point: its
    consistency degrades to ``1/beta``.
    """
    check_lambda(lam)
    check_beta(beta)
    check_sigma_hat(sigma_hat)
    hi = lam if sigma_hat > 1 else 1.0 / lam
    norm = math.exp(hi) - 1 + beta
    return _spec([(math.inf, beta / norm)], coeff=1.0 / norm, lo=0.0, hi=hi)


def sample(spec: DistributionSpec, uniform: float) -> SwitchPolicy:
    """Inverse-CDF sampling of a mixed threshold distribution.

    The unit interval is carved in order: grid-from-start atom, continuous
    segment, never-switch atom.  Within the segment the inverse CDF is
    ``ln(e^lo + r / coeff)`` for residual mass ``r``.
    """
    if not 0 <= uniform < 1:
        raise DomainError(f"uniform draw must lie in [0, 1), got {uniform}")
    spec.require_normalized()
    start_mass = spec.atom_mass(_GRID_FROM_START)
    if uniform < start_mass:
        return SwitchPolicy.grid_from_start()
    cont = spec.continuous_mass()
    if uniform < start_mass + cont:
        residual = uniform - start_mass
        s = math.log(math.exp(spec.lo) + residual / spec.coeff)
        return SwitchPolicy.at(min(max(s, spec.lo), spec.hi))
    return SwitchPolicy.never_switch()


class Algorithm(str, Enum):
    """The online algorithm family."""

    BED = "bed"
    LAMBDA_BED = "lambda-bed"
    RED = "red"
    LAMBDA_RED = "lambda-red"
    NAIVE_LAMBDA_RED = "naive-lambda-red"

    @property
    def is_randomized(self) -> bool:
        return self in (Algorithm.RED, Algorithm.LAMBDA_RED, Algorithm.NAIVE_LAMBDA_RED)

    @property
    def uses_prediction(self) -> bool:
        return self in (Algorithm.LAMBDA_BED, Algorithm.LAMBDA_RED, Algorithm.NAIVE_LAMBDA_RED)


def policy_distribution(
    algorithm: Algorithm, beta: float, lam: float | None, sigma_hat: float | None
) -> DistributionSpec:
    """The threshold distribution a randomized algorithm draws from."""
    if algorithm is Algorithm.RED:
        return red_distribution(beta)
    if sigma_hat is None:
        raise DomainError(f"{algorithm.value} needs a predicted premium mass (sigma_hat)")
    if lam is None:
        raise DomainError(f"{algorithm.value} needs the trust parameter lambda")
    if algorithm is Algorithm.LAMBDA_RED:
        return lambda_red_distribution(sigma_hat, lam, beta)
    if algorithm is Algorithm.NAIVE_LAMBDA_RED:
        return naive_red_distribution(sigma_hat, lam, beta)
    raise DomainError(f"{algorithm.value} is deterministic; it has no threshold distribution")


def run_algorithm(
    trace: Trace,
    params: BillingParams,
    algorithm: Algorithm | str,
    lam: float | None = None,
    sigma_hat: float | None = None,
    seed: int | None = None,
) -> RunRecord:
    """Select the policy for an algorithm and execute it.

    Randomized algorithms require ``seed`` and draw one threshold per run;
    identical seeds yield identical records.
    """
    algorithm = Algorithm(algorithm)
    if algorithm is Algorithm.BED:
        policy = bed_policy()
    elif algorithm is Algorithm.LAMBDA_BED:
        if sigma_hat is None:
            raise DomainError("lambda-bed needs a predicted premium mass (sigma_hat)")
        if lam is None:
            raise DomainError("lambda-bed needs the trust parameter lambda")
        policy = lambda_bed_policy(sigma_hat, lam)
    else:
        if seed is None:
            raise DomainError(f"{algorithm.value} is randomized and requires a seed")
        spec = policy_distribution(algorithm, beta_of(trace, params), lam, sigma_hat)
        policy = sample(spec, float(np.random.default_rng(seed).random()))
    return run_threshold(trace, params, policy)
