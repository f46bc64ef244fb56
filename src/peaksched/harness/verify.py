"""Numerical verification of the competitive-ratio guarantees.

Each check sweeps a parameter grid, records its worst violation, and passes
when that violation stays within the stated tolerance.  The suite covers:
the closed forms of the expected ratio against adaptive quadrature, the
robustness and consistency envelopes of the randomized rule, its reductions
at the trust extremes, the consistency failure of the support-stretching
variant, the trade-off monotonicity of the deterministic rule, and the
exact ratio curve against measured ratios on constructed worst-case
instances.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

from ..analysis import (
    cost_ratio,
    deterministic_bounds,
    empirical_ratio,
    expected_ratio,
    expected_ratio_closed_form,
    naive_randomized_bounds,
    randomized_bounds,
    worst_case_instance,
    worst_case_ratio,
)
from ..errors import DomainError
from ..model import cost_of, sigma as sigma_of
from ..offline import optimal_basic
from ..online import SwitchPolicy, lambda_red_distribution, run_threshold

_E = math.e


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    max_violation: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: max violation {self.max_violation:.3e} (tolerance {self.tolerance:.0e})"
        if self.detail:
            line += f" [{self.detail}]"
        return line


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def format(self) -> str:
        lines = [check.format() for check in self.checks]
        lines.append("ALL CHECKS PASSED" if self.passed else "CHECK FAILURES PRESENT")
        return "\n".join(lines)


def default_lambda_grid() -> tuple[float, ...]:
    return tuple(round(0.05 * i, 2) for i in range(1, 20))


def default_beta_grid() -> tuple[float, ...]:
    return tuple(round(0.05 * i, 2) for i in range(1, 20))


def default_sigma_grid() -> tuple[float, ...]:
    low = [round(0.1 * i, 1) for i in range(1, 10)]
    high = [round(1.1 + 0.1 * i, 1) for i in range(90)]
    return tuple(low + high)


def _branches(lam: float, beta: float):
    yield True, lambda_red_distribution(2.0, lam, beta)
    yield False, lambda_red_distribution(0.5, lam, beta)


def check_expected_ratios(
    lambdas, betas, sigmas, closed_form_tol: float = 1e-6, envelope_tol: float = 1e-9
) -> tuple[CheckResult, CheckResult, CheckResult]:
    """One sweep over the grid, integrating each expected ratio once: the
    quadrature equals its four closed-form branches, never exceeds the
    robustness bound anywhere, and never exceeds the consistency bound on
    the branches where the prediction is right."""
    worst_gap = 0.0
    worst_rob = -math.inf
    worst_cons = -math.inf
    gap_at = rob_at = cons_at = ""
    for lam in lambdas:
        for beta in betas:
            robustness, consistency = randomized_bounds(lam, beta)
            for predicted_high, spec in _branches(lam, beta):
                for sg in sigmas:
                    value = expected_ratio(spec, sg, beta)
                    gap = abs(value - expected_ratio_closed_form(predicted_high, sg, lam, beta))
                    if gap > worst_gap:
                        worst_gap = gap
                        gap_at = f"lam={lam} beta={beta} sigma={sg} high={predicted_high}"
                    if value - robustness > worst_rob:
                        worst_rob = value - robustness
                        rob_at = f"lam={lam} beta={beta} sigma={sg} high={predicted_high}"
                    if predicted_high == (sg > 1) and value - consistency > worst_cons:
                        worst_cons = value - consistency
                        cons_at = f"lam={lam} beta={beta} sigma={sg}"
    return (
        CheckResult("expected-ratio-closed-forms", closed_form_tol, worst_gap, gap_at),
        CheckResult("randomized-robustness-envelope", envelope_tol, worst_rob, rob_at),
        CheckResult("randomized-consistency-envelope", envelope_tol, worst_cons, cons_at),
    )


def check_closed_forms(lambdas, betas, sigmas, tol: float = 1e-6) -> CheckResult:
    """Quadrature of the expected ratio equals its four closed-form branches."""
    return check_expected_ratios(lambdas, betas, sigmas, closed_form_tol=tol)[0]


def check_randomized_envelopes(lambdas, betas, sigmas, tol: float = 1e-9) -> tuple[CheckResult, CheckResult]:
    """Expected ratios never exceed the robustness bound anywhere, nor the
    consistency bound on the branches where the prediction is right."""
    return check_expected_ratios(lambdas, betas, sigmas, envelope_tol=tol)[1:]


def check_trust_extremes(betas, tol: float = 1e-9) -> CheckResult:
    """Full trust is optimal, zero trust recovers the pure randomized ratio."""
    worst = 0.0
    for beta in betas:
        pure = _E / (_E - 1 + beta)
        bounds_one = randomized_bounds(1.0, beta)
        worst = max(
            worst,
            abs(bounds_one.robustness - pure),
            abs(bounds_one.consistency - pure),
            abs(randomized_bounds(0.0, beta).consistency - 1.0),
        )
    return CheckResult("randomized-trust-extremes", tol, worst)


def check_naive_consistency_gap(lambdas, betas) -> CheckResult:
    """The support-stretching variant is never more consistent at small beta
    and trails by at least 1 at beta = 0.1."""
    worst = 0.0
    lam_points = [lam for lam in lambdas if 0.1 <= lam <= 0.9] or [0.5]
    for beta in [b for b in betas if b <= 0.2]:
        for lam in lam_points:
            gap = naive_randomized_bounds(lam, beta).consistency - randomized_bounds(lam, beta).consistency
            worst = max(worst, -gap)
    for lam in lam_points:
        gap = naive_randomized_bounds(lam, 0.1).consistency - randomized_bounds(lam, 0.1).consistency
        worst = max(worst, 1.0 - gap)
    return CheckResult("naive-consistency-gap", 1e-9, worst)


def check_deterministic_tradeoff(lambdas, betas, tol: float = 1e-12) -> CheckResult:
    """Robustness falls and consistency rises as trust decreases (lambda up)."""
    worst = 0.0
    ordered = sorted(lambdas)
    for beta in betas:
        for lo, hi in zip(ordered, ordered[1:]):
            b_lo = deterministic_bounds(lo, beta)
            b_hi = deterministic_bounds(hi, beta)
            worst = max(worst, b_hi.robustness - b_lo.robustness, b_lo.consistency - b_hi.consistency)
    return CheckResult("deterministic-tradeoff-monotonicity", tol, worst)


def check_ratio_curve_empirical(betas, slots: int = 4000) -> tuple[CheckResult, CheckResult]:
    """Measured ratios on constructed instances stay below the ratio curve,
    and meet it at the adversarial mass as the slot count grows.

    The tightness run nudges its threshold down by one part in 1e9 so the
    final-slot crossing is not at the mercy of summation rounding; the
    discreteness gap it allows for is exactly one slot's premium relative
    to the optimum.
    """
    s_grid = [round(0.1 * i, 1) for i in range(1, 21)]
    worst_above = 0.0
    worst_gap = 0.0
    above_at = ""
    for beta in betas:
        for sg in s_grid:
            trace, params = worst_case_instance(sg, beta, p_m=100.0, slots=slots)
            opt = optimal_basic(trace, params).total
            mass = sigma_of(trace, params)
            for s in s_grid:
                record = run_threshold(trace, params, SwitchPolicy.at(s))
                measured = empirical_ratio(cost_of(record.schedule, trace, params).total, opt)
                # the ratio curve drops discontinuously as s passes sigma;
                # on the diagonal, rounding decides the side, so take the
                # generous branch there
                bound = cost_ratio(s, mass, beta)
                if abs(s - mass) <= 1e-9:
                    bound = max(bound, cost_ratio(s, s, beta))
                if measured - bound > worst_above:
                    worst_above = measured - bound
                    above_at = f"s={s} sigma={sg} beta={beta}"
            nudged = run_threshold(trace, params, SwitchPolicy.at(sg * (1.0 - 1e-9)))
            measured = empirical_ratio(cost_of(nudged.schedule, trace, params).total, opt)
            bound = cost_ratio(sg, max(mass, sg), beta)
            if sg > 1:
                one_slot = (1.0 - beta) * sg / (slots * ((sg - 1.0) * beta + 1.0))
            else:
                one_slot = (1.0 - beta) / slots
            worst_gap = max(worst_gap, bound - measured - one_slot)
    return (
        CheckResult("ratio-curve-dominates-measured", 1e-6, worst_above, above_at),
        CheckResult("ratio-curve-tightness", 1e-9, worst_gap, f"slots={slots}"),
    )


def check_worst_case_is_envelope(betas, sigmas, tol: float = 1e-9) -> CheckResult:
    """The competitive-ratio formula equals the ratio curve's supremum."""
    worst = 0.0
    s_grid = [round(0.1 * i, 1) for i in range(1, 21)]
    for beta in betas:
        for s in s_grid:
            envelope = max(cost_ratio(s, sg, beta) for sg in (*sigmas, s))
            worst = max(worst, abs(worst_case_ratio(s, beta) - envelope))
    return CheckResult("worst-case-ratio-is-envelope", tol, worst)


def verify_theorems(
    lambdas: tuple[float, ...] | None = None,
    betas: tuple[float, ...] | None = None,
    sigmas: tuple[float, ...] | None = None,
    empirical_slots: int = 4000,
) -> VerificationReport:
    """Run the full verification suite over the given grids.

    Grids default to the acceptance-scale ones; each axis needs at least 5
    points for the sweeps to mean anything.
    """
    lambdas = tuple(lambdas) if lambdas is not None else default_lambda_grid()
    betas = tuple(betas) if betas is not None else default_beta_grid()
    sigmas = tuple(sigmas) if sigmas is not None else default_sigma_grid()
    for name, grid in (("lambda", lambdas), ("beta", betas), ("sigma", sigmas)):
        if len(grid) < 5:
            raise DomainError(f"{name} grid needs at least 5 points, got {len(grid)}")
    checks: list[CheckResult] = []
    checks.extend(check_expected_ratios(lambdas, betas, sigmas))
    checks.append(check_trust_extremes(betas))
    checks.append(check_naive_consistency_gap(lambdas, betas))
    checks.append(check_deterministic_tradeoff(lambdas, betas))
    checks.extend(check_ratio_curve_empirical(betas, slots=empirical_slots))
    checks.append(check_worst_case_is_envelope(betas, sigmas))
    return VerificationReport(checks=tuple(checks))
