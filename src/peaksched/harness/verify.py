"""Numerical verification of the competitive-ratio guarantees.

Each check sweeps a parameter grid, records its worst violation, and passes
when that violation stays within the stated tolerance.  The suite covers:
the closed forms of the expected ratio against adaptive quadrature, the
robustness and consistency envelopes of the randomized rule, its reductions
at the trust extremes, the consistency failure of the support-stretching
variant, the trade-off monotonicity of the deterministic rule, and the
exact ratio curve against measured ratios on constructed worst-case
instances.

The sweeps run on arrays: the expected ratios one beta column of the grid
at a time through :func:`~peaksched.analysis.expected_ratios`, whose
specs then share their cost ratios at every quadrature node, and the
worst-case instances a block of rows at a time on the switch engine's
block functions, which find every row's switch slots for every threshold
and price them with its oracle slot, once per distinct slot of each row.
Each worst value is the first maximum in the grid's loop order, so
reports name the same point a scalar sweep would.  A NaN that reaches a
check is its worst value, and the check fails.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ..analysis import (
    cost_ratio,
    deterministic_bounds,
    empirical_ratio,
    expected_ratio,  # noqa: F401  looked up here by the benchmark's tracer
    expected_ratio_closed_form,
    expected_ratios,
    naive_randomized_bounds,
    randomized_bounds,
    worst_case_instance,  # noqa: F401  looked up here by the benchmark's tracer
    worst_case_ratio,
)
from ..analysis import _check_slot_count, _unit_demands, _worst_case_rows
from ..errors import DomainError
from ..model import _premium_mass
from ..model import cost_of  # noqa: F401  looked up here by the benchmark's tracer
from ..offline import optimal_basic  # noqa: F401  looked up here by the benchmark's tracer
from ..online import _block_costs, _block_slots
from ..online import (
    lambda_red_distribution,
    run_threshold,  # noqa: F401  looked up here by the benchmark's tracer
)

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


def _top(*values: float) -> float:
    """The largest of ``values``, or NaN if any is NaN."""
    return float(np.max(values))


class _Worst:
    """Running worst value of a sweep: the first maximum in loop order, or
    the first NaN, which no later value displaces."""

    def __init__(self, start: float):
        self.value = start
        self.at = ""

    def offer(self, values: np.ndarray, name_point) -> None:
        """Take the largest of ``values`` (row-major in loop order) if it
        beats the worst so far; ``name_point(i)`` names the flat index ``i``."""
        flat = np.ravel(values)
        if math.isnan(self.value) or not flat.size:
            return
        i = int(np.argmax(flat))  # the first NaN if there is one, else the first maximum
        if math.isnan(flat[i]) or flat[i] > self.value:
            self.value = float(flat[i])
            self.at = name_point(i)


def check_expected_ratios(
    lambdas, betas, sigmas, closed_form_tol: float = 1e-6, envelope_tol: float = 1e-9
) -> tuple[CheckResult, CheckResult, CheckResult]:
    """One sweep over the grid, integrating each expected ratio once: the
    quadrature equals its four closed-form branches, never exceeds the
    robustness bound anywhere, and never exceeds the consistency bound on
    the branches where the prediction is right.

    Each beta is one :func:`~peaksched.analysis.expected_ratios` batch of
    (lambda, prediction branch) rows by sigma columns: every spec in it has
    the support [0, 1] and that beta, so the batch's segments share their
    cost ratios at every quadrature node.  Each lambda then takes one
    :func:`~peaksched.analysis.expected_ratio_closed_form` call, over a
    column of betas, and its (beta, branch, sigma) block of the values is
    checked in the loop order of the points within it."""
    lambdas, betas, sigmas = tuple(lambdas), tuple(betas), tuple(sigmas)
    highs = (True, False)
    mass = np.array(sigmas, dtype=float)
    high = np.array(highs)[:, None]
    right_branch = high == (mass > 1)
    shape = (len(betas), len(highs), len(sigmas))
    values = np.empty((len(lambdas), *shape))
    for b, beta in enumerate(betas):
        specs = [spec for lam in lambdas for _, spec in _branches(lam, beta)]
        batch = expected_ratios(specs, [beta] * len(specs), mass)
        values[:, b] = batch.reshape(len(lambdas), len(highs), len(sigmas))
    beta_col = np.array(betas)[:, None, None]
    gap, rob, cons = _Worst(0.0), _Worst(-math.inf), _Worst(-math.inf)
    for lam, value in zip(lambdas, values):
        closed = expected_ratio_closed_form(high, mass, lam, beta_col)
        bounds = np.array([randomized_bounds(lam, beta) for beta in betas])[:, :, None, None]

        def point(i):
            b, h, j = np.unravel_index(i, shape)
            return f"lam={lam} beta={betas[b]} sigma={sigmas[j]} high={highs[h]}"

        def right_point(i):
            b, _, j = np.unravel_index(i, shape)
            return f"lam={lam} beta={betas[b]} sigma={sigmas[j]}"

        gap.offer(np.abs(value - closed), point)
        rob.offer(value - bounds[:, 0], point)
        cons.offer(np.where(right_branch, value - bounds[:, 1], -math.inf), right_point)
    return (
        CheckResult("expected-ratio-closed-forms", closed_form_tol, gap.value, gap.at),
        CheckResult("randomized-robustness-envelope", envelope_tol, rob.value, rob.at),
        CheckResult("randomized-consistency-envelope", envelope_tol, cons.value, cons.at),
    )


def check_closed_forms(lambdas, betas, sigmas, tol: float = 1e-6) -> CheckResult:
    """Quadrature of the expected ratio equals its four closed-form branches."""
    return check_expected_ratios(lambdas, betas, sigmas, closed_form_tol=tol)[0]


def check_randomized_envelopes(lambdas, betas, sigmas, tol: float = 1e-9) -> tuple[CheckResult, CheckResult]:
    """Expected ratios never exceed the robustness bound anywhere, nor the
    consistency bound on the branches where the prediction is right."""
    return check_expected_ratios(lambdas, betas, sigmas, envelope_tol=tol)[1:]


def check_trust_extremes(betas) -> CheckResult:
    """Full trust is optimal, zero trust recovers the pure randomized ratio."""
    worst = 0.0
    for beta in betas:
        pure = _E / (_E - 1 + beta)
        bounds_one = randomized_bounds(1.0, beta)
        worst = _top(
            worst,
            abs(bounds_one.robustness - pure),
            abs(bounds_one.consistency - pure),
            abs(randomized_bounds(0.0, beta).consistency - 1.0),
        )
    return CheckResult("randomized-trust-extremes", 1e-9, worst)


def check_naive_consistency_gap(lambdas, betas) -> CheckResult:
    """The support-stretching variant is never more consistent at small beta
    and trails by at least 1 at beta = 0.1."""
    worst = 0.0
    lam_points = [lam for lam in lambdas if 0.1 <= lam <= 0.9] or [0.5]
    for beta in [b for b in betas if b <= 0.2]:
        for lam in lam_points:
            gap = naive_randomized_bounds(lam, beta).consistency - randomized_bounds(lam, beta).consistency
            worst = _top(worst, -gap)
    for lam in lam_points:
        gap = naive_randomized_bounds(lam, 0.1).consistency - randomized_bounds(lam, 0.1).consistency
        worst = _top(worst, 1.0 - gap)
    return CheckResult("naive-consistency-gap", 1e-9, worst)


def check_deterministic_tradeoff(lambdas, betas) -> CheckResult:
    """Robustness falls and consistency rises as trust decreases (lambda up)."""
    worst = 0.0
    ordered = sorted(lambdas)
    for beta in betas:
        for lo, hi in zip(ordered, ordered[1:]):
            b_lo = deterministic_bounds(lo, beta)
            b_hi = deterministic_bounds(hi, beta)
            worst = _top(worst, b_hi.robustness - b_lo.robustness, b_lo.consistency - b_hi.consistency)
    return CheckResult("deterministic-tradeoff-monotonicity", 1e-12, worst)


def _threshold_grid() -> list[float]:
    return [round(0.1 * i, 1) for i in range(1, 21)]


#: Slots of worst-case instances built, run and priced together: at 4,000
#: slots a block is 4 rows, and the check's memory peak stays below the
#: expected-ratio sweep's whatever the slot count.  Blocks of 8 rows ran
#: slower: their arrays were large enough for the allocator to hand the
#: memory back after each block and fault it in again.
_BLOCK_SLOTS = 16_000


def check_ratio_curve_empirical(betas, slots: int = 4000) -> tuple[CheckResult, CheckResult]:
    """Measured ratios on constructed instances stay below the ratio curve,
    and meet it at the adversarial mass as the slot count grows.

    The tightness run nudges its threshold down by one part in 1e9 so the
    final-slot crossing is not at the mercy of summation rounding; the
    discreteness gap it allows for is exactly one slot's premium relative
    to the optimum.

    The instances are built in blocks of rows, whose premium prefixes give
    every row's switch slots for the whole threshold grid and the nudged
    threshold at once; those slots and each row's oracle slot are priced
    in one call.  The bounds are then one ratio-curve evaluation over all
    instances.
    """
    slots = _check_slot_count(slots)
    s_grid = _threshold_grid()
    cases = [(beta, sg) for beta in betas for sg in s_grid]
    case_beta = np.array([beta for beta, _ in cases])
    case_s = np.array([sg for _, sg in cases])
    measured = np.empty((len(cases), len(s_grid) + 1))
    masses = np.empty(len(cases))
    rows = max(1, _BLOCK_SLOTS // slots)
    # every block shares one all-ones demand block and its counts
    unit = _unit_demands(min(rows, len(cases)), slots)
    for start in range(0, len(cases), rows):
        block = slice(start, start + rows)
        masses[block], measured[block] = _measured_ratios(case_s[block], case_beta[block], s_grid, slots, unit)
    s = np.array(s_grid)
    beta, sg, mass = case_beta[:, None], case_s[:, None], masses[:, None]
    # the ratio curve drops discontinuously as s passes sigma; on the
    # diagonal, rounding decides the side, so take the generous branch there
    bound = cost_ratio(s, mass, beta)
    bound = np.where(np.abs(s - mass) <= 1e-9, np.maximum(bound, cost_ratio(s, s, beta)), bound)
    above = _Worst(0.0)

    def point(i):
        k, j = divmod(i, len(s_grid))
        return f"s={s_grid[j]} sigma={cases[k][1]} beta={cases[k][0]}"

    above.offer(measured[:, :-1] - bound, point)
    tight = cost_ratio(sg, np.maximum(mass, sg), beta)
    one_slot = np.where(
        sg > 1, (1.0 - beta) * sg / (slots * ((sg - 1.0) * beta + 1.0)), (1.0 - beta) / slots
    )
    worst_gap = _top(0.0, *(tight - measured[:, -1:] - one_slot).ravel())
    return (
        CheckResult("ratio-curve-dominates-measured", 1e-6, above.value, above.at),
        CheckResult("ratio-curve-tightness", 1e-9, worst_gap, f"slots={slots}"),
    )


def _measured_ratios(s, beta, s_grid, slots: int, unit) -> tuple[np.ndarray, np.ndarray]:
    """Premium masses of the worst-case instances of ``s`` at ``beta``, and
    each one's measured ratios at every threshold of ``s_grid`` and at its
    own ``s`` nudged down; the block's arrays but ``unit``'s are freed on
    return.

    Row ``r`` is :func:`~peaksched.analysis.worst_case_instance` of
    ``s[r]`` and ``beta[r]``, run and priced on the rows of ``unit`` as
    :func:`~peaksched.online.switch_slots` and
    :func:`~peaksched.online.switch_costs` run and price its trace.  Its
    mass is :func:`~peaksched.model.sigma`'s, and its oracle is
    :func:`~peaksched.offline.optimal_basic`'s schedule as a switch slot:
    0 (all grid) where the mass exceeds 1, ``slots`` (all local) otherwise.
    """
    price, p_g, p_m, slots = _worst_case_rows(s, beta, 100.0, slots)
    ones, counts = (x[: len(price)] for x in unit)
    prices = np.empty(ones.shape)
    prices[:] = price[:, None]
    mass = np.array([_premium_mass(g - p, d, p_m) for p, d, g in zip(prices, ones, p_g.tolist())])
    thresholds = np.empty((len(price), len(s_grid) + 1))
    thresholds[:, :-1] = s_grid
    thresholds[:, -1] = s * (1.0 - 1e-9)
    p_g = p_g[:, None]
    at = np.hstack([_block_slots(prices, ones, p_g, p_m, thresholds), np.where(mass > 1, 0, slots)[:, None]])
    costs = _block_costs(prices, ones, counts, p_g, p_m, at)
    return mass, empirical_ratio(costs[:, :-1], costs[:, -1:])


def check_worst_case_is_envelope(betas, sigmas) -> CheckResult:
    """The competitive-ratio formula equals the ratio curve's supremum."""
    worst = 0.0
    s_grid = _threshold_grid()
    s = np.array(s_grid)[:, None]
    # each threshold's row of masses: the grid, then the threshold itself
    masses = np.hstack([np.tile(np.array(sigmas, dtype=float), (len(s), 1)), s])
    for beta in betas:
        envelope = cost_ratio(s, masses, beta).max(axis=1)
        formula = np.array([worst_case_ratio(x, beta) for x in s_grid])
        worst = _top(worst, *np.abs(formula - envelope))
    return CheckResult("worst-case-ratio-is-envelope", 1e-9, worst)


def verify_theorems(
    lambdas: tuple[float, ...] | None = None,
    betas: tuple[float, ...] | None = None,
    sigmas: tuple[float, ...] | None = None,
    empirical_slots: int = 4000,
) -> VerificationReport:
    """Run the full verification suite over the given grids.

    Grids default to the acceptance-scale ones; each axis needs at least 5
    points for the sweeps to mean anything.  ``empirical_slots``, the
    instances' slot count, is checked before any check runs.
    """
    lambdas = tuple(lambdas) if lambdas is not None else default_lambda_grid()
    betas = tuple(betas) if betas is not None else default_beta_grid()
    sigmas = tuple(sigmas) if sigmas is not None else default_sigma_grid()
    for name, grid in (("lambda", lambdas), ("beta", betas), ("sigma", sigmas)):
        if len(grid) < 5:
            raise DomainError(f"{name} grid needs at least 5 points, got {len(grid)}")
    empirical_slots = _check_slot_count(empirical_slots)
    checks: list[CheckResult] = []
    checks.extend(check_expected_ratios(lambdas, betas, sigmas))
    checks.append(check_trust_extremes(betas))
    checks.append(check_naive_consistency_gap(lambdas, betas))
    checks.append(check_deterministic_tradeoff(lambdas, betas))
    checks.extend(check_ratio_curve_empirical(betas, slots=empirical_slots))
    checks.append(check_worst_case_is_envelope(betas, sigmas))
    return VerificationReport(checks=tuple(checks))
