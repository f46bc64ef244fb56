"""Competitive-ratio analysis: exact ratio curves, guarantee formulas,
expected ratios of randomized policies, and worst-case instance builders.

Everything is parameterized by the premium mass ``sigma`` of an instance
(total local-serving premium in units of the peak price) and the hardness
parameter ``beta`` (minimum grid price over generation cost).
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError, UndefinedRatioError, ValidationError
from .model import BillingParams, Trace, _frozen
from .online import DistributionSpec, SwitchPolicy, _check_thresholds, _demand_counts
from .quadrature import _gk15_nodes, _gk15_sum, bisect_panels
from .quadrature import integrate  # noqa: F401  looked up here by the benchmark's tracer
from .validators import SCALAR, as_reals, check_beta, check_cost, check_lambda, check_stretched_lambda, read_reals

if TYPE_CHECKING:
    from .bank import TraceBank

_E = math.e

#: Absolute error target of each expected-ratio quadrature.
_ABS_TOL = 1e-9


def _check_mass(sigma) -> np.ndarray:
    return as_reals(sigma, "premium mass", lambda x: (x >= 0) & (x < math.inf), "must be finite and >= 0, got")


def _check_hardness(beta) -> np.ndarray:
    # the rule and message of check_beta, on every element
    return as_reals(beta, "beta", lambda x: (x > 0) & (x <= 1), "must lie in (0, 1], got")


def _check_positive_thresholds(s) -> np.ndarray:
    return as_reals(s, "threshold multiplier", lambda x: x > 0, "must be > 0, got")


def _scalar_or_array(value: np.ndarray):
    return float(value) if value.ndim == 0 else value


def cost_ratio(policy: SwitchPolicy | float, sigma, beta: float):
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

    ``policy`` (as multipliers ``s``), ``sigma`` and ``beta`` may be
    arrays, which broadcast against each other; scalars give a ``float``.
    A multiplier that :class:`SwitchPolicy` rejects raises ``DomainError``.
    """
    s = _check_thresholds(policy.s if isinstance(policy, SwitchPolicy) else policy)
    beta = _check_hardness(beta)
    return _ratio(s, _check_mass(sigma), beta)


def _ratio(s, sigma, beta):
    """:func:`cost_ratio` of thresholds ``s`` for arguments already checked.

    One ``np.where`` per branch of the case analysis; each branch's float
    expression runs elementwise in a fixed order, so a point gives the same
    bits alone as inside any array."""
    s = np.asarray(s, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    # a subnormal sigma overflows a quotient on a branch np.where discards
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        below = np.where(s > sigma, 1.0, 1.0 + (1.0 - sigma + s) * (1.0 - beta) / sigma)
        denom = (sigma - 1.0) * beta + 1.0
        above = np.where(
            s == -1.0,
            1.0,
            np.where(s > sigma, 1.0 + (sigma - 1.0) * (1.0 - beta) / denom, 1.0 + s * (1.0 - beta) / denom),
        )
        ratio = np.where(sigma == 0, 1.0, np.where(sigma <= 1, below, above))
    return _scalar_or_array(ratio)


def worst_case_ratio(s: float, beta: float) -> float:
    """Competitive ratio of the threshold policy ``s``: the supremum of
    :func:`cost_ratio` over premium masses, attained at ``sigma = s``."""
    beta = check_beta(beta)
    s = float(_check_positive_thresholds(read_reals(s, "threshold multiplier", SCALAR)))
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
    lam = check_lambda(lam)
    beta = check_beta(beta)
    return Bounds(1.0 + (1.0 - beta) / lam, 1.0 + lam)


def randomized_bounds(lam: float, beta: float) -> Bounds:
    """Guarantees of the prediction-weighted randomized rule.

    ``lam = 1`` collapses both to ``e / (e - 1 + beta)``, the pure
    randomized competitive ratio; ``lam = 0`` drives consistency to 1.
    """
    lam = check_lambda(lam, allow_zero=True)
    beta = check_beta(beta)
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
    lam = check_lambda(lam)
    beta = check_beta(beta)
    check_stretched_lambda(lam)
    inv = 1.0 / lam
    stretched = math.exp(inv) / (math.exp(inv) - 1.0 + beta)
    shrunk = math.exp(lam) / (math.exp(lam) - 1.0 + beta)
    robustness = max(min(1.0 / beta, inv) * stretched, shrunk)
    return Bounds(robustness, 1.0 / beta)


def expected_ratio(spec: DistributionSpec, sigma: float, beta: float) -> float:
    """Expected worst-case cost ratio of a randomized threshold policy: the
    one-point case of :func:`expected_ratios`."""
    return float(expected_ratios([spec], [beta], [sigma])[0, 0])


def expected_ratios(specs, betas, sigmas) -> np.ndarray:
    """Expected worst-case cost ratios of randomized threshold policies, one
    row per spec (each with its own ``beta``) and one column per mass.

    Atom contributions are summed exactly; the exponential density segment
    is integrated to absolute error 1e-9, split at the branch point
    ``s = sigma`` where the ratio curve has a kink, as :func:`integrate`
    splits it.  Every point's segments first take one GK15 panel together,
    as arrays; the points whose panels miss their share of the tolerance
    go on through :func:`~peaksched.quadrature.bisect_panels`, all in
    lockstep.  Every value is bit for bit that point's own adaptive
    quadrature.  A spec whose density support starts below 0 raises
    ``DomainError``: no threshold policy draws there.
    """
    # one object per spec, so that a beta that is a sequence is named whole
    betas = np.fromiter(betas, dtype=object)
    if len(betas) != len(specs):
        raise DomainError(f"need one beta per spec, got {len(betas)} for {len(specs)}")
    beta_col = _check_hardness(betas).reshape(-1, 1)
    sigmas = _check_mass(sigmas).reshape(-1)
    for spec in specs:
        spec.require_normalized()
        if spec.lo < 0 and spec.coeff > 0 and spec.hi > spec.lo:
            raise DomainError(f"density support [{spec.lo}, {spec.hi}] holds threshold multipliers below 0")

    width = max((len(spec.atoms) for spec in specs), default=0)
    # absent atoms are padded as zero mass at inf, whose ratio is finite.
    # Atoms of one (location, beta) class share their ratio at every mass:
    # it is taken once per class, a row of one _ratio call, and gathered
    # into each atom column, which is summed in atom order as before.
    pad = ((math.inf, 0.0),)
    classes = {}
    of_class = np.zeros((len(specs), width), dtype=np.intp)
    mass = np.zeros((len(specs), width))
    for i, (spec, beta) in enumerate(zip(specs, beta_col.ravel().tolist())):
        for k, (loc, m) in enumerate(spec.atoms + pad * (width - len(spec.atoms))):
            of_class[i, k], mass[i, k] = classes.setdefault((loc, beta), len(classes)), m
    ends = np.array(list(classes)).reshape(-1, 2)
    ratios = _ratio(ends[:, :1], sigmas, ends[:, 1:])
    total = np.zeros((len(specs), len(sigmas)))
    for k in range(width):
        total += mass[:, k : k + 1] * ratios[of_class[:, k]]

    rows = [i for i, spec in enumerate(specs) if spec.coeff > 0 and spec.hi > spec.lo]
    if rows:
        total[rows] += _density_integrals([specs[i] for i in rows], beta_col[rows], sigmas)
    return total


def _panels(a, b, sigma, beta, coeff, at) -> tuple:
    """GK15 panels of ``coeff * e^s * ratio(s)`` on ``[a, b]``, ``e^s`` by
    ``math.exp`` (``np.exp`` may differ in the last bit), gathered by ``at``."""
    nodes, half = _gk15_nodes(a, b)
    exps = np.array([math.exp(node) for node in np.concatenate(nodes).tolist()]).reshape(len(nodes), -1)
    ratios = _ratio(np.array(nodes), sigma, beta)
    # a non-finite integrand (a subnormal sigma) leaves a NaN error to raise on
    with np.errstate(over="ignore", invalid="ignore"):
        return _gk15_sum(((coeff * e[at]) * r[at] for e, r in zip(exps, ratios)), half[at])


def _density_integrals(specs, beta_col: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """The integral of ``coeff * e^s * ratio(s)`` over each spec's support at
    each mass: one GK15 panel per segment at once, then the bisection."""
    coeff = np.array([spec.coeff for spec in specs]).reshape(-1, 1)
    lo = np.array([spec.lo for spec in specs]).reshape(-1, 1)
    hi = np.array([spec.hi for spec in specs]).reshape(-1, 1)
    shape = (len(specs), len(sigmas))
    coeff, lo, hi, beta, sigma = (np.broadcast_to(x, shape).ravel() for x in (coeff, lo, hi, beta_col, sigmas))
    # every point's first segment ends at sigma where sigma splits its
    # support; the split points' second segments follow them
    split = (lo < sigma) & (sigma < hi)
    owner = np.concatenate([np.arange(len(sigma)), np.flatnonzero(split)])
    # Specs of one (support, beta) class share every segment at a mass,
    # nodes and ratios included.  Each class's segments are one row apiece
    # (its first segment at every mass, then its second one where the mass
    # splits the support): e^s and the ratio are taken once per node of a
    # row, the ratio in one call for all 15 nodes, and the panel gathers
    # every point's segments from the rows.  The classes are found on the
    # specs, not by sorting the segments; ends that differ only in the sign
    # of a zero share a class, as their nodes are the same.  One of verify's
    # beta batches, 38 specs on [0, 1] by 99 masses, is one class: its
    # 4,104 segments take 108 rows.
    classes = {}
    keys = zip((spec.lo for spec in specs), (spec.hi for spec in specs), beta_col.ravel().tolist())
    of_class = [classes.setdefault(key, len(classes)) for key in keys]
    ends = np.array(list(classes))
    row_lo, row_hi, row_beta = ends[:, :1], ends[:, 1:2], ends[:, 2:]
    cut = (row_lo < sigmas) & (sigmas < row_hi)
    cells = np.concatenate([np.arange(cut.size), np.flatnonzero(cut)])
    a = np.concatenate([np.broadcast_to(row_lo, cut.shape).ravel(), np.broadcast_to(sigmas, cut.shape)[cut]])
    b = np.concatenate([np.where(cut, sigmas, row_hi).ravel(), np.broadcast_to(row_hi, cut.shape)[cut]])
    first = np.arange(cut.size).reshape(cut.shape)
    second = np.zeros_like(first)
    second[cut] = np.arange(cut.size, len(cells))
    at = np.concatenate([first[of_class].ravel(), second[of_class].ravel()[split]])
    klass, column = np.divmod(cells, len(sigmas))
    panels, err = _panels(a, b, sigmas[column], row_beta[klass, 0], coeff[owner], at)
    settled = err <= (_ABS_TOL * (b - a) / (row_hi - row_lo)[klass, 0])[at]
    unsettled = ~settled[: len(sigma)]
    unsettled[split] |= ~settled[len(sigma) :]
    # the unsettled points' first panels, each point's segments in order
    points = np.flatnonzero(unsettled)
    roots = np.flatnonzero(unsettled[owner])
    roots = roots[np.argsort(owner[roots], kind="stable")]
    roots = panels[roots], err[roots]
    value, rest = panels[: len(sigma)], panels[len(sigma) :]
    value[split] += rest
    # each point bisected on the ends of its own spec
    cuts = [[x, s, y] if c else [x, y] for x, s, y, c in zip(*(v[points].tolist() for v in (lo, sigma, hi, split)))]

    def evaluate(lo_ends, hi_ends, which):
        i = points[which]
        return _panels(lo_ends, hi_ends, sigma[i], beta[i], coeff[i], slice(None))

    value[points] = [v for v, _ in bisect_panels(evaluate, cuts, roots, _ABS_TOL)]
    return value.reshape(shape)


def expected_ratio_closed_form(predicted_high, sigma, lam: float, beta):
    """Closed form of :func:`expected_ratio` for the prediction-weighted
    randomized rule, by branch of the prediction and of the true mass.

    Requires ``sigma > 0``.  The two ``sigma <= 1`` branches are constant
    in ``sigma``; the two ``sigma > 1`` branches grow toward their
    ``sigma -> inf`` envelope, which is what the robustness and consistency
    formulas of :func:`randomized_bounds` cap.  ``predicted_high``,
    ``sigma`` and ``beta`` may be arrays, which broadcast; scalars give a
    ``float``.  The formula runs elementwise in a fixed order, so each
    point equals the scalar call at that point bit for bit.  A ``beta``
    outside (0, 1] raises ``DomainError`` naming the first such value.
    """
    lam = check_lambda(lam, allow_zero=True)
    beta = _check_hardness(beta)
    sigma = _check_mass(sigma)
    if not (sigma > 0).all():
        raise DomainError("closed forms assume a positive premium mass")
    high = np.asarray(predicted_high, dtype=bool)
    phi = 1.0 / (_E - 1.0 + beta)
    moved = (1.0 - lam) * (_E - 1.0) + beta
    denom = (sigma - 1.0) * beta + 1.0
    low_high = phi * (_E - (1.0 - lam) * (1.0 - beta) * (1.0 + moved))
    low_low = phi * (_E - 1.0 + beta + lam * (1.0 - beta))
    above_high = phi * (
        _E - 1.0 + beta + lam * (1.0 - beta)
        + lam * (1.0 - lam) * (1.0 - beta) * (sigma - 1.0) * (_E - 1.0) / denom
    )
    above_low = phi * (_E + (1.0 - beta) * (1.0 - lam) * ((sigma - 1.0) * (_E - 1.0) - 1.0) / denom)
    closed = np.where(
        sigma <= 1, np.where(high, low_high, low_low), np.where(high, above_high, above_low)
    )
    return _scalar_or_array(closed)


def _check_slot_count(slots) -> None:
    if slots < 1:
        raise DomainError(f"need at least one slot, got {slots}")


def _worst_case_rows(s, beta, p_m: float, slots: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The (n,) constant prices and ``p_g`` of :func:`worst_case_bank`'s
    rows and the ``p_m`` read as a float, after its argument checks."""
    s = as_reals(s, "threshold multiplier")
    s, beta = (np.ravel(x) for x in np.broadcast_arrays(s, _check_hardness(beta)))
    _check_positive_thresholds(s)
    p_m = read_reals(p_m, "peak price p_m", SCALAR, ValidationError)
    if p_m <= 0:
        raise DomainError(f"peak price must be > 0, got {p_m}")
    _check_slot_count(slots)
    # with beta = 1 there is no premium to tune; a p_g past the largest
    # float is inf, which the trace's price rule refuses by name
    with np.errstate(over="ignore"):
        p_g = np.divide(s * p_m, (1.0 - beta) * slots, out=np.ones(len(s)), where=beta != 1.0)
    return beta * p_g, p_g, p_m


def _unit_demands(rows: int, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """A frozen all-ones (rows, slots) demand block and its frozen count
    prefix, which worst-case banks of up to ``rows`` rows share read-only."""
    ones = _frozen(np.ones((rows, slots)))
    return ones, _frozen(_demand_counts(ones))


def worst_case_bank(s, beta, p_m: float = 100.0, slots: int = 1000) -> TraceBank:
    """The adversarial instances of the threshold policies ``s`` at hardness
    ``beta`` (which broadcast against each other), as the rows of one
    :class:`~peaksched.bank.TraceBank` in row-major order.

    Constant prices at ``beta * p_g`` and unit demand on every slot, with
    the generation cost tuned so the premium mass equals ``s`` exactly:
    demand dries up right as the policy finishes paying its premium.  The
    policy's empirical ratio approaches :func:`worst_case_ratio` from below
    at rate ``(1 - beta) / slots``.  With ``beta = 1`` there is no premium
    to tune, the mass is 0, and every policy is optimal.
    """
    return _worst_case_bank(s, beta, p_m, slots)


def _worst_case_bank(s, beta, p_m, slots, unit=None) -> TraceBank:
    """:func:`worst_case_bank` on ``unit``, a :func:`_unit_demands` block of
    ``slots`` slots and at least as many rows (built when None).  The bank
    tests its rules on the (n,) vectors its rows are constant in."""
    from .bank import TraceBank  # the bank module loads on first use

    price, p_g, p_m = _worst_case_rows(s, beta, p_m, slots)
    ones, counts = unit if unit is not None else _unit_demands(len(price), slots)
    return TraceBank._of_constant_rows(price, p_g, p_m, ones[: len(price)], counts[: len(price)])


def worst_case_instance(
    s: float, beta: float, p_m: float = 100.0, slots: int = 1000
) -> tuple[Trace, BillingParams]:
    """Build the adversarial instance for the threshold policy ``s``: the
    one-row case of :func:`worst_case_bank`, with capacity 1."""
    price, p_g, p_m = _worst_case_rows(s, beta, p_m, slots)
    trace = Trace(prices=np.full(slots, price[0]), demands=np.ones(slots))
    return trace, BillingParams(p_g=float(p_g[0]), p_m=p_m, capacity=1)


def empirical_ratio(alg_total: float, opt_total: float) -> float:
    """Cost of an online run over the exact offline optimum; ``alg_total``
    may be an array of run costs, over one optimum or over an array of
    optima that broadcasts against it, such as an (n, 1) column under an
    (n, k) table.  A cost that :func:`~peaksched.validators.check_cost`
    rejects raises ``DomainError``."""
    alg_total = check_cost(alg_total, "online cost", arrays=True)
    opt_total = check_cost(opt_total, "offline optimum", arrays=True)
    if isinstance(opt_total, np.ndarray):
        low = opt_total <= 0
        if low.any():
            raise UndefinedRatioError(f"offline optimum must be > 0, got {opt_total[low][0]}")
    elif opt_total <= 0:
        raise UndefinedRatioError(f"offline optimum must be > 0, got {opt_total}")
    return alg_total / opt_total
