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
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, lru_cache

import numpy as np

from .errors import DomainError, ValidationError
from .model import (
    BillingParams,
    Schedule,
    Trace,
    _cumulative_premium,
    _frozen,
    _stored,
    beta as beta_of,
    check_pairing,
    validate_schedule,
)
from .validators import (
    SCALAR,
    as_reals,
    check_beta,
    check_lambda,
    check_seed,
    check_sigma_hat,
    check_stretched_lambda,
    is_real,
    read_reals,
)

#: Tolerance on the total mass of a switch-threshold distribution.
MASS_TOL = 1e-12

_GRID_FROM_START = -1.0


@dataclass(frozen=True)
class SwitchPolicy:
    """Threshold multiplier governing the generator-to-grid switch.

    ``s``, stored as a float, is either ``-1.0`` (grid from the first
    slot), a finite value ``>= 0``, or ``inf`` (never switch).
    """

    s: float

    def __post_init__(self):
        s = read_reals(self.s, "threshold multiplier", SCALAR)
        # the rule of _check_thresholds on one value; NaN fails it
        if not (s == _GRID_FROM_START or s >= 0):
            raise DomainError(f"threshold multiplier must be -1, >= 0, or inf; got {s}")
        object.__setattr__(self, "s", s)

    @classmethod
    def at(cls, s: float) -> "SwitchPolicy":
        return cls(s)

    # each atom is built once, checked as any policy is; a policy is immutable
    @classmethod
    @cache
    def grid_from_start(cls) -> "SwitchPolicy":
        return cls(_GRID_FROM_START)

    @classmethod
    @cache
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


def _check_thresholds(s) -> np.ndarray:
    """``s`` as a float array whose every element passes :class:`SwitchPolicy`'s rule."""
    rule = "must be -1, >= 0, or inf; got"
    return as_reals(s, "threshold multiplier", lambda x: (x == _GRID_FROM_START) | (x >= 0), rule)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one threshold run on ``trace``.

    ``switch_slot`` is the 0-based index of the first grid-served slot, or
    None when the policy never switched.  ``cumulative_premium`` is the
    final ``S(T)``, accumulated over every slot regardless of which source
    served it, so ``S(T) = sigma * p_m`` is an identity.  The ``schedule``
    is ``switch_schedule(trace, switch_slot)``, built on its first read
    and kept: a caller that needs only the switch slot builds none.  It
    skips ``Schedule``'s range checks and records ``trace``, so
    ``cost_of(record.schedule, record.trace, params)`` without a ramp
    skips ``validate_schedule`` too (see :func:`switch_schedule`).
    """

    trace: Trace = field(repr=False)
    switch_slot: int | None
    policy: SwitchPolicy
    cumulative_premium: float
    _schedule: Schedule | None = field(default=None, init=False, repr=False)

    @property
    def schedule(self) -> Schedule:
        # not functools.cached_property, which takes a lock on every first
        # read before Python 3.12; Monte Carlo runs read one per record
        if self._schedule is None:
            object.__setattr__(self, "_schedule", switch_schedule(self.trace, self.switch_slot))
        return self._schedule


def run_threshold(trace: Trace, params: BillingParams, policy: SwitchPolicy) -> RunRecord:
    """Execute a switch policy on a 0/1-demand trace: the slot that
    :func:`switch_slots` gives its threshold, found on the premium prefix
    stored on the trace, so that repeated runs share one cumsum.

    The slot that first satisfies ``S(t) >= s * p_m`` is itself served from
    the grid, so the premium actually paid stays strictly below
    ``s * p_m``.
    """
    slot, premium = _crossings(trace, params, policy.s * params.p_m)
    switch = None if slot == len(trace) else int(slot)
    return _stored(RunRecord, trace=trace, switch_slot=switch, policy=policy, cumulative_premium=premium)


def switch_slots(trace: Trace, params: BillingParams, thresholds) -> np.ndarray:
    """First grid-served slot of each threshold multiplier in ``thresholds``,
    from one binary search on the premium prefix stored on the trace;
    ``len(trace)`` where the policy never switches.  Slot for slot what
    :func:`run_threshold` gives each threshold alone; a threshold that
    :class:`SwitchPolicy` would reject raises ``DomainError`` naming it."""
    s = _check_thresholds(thresholds)
    with np.errstate(over="ignore"):  # a target past the largest float is inf: never switch
        targets = s * params.p_m
    return _crossings(trace, params, targets)[0]


def switch_costs(trace: Trace, params: BillingParams, slots) -> np.ndarray:
    """Total cost of the switch schedule at each slot in ``slots``
    (``len(trace)`` never switches): bit for bit what
    ``cost_of(switch_schedule(trace, slot), trace, params).total`` gives
    each slot, with each distinct slot costed once and no schedule built
    (:func:`_block_costs` on the trace as one row).  A slot that is not an
    integer in ``[0, len(trace)]`` raises ``DomainError`` naming it; a ramp
    limit raises what ``cost_of`` raises on the latest switch's schedule.
    """
    _check_runnable(trace, params)
    slots = np.asarray(slots, dtype=None if isinstance(slots, np.ndarray) else object)
    checked = _check_slots(slots, len(trace)).reshape(1, -1)
    if params.ramp is not None and checked.size:
        # a 0/1 output steps by 1 where it first turns on, and the latest
        # switch's schedule turns on wherever an earlier one does: it raises
        # cost_of's ramp error if any slot's schedule would
        validate_schedule(switch_schedule(trace, int(checked.max())), trace, params)
    prices, demands = trace.prices[None], trace.demands[None]
    costs = _block_costs(prices, demands, _demand_counts(demands), params.p_g, params.p_m, checked)
    return costs.reshape(slots.shape)


def _check_runnable(trace: Trace, params: BillingParams) -> None:
    """Reject a trace that a threshold run does not take: demand that is
    not 0/1, or a pairing that :func:`check_pairing` rejects."""
    if not trace.has_binary_demands():
        raise DomainError("threshold runs require 0/1 demands; decompose general demand into layers")
    check_pairing(trace, params)


def _crossings(trace: Trace, params: BillingParams, targets):
    """Switch slot of each premium target ``s * p_m`` in ``targets`` and the
    final cumulative premium ``S(T)``, for one run.

    Premiums are non-negative, so the cumulative sum is sorted and the
    first crossing is a binary search away.  The atoms need no cases of
    their own: ``s = -1`` asks for ``-p_m``, which slot 0 already meets,
    and ``s = inf`` for ``inf``, which no slot meets.
    """
    _check_runnable(trace, params)
    cumulative = _premium_prefix(trace, params.p_g)
    return cumulative.searchsorted(targets, side="left"), float(cumulative[-1])


def _check_slots(slots: np.ndarray, horizon: int) -> np.ndarray:
    """``slots`` as an intp array, or ``DomainError`` naming the first that
    is not an integer in ``[0, horizon]``.  An object array is read element
    by element: ``np.asarray`` would read a list's ``True`` as slot 1."""
    if slots.dtype == object:
        for value in slots.ravel().tolist():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"switch slots must be integers, got {value!r}")
    elif slots.size and slots.dtype.kind not in "iu":
        raise DomainError(f"switch slots must be integers, got {slots.dtype}")
    outside = (slots < 0) | (slots > horizon)
    if outside.any():
        raise DomainError(f"switch slot {slots[outside][0]} lies outside [0, {horizon}]")
    return slots.astype(np.intp)


def _block_slots(prices: np.ndarray, demands: np.ndarray, p_g, p_m, s: np.ndarray) -> np.ndarray:
    """(n, k) switch slots of checked thresholds ``s`` on (n, T) 0/1 rows,
    ``p_g`` and ``p_m`` being scalars or (n, 1) columns: one
    ``cumsum(axis=1)`` of the premiums and one ``searchsorted`` per row."""
    with np.errstate(over="ignore"):  # a target past the largest float is inf: never switch
        targets = s * p_m
    slots = np.empty(s.shape, dtype=np.intp)
    for r, prefix in enumerate(_cumulative_premium(p_g, prices, demands)):
        slots[r] = prefix.searchsorted(targets[r], side="left")
    return slots


def _demand_counts(demands: np.ndarray) -> np.ndarray:
    """(n, T + 1) counts of the demand slots before each slot of (n, T) 0/1 rows."""
    counts = np.zeros((len(demands), demands.shape[1] + 1))
    np.cumsum(demands, axis=1, out=counts[:, 1:])
    return counts


def _block_costs(prices: np.ndarray, demands: np.ndarray, count: np.ndarray, p_g, p_m, slots) -> np.ndarray:
    """(n, k) total costs of the switch schedules at checked ``slots`` on
    C-order (n, T) 0/1 rows whose :func:`_demand_counts` are ``count``,
    ``p_g`` and ``p_m`` being scalars or (n, 1) columns.

    On 0/1 demand a switch at slot ``k`` pays ``p_g`` times the number
    of demand slots before ``k``, a cumsum that is exact in floats, and
    ``p_m`` while that count is below the row's total.  The volume is the
    full-length dot product of the row's prices with its grid purchase,
    one per distinct slot, on one buffer whose head is zeroed as the
    slots ascend: a sliced, summed or stacked product would group the
    partial sums differently and change the last bits.
    """
    rows, horizon = prices.shape
    local = count[np.arange(rows)[:, None], slots]
    peak = local < count[:, -1:]
    volume = np.empty(slots.shape)
    grid = np.empty(horizon)
    for r, row in enumerate(slots.tolist()):
        row_prices = prices[r]
        grid[:] = demands[r]
        done, costs = 0, {}
        for slot in sorted(set(row)):
            grid[done:slot] = 0.0
            done = slot
            costs[slot] = row_prices @ grid
        volume[r] = [costs[slot] for slot in row]
    return volume + p_m * peak + p_g * local


def _premium_prefix(trace: Trace, p_g: float) -> np.ndarray:
    """:func:`~peaksched.model._cumulative_premium` of a trace, kept on the trace.

    The first run at a ``p_g`` stores one ``(p_g, frozen prefix)`` tuple,
    which later runs at that ``p_g`` read and a new ``p_g`` replaces whole,
    so a thread never sees one ``p_g`` with another's prefix.  Repeated
    runs on one trace and an experiment's cells, which run the same layers
    in turn, share one cumsum per layer.
    """
    entry = trace.__dict__.get("_premium_prefix")
    if entry is not None and entry[0] == p_g:
        return entry[1]
    cumulative = _frozen(_cumulative_premium(p_g, trace.prices, trace.demands))
    trace.__dict__["_premium_prefix"] = (p_g, cumulative)
    return cumulative


def switch_schedule(trace: Trace, switch: int | None) -> Schedule:
    """Serve a 0/1-demand trace locally before slot ``switch`` and from the
    grid from it on; None (or ``len(trace)``) serves every slot locally.
    A slot that is not an integer in ``[0, len(trace)]`` raises
    ``DomainError`` naming it.

    Each entry of ``u`` and ``v`` is 0 or a demand of the trace, checked
    when the trace was built, so the schedule skips ``Schedule``'s range
    checks, and ``u + v`` is the demand exactly; the schedule records the
    trace, and :func:`~peaksched.cost_of` skips ``validate_schedule`` on
    it where that proves it feasible.

    A schedule on one source shares the trace's frozen demand array:
    ``u`` is ``trace.demands`` at ``len(trace)`` (or None), and ``v`` is at
    0.  The other side is a read-only array of zeros, and the shared
    side's maximum is ``trace.max_demand``.  These are the bits that
    copying and zeroing would give.  Any other slot gets two new arrays."""
    horizon = len(trace.demands)
    if switch is not None and not (type(switch) is int and 0 <= switch <= horizon):
        # off the fast path: a numpy integer, or a slot to reject
        if isinstance(switch, bool) or not isinstance(switch, (int, np.integer)):
            raise DomainError(f"switch slot {switch!r} must be an integer or None")
        if not 0 <= switch <= horizon:
            raise DomainError(f"switch slot {switch} lies outside [0, {horizon}]")
    d = trace.demands
    k = horizon if switch is None else switch
    if k == horizon or k == 0:
        # one side is the demand bit for bit (``d - 0.0`` keeps every bit of
        # ``d``), the other all +0.0 (``d - d`` is +0.0 even where d is -0.0)
        zeros = _frozen(np.zeros(horizon))
        if k:
            return Schedule._of_trace(trace, d, zeros, trace.max_demand, 0.0)
        return Schedule._of_trace(trace, zeros, d, 0.0, trace.max_demand)
    u = d.copy()
    u[k:] = 0.0
    v = d - u
    return Schedule._of_trace(trace, _frozen(u), _frozen(v), _side_max(d[:k], u), _side_max(d[k:], v))


def _side_max(demands: np.ndarray, side: np.ndarray) -> float:
    """Largest entry of ``side``, which holds the non-empty ``demands`` and
    0.0 elsewhere."""
    top = float(np.maximum.reduce(demands))
    # a positive maximum is one entry's exact value; a zero one may be -0.0
    # or 0.0 by the reduction order, so the side's own reduction decides it
    return top if top else float(np.maximum.reduce(side))


def bed_policy() -> SwitchPolicy:
    """Break-even rule: switch once the paid premium would reach one peak charge."""
    return SwitchPolicy.at(1.0)


def lambda_bed_policy(sigma_hat: float, lam: float) -> SwitchPolicy:
    """Prediction-assisted deterministic rule.

    Trusting the prediction (small ``lam``) switches quickly when the
    predicted premium mass exceeds 1 and very late otherwise; ``lam = 1``
    collapses both branches to the plain break-even rule.
    """
    lam = check_lambda(lam)
    check_sigma_hat(sigma_hat)
    return SwitchPolicy.at(lam if sigma_hat > 1 else 1.0 / lam)


@dataclass(frozen=True)
class DistributionSpec:
    """Mixed distribution over switch thresholds.

    Point masses sit at the policy atoms (``-1`` and/or ``inf``), the only
    places :func:`sample` draws an atom; the continuous part has density
    ``coeff * e^s`` on ``[lo, hi]``.  Total mass must be 1 within
    :data:`MASS_TOL`.  A NaN in any field fails its check.
    """

    atoms: tuple[tuple[float, float], ...]
    coeff: float
    lo: float
    hi: float

    def __post_init__(self):
        # every number is read as a real that fits a float and stored as that
        # float; every comparison is written so that NaN fails it
        coeff = read_reals(self.coeff, "density coefficient", SCALAR, ValidationError)
        if not coeff >= 0:
            raise ValidationError(f"density coefficient must be >= 0, got {coeff}")
        lo = read_reals(self.lo, "density support end lo", SCALAR, ValidationError)
        hi = read_reals(self.hi, "density support end hi", SCALAR, ValidationError)
        exps = []
        for end, value in (("lo", lo), ("hi", hi)):
            if math.isnan(value):
                raise ValidationError(f"density support end {end} must not be NaN")
            try:
                exps.append(math.exp(value))
            except OverflowError:
                message = f"density support end {end} must keep e^{end} a finite float, got {value}"
                raise ValidationError(message) from None
        if hi < lo:
            raise ValidationError(f"empty density support [{lo}, {hi}]")
        try:
            pairs = [(where, mass) for where, mass in self.atoms]
        except (TypeError, ValueError):
            raise ValidationError(f"atoms must be (location, mass) pairs, got {self.atoms!r}") from None
        # the masses and e^lo that every sample reads, computed once
        start = atoms = 0
        for k, (where, mass) in enumerate(pairs):
            if not (is_real(where) and (where == _GRID_FROM_START or where == math.inf)):
                raise ValidationError(f"atom location must be -1 or inf, got {where}")
            if type(mass) is not float:
                mass = read_reals(mass, f"mass of the atom at {where}", SCALAR, ValidationError)
            if not mass >= 0:
                raise ValidationError(f"atom at {where} must have mass >= 0, got {mass}")
            atoms += mass
            if where == _GRID_FROM_START:
                start += mass
            pairs[k] = (float(where), mass)
        exp_lo, exp_hi = exps
        continuous = coeff * (exp_hi - exp_lo)
        # a frozen dataclass's fields, set past its __setattr__ as model._stored sets them
        self.__dict__.update(
            coeff=coeff, lo=lo, hi=hi, atoms=tuple(pairs),
            _exp_lo=exp_lo, _continuous=continuous, _total=continuous + atoms, _start_mass=start,
        )

    def atom_mass(self, where: float) -> float:
        return sum(mass for loc, mass in self.atoms if loc == where)

    def continuous_mass(self) -> float:
        return self._continuous

    def total_mass(self) -> float:
        return self._total

    def require_normalized(self) -> None:
        total = self._total
        if not abs(total - 1.0) <= MASS_TOL:
            raise ValidationError(f"distribution mass is {total}, not 1 within {MASS_TOL}")


def _spec(atoms: list[tuple[float, float]], coeff: float, lo: float, hi: float) -> DistributionSpec:
    kept = tuple((where, mass) for where, mass in atoms if mass > 0)
    return DistributionSpec(atoms=kept, coeff=coeff, lo=lo, hi=hi)


def red_distribution(beta: float) -> DistributionSpec:
    """Threshold distribution of the pure randomized algorithm.

    Density ``e^s / (e - 1 + beta)`` on [0, 1] plus a never-switch atom
    carrying the remaining ``beta`` mass.
    """
    beta = check_beta(beta)
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
    lam = check_lambda(lam, allow_zero=True)
    beta = check_beta(beta)
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
    lam = check_lambda(lam)
    beta = check_beta(beta)
    check_sigma_hat(sigma_hat)
    if sigma_hat <= 1:
        check_stretched_lambda(lam)
    hi = lam if sigma_hat > 1 else 1.0 / lam
    norm = math.exp(hi) - 1 + beta
    return _spec([(math.inf, beta / norm)], coeff=1.0 / norm, lo=0.0, hi=hi)


def sample(spec: DistributionSpec, uniform: float) -> SwitchPolicy:
    """Inverse-CDF sampling of a mixed threshold distribution.

    The unit interval is carved in order: grid-from-start atom, continuous
    segment, never-switch atom.  Within the segment the inverse CDF is
    ``ln(e^lo + r / coeff)`` for residual mass ``r``.  A draw that is not a
    real number that fits a float raises ``DomainError`` naming it.
    """
    if type(uniform) is not float:
        # off the fast path: another real type, or a value to refuse
        uniform = read_reals(uniform, "uniform draw", SCALAR)
    if not 0 <= uniform < 1:
        raise DomainError(f"uniform draw must lie in [0, 1), got {uniform}")
    spec.require_normalized()
    start_mass = spec._start_mass
    if uniform < start_mass:
        return SwitchPolicy.grid_from_start()
    if uniform < start_mass + spec._continuous:
        residual = uniform - start_mass
        s = math.log(spec._exp_lo + residual / spec.coeff)
        return SwitchPolicy(min(max(s, spec.lo), spec.hi))
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


# a member hashes and compares as its value, so one lookup takes either
_ALGORITHMS = {member.value: member for member in Algorithm}


def _as_algorithm(algorithm: Algorithm | str) -> Algorithm:
    """An ``Algorithm`` member as it is, or the member a name stands for;
    anything else, an unhashable value included, raises ``DomainError``
    naming the choices."""
    try:
        return _ALGORITHMS[algorithm]
    except (KeyError, TypeError):
        raise DomainError(f"unknown algorithm {algorithm!r}; choose one of {', '.join(_ALGORITHMS)}") from None


def policy_distribution(
    algorithm: Algorithm | str, beta: float, lam: float | None, sigma_hat: float | None
) -> DistributionSpec:
    """The threshold distribution a randomized algorithm draws from.

    Memoised: specs are frozen, and the specs read ``sigma_hat`` only
    through ``sigma_hat > 1``, so every call with the same algorithm,
    ``beta``, ``lam`` and side of 1 shares one spec (``red`` reads neither
    ``lam`` nor ``sigma_hat``).  Invalid arguments raise on every call (a
    raised call is not cached).
    """
    return _policy_spec(_as_algorithm(algorithm), beta, lam, sigma_hat)


def _policy_spec(algorithm: Algorithm, beta: float, lam: float | None, sigma_hat: float | None) -> DistributionSpec:
    """:func:`policy_distribution` of a resolved member."""
    if algorithm is Algorithm.RED:
        lam = above = None
    else:
        _require_prediction(algorithm, lam, sigma_hat)
        check_sigma_hat(sigma_hat)
        above = bool(sigma_hat > 1)
    try:
        return _distribution(algorithm, beta, lam, above)
    except TypeError:
        # the cache hashes its arguments before any check, so an unhashable
        # beta or lam (red passes None) raises here; each is read as the
        # spec's builders read it
        check_beta(beta)
        if lam is not None:
            check_lambda(lam, allow_zero=True)
        raise


def _require_prediction(algorithm: Algorithm, lam: float | None, sigma_hat: float | None) -> None:
    if sigma_hat is None:
        raise DomainError(f"{algorithm.value} needs a predicted premium mass (sigma_hat)")
    if lam is None:
        raise DomainError(f"{algorithm.value} needs the trust parameter lambda")


@lru_cache(maxsize=64, typed=True)
def _distribution(algorithm: Algorithm, beta: float, lam: float | None, above: bool | None) -> DistributionSpec:
    if algorithm is Algorithm.RED:
        return red_distribution(beta)
    # any mass on the same side of 1 gives the same spec
    sigma_hat = 2.0 if above else 0.0
    if algorithm is Algorithm.LAMBDA_RED:
        return lambda_red_distribution(sigma_hat, lam, beta)
    if algorithm is Algorithm.NAIVE_LAMBDA_RED:
        return naive_red_distribution(sigma_hat, lam, beta)
    raise DomainError(f"{algorithm.value} is deterministic; it has no threshold distribution")


def select_policy(
    trace: Trace,
    params: BillingParams,
    algorithm: Algorithm | str,
    lam: float | None = None,
    sigma_hat: float | None = None,
    seed: int | None = None,
) -> SwitchPolicy:
    """The switch policy an algorithm runs with on a trace.

    Randomized algorithms require ``seed``, a non-negative integer, and
    draw one threshold from the first uniform of ``default_rng(seed)``, bit
    for bit (:func:`_seeded_uniform`); identical seeds yield identical
    policies, and ``5`` and ``np.uint64(5)`` draw alike.
    """
    algorithm = _as_algorithm(algorithm)
    if seed is not None:
        seed = check_seed(seed)
    if algorithm is Algorithm.BED:
        return bed_policy()
    if algorithm is Algorithm.LAMBDA_BED:
        _require_prediction(algorithm, lam, sigma_hat)
        return lambda_bed_policy(sigma_hat, lam)
    if seed is None:
        raise DomainError(f"{algorithm.value} is randomized and requires a seed")
    return sample(_policy_spec(algorithm, beta_of(trace, params), lam, sigma_hat), _seeded_uniform(seed))


# PCG64's multiplier M: its seeding and the draw's one step take initstate to
# initstate * M^2 + inc * (M^2 + M + 1), mod 2^128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_SQUARE, _PCG_SUM = _PCG_MULT**2 & (1 << 128) - 1, (_PCG_MULT**2 + _PCG_MULT + 1) & (1 << 128) - 1
_LANES = 0x0000FFFF_0000FFFF_0000FFFF_0000FFFF  # the low 16 bits of each 32-bit lane


@lru_cache(maxsize=1024)
def _seeded_uniform(seed: int) -> float:
    """The first uniform of ``default_rng(seed)``, memoised per integer seed.

    Computed from ``SeedSequence(seed).pool`` with Python integers, in
    straight-line code: ``generate_state(4, uint64)``'s eight hashed words,
    paired low word first into PCG64's 128-bit ``initstate`` (words 0-3)
    and stream ``seq`` (words 4-7); its seeding and the draw's one LCG
    step, mod 2^128; and that state's XSL-RR output, whose top 53 bits make
    the double.  numpy's RNG policy (NEP 19) pins those streams, and the
    pool mixing stays in numpy, so a seed of any size takes this one path,
    and no ``PCG64`` or ``Generator`` is built.

    An experiment's cells draw the same layer seeds; the bound matches
    ``layering._layer_seed``'s.  Callers pass the int that ``check_seed``
    returns, so a numpy integer shares the equal int's entry.
    """
    p0, p1, p2, p3 = np.random.SeedSequence(seed).pool.tolist()
    # generate_state's hash of word i: pool word i % 4 xor K_i, times K_(i+1),
    # mod 2^32, where K_i = 0x8B51F9DD * 0x58F38DED^i mod 2^32
    h0 = (p0 ^ 0x8B51F9DD) * 0x464A0A99 & 0xFFFFFFFF
    h1 = (p1 ^ 0x464A0A99) * 0x819D14A5 & 0xFFFFFFFF
    h2 = (p2 ^ 0x819D14A5) * 0xD369FDC1 & 0xFFFFFFFF
    h3 = (p3 ^ 0xD369FDC1) * 0x501638AD & 0xFFFFFFFF
    h4 = (p0 ^ 0x501638AD) * 0xA600C129 & 0xFFFFFFFF
    h5 = (p1 ^ 0xA600C129) * 0x8B0167F5 & 0xFFFFFFFF
    h6 = (p2 ^ 0x8B0167F5) * 0x5C1E2ED1 & 0xFFFFFFFF
    h7 = (p3 ^ 0x5C1E2ED1) * 0x301D747D & 0xFFFFFFFF
    # each word's closing x ^ x >> 16, on the four 32-bit lanes at once
    initstate = h1 << 96 | h0 << 64 | h3 << 32 | h2
    seq = h5 << 96 | h4 << 64 | h7 << 32 | h6
    initstate ^= initstate >> 16 & _LANES
    seq ^= seq >> 16 & _LANES
    state = (initstate * _PCG_SQUARE + (seq << 1 | 1) * _PCG_SUM) & (1 << 128) - 1
    # XSL-RR: the xor of the halves, rotated right by the top 6 bits
    low = (state >> 64 ^ state) & (1 << 64) - 1
    rot = state >> 122
    return (((low >> rot | low << (64 - rot)) & (1 << 64) - 1) >> 11) * 2.0**-53


def run_algorithm(
    trace: Trace,
    params: BillingParams,
    algorithm: Algorithm | str,
    lam: float | None = None,
    sigma_hat: float | None = None,
    seed: int | None = None,
) -> RunRecord:
    """Select the policy for an algorithm (:func:`select_policy`) and
    execute it; identical seeds yield identical records."""
    return run_threshold(trace, params, select_policy(trace, params, algorithm, lam, sigma_hat, seed))
