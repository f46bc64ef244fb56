"""Core data model: billing cycles, schedules, and cost accounting.

A billing cycle is a horizon of ``T`` hourly slots.  Energy drawn from the
grid is billed by volume (spot price per unit, per slot) plus a peak charge
proportional to the single largest per-slot grid draw over the cycle.
Local generation costs a flat unit rate and is capped per slot by the
generator capacity; slow generators additionally carry a ramp limit on the
slot-to-slot change of their output.

Money amounts and ratios are plain floats; equality assertions throughout
the package use the absolute tolerance :data:`MONEY_TOL`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError, UndefinedRatioError, ValidationError
from .validators import SCALAR, check_cost, read_reals

#: Absolute tolerance for money / ratio equality comparisons.
MONEY_TOL = 1e-9


def _readonly_vector(values, name: str, ndim: int = 1) -> np.ndarray:
    # A read-only, C-contiguous float64 array of ``ndim`` dimensions that owns
    # its memory is kept as it is (see the sharing contract on Trace); anything
    # else is copied and frozen in C order, the row order of every dot product.
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.ndim == ndim
        and values.flags.c_contiguous
        and values.base is None
        and not values.flags.writeable
    ):
        return values
    arr = np.array(read_reals(values, name, ndim, ValidationError, slots=True), order="C")
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Freeze an array built inside the package so traces and schedules keep it without a copy."""
    arr.setflags(write=False)
    return arr


def _stored(cls, **fields):
    """A new ``cls`` whose attributes are ``fields``, set in their order with
    no ``__init__`` or ``__post_init__``: for values the caller has proved,
    where a frozen dataclass's own pass would set and check them again."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _checked_range(arr: np.ndarray, what: str, rule: str, above: float | None = None) -> tuple[float, float]:
    """Min and max of a non-empty vector, rejecting non-finite values and
    values below 0 (not above ``above``, where given) by the first
    offending slot.  NaN fails every comparison, so it is rejected too."""
    lo = np.minimum.reduce(arr)
    hi = np.maximum.reduce(arr)
    if not ((lo >= 0 if above is None else lo > above) and hi < math.inf):
        ok = (arr >= 0 if above is None else arr > above) & (arr < math.inf)
        t = int(np.flatnonzero(~ok)[0])
        raise ValidationError(f"{what} at slot {t} is {arr[t]}; {rule}")
    return float(lo), float(hi)


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-slot grid prices and energy demands for one billing cycle.

    Prices must be finite and strictly positive; demands finite and
    non-negative.  Both vectors share the same length ``T >= 1``.  An
    entry that is a bool or not a real number (a string, None) raises
    ``ValidationError`` naming its slot.  Instances are immutable and safe
    to share across threads.

    Inputs are copied into read-only float64 vectors, except that a
    read-only, one-dimensional float64 array that owns its memory
    (``base is None``) is kept as it is, not copied.  Such an array is
    taken to be frozen for good: whoever built it must not make it
    writable again or write to it through an older view.

    What is derived from the arrays is kept on the instance: the extremes
    ``min_price``, ``max_price`` and ``max_demand``, the integer and binary
    tests, :func:`peaksched.decompose`'s ``_layer_stack``, and the online
    engine's ``_premium_prefix`` at the last ``p_g`` it ran.  The stack's
    layers are built without the checks (:meth:`_of_layer`): each shares
    its parent's checked prices, and its 0/1 demand is known.  A pickled or
    copied trace is rebuilt from ``prices`` and ``demands`` alone.

    The freeze cannot be enforced: a writable view made before the array
    was frozen still writes through it.  After ``a = np.zeros(3); b = a[:];
    a.setflags(write=False); t = Trace(prices=[1, 1, 1], demands=a)``, the
    write ``b[0] = 5`` changes ``t.demands`` but leaves all of that stale:
    ``t.max_demand`` stays 0, and the tests, the stack and the prefix keep
    their old answers.  The package's own arrays keep no such view.
    """

    prices: np.ndarray
    demands: np.ndarray

    def __post_init__(self):
        prices = _readonly_vector(self.prices, "prices")
        demands = _readonly_vector(self.demands, "demands")
        if len(prices) != len(demands):
            raise StructuralError(
                f"prices ({len(prices)} slots) and demands ({len(demands)} slots) differ in length"
            )
        if len(prices) == 0:
            raise ValidationError("empty trace: the peak charge needs at least one slot")
        min_price, max_price = _checked_range(prices, "price", "prices must be finite and > 0", above=0.0)
        _, max_demand = _checked_range(demands, "demand", "demands must be finite and >= 0")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "min_price", min_price)
        object.__setattr__(self, "max_price", max_price)
        object.__setattr__(self, "max_demand", max_demand)

    @classmethod
    def _of_layer(cls, parent: "Trace", demands: np.ndarray) -> "Trace":
        """A 0/1 layer of ``parent``: its frozen, checked prices and frozen
        0/1 ``demands`` with at least one 1, taken as they are."""
        return _stored(cls, prices=parent.prices, demands=demands, min_price=parent.min_price,
                       max_price=parent.max_price, max_demand=1.0, _integer_demands=True)

    def __reduce__(self):
        return (type(self), (self.prices, self.demands))

    def __len__(self) -> int:
        return len(self.prices)

    @cached_property
    def _integer_demands(self) -> bool:
        return bool(np.all(self.demands == np.rint(self.demands)))

    def has_integer_demands(self) -> bool:
        return self._integer_demands

    def has_binary_demands(self) -> bool:
        # integer demands in [0, 1] are exactly the 0/1 demands
        return self.max_demand <= 1 and self._integer_demands


@dataclass(frozen=True)
class BillingParams:
    """Billing and generator parameters paired with traces.

    ``p_g`` is the local generation unit cost, ``p_m`` the peak price,
    ``capacity`` the per-slot generator limit, and ``ramp`` the optional
    bound on ``|u(t) - u(t-1)|`` (with an implicit pre-cycle output of 0).

    ``p_g >= max price`` is a pairing-time assumption, checked by
    :func:`check_pairing` rather than here, because one parameter set is
    commonly swept against many traces.
    """

    p_g: float
    p_m: float
    capacity: float
    ramp: float | None = None

    def __post_init__(self):
        # a bool or a string compares like a number or raises a bare TypeError,
        # and an int beyond the largest float compares below inf, then overflows in use
        ramp = 0.0 if self.ramp is None else self.ramp
        for name, value in (("generation cost p_g", self.p_g), ("peak price p_m", self.p_m),
                            ("capacity", self.capacity), ("ramp limit", ramp)):
            read_reals(value, name, SCALAR, ValidationError)
        # comparisons written so that NaN fails them
        if not 0 < self.p_g < math.inf:
            raise ValidationError(f"generation cost p_g must be finite and > 0, got {self.p_g}")
        if not 0 < self.p_m < math.inf:
            raise ValidationError(f"peak price p_m must be finite and > 0, got {self.p_m}")
        if not self.capacity >= 1:
            raise ValidationError(f"capacity must be >= 1, got {self.capacity}")
        if self.ramp is not None and not self.ramp >= 0:
            raise ValidationError(f"ramp limit must be >= 0, got {self.ramp}")


def check_pairing(trace: Trace, params: BillingParams) -> None:
    """Validate the modeling assumption p_g >= p(t) for every slot."""
    if trace.max_price > params.p_g:
        raise ValidationError(
            f"max grid price {trace.max_price} exceeds generation cost {params.p_g}; "
            "pair this trace with a larger p_g"
        )


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-slot generator output ``u`` and grid purchase ``v``.

    Construction checks only shape and that every entry is finite and
    non-negative; demand satisfaction, capacity, and ramp feasibility
    depend on a trace and parameters and are checked by
    :func:`validate_schedule` (invoked by :func:`cost_of`).  Vectors are
    copied and frozen as in :class:`Trace`: a read-only float64 vector
    that owns its memory is kept, not copied.  The largest output and
    purchase are computed once per instance.

    :func:`~peaksched.switch_schedule` and :func:`~peaksched.run_layered`
    build their schedules without these checks (:meth:`_of_trace`) and
    record for :func:`cost_of` the checked trace they came from: their
    ``u + v`` is its demand exactly, with ``0 <= u, v``.  A switch schedule
    that serves every slot from one source shares that side with the
    trace: its ``u`` (all local) or ``v`` (all grid) is ``trace.demands``,
    the other side an owned, read-only array of zeros.  A pickled or copied
    schedule is rebuilt from ``u`` and ``v`` alone, and checked again.
    """

    u: np.ndarray
    v: np.ndarray
    # the trace a schedule was derived from; not a field, so a schedule
    # built from (u, v) reads None
    _trace = None

    def __post_init__(self):
        u = _readonly_vector(self.u, "u")
        v = _readonly_vector(self.v, "v")
        if len(u) != len(v):
            raise StructuralError(f"u ({len(u)} slots) and v ({len(v)} slots) differ in length")
        # an empty schedule matches no trace, so its maxima are never read
        max_u = max_v = 0.0
        if len(u):
            _, max_u = _checked_range(u, "generator output", "must be finite and >= 0")
            _, max_v = _checked_range(v, "grid purchase", "must be finite and >= 0")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "_max_u", max_u)
        object.__setattr__(self, "_max_v", max_v)

    @classmethod
    def _of_trace(cls, trace: Trace, u: np.ndarray, v: np.ndarray, max_u: float, max_v: float) -> "Schedule":
        """A schedule of frozen ``u`` and ``v`` derived from ``trace``, with
        their maxima, taken as they are: the caller has proved them."""
        return _stored(cls, u=u, v=v, _max_u=max_u, _max_v=max_v, _trace=trace)

    def __reduce__(self):
        return (type(self), (self.u, self.v))

    def __len__(self) -> int:
        return len(self.u)


def validate_schedule(schedule: Schedule, trace: Trace, params: BillingParams) -> None:
    """Check demand satisfaction, capacity, and (when set) the ramp limit.

    Raises :class:`StructuralError` on length mismatch and
    :class:`ValidationError` naming the first offending slot otherwise.
    """
    if len(schedule) != len(trace):
        raise StructuralError(
            f"schedule has {len(schedule)} slots but trace has {len(trace)}"
        )
    u, v, d = schedule.u, schedule.v, trace.demands
    short = u + v < d - MONEY_TOL
    if short.any():
        t = int(np.flatnonzero(short)[0])
        raise ValidationError(
            f"demand not met at slot {t}: u+v = {u[t] + v[t]} < d = {d[t]}"
        )
    if schedule._max_u > params.capacity + MONEY_TOL:
        t = int(np.flatnonzero(u > params.capacity + MONEY_TOL)[0])
        raise ValidationError(
            f"generator output {u[t]} at slot {t} exceeds capacity {params.capacity}"
        )
    if params.ramp is not None:
        steps = np.abs(np.diff(np.concatenate(([0.0], u))))
        bad = steps > params.ramp + MONEY_TOL
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            raise ValidationError(
                f"ramp violation at slot {t}: output change {steps[t]} exceeds limit {params.ramp}"
            )


@dataclass(frozen=True)
class CostBreakdown:
    """Volume, peak, and local components of a schedule's cost."""

    volume: float
    peak: float
    local: float

    @property
    def total(self) -> float:
        return self.volume + self.peak + self.local


def cost_of(schedule: Schedule, trace: Trace, params: BillingParams) -> CostBreakdown:
    """Total operating cost of a schedule over the billing cycle.

    volume = sum_t p(t) v(t), peak = p_m * max_t v(t), local = sum_t p_g u(t).

    The schedule is checked by :func:`validate_schedule`, except one derived
    from this very ``trace`` (the same object) where no ramp is set: its
    ``u + v`` is the demand exactly, so only the capacity test is left, and
    it is made here on the stored largest output.  A ramp limit can reject
    a switch (a 0/1 output steps by 1 where it turns on), so a schedule is
    always checked where a ramp is set.
    """
    if not (schedule._trace is trace and params.ramp is None and schedule._max_u <= params.capacity + MONEY_TOL):
        validate_schedule(schedule, trace, params)
    volume = float(trace.prices @ schedule.v)
    peak = params.p_m * schedule._max_v
    local = params.p_g * float(schedule.u.sum())
    return _stored(CostBreakdown, volume=volume, peak=peak, local=local)


def _premium_mass(premium: np.ndarray, demands: np.ndarray, p_m: float) -> float:
    """The premium mass of ``demands`` at the per-slot premiums ``premium =
    p_g - p``: every mass, true or predicted, of a trace, layer or bank row."""
    return float(premium @ demands) / p_m


def _cumulative_premium(p_g, prices: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """``S(t) = sum_{tau<=t} (p_g - p(tau)) d(tau)`` of one trace, or of every
    row of an (n, T) block with ``p_g`` an (n, 1) column."""
    return ((p_g - prices) * demands).cumsum(axis=-1)


def sigma(trace: Trace, params: BillingParams) -> float:
    """Critical peak-demand threshold of an instance.

    The total premium of serving all demand locally instead of from the
    grid, measured in units of the peak price:
    ``(1 / p_m) * sum_t (p_g - p(t)) d(t)``.  A value above 1 means the
    all-grid schedule is offline-optimal for binary demand.
    """
    check_pairing(trace, params)
    return _premium_mass(params.p_g - trace.prices, trace.demands, params.p_m)


def beta(trace: Trace, params: BillingParams) -> float:
    """Ratio of the minimum grid price to the local generation cost, in (0, 1]."""
    check_pairing(trace, params)
    return trace.min_price / params.p_g


def cost_reduction(alg_total: float, trace: Trace, params: BillingParams) -> float:
    """Relative saving of a schedule against buying everything from the grid.

    The benchmark is the no-generator cost ``sum p(t) d(t) + p_m max d(t)``.
    Negative values mean the schedule cost more than not generating at all.
    A cost that :func:`~peaksched.validators.check_cost` rejects raises ``DomainError``.
    """
    alg_total = check_cost(alg_total, "algorithm cost")
    if alg_total < 0:
        raise ValidationError(f"algorithm cost must be >= 0, got {alg_total}")
    baseline = float(trace.prices @ trace.demands) + params.p_m * trace.max_demand
    if baseline == 0:
        raise UndefinedRatioError("all-zero demand: the no-generator baseline is 0")
    return 1.0 - alg_total / baseline
