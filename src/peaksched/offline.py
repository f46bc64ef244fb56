"""Exact offline-optimal schedules.

Three oracles, all hindsight-optimal for their stated instance class:

* :func:`optimal_basic` -- closed-form rule for 0/1 demand: everything from
  the grid when the premium mass ``sigma`` exceeds 1, everything local
  otherwise.
* :func:`optimal_general` -- integer (or fractional) demand with a capacity
  limit, by enumerating the peak cap over the demand-value breakpoints.
* :func:`optimal_with_ramp` -- integer demand under a ramp limit.  For each
  peak cap the lowest ramp-feasible output path is optimal, and it is an
  envelope of two running maxima over the slots, so each cap costs
  ``O(T)`` time and memory.

Both capacitated oracles scan their caps in ascending order in one loop,
which stops at the first cap whose peak charge alone rules it out.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError
from .model import BillingParams, Schedule, Trace, check_pairing, cost_of, sigma


@dataclass(frozen=True)
class OracleResult:
    """An optimal schedule, its total cost, and the peak cap it was found at."""

    schedule: Schedule
    total: float
    peak_level: float


def _require_no_ramp(params: BillingParams, op: str) -> None:
    if params.ramp is not None:
        raise DomainError(f"{op} ignores ramp limits; use optimal_with_ramp for ramp-constrained instances")


def optimal_basic(trace: Trace, params: BillingParams) -> OracleResult:
    """Offline optimum for 0/1 demand without ramp constraints.

    If sigma > 1 the grid serves every slot; otherwise the generator does.
    The tie sigma = 1 resolves to all-local, matching the strict inequality
    in the grid rule.
    """
    _require_no_ramp(params, "optimal_basic")
    if not trace.has_binary_demands():
        raise DomainError("optimal_basic requires 0/1 demands; use optimal_general instead")
    d = trace.demands
    if sigma(trace, params) > 1:
        schedule = Schedule(u=np.zeros_like(d), v=d)
        peak_level = trace.max_demand
    else:
        schedule = Schedule(u=d, v=np.zeros_like(d))
        peak_level = 0.0
    total = cost_of(schedule, trace, params).total
    return OracleResult(schedule=schedule, total=total, peak_level=peak_level)


# Relative slack on the peak-cap prune, far above the rounding of a cost sum,
# so a cap is only skipped when it cannot even tie the best total.
_PRUNE_SLACK = 1e-9


def _cheapest_cap(trace: Trace, params: BillingParams, caps, schedule_at) -> OracleResult:
    """The cheapest of the schedules ``schedule_at(m)`` over the ascending
    peak ``caps`` (None where no schedule meets cap ``m``); ties go to the
    smaller cap.  Any schedule with peak ``m`` costs at least ``p_m m +
    sum_t p(t) d(t)`` because ``p(t) <= p_g``, and one below its cap is no
    cheaper than the smaller cap's optimum, so the scan stops at the first
    cap whose bound exceeds the best total.  Every caller's caps hold one
    with a schedule, and the prune cannot stop the scan before it.
    """
    grid_volume = float(trace.prices @ trace.demands)
    best: tuple[float, float, Schedule] | None = None
    for m in caps:
        if best is not None and params.p_m * m + grid_volume > best[0] * (1 + _PRUNE_SLACK):
            break
        schedule = schedule_at(m)
        if schedule is None:
            continue
        total = cost_of(schedule, trace, params).total
        if best is None or (total, m) < (best[0], best[1]):
            best = (total, m, schedule)
    total, m, schedule = best
    return OracleResult(schedule=schedule, total=total, peak_level=float(m))


def optimal_general(trace: Trace, params: BillingParams) -> OracleResult:
    """Offline optimum for capacitated instances without ramp constraints.

    The grid serves ``min(d(t), m)`` under a peak cap ``m`` (optimal for a
    fixed cap: the grid is never dearer than local generation), and the
    cost is piecewise linear in ``m`` with breakpoints only at demand
    values, so scanning the distinct demand values plus the feasibility
    floor ``max(0, max d - C)`` finds the exact optimum.
    """
    _require_no_ramp(params, "optimal_general")
    check_pairing(trace, params)
    d = trace.demands
    floor = max(0.0, trace.max_demand - params.capacity)
    caps = sorted(m for m in {floor, 0.0} | set(d.tolist()) if m >= floor)

    def capped(m: float) -> Schedule:
        v = np.minimum(d, m)
        return Schedule(u=d - v, v=v)

    return _cheapest_cap(trace, params, caps, capped)


def _integer_valued(x: float) -> bool:
    return math.isfinite(x) and x == int(x)


def optimal_with_ramp(trace: Trace, params: BillingParams) -> OracleResult:
    """Offline optimum over integer schedules under a ramp limit.

    For each integer peak cap ``m`` the generator must cover ``L(t) = max(0,
    d(t) - m)``, stay within ``[0, C]``, start within ``R`` of a pre-cycle
    level of 0 and move at most ``R`` per slot.  Output above the slot
    demand is allowed: wasting generation in a valley can be the only way to
    reach a high output in time for the next spike, and is sometimes
    strictly cheaper than buying the spike from the grid.

    Because ``p(t) <= p_g``, a slot's cost ``p(t) max(0, d(t) - u) + p_g u``
    never decreases as ``u`` grows, and the pointwise minimum of two
    ramp-feasible paths is again ramp-feasible.  So each cap has a lowest
    feasible path, and it is optimal for that cap.  That path is the
    smallest ``R``-Lipschitz majorant of ``L``, ``F(t) = max_tau (L(tau) -
    R |t - tau|)``, built in two running maxima: ``B(t) = max_{tau >= t}
    (L(tau) - R tau) + R t`` meets every later need, ``F(t) = max_{tau <= t}
    (B(tau) + R tau) - R t`` every earlier one.  The cap is feasible iff
    ``F(0) <= R``; ``max F = max L <= C`` from the feasibility floor ``m =
    max d - C`` up.  Each cap takes ``O(T)`` integer steps and memory.

    This is also the schedule of the exact dynamic program over output
    levels that keeps the lowest of equally cheap predecessors and ends at
    the lowest of equally cheap levels, price ties at ``p_g`` included.
    Where ``p(t) = p_g`` the slot's cost is flat up to ``d(t)`` and other
    paths tie with ``F``, but the program's cheapest cost of reaching a
    level is non-decreasing in the level (lower a path to the pointwise
    minimum; a sum rounds no higher when its terms are no higher), so the
    lowest reachable predecessor in each window is among the cheapest and
    is the one kept.  The path it walks back is feasible, hence no lower
    than ``F``, and no higher: it ends at the lowest feasible last level,
    ``F``'s, and each step back keeps the lowest candidate, among which is
    ``F``'s own level.  The argument needs the rounded slot costs to be
    non-decreasing as well.  At a tie they are when ``p_g`` times a level
    is exact, as for an integer ``p_g``; with ``p_g = 0.1`` they are not:
    ``0.1*5 + 0.1*2`` rounds below ``0.1*6 + 0.1*1``, the program may climb
    on that rounding, and its total may differ from this one in the last
    bits while this schedule stays the lowest optimal one.  The cap ``m =
    max d`` always has the all-zero path.
    """
    if params.ramp is None:
        raise DomainError("optimal_with_ramp requires a ramp limit; use optimal_general otherwise")
    if not trace.has_integer_demands():
        raise DomainError("optimal_with_ramp requires integer demands")
    for field in ("capacity", "ramp"):
        value = getattr(params, field)
        if not _integer_valued(value):
            raise DomainError(f"optimal_with_ramp requires an integer {field}, got {value}")
    check_pairing(trace, params)

    d = trace.demands.astype(int)
    cap_max = int(params.capacity)
    max_d = int(d.max())
    # no path needs a step above C or max d, and R t then stays within int64
    ramp = min(int(params.ramp), cap_max, max_d)
    slope = ramp * np.arange(len(d))

    def lowest_path(m: int) -> Schedule | None:
        need = np.maximum(0, d - m) - slope
        later = np.maximum.accumulate(need[::-1])[::-1] + 2 * slope
        u = np.maximum.accumulate(later) - slope
        if u[0] > ramp:
            return None  # no ramp-feasible path under this cap
        u = u.astype(float)
        return Schedule(u=u, v=np.maximum(0.0, d - u))

    return _cheapest_cap(trace, params, range(max(0, max_d - cap_max), max_d + 1), lowest_path)
