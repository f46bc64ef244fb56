"""Exact offline-optimal schedules.

Three oracles, all hindsight-optimal for their stated instance class:

* :func:`optimal_basic` -- closed-form rule for 0/1 demand: everything from
  the grid when the premium mass ``sigma`` exceeds 1, everything local
  otherwise.
* :func:`optimal_general` -- integer (or fractional) demand with a capacity
  limit, by enumerating the peak cap over the demand-value breakpoints.
* :func:`optimal_with_ramp` -- integer demand under a ramp limit, by an
  exact dynamic program over integer generator output levels for every peak
  cap.  The caps run together as one numpy array, in ascending blocks whose
  parent table stays within :data:`RAMP_BLOCK_BYTES`, and the scan stops at
  the first cap whose peak charge alone rules it out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError
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
    check_pairing(trace, params)
    d = trace.demands
    if sigma(trace, params) > 1:
        schedule = Schedule(u=np.zeros_like(d), v=d)
        peak_level = trace.max_demand
    else:
        schedule = Schedule(u=d, v=np.zeros_like(d))
        peak_level = 0.0
    total = cost_of(schedule, trace, params).total
    return OracleResult(schedule=schedule, total=total, peak_level=peak_level)


def _peak_cap_schedule(trace: Trace, cap: float) -> Schedule:
    # Grid up to the cap, generator for the rest; optimal for a fixed cap
    # because the grid is never dearer than local generation.
    v = np.minimum(trace.demands, cap)
    return Schedule(u=trace.demands - v, v=v)


def optimal_general(trace: Trace, params: BillingParams) -> OracleResult:
    """Offline optimum for capacitated instances without ramp constraints.

    The cost under a peak cap ``m`` (grid serves ``min(d(t), m)`` per slot)
    is piecewise linear in ``m`` with breakpoints only at demand values, so
    scanning the distinct demand values plus the feasibility floor
    ``max(0, max d - C)`` finds the exact optimum.  Ties go to the smaller
    cap.
    """
    _require_no_ramp(params, "optimal_general")
    check_pairing(trace, params)
    floor = max(0.0, trace.max_demand - params.capacity)
    candidates = {floor, 0.0} | {float(x) for x in trace.demands}
    candidates = sorted(m for m in candidates if m >= floor)
    assert candidates, "feasibility floor always qualifies"
    best: tuple[float, float, Schedule] | None = None
    for m in candidates:
        schedule = _peak_cap_schedule(trace, m)
        total = cost_of(schedule, trace, params).total
        if best is None or (total, m) < (best[0], best[1]):
            best = (total, m, schedule)
    total, m, schedule = best
    return OracleResult(schedule=schedule, total=total, peak_level=m)


def _integer_valued(x: float) -> bool:
    return x == int(x)


#: Bytes of parent offsets and rebuilt paths that one block of peak caps may
#: hold in :func:`optimal_with_ramp`; further caps run in further blocks.
RAMP_BLOCK_BYTES = 4 << 20

# Relative slack on the peak-cap prune, far above the rounding of a cost sum,
# so a cap is only skipped when it cannot even tie the best total.
_PRUNE_SLACK = 1e-9


def optimal_with_ramp(trace: Trace, params: BillingParams) -> OracleResult:
    """Offline optimum over integer schedules under a ramp limit.

    For each integer peak cap ``m`` a dynamic program scans integer output
    levels ``u(t)`` in ``[max(0, d(t) - m), C]`` with transitions bounded by
    the ramp limit ``R`` and a pre-cycle level of 0.  Output above the slot
    demand is allowed: wasting generation in a valley can be the only way to
    reach a high output in time for the next spike, and is sometimes
    strictly cheaper than buying the spike from the grid.

    The caps run together as one (caps x levels) cost array.  A slot's
    transition is an argmin over a sliding window of width ``2R + 1`` on the
    previous costs, padded with ``R`` infinities on each side, plus the
    stage cost ``p(t) max(0, d(t) - u) + p_g u``; the first minimum wins, so
    ties go to the lowest predecessor.  Parents are stored as window offsets
    in the narrowest unsigned dtype (one byte while ``2R + 1 <= 256``).  The
    caps run in ascending blocks whose parent offsets and rebuilt paths stay
    within :data:`RAMP_BLOCK_BYTES`; the feasibility floor runs alone first.
    Memory is one block plus the (T x levels) stage costs; time is
    ``#caps x T x (C + 1) x (2R + 1)`` element steps in ``T`` numpy passes
    per block.

    Each cap's schedule is rebuilt and re-costed in ascending order, which
    settles its peak charge, and the best (total, cap) pair wins.  Any
    schedule with peak ``m`` costs at least ``p_m m + sum_t p(t) d(t)``
    because ``p(t) <= p_g``, and a schedule below its cap is no cheaper than
    the smaller cap's optimum, so the scan stops at the first cap whose
    bound exceeds the best total.  Results, ties included, are those of the
    scalar loop over caps, slots, levels and predecessors.
    """
    if params.ramp is None:
        raise DomainError("optimal_with_ramp requires a ramp limit; use optimal_general otherwise")
    if not trace.has_integer_demands():
        raise DomainError("optimal_with_ramp requires integer demands")
    if not _integer_valued(params.capacity) or not _integer_valued(params.ramp):
        raise DomainError("optimal_with_ramp requires integer capacity and ramp values")
    check_pairing(trace, params)

    d = trace.demands.astype(int)
    p = trace.prices
    T = len(d)
    cap_max = int(params.capacity)
    # a step never needs to exceed the capacity, so the window is clamped
    ramp = min(int(params.ramp), cap_max)
    max_d = int(d.max())
    floor = max(0, max_d - cap_max)
    levels = np.arange(cap_max + 1)
    stage = p[:, None] * np.maximum(0, d[:, None] - levels) + params.p_g * levels
    grid_volume = float(p @ trace.demands)
    offset_dtype = np.min_scalar_type(2 * ramp)

    # per cap: its parent table plus its rebuilt float path
    per_block = max(1, RAMP_BLOCK_BYTES // ((T - 1) * levels.size * offset_dtype.itemsize + 8 * T))

    best: tuple[float, int, Schedule] | None = None

    def beaten(cap) -> bool:
        return best is not None and params.p_m * cap + grid_volume > best[0] * (1 + _PRUNE_SLACK)

    m = floor
    while m <= max_d and not beaten(m):
        # the floor cap runs alone first: its total usually prunes most others
        size = 1 if m == floor else per_block
        caps = np.array([c for c in range(m, min(max_d + 1, m + size)) if not beaten(c)])
        for cap, u in zip(caps, _ramp_block(stage, d, ramp, caps, offset_dtype)):
            if beaten(cap):
                break
            if u is None:
                continue  # no ramp-feasible path under this cap
            schedule = Schedule(u=u, v=np.maximum(0.0, d - u))
            total = cost_of(schedule, trace, params).total
            if best is None or (total, cap) < (best[0], best[1]):
                best = (total, int(cap), schedule)
        m = int(caps[-1]) + 1
    if best is None:
        # Unreachable in practice: the all-zero output path is feasible at
        # the cap m = max d.  Kept as a guard for future state-space edits.
        raise InfeasibleError("no ramp-feasible schedule exists at any peak cap")
    total, m, schedule = best
    return OracleResult(schedule=schedule, total=total, peak_level=float(m))


def _ramp_block(stage, d, ramp, caps, offset_dtype):
    """Optimal output paths, one per cap in ``caps``, as float arrays (None
    where the cap admits no ramp-feasible path); ``stage[t, u]`` is slot
    ``t``'s volume and local cost at output ``u``."""
    T, n_levels = stage.shape
    levels = np.arange(n_levels)
    # cap + level < d(t) means the grid would have to exceed the cap
    reach = caps[:, None] + levels
    padded = np.full((caps.size, n_levels + 2 * ramp), np.inf)
    cost = padded[:, ramp:ramp + n_levels]
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * ramp + 1, axis=1)
    # flat index of each window's first entry, so a window offset gathers its cost
    starts = (np.arange(caps.size) * padded.shape[1])[:, None] + levels
    flat = padded.reshape(-1)
    parents = np.empty((T - 1, caps.size, n_levels), dtype=offset_dtype)

    cost[...] = stage[0]
    cost[:, ramp + 1:] = np.inf  # the pre-cycle level is 0
    np.copyto(cost, np.inf, where=reach < d[0])
    for t in range(1, T):
        offsets = windows.argmin(axis=2)
        parents[t - 1] = offsets
        np.add(flat[starts + offsets], stage[t], out=cost)
        np.copyto(cost, np.inf, where=reach < d[t])

    ends = cost.argmin(axis=1)
    rows = np.flatnonzero(np.isfinite(cost[np.arange(caps.size), ends]))
    paths = np.empty((rows.size, T))
    u = paths[:, T - 1] = ends[rows]
    for t in range(T - 2, -1, -1):
        u = paths[:, t] = u + parents[t, rows, u] - ramp
    found = dict(zip(rows.tolist(), paths))
    return [found.get(i) for i in range(caps.size)]
