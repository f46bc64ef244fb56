"""Shared fixtures: seeded instance generators and independent brute-force
oracles used to cross-check the package's fast paths."""
from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

import peaksched as ps
from peaksched.quadrature import integrate
from peaksched.validators import check_beta


def make_binary_instance(
    rng: np.random.Generator,
    beta: float | None = None,
    sigma_target: float | None = None,
    horizon: int | None = None,
) -> tuple[ps.Trace, ps.BillingParams]:
    """Random 0/1-demand instance with exact hardness beta and a premium
    mass steered to sigma_target by choosing the peak price."""
    T = horizon if horizon is not None else int(rng.integers(6, 40))
    p_g = 1.0
    b = float(rng.uniform(0.05, 0.95)) if beta is None else beta
    prices = rng.uniform(b * p_g, p_g, T)
    prices[int(rng.integers(0, T))] = b * p_g
    demands = (rng.random(T) < 0.7).astype(float)
    if demands.max() == 0:
        demands[int(rng.integers(0, T))] = 1.0
    trace = ps.Trace(prices=prices, demands=demands)
    premium = float((p_g - prices) @ demands)
    if sigma_target is None:
        sigma_target = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    p_m = premium / sigma_target if premium > 0 else 1.0
    params = ps.BillingParams(p_g=p_g, p_m=p_m, capacity=1)
    return trace, params


def make_integer_instance(
    rng: np.random.Generator,
    max_demand: int = 5,
    horizon: int | None = None,
    capacity: float | None = None,
    sigma_target: float | None = None,
) -> tuple[ps.Trace, ps.BillingParams]:
    T = horizon if horizon is not None else int(rng.integers(6, 30))
    demands = rng.integers(0, max_demand + 1, T).astype(float)
    if demands.max() == 0:
        demands[int(rng.integers(0, T))] = 1.0
    p_g = 1.0
    b = float(rng.uniform(0.05, 0.95))
    prices = rng.uniform(b * p_g, p_g, T)
    prices[int(rng.integers(0, T))] = b * p_g
    trace = ps.Trace(prices=prices, demands=demands)
    premium = float((p_g - prices) @ demands)
    if sigma_target is None:
        sigma_target = float(np.exp(rng.uniform(np.log(0.2), np.log(3.0))))
    p_m = premium / sigma_target if premium > 0 else 1.0
    if capacity is None:
        capacity = float(demands.max())
    params = ps.BillingParams(p_g=p_g, p_m=p_m, capacity=capacity)
    return trace, params


def schedule_cost(u, v, trace: ps.Trace, params: ps.BillingParams) -> float:
    """Cost formula written out independently of the package's accounting."""
    volume = sum(p * x for p, x in zip(trace.prices, v))
    peak = params.p_m * max(v)
    local = params.p_g * sum(u)
    return volume + peak + local


def brute_force_optimum(trace: ps.Trace, params: ps.BillingParams, ramp: bool = False) -> float:
    """Enumerate every integer output sequence in {0..C}^T (ramp-filtered
    when asked), serving residual demand from the grid."""
    d = trace.demands
    cap = int(params.capacity)
    best = float("inf")
    for u in product(range(cap + 1), repeat=len(d)):
        if ramp:
            prev = 0
            ok = True
            for x in u:
                if abs(x - prev) > params.ramp:
                    ok = False
                    break
                prev = x
            if not ok:
                continue
        v = [max(0.0, di - ui) for di, ui in zip(d, u)]
        cost = schedule_cost(u, v, trace, params)
        if cost < best:
            best = cost
    return best


def reference_ramp_dp(trace: ps.Trace, params: ps.BillingParams) -> ps.OracleResult:
    """The ramp oracle as a scalar triple loop, kept as the check on
    :func:`peaksched.optimal_with_ramp`: for every peak cap, every slot and
    every output level it scans the predecessors within the ramp window and
    keeps the lowest one with a strictly smaller cost.  It expects a valid
    instance (integer demand, capacity and ramp, ``p(t) <= p_g``)."""
    d = trace.demands.astype(int)
    p = trace.prices
    T = len(d)
    cap_max = int(params.capacity)
    ramp = int(params.ramp)
    max_d = int(d.max())
    floor = max(0, max_d - cap_max)

    best: tuple[float, int, ps.Schedule] | None = None
    for m in range(floor, max_d + 1):
        lows = np.maximum(0, d - m)
        if np.any(lows > cap_max):
            continue  # cap unreachable within capacity at some slot
        # cost_to[s] = cheapest volume+local cost of reaching output s at the
        # current slot; parent[t][s] = chosen predecessor level.
        levels = cap_max + 1
        INF = float("inf")
        cost_to = [INF] * levels
        for s in range(lows[0], min(cap_max, ramp) + 1):
            cost_to[s] = p[0] * max(0, d[0] - s) + params.p_g * s
        parents: list[list[int]] = []
        for t in range(1, T):
            stage = [p[t] * max(0, d[t] - s) + params.p_g * s for s in range(levels)]
            nxt = [INF] * levels
            par = [-1] * levels
            for s in range(lows[t], levels):
                lo, hi = max(0, s - ramp), min(cap_max, s + ramp)
                for prev in range(lo, hi + 1):
                    c = cost_to[prev]
                    if c < nxt[s]:
                        nxt[s] = c
                        par[s] = prev
                if nxt[s] < INF:
                    nxt[s] += stage[s]
            cost_to = nxt
            parents.append(par)
        end = int(np.argmin(cost_to))
        if cost_to[end] == INF:
            continue  # no ramp-feasible path under this cap
        u = [0] * T
        u[T - 1] = end
        for t in range(T - 2, -1, -1):
            u[t] = parents[t][u[t + 1]]
        u_arr = np.array(u, dtype=float)
        v_arr = np.maximum(0.0, d - u_arr)
        schedule = ps.Schedule(u=u_arr, v=v_arr)
        total = ps.cost_of(schedule, trace, params).total
        if best is None or (total, m) < (best[0], best[1]):
            best = (total, m, schedule)
    if best is None:
        # Unreachable in practice: the all-zero output path is feasible at
        # the cap m = max d.  Kept as a guard for future state-space edits.
        raise ps.InfeasibleError("no ramp-feasible schedule exists at any peak cap")
    total, m, schedule = best
    return ps.OracleResult(schedule=schedule, total=total, peak_level=float(m))


def reference_ratio(s: float, sigma: float, beta: float) -> float:
    """The ratio curve as the scalar case analysis it was first written as,
    kept as the check on the array formula behind :func:`peaksched.cost_ratio`."""
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


def reference_expected_ratio(spec: ps.DistributionSpec, sigma: float, beta: float) -> float:
    """The expected ratio as one scalar quadrature per point, kept as the
    check on :func:`peaksched.expected_ratios`: atoms summed exactly, the
    density segment integrated adaptively to 1e-9, split at ``s = sigma``."""
    check_beta(beta)
    if not sigma >= 0:
        raise ps.DomainError(f"premium mass must be >= 0, got {sigma}")
    spec.require_normalized()
    total = sum(mass * reference_ratio(where, sigma, beta) for where, mass in spec.atoms)
    if spec.coeff > 0 and spec.hi > spec.lo:
        coeff = spec.coeff
        value, _ = integrate(
            lambda s: coeff * math.exp(s) * reference_ratio(s, sigma, beta),
            spec.lo,
            spec.hi,
            abs_tol=1e-9,
            breakpoints=(sigma,),
        )
        total += value
    return total


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
