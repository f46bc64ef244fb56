"""Shared fixtures: seeded instance generators and independent brute-force
oracles used to cross-check the package's fast paths."""
from __future__ import annotations

import csv
import io
import math
from datetime import datetime
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import peaksched as ps
from peaksched.harness.traces import LoadedTrace, read_text
from peaksched.online import MASS_TOL
from peaksched.quadrature import integrate
from peaksched.validators import check_beta


def _draw_binary(rng: np.random.Generator, beta, sigma_target, horizon):
    """The arrays and peak price of one random 0/1-demand instance with
    ``p_g = 1``, in the draw order both builders below share."""
    T = horizon if horizon is not None else int(rng.integers(6, 40))
    p_g = 1.0
    b = float(rng.uniform(0.05, 0.95)) if beta is None else beta
    prices = rng.uniform(b * p_g, p_g, T)
    prices[int(rng.integers(0, T))] = b * p_g
    demands = (rng.random(T) < 0.7).astype(float)
    if demands.max() == 0:
        demands[int(rng.integers(0, T))] = 1.0
    premium = float((p_g - prices) @ demands)
    if sigma_target is None:
        sigma_target = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    p_m = premium / sigma_target if premium > 0 else 1.0
    return prices, demands, p_m


def make_binary_instance(
    rng: np.random.Generator,
    beta: float | None = None,
    sigma_target: float | None = None,
    horizon: int | None = None,
) -> tuple[ps.Trace, ps.BillingParams]:
    """Random 0/1-demand instance with exact hardness beta and a premium
    mass steered to sigma_target by choosing the peak price."""
    prices, demands, p_m = _draw_binary(rng, beta, sigma_target, horizon)
    return ps.Trace(prices=prices, demands=demands), ps.BillingParams(p_g=1.0, p_m=p_m, capacity=1)


def make_binary_bank(rng: np.random.Generator, betas) -> list[tuple[np.ndarray, ps.TraceBank]]:
    """``make_binary_instance(rng, beta=beta)`` for each of ``betas`` in
    turn, with the same draws in the same order, grouped by horizon: one
    ``(indices, bank)`` per horizon, ascending, where row ``j`` of the bank
    is instance ``indices[j]``."""
    groups: dict[int, list] = {}
    for i, beta in enumerate(betas):
        prices, demands, p_m = _draw_binary(rng, beta, None, None)
        groups.setdefault(len(prices), []).append((i, prices, demands, p_m))
    banks = []
    for _, rows in sorted(groups.items()):
        index, prices, demands, p_m = zip(*rows)
        banks.append((np.array(index), ps.TraceBank(np.array(prices), np.array(demands), 1.0, np.array(p_m))))
    return banks


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


def _reference_best_cap(trace: ps.Trace, params: ps.BillingParams, schedules) -> ps.OracleResult:
    # every (cap, schedule) pair costed, no prune; the first (total, cap) minimum wins
    best = None
    for m, schedule in schedules:
        if schedule is None:
            continue
        total = ps.cost_of(schedule, trace, params).total
        if best is None or (total, m) < (best[0], best[1]):
            best = (total, m, schedule)
    total, m, schedule = best
    return ps.OracleResult(schedule=schedule, total=total, peak_level=float(m))


def reference_optimal_general(trace: ps.Trace, params: ps.BillingParams) -> ps.OracleResult:
    """:func:`peaksched.optimal_general` as a loop that costs every candidate
    cap, kept as the check on the shared cap scan and its prune."""
    floor = max(0.0, trace.max_demand - params.capacity)
    caps = sorted(m for m in {floor, 0.0} | {float(x) for x in trace.demands} if m >= floor)
    d = trace.demands
    return _reference_best_cap(
        trace, params, ((m, ps.Schedule(u=d - np.minimum(d, m), v=np.minimum(d, m))) for m in caps)
    )


def reference_optimal_with_ramp(trace: ps.Trace, params: ps.BillingParams) -> ps.OracleResult:
    """:func:`peaksched.optimal_with_ramp`'s lowest ramp-feasible path at
    every cap from the floor to ``max d``, each costed, with no prune."""
    d = trace.demands.astype(int)
    cap_max, max_d = int(params.capacity), int(d.max())
    ramp = min(int(params.ramp), cap_max, max_d)
    slope = ramp * np.arange(len(d))

    def lowest_path(m):
        need = np.maximum(0, d - m) - slope
        later = np.maximum.accumulate(need[::-1])[::-1] + 2 * slope
        u = np.maximum.accumulate(later) - slope
        if u[0] > ramp:
            return None
        u = u.astype(float)
        return ps.Schedule(u=u, v=np.maximum(0.0, d - u))

    return _reference_best_cap(trace, params, ((m, lowest_path(m)) for m in range(max(0, max_d - cap_max), max_d + 1)))


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


def reference_run_threshold(
    trace: ps.Trace, params: ps.BillingParams, s: float
) -> tuple[int | None, np.ndarray, np.ndarray, float]:
    """A threshold run written out as a scalar loop with no memo, kept as the
    check on :func:`peaksched.run_threshold` and :func:`peaksched.switch_slots`:
    the premium is summed slot by slot in the order a cumsum adds it, the
    first slot where it reaches ``s * p_m`` switches.  Returns the switch
    slot (None when the policy never switches), ``u``, ``v`` and ``S(T)``."""
    target = s * params.p_m
    premium = 0.0
    switch = None
    for t, (p, d) in enumerate(zip(trace.prices.tolist(), trace.demands.tolist())):
        premium += (params.p_g - p) * d
        if switch is None and premium >= target:
            switch = t
    d = trace.demands
    u = np.array([x if switch is None or t < switch else 0.0 for t, x in enumerate(d.tolist())])
    return switch, u, d - u, premium


def reference_run_layered(
    trace: ps.Trace,
    params: ps.BillingParams,
    algorithm: str,
    lam: float | None = None,
    sigma_hats=None,
    seed: int | None = None,
) -> ps.Schedule:
    """A layered run with its layers built fresh on every call, kept as the
    check on :func:`peaksched.run_layered`, which reads them from the
    memoised :func:`peaksched.decompose`: layer ``i`` demands one unit where
    ``d >= i``, layers above the capacity buy from the grid, and the others
    run ``algorithm`` with ``sigma_hats`` (a scalar or a list, one per
    layer) and with seed ``seed`` on layer 1 and the first word of
    ``SeedSequence([seed, i])`` above it."""
    d = trace.demands
    u = np.zeros(len(d))
    v = np.zeros(len(d))
    for i in range(1, int(d.max()) + 1):
        demands = (d >= i).astype(float)
        if i > params.capacity:
            v += demands
            continue
        layer = ps.Trace(prices=np.array(trace.prices), demands=demands)
        layer_seed = seed
        if seed is not None and i > 1:
            layer_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        hat = sigma_hats[i - 1] if isinstance(sigma_hats, list) else sigma_hats
        record = ps.run_algorithm(layer, params, algorithm, lam=lam, sigma_hat=hat, seed=layer_seed)
        u += record.schedule.u
        v += record.schedule.v
    return ps.Schedule(u=u, v=v)


def reference_project_ramp(schedule: ps.Schedule, trace: ps.Trace, params: ps.BillingParams) -> ps.Schedule:
    """The ramp projection as the scalar loop it was first written as, kept
    as the check on :func:`peaksched.layering.project_ramp_block`: each
    output is clamped into ``[max(0, prev - R), min(C, d(t), prev + R)]``
    from a pre-cycle level of 0, the floor winning where that interval is
    empty, and grid purchases are raised to cover what the output leaves."""
    ramp = params.ramp
    cap = params.capacity
    d = trace.demands
    out = []
    prev = 0.0
    for want, demand in zip(schedule.u.tolist(), d.tolist()):
        lo = max(0.0, prev - ramp)
        hi = min(cap, demand, prev + ramp)
        prev = max(lo, min(want, hi))
        out.append(prev)
    u = np.array(out, dtype=float)
    v = np.maximum(schedule.v, d - u)
    return ps.Schedule(u=u, v=v)


def reference_sample(spec: ps.DistributionSpec, uniform: float) -> float:
    """Inverse-CDF sampling with every mass recomputed from its formula on
    each call, kept as the check on :func:`peaksched.sample`, which reads
    them from the spec: the grid-from-start atom first, then the density
    ``coeff * e^s`` on ``[lo, hi]``, then the never-switch atom.  Returns
    the threshold multiplier."""
    start = sum(mass for where, mass in spec.atoms if where == -1.0)
    continuous = spec.coeff * (math.exp(spec.hi) - math.exp(spec.lo))
    total = continuous + sum(mass for _, mass in spec.atoms)
    if abs(total - 1.0) > MASS_TOL:
        raise ps.ValidationError(f"distribution mass is {total}")
    if uniform < start:
        return -1.0
    if uniform < start + continuous:
        s = math.log(math.exp(spec.lo) + (uniform - start) / spec.coeff)
        return min(max(s, spec.lo), spec.hi)
    return math.inf


def _reference_read_series(path: str | Path, kind: str) -> dict[datetime, float]:
    """One file's ``{timestamp: value}`` rows.  Its stamps must all carry a
    UTC offset or all lack one: Python cannot order the two kinds."""
    path = Path(path)
    series: dict[datetime, float] = {}
    naive = None  # the kind of the first data row's stamp
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if len(row) < 2:
                    raise ps.StructuralError(f"{path}: header must be 'timestamp,value'")
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ps.StructuralError(f"{path} line {lineno}: expected 'timestamp,value', got {row!r}")
            try:
                stamp = datetime.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ps.StructuralError(f"{path} line {lineno}: bad timestamp {row[0]!r}: {exc}") from exc
            if naive is None:
                naive, first = stamp.tzinfo is None, lineno
            elif (stamp.tzinfo is None) is not naive:
                raise ps.StructuralError(
                    f"{path} line {lineno}: timestamp {row[0]!r} {'has a' if naive else 'has no'} UTC offset, "
                    f"unlike line {first}'s"
                )
            try:
                value = float(row[1])
            except ValueError as exc:
                raise ps.StructuralError(f"{path} line {lineno}: bad value {row[1]!r}") from exc
            if not math.isfinite(value):
                raise ps.ValidationError(f"{path} line {lineno}: {kind} {value} is not finite")
            if kind == "price" and value <= 0:
                raise ps.ValidationError(f"{path} line {lineno}: price {value} must be > 0")
            if kind == "demand" and value < 0:
                raise ps.ValidationError(f"{path} line {lineno}: demand {value} must be >= 0")
            if stamp in series:
                raise ps.ValidationError(f"{path} line {lineno}: duplicate timestamp {row[0]}")
            series[stamp] = value
    if not series:
        raise ps.StructuralError(f"{path}: no data rows")
    return series


def reference_parse_trace_csv(price_file: str | Path, demand_file: str | Path) -> LoadedTrace:
    """The CSV reader as the per-row loop it was first written as, kept as
    the check on :func:`peaksched.harness.parse_trace_csv`: ``csv.reader``
    tokenises each file, each row is parsed, checked and stored in a
    ``{timestamp: value}`` dict, and the two dicts are aligned on the sorted
    intersection of their keys.  It accepts a file without a header, whose
    first data row it drops, and quoted fields of any shape."""
    prices = _reference_read_series(price_file, "price")
    demands = _reference_read_series(demand_file, "demand")
    common = sorted(prices.keys() & demands.keys())
    if not common:
        raise ps.StructuralError(
            f"no common timestamps between {price_file} and {demand_file}"
        )
    trace = ps.Trace(
        prices=np.array([prices[t] for t in common]),
        demands=np.array([demands[t] for t in common]),
    )
    return LoadedTrace(
        trace=trace,
        dropped_price_rows=len(prices) - len(common),
        dropped_demand_rows=len(demands) - len(common),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
