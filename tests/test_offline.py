"""Offline oracle correctness, including brute-force cross-checks."""
import math
import tracemalloc

import numpy as np
import pytest

import peaksched as ps
import peaksched.offline as offline
from peaksched.harness import synth_trace
from conftest import brute_force_optimum, make_binary_instance, make_integer_instance, reference_ramp_dp


def test_basic_all_grid_above_threshold():
    trace = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
    params = ps.BillingParams(p_g=2, p_m=2, capacity=1)
    result = ps.optimal_basic(trace, params)
    assert result.total == 5  # volume 3 plus one peak charge
    assert np.array_equal(result.schedule.v, trace.demands)


def test_basic_all_local_below_threshold():
    trace = ps.Trace(prices=[1, 1], demands=[1, 1])
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    result = ps.optimal_basic(trace, params)
    assert result.total == 4
    assert result.peak_level == 0


def test_basic_zero_demand():
    trace = ps.Trace(prices=[1, 1], demands=[0, 0])
    result = ps.optimal_basic(trace, ps.BillingParams(p_g=2, p_m=4, capacity=1))
    assert result.total == 0


def test_basic_tie_goes_local():
    # premium mass exactly 1: stay local
    trace = ps.Trace(prices=[1, 1], demands=[1, 1])
    params = ps.BillingParams(p_g=2, p_m=2, capacity=1)
    assert ps.sigma(trace, params) == 1.0
    result = ps.optimal_basic(trace, params)
    assert result.schedule.v.max() == 0


def test_basic_rejects_nonbinary_demand():
    trace = ps.Trace(prices=[1, 1], demands=[2, 0])
    with pytest.raises(ps.DomainError):
        ps.optimal_basic(trace, ps.BillingParams(p_g=2, p_m=2, capacity=2))


def test_general_cap_scan_example():
    # cap costs by hand: m=0 -> 12, m=1 -> 12, m=2 -> 13, m=3 -> 15
    trace = ps.Trace(prices=[1, 1, 1], demands=[2, 1, 3])
    params = ps.BillingParams(p_g=2, p_m=3, capacity=3)
    result = ps.optimal_general(trace, params)
    assert result.total == 12
    assert result.peak_level == 0  # tie with m=1 resolves to the smaller cap


def test_general_matches_basic_on_binary(rng):
    # exhaustive over every 0/1 demand pattern up to six slots, with
    # randomized prices and peak prices per pattern
    from itertools import product

    for T in range(1, 7):
        for pattern in product((0.0, 1.0), repeat=T):
            prices = rng.uniform(0.2, 1.0, T)
            trace = ps.Trace(prices=prices, demands=np.array(pattern))
            p_m = float(np.exp(rng.uniform(np.log(0.3), np.log(5.0))))
            params = ps.BillingParams(p_g=1.0, p_m=p_m, capacity=1)
            a = ps.optimal_basic(trace, params).total
            b = ps.optimal_general(trace, params).total
            assert a == pytest.approx(b, abs=1e-9)


def test_general_zero_demand():
    trace = ps.Trace(prices=[1, 1], demands=[0, 0])
    result = ps.optimal_general(trace, ps.BillingParams(p_g=2, p_m=3, capacity=2))
    assert result.total == 0
    assert result.peak_level == 0


def test_general_beats_every_feasible_schedule(rng):
    for _ in range(30):
        trace, params = make_integer_instance(rng, max_demand=3, horizon=int(rng.integers(1, 7)), capacity=3)
        best = brute_force_optimum(trace, params, ramp=False)
        assert ps.optimal_general(trace, params).total == pytest.approx(best, abs=1e-9)


def test_ramp_equals_general_when_ramp_slack(rng):
    for _ in range(20):
        trace, params = make_integer_instance(rng, max_demand=3, horizon=8)
        loose = ps.BillingParams(
            p_g=params.p_g, p_m=params.p_m, capacity=params.capacity, ramp=params.capacity
        )
        tight_free = ps.optimal_general(trace, params).total
        assert ps.optimal_with_ramp(trace, loose).total == pytest.approx(tight_free, abs=1e-9)


def test_ramp_valley_spike_instance():
    # Enumerating all ramp-feasible integer outputs in {0..3}^3 gives 19,
    # via the over-generating path u = [1, 2, 1].
    trace = ps.Trace(prices=[1, 1, 1], demands=[0, 3, 0])
    params = ps.BillingParams(p_g=2, p_m=10, capacity=3, ramp=1)
    best = brute_force_optimum(trace, params, ramp=True)
    result = ps.optimal_with_ramp(trace, params)
    assert best == 19
    assert result.total == pytest.approx(best, abs=1e-9)
    assert np.array_equal(result.schedule.u, [1, 2, 1])


def test_ramp_cap_tie_goes_to_the_smaller_cap():
    # the cap scan example of test_general_cap_scan_example under a slack
    # ramp limit: caps 0 and 1 both cost 12
    trace = ps.Trace(prices=[1, 1, 1], demands=[2, 1, 3])
    result = ps.optimal_with_ramp(trace, ps.BillingParams(p_g=2, p_m=3, capacity=3, ramp=3))
    assert result.total == 12
    assert result.peak_level == 0


def test_ramp_zero_demand():
    trace = ps.Trace(prices=[1, 1], demands=[0, 0])
    result = ps.optimal_with_ramp(trace, ps.BillingParams(p_g=2, p_m=3, capacity=2, ramp=1))
    assert result.total == 0


def test_ramp_never_below_unconstrained(rng):
    for _ in range(30):
        trace, params = make_integer_instance(rng, max_demand=3, horizon=8)
        ramped = ps.BillingParams(
            p_g=params.p_g, p_m=params.p_m, capacity=params.capacity, ramp=1
        )
        assert (
            ps.optimal_with_ramp(trace, ramped).total
            >= ps.optimal_general(trace, params).total - 1e-9
        )


def test_ramp_requires_ramp_and_integers():
    trace = ps.Trace(prices=[1, 1], demands=[1, 1])
    with pytest.raises(ps.DomainError):
        ps.optimal_with_ramp(trace, ps.BillingParams(p_g=2, p_m=3, capacity=2))
    with pytest.raises(ps.DomainError):
        ps.optimal_with_ramp(
            ps.Trace(prices=[1, 1], demands=[0.5, 1]),
            ps.BillingParams(p_g=2, p_m=3, capacity=2, ramp=1),
        )


@pytest.mark.parametrize("field, capacity, ramp", [("ramp", 2, math.inf), ("capacity", math.inf, 1), ("ramp", 2, 1.5)])
def test_ramp_oracle_names_a_non_integer_field(field, capacity, ramp):
    params = ps.BillingParams(p_g=2, p_m=3, capacity=capacity, ramp=ramp)
    with pytest.raises(ps.DomainError, match=f"integer {field}, got"):
        ps.optimal_with_ramp(ps.Trace(prices=[1, 1], demands=[1, 1]), params)


def test_general_rejects_ramp_params():
    trace = ps.Trace(prices=[1, 1], demands=[1, 1])
    with pytest.raises(ps.DomainError):
        ps.optimal_general(trace, ps.BillingParams(p_g=2, p_m=3, capacity=2, ramp=1))


def test_binary_above_threshold_cost_identity(rng):
    """All-grid optimum costs the volume plus exactly one peak charge."""
    for _ in range(40):
        trace, params = make_binary_instance(rng, sigma_target=float(rng.uniform(1.2, 4.0)))
        if ps.sigma(trace, params) <= 1:
            continue
        expected = float(trace.prices @ trace.demands) + params.p_m
        assert ps.optimal_basic(trace, params).total == pytest.approx(expected, abs=1e-9)


def _ramp_instance(rng, horizon, capacity, ramp, max_demand, sigma_target=None):
    trace, params = make_integer_instance(
        rng, max_demand=max_demand, horizon=horizon, capacity=float(capacity), sigma_target=sigma_target
    )
    return trace, ps.BillingParams(p_g=params.p_g, p_m=params.p_m, capacity=params.capacity, ramp=float(ramp))


def _assert_same_oracle(result, reference):
    assert result.total == reference.total
    assert result.peak_level == reference.peak_level
    assert np.array_equal(result.schedule.u, reference.schedule.u)
    assert np.array_equal(result.schedule.v, reference.schedule.v)


@pytest.mark.parametrize("capacity", range(1, 9))
def test_ramp_dp_equals_reference_loop(capacity):
    # instances past brute force: up to 60 slots, every ramp limit 1..C, and
    # demand above the capacity so the lowest caps are forced up
    rng = np.random.default_rng(1000 + capacity)
    for ramp in range(1, capacity + 1):
        horizon = int(rng.integers(20, 61))
        max_demand = int(rng.integers(capacity, 2 * capacity + 1))
        trace, params = _ramp_instance(rng, horizon, capacity, ramp, max_demand)
        _assert_same_oracle(ps.optimal_with_ramp(trace, params), reference_ramp_dp(trace, params))


def test_ramp_oracle_with_a_huge_capacity_and_ramp(rng):
    # R t would pass 2^63 at C = R = 1e16 and 1000 slots; a level table would
    # not fit in memory at all
    trace, params = make_integer_instance(rng, max_demand=9, horizon=1000, capacity=1e16)
    ramped = ps.BillingParams(p_g=params.p_g, p_m=params.p_m, capacity=1e16, ramp=1e16)
    result = ps.optimal_with_ramp(trace, ramped)
    assert result.total == pytest.approx(ps.optimal_general(trace, params).total, rel=1e-12)


def test_ramp_dp_equals_reference_with_an_over_wide_ramp(rng):
    # a ramp limit above the capacity allows every step, as a limit of C does
    trace, params = _ramp_instance(rng, 40, 5, 9, 8)
    _assert_same_oracle(ps.optimal_with_ramp(trace, params), reference_ramp_dp(trace, params))


@pytest.mark.parametrize("seed", range(3))
def test_ramp_dp_ties_go_to_the_lowest_predecessor(seed):
    # with p(t) = p_g every output up to the demand costs the same, so many
    # predecessors tie exactly
    rng = np.random.default_rng(seed)
    demands = rng.integers(0, 7, 40).astype(float)
    trace = ps.Trace(prices=np.ones(40), demands=demands)
    for ramp in (1, 2, 4):
        params = ps.BillingParams(p_g=1.0, p_m=float(rng.integers(1, 6)), capacity=4, ramp=ramp)
        _assert_same_oracle(ps.optimal_with_ramp(trace, params), reference_ramp_dp(trace, params))


def test_ramp_prune_stops_before_the_last_cap(monkeypatch, rng):
    # the bound p_m m + sum p d rules out the highest caps before they are costed
    trace, params = _ramp_instance(rng, 60, 8, 3, 14, sigma_target=0.3)
    reference = reference_ramp_dp(trace, params)
    costed = []
    real_cost_of = offline.cost_of

    def counting_cost_of(schedule, *args):
        costed.append(schedule)
        return real_cost_of(schedule, *args)

    monkeypatch.setattr(offline, "cost_of", counting_cost_of)
    _assert_same_oracle(ps.optimal_with_ramp(trace, params), reference)
    assert len(costed) < params.capacity + 1  # the caps from the floor to max d


@pytest.mark.parametrize("p_g", [0.1, 0.7, 3.3])
def test_ramp_ties_at_an_inexact_grid_price_keep_the_lowest_path(p_g):
    # at p(t) = p_g = 0.1 a slot's rounded cost can dip as the output rises
    # (0.1*5 + 0.1*2 < 0.1*6 + 0.1*1), and the reference program may climb on
    # that rounding; the envelope keeps the lowest optimal path, and the
    # totals agree to rounding
    rng = np.random.default_rng(17)
    for _ in range(40):
        T = int(rng.integers(10, 30))
        prices = np.where(rng.random(T) < 0.5, p_g, rng.uniform(0.05, 1.0, T) * p_g)
        trace = ps.Trace(prices=prices, demands=rng.integers(0, 9, T).astype(float))
        params = ps.BillingParams(p_g=p_g, p_m=float(rng.uniform(0.1, 5.0)), capacity=5, ramp=int(rng.integers(1, 4)))
        result, reference = ps.optimal_with_ramp(trace, params), reference_ramp_dp(trace, params)
        assert result.peak_level == reference.peak_level
        assert result.total == pytest.approx(reference.total, rel=1e-14)
        assert np.all(result.schedule.u <= reference.schedule.u)


@pytest.mark.parametrize("capacity", [40, 400])
def test_ramp_oracle_memory_is_linear_in_the_horizon(capacity):
    # 1000 slots and a cheap peak charge that keeps every cap in play; the
    # envelope holds a few trace-length vectors whatever the capacity, where
    # a table over output levels holds (C + 1) x T entries (measured: 11.3 x
    # 8T bytes at both capacities; the level table took 325 x 8T at C=40 and
    # 1100 x 8T at C=400)
    rng = np.random.default_rng(5)
    T = 1000
    demands = rng.integers(0, 61, T).astype(float)
    demands[0] = 60.0
    trace = ps.Trace(prices=rng.uniform(0.5, 1.0, T), demands=demands)
    params = ps.BillingParams(p_g=1.0, p_m=0.01, capacity=capacity, ramp=20)
    tracemalloc.start()
    try:
        ps.optimal_with_ramp(trace, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * T


def test_ramp_oracle_on_a_year_long_trace():
    # 365 hourly days, max demand 77, capacity 47, ramp 24: the scale at which a
    # dynamic program over output levels took seconds
    base = synth_trace(days=365, seed=0, peak_level=60.0, base_level=10.0, noise=5.0)
    demands = np.minimum(base.demands, 77.0)
    demands[int(np.argmax(demands))] = 77.0
    trace = ps.Trace(prices=base.prices, demands=demands)
    free = ps.BillingParams(p_g=trace.max_price, p_m=100 * trace.max_price, capacity=47)
    params = ps.BillingParams(p_g=free.p_g, p_m=free.p_m, capacity=47, ramp=24)
    result = ps.optimal_with_ramp(trace, params)
    u = result.schedule.u
    assert len(u) == 8760
    assert u[0] <= 24
    assert np.abs(np.diff(u)).max() <= 24
    assert u.max() <= 47
    ps.validate_schedule(result.schedule, trace, params)
    assert result.total >= ps.optimal_general(trace, free).total
