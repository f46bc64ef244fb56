"""Property-based checks of the invariants the paper relies on: the offline
oracles are never beaten, layered and projected schedules are feasible,
projection is idempotent, the threshold switch is the first crossing, and
the batched engines equal their scalar references bit for bit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import peaksched as ps
from conftest import brute_force_optimum, reference_expected_ratio, reference_ratio

# small, derandomized runs keep the suite fast and reproducible
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ALGORITHMS = [a.value for a in ps.Algorithm]


@st.composite
def integer_instances(draw, max_slots=10, max_demand=4):
    """A trace with integer demand, prices in [0.05, 1], ``p_g = 1`` and an
    integer capacity."""
    T = draw(st.integers(1, max_slots))
    demands = draw(st.lists(st.integers(0, max_demand), min_size=T, max_size=T))
    prices = draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T))
    p_m = draw(st.floats(0.1, 50.0))
    capacity = draw(st.integers(1, max_demand))
    trace = ps.Trace(prices=prices, demands=demands)
    return trace, ps.BillingParams(p_g=1.0, p_m=p_m, capacity=capacity)


runs = st.tuples(
    st.sampled_from(ALGORITHMS),
    st.floats(0.05, 1.0),
    st.floats(0.0, 3.0),
    st.integers(0, 2**32 - 1),
)


def _layered(trace, params, run):
    algorithm, lam, hat, seed = run
    return ps.run_layered(trace, params, algorithm, lam=lam, sigma_hats=hat, seed=seed)


def _with_ramp(params, ramp):
    return ps.BillingParams(p_g=params.p_g, p_m=params.p_m, capacity=params.capacity, ramp=ramp)


@PROPERTY
@given(integer_instances(), runs)
def test_oracle_never_beaten_by_a_layered_schedule(instance, run):
    trace, params = instance
    schedule = _layered(trace, params, run)
    online = ps.cost_of(schedule, trace, params).total
    assert ps.optimal_general(trace, params).total <= online + 1e-9


@PROPERTY
@given(integer_instances(max_slots=5, max_demand=3), st.integers(0, 3))
def test_ramp_oracle_equals_brute_force(instance, ramp):
    trace, params = instance
    ramped = _with_ramp(params, float(ramp))
    result = ps.optimal_with_ramp(trace, ramped)
    ps.validate_schedule(result.schedule, trace, ramped)
    assert result.total == pytest.approx(brute_force_optimum(trace, ramped, ramp=True), abs=1e-9)


@PROPERTY
@given(integer_instances(), runs, st.integers(0, 4))
def test_layered_and_projected_schedules_are_feasible(instance, run, ramp):
    trace, params = instance
    schedule = _layered(trace, params, run)
    ps.validate_schedule(schedule, trace, params)
    ramped = _with_ramp(params, float(ramp))
    ps.validate_schedule(ps.project_ramp(schedule, trace, ramped), trace, ramped)


@PROPERTY
@given(integer_instances(), st.data(), st.integers(0, 4))
def test_projection_is_idempotent(instance, data, ramp):
    trace, params = instance
    T = len(trace)
    u = np.array(data.draw(st.lists(st.integers(0, 4), min_size=T, max_size=T)), dtype=float)
    u = np.minimum(u, params.capacity)
    v = np.maximum(0.0, trace.demands - u)
    ramped = _with_ramp(params, float(ramp))
    once = ps.project_ramp(ps.Schedule(u=u, v=v), trace, ramped)
    twice = ps.project_ramp(once, trace, ramped)
    assert np.array_equal(once.u, twice.u) and np.array_equal(once.v, twice.v)


@PROPERTY
@given(integer_instances(max_demand=1), st.floats(0.0, 5.0))
def test_switch_slot_is_the_first_crossing(instance, s):
    trace, params = instance
    record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(s))
    premium = 0.0
    expected = None
    for t, (p, d) in enumerate(zip(trace.prices, trace.demands)):
        premium += (params.p_g - p) * d
        if premium >= s * params.p_m:
            expected = t
            break
    assert record.switch_slot == expected


@PROPERTY
@given(integer_instances(max_demand=1), st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8))
def test_batched_switch_slots_equal_per_threshold_runs(instance, thresholds):
    trace, params = instance
    thresholds = [-1.0, *thresholds, math.inf]
    slots = ps.switch_slots(trace, params, thresholds)
    for s, slot in zip(thresholds, slots.tolist()):
        policy = ps.SwitchPolicy.grid_from_start() if s == -1.0 else ps.SwitchPolicy.at(s)
        record = ps.run_threshold(trace, params, policy)
        assert slot == (len(trace) if record.switch_slot is None else record.switch_slot)


# small trust values stretch the naive support to [0, 1/lambda], whose
# panels miss their tolerance share and take the adaptive fallback; sigma
# also lands on 0, on the kink at 1 and on the support ends.  Masses below
# 1e-5 leave a segment a tolerance share under rounding, where both sides
# raise at the panel cap (tests/test_analysis.py checks that).
trusts = st.one_of(st.floats(0.01, 0.1), st.floats(0.1, 1.0))


@st.composite
def specs(draw):
    """A red, lambda-red or naive lambda-red distribution and its beta."""
    beta = draw(st.floats(0.01, 1.0))
    kind = draw(st.sampled_from(["red", "lambda-red", "naive"]))
    hat = draw(st.sampled_from([0.5, 2.0]))
    if kind == "red":
        return ps.red_distribution(beta), beta
    if kind == "lambda-red":
        return ps.lambda_red_distribution(hat, draw(trusts), beta), beta
    return ps.naive_red_distribution(hat, draw(trusts), beta), beta


@PROPERTY
@given(st.lists(specs(), min_size=1, max_size=4), st.lists(st.floats(1e-5, 20.0), max_size=4))
def test_expected_ratios_equal_the_scalar_quadrature_bit_for_bit(rows, drawn):
    sigmas = [0.0, 1.0, *drawn]
    for spec, _ in rows:
        sigmas += [spec.lo, spec.hi]
    values = ps.expected_ratios([spec for spec, _ in rows], [beta for _, beta in rows], sigmas)
    assert values.shape == (len(rows), len(sigmas))
    for (spec, beta), row in zip(rows, values.tolist()):
        assert row == [reference_expected_ratio(spec, sg, beta) for sg in sigmas]


@PROPERTY
@given(
    st.lists(st.one_of(st.just(-1.0), st.just(math.inf), st.floats(0.0, 12.0)), min_size=1, max_size=6),
    st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 12.0)), min_size=1, max_size=6),
    st.floats(0.01, 1.0),
)
def test_cost_ratio_on_arrays_equals_the_scalar_case_analysis(thresholds, sigmas, beta):
    grid = ps.cost_ratio(np.array(thresholds)[:, None], np.array(sigmas), beta)
    assert grid.tolist() == [[reference_ratio(s, sg, beta) for sg in sigmas] for s in thresholds]
    assert all(type(ps.cost_ratio(s, sigmas[0], beta)) is float for s in thresholds)
