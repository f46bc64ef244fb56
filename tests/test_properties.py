"""Property-based checks of the invariants the paper relies on: the offline
oracles are never beaten, layered and projected schedules are feasible,
projection is idempotent, and the threshold switch is the first crossing."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import peaksched as ps
from conftest import brute_force_optimum

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
