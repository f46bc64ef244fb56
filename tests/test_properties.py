"""Property-based checks of the invariants the paper relies on: the offline
oracles are never beaten, layered and projected schedules are feasible,
projection is idempotent, the threshold switch is the first crossing, and
the batched engines equal their scalar references bit for bit, and the bulk
CSV reader answers every file as the per-row reader did."""
import copy
import dataclasses
import math
import pickle
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import peaksched as ps
from peaksched import analysis, online, quadrature
from peaksched.harness import experiment, parse_trace_csv, verify
from peaksched.harness.experiment import ExperimentConfig
from peaksched.layering import project_ramp_block
from peaksched.quadrature import integrate
from conftest import (
    brute_force_optimum,
    reference_cost_of,
    reference_expected_ratio,
    reference_expected_ratios,
    reference_integrate,
    reference_optimal_general,
    reference_optimal_with_ramp,
    reference_parse_trace_csv,
    reference_project_ramp,
    reference_ramp_dp,
    reference_ratio,
    reference_run_layered,
    reference_run_threshold,
    reference_seeded_uniform,
)

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


@st.composite
def ramp_instances(draw, max_slots=30, max_capacity=6):
    """A ramp-limited instance past brute force: integer demand up to twice
    the capacity, a forced subset of slots priced exactly at ``p_g = 1``
    (where outputs up to the demand cost the same), and ramp limits from 0
    to ``C + 2``."""
    T = draw(st.integers(1, max_slots))
    capacity = draw(st.integers(1, max_capacity))
    demands = draw(st.lists(st.integers(0, 2 * capacity), min_size=T, max_size=T))
    prices = draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T))
    for t in draw(st.sets(st.integers(0, T - 1), min_size=1)):
        prices[t] = 1.0
    params = ps.BillingParams(
        p_g=1.0, p_m=draw(st.floats(0.1, 50.0)), capacity=capacity, ramp=draw(st.integers(0, capacity + 2))
    )
    return ps.Trace(prices=prices, demands=demands), params


@PROPERTY
@given(ramp_instances())
def test_ramp_oracle_equals_the_reference_program_bit_for_bit(instance):
    trace, params = instance
    result, reference = ps.optimal_with_ramp(trace, params), reference_ramp_dp(trace, params)
    assert result.total == reference.total
    assert result.peak_level == reference.peak_level
    assert np.array_equal(result.schedule.u, reference.schedule.u)
    assert np.array_equal(result.schedule.v, reference.schedule.v)


@st.composite
def cap_scan_instances(draw, max_slots=30, max_capacity=6):
    """An instance for either capacitated oracle: integer demand up to twice
    an integer capacity, with a ramp limit from 0 to ``C + 2`` (where the
    lowest caps can have no ramp-feasible path) or none, or fractional
    demand and capacity without one.  Some prices are tied with ``p_g = 1``,
    and peak prices from 0.01 to 100 let the prune stop some scans at the
    second cap and others not at all."""
    T = draw(st.integers(1, max_slots))
    if draw(st.booleans()):
        capacity = draw(st.floats(1.0, max_capacity))
        demands = draw(st.lists(st.floats(0.0, 2 * capacity), min_size=T, max_size=T))
        ramp = None
    else:
        capacity = draw(st.integers(1, max_capacity))
        demands = draw(st.lists(st.integers(0, 2 * capacity), min_size=T, max_size=T))
        ramp = draw(st.none() | st.integers(0, capacity + 2))
    prices = draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T))
    for t in draw(st.sets(st.integers(0, T - 1))):
        prices[t] = 1.0
    params = ps.BillingParams(p_g=1.0, p_m=draw(st.floats(0.01, 100.0)), capacity=capacity, ramp=ramp)
    return ps.Trace(prices=prices, demands=demands), params


@settings(PROPERTY, max_examples=200)
@given(cap_scan_instances())
# the floor cap 2 has no ramp-feasible path: slot 0 needs 4 - 2 > R
@example((ps.Trace(prices=[0.5, 1.0, 0.5], demands=[4, 1, 3]), ps.BillingParams(p_g=1.0, p_m=0.2, capacity=2, ramp=1)))
# caps 0 and 1 tie at a total of 12, with and without a slack ramp
@example((ps.Trace(prices=[1, 1, 1], demands=[2, 1, 3]), ps.BillingParams(p_g=2, p_m=3, capacity=3)))
@example((ps.Trace(prices=[1, 1, 1], demands=[2, 1, 3]), ps.BillingParams(p_g=2, p_m=3, capacity=3, ramp=3)))
def test_each_capacitated_oracle_equals_its_unpruned_cap_loop_bit_for_bit(instance):
    trace, params = instance
    if params.ramp is None:
        result, reference = ps.optimal_general(trace, params), reference_optimal_general(trace, params)
    else:
        result, reference = ps.optimal_with_ramp(trace, params), reference_optimal_with_ramp(trace, params)
    assert result.total.hex() == reference.total.hex()
    assert result.peak_level.hex() == reference.peak_level.hex()
    assert result.schedule.u.tobytes() == reference.schedule.u.tobytes()
    assert result.schedule.v.tobytes() == reference.schedule.v.tobytes()


@PROPERTY
@given(integer_instances(), runs, st.integers(0, 4))
def test_layered_and_projected_schedules_are_feasible(instance, run, ramp):
    trace, params = instance
    schedule = _layered(trace, params, run)
    ps.validate_schedule(schedule, trace, params)
    ramped = _with_ramp(params, float(ramp))
    ps.validate_schedule(ps.project_ramp(schedule, trace, ramped), trace, ramped)


@PROPERTY
@given(integer_instances(max_demand=5), runs, st.integers(1, 7), st.booleans())
def test_layered_runs_through_the_memo_equal_fresh_layers_bit_for_bit(instance, run, capacity, per_layer):
    trace, params = instance
    params = ps.BillingParams(p_g=params.p_g, p_m=params.p_m, capacity=capacity)
    algorithm, lam, hat, seed = run
    # per-layer hats build the memoised stack before the runs, as an experiment's predictor does
    hats = ps.true_layer_sigma_hats(trace, params) if per_layer else hat
    expected = reference_run_layered(trace, params, algorithm, lam=lam, sigma_hats=hats, seed=seed)
    for _ in range(3):  # the second run reads the stack the first one built, the third the stored prefixes
        schedule = ps.run_layered(trace, params, algorithm, lam=lam, sigma_hats=hats, seed=seed)
        assert schedule.u.tobytes() == expected.u.tobytes()
        assert schedule.v.tobytes() == expected.v.tobytes()


@st.composite
def layer_hat_cases(draw):
    """An integer-demand trace of up to 300 slots, some of its prices tied
    with ``p_g``, and a prediction of its length with noisy prices on either
    side of ``p_g``, fractional demands, and a depth of 0 to 8 layers."""
    T = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_g = draw(st.sampled_from([1.0, 2.5, 37.3]))
    demands = rng.integers(0, draw(st.integers(0, 6)) + 1, T).astype(float)
    prices = np.where(rng.random(T) < 0.2, p_g, rng.uniform(0.05, 1.0, T) * p_g)
    params = ps.BillingParams(p_g=p_g, p_m=draw(st.floats(0.01, 100.0)), capacity=1)
    prediction = ps.Prediction(
        prices=prices + rng.normal(0.0, p_g / 2, T), demands=np.maximum(0.0, demands + rng.normal(0.0, 1.0, T))
    )
    return ps.Trace(prices=prices, demands=demands), params, prediction, draw(st.integers(0, 8))


@PROPERTY
@given(layer_hat_cases())
def test_layer_masses_equal_each_layers_sigma_and_the_mask_formula_bit_for_bit(case):
    # the hats decide through sigma_hat > 1, so a last-bit change could flip a tie at 1
    trace, params, prediction, depth = case
    true_reference = [ps.sigma(layer, params) for layer in ps.decompose(trace).layers]
    premium = params.p_g - prediction.prices
    predicted_reference = [float(premium @ (prediction.demands >= i)) / params.p_m for i in range(1, depth + 1)]
    assert [hat.hex() for hat in ps.true_layer_sigma_hats(trace, params)] == [s.hex() for s in true_reference]
    predicted = ps.predicted_layer_sigma_hats(prediction, params, depth)
    assert [hat.hex() for hat in predicted] == [s.hex() for s in predicted_reference]


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


@st.composite
def projection_blocks(draw, max_rows=5, max_slots=12, max_demand=6):
    """A block of schedules to project on one trace: each row has its own
    output (whole or fractional, up to above the demand), grid purchase,
    capacity (down to below the peak demand) and ramp limit (0 included,
    so demand often falls faster than the ramp allows)."""
    rows = draw(st.integers(1, max_rows))
    T = draw(st.integers(1, max_slots))
    demands = np.array(draw(st.lists(st.integers(0, max_demand), min_size=T, max_size=T)), dtype=float)
    trace = ps.Trace(prices=np.ones(T), demands=demands)
    level = st.one_of(st.integers(0, max_demand + 1).map(float), st.floats(0.0, max_demand + 1.0))
    u = np.array(draw(st.lists(st.lists(level, min_size=T, max_size=T), min_size=rows, max_size=rows)))
    v = np.maximum(0.0, demands - u)
    capacities = draw(st.lists(st.integers(1, max_demand), min_size=rows, max_size=rows))
    ramps = draw(st.lists(st.integers(0, max_demand), min_size=rows, max_size=rows))
    return trace, u, v, capacities, ramps


@PROPERTY
@given(projection_blocks())
# one row, one slot
@example((ps.Trace(prices=[1.0], demands=[3.0]), np.array([[2.0]]), np.array([[1.0]]), [1], [0]))
# capacity below the demand, and demand falling faster than ramps of 0 and 1
@example((
    ps.Trace(prices=[1.0] * 4, demands=[5.0, 5.0, 0.0, 4.0]),
    np.array([[5.0, 5.0, 0.0, 4.0], [2.0, 3.0, 0.0, 1.5], [0.0, 0.0, 0.0, 0.0]]),
    np.array([[0.0] * 4, [3.0, 2.0, 0.0, 2.5], [5.0, 5.0, 0.0, 4.0]]),
    [3, 5, 2],
    [1, 2, 0],
))
# a demand of -0.0 (a CSV may read "-0"), whose zero output the scalar rule writes as +0.0
@example((ps.Trace(prices=[1.0] * 3, demands=[2.0, -0.0, 1.0]), np.array([[1.0, 1.0, 1.0]] * 2),
          np.array([[1.0, 0.0, 0.0]] * 2), [2, 1], [1, 0]))
def test_block_projection_equals_the_scalar_reference_row_by_row(block):
    trace, u, v, capacities, ramps = block
    projected = list(project_ramp_block(u, v, trace.demands, capacities, ramps))
    assert len(projected) == len(u)
    for row, ((out_u, out_v), cap, ramp) in enumerate(zip(projected, capacities, ramps)):
        params = ps.BillingParams(p_g=1.0, p_m=1.0, capacity=cap, ramp=ramp)
        expected = reference_project_ramp(ps.Schedule(u=u[row], v=v[row]), trace, params)
        assert out_u.tobytes() == expected.u.tobytes()
        assert out_v.tobytes() == expected.v.tobytes()
        single = ps.project_ramp(ps.Schedule(u=u[row], v=v[row]), trace, params)
        assert single.u.tobytes() == expected.u.tobytes() and single.v.tobytes() == expected.v.tobytes()


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


@st.composite
def switch_costing_cases(draw):
    """A 0/1 trace of 1 to 5000 slots, some prices tied with ``p_g``, and
    switch slots with repeats that always include 0 and ``T``."""
    T = draw(st.one_of(st.integers(1, 16), st.integers(17, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_g = draw(st.sampled_from([1.0, 2.5]))
    demands = (rng.random(T) < draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))).astype(float)
    prices = rng.uniform(0.05, 1.0, T) * p_g
    prices[rng.random(T) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = p_g
    params = ps.BillingParams(
        p_g=p_g,
        p_m=draw(st.floats(0.01, 100.0)),
        capacity=draw(st.sampled_from([1, 4])),
        ramp=draw(st.sampled_from([None, 1.0, 3.0])),
    )
    drawn = draw(st.lists(st.integers(0, T), max_size=10))
    return ps.Trace(prices=prices, demands=demands), params, [0, T, *drawn, *drawn[:3], 0]


@PROPERTY
@given(switch_costing_cases())
def test_switch_costs_equal_costing_each_switch_schedule_bit_for_bit(case):
    trace, params, slots = case
    totals = ps.switch_costs(trace, params, slots)
    expected = [ps.cost_of(ps.switch_schedule(trace, slot), trace, params).total for slot in slots]
    assert [total.hex() for total in totals.tolist()] == [total.hex() for total in expected]


@st.composite
def switch_schedule_cases(draw):
    """A 0/1 or a general non-negative trace of 1 to 80 slots whose zero
    demands are 0.0 or -0.0, with a capacity and an optional ramp."""
    T = draw(st.one_of(st.integers(1, 12), st.integers(13, 80)))
    palette = draw(st.sampled_from([[0.0, -0.0, 1.0], [0.0, -0.0, 0.25, 1.0, 2.0, 3.5], [-0.0], [0.0, -0.0]]))
    demands = draw(st.lists(st.sampled_from(palette), min_size=T, max_size=T))
    prices = draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T))
    params = ps.BillingParams(
        p_g=1.0,
        p_m=draw(st.floats(0.1, 50.0)),
        capacity=draw(st.sampled_from([1, 2, 4])),
        ramp=draw(st.sampled_from([None, None, 0.5, 1.0, 3.0])),
    )
    return ps.Trace(prices=prices, demands=demands), params


def _cost_outcome(schedule, trace, params):
    try:
        cost = ps.cost_of(schedule, trace, params)
    except ps.PeakSchedError as error:
        return type(error), str(error)
    return cost.volume.hex(), cost.peak.hex(), cost.local.hex()


@PROPERTY
@given(switch_schedule_cases())
@example((ps.Trace(prices=[1.0] * 3, demands=[-0.0, 0.0, -0.0]), ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1)))
def test_a_switch_schedule_equals_the_checked_schedule_of_its_arrays_bit_for_bit(case):
    # switch_schedule skips Schedule's range checks, and cost_of skips
    # validate_schedule on it; neither may change a bit or an error
    trace, params = case
    d = trace.demands
    for slot in [None, *range(len(trace) + 1)]:
        lean = ps.switch_schedule(trace, slot)
        u = d.copy()
        u[len(trace) if slot is None else slot:] = 0.0
        assert lean.u.tobytes() == u.tobytes() and lean.v.tobytes() == (d - u).tobytes()
        checked = ps.Schedule(u=lean.u, v=lean.v)
        assert (lean._max_u.hex(), lean._max_v.hex()) == (checked._max_u.hex(), checked._max_v.hex())
        assert _cost_outcome(lean, trace, params) == _cost_outcome(checked, trace, params)


@st.composite
def costing_cases(draw):
    """A trace of 1 to 40 slots whose zero demands are 0.0 or -0.0: all
    zero, 0/1, integer levels up to 4 or fractions up to 1, whose sums
    round by their order; with a capacity, an optional ramp, T signed
    zeros and a layered run's arguments."""
    T = draw(st.integers(1, 40))
    if draw(st.booleans()):
        palette = [-0.0, *draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))]
    else:
        palette = draw(st.sampled_from([[0.0, -0.0], [-0.0], [0.0, -0.0, 1.0], [-0.0, 1.0], [0.0, -0.0, 1.0, 2.0, 4.0]]))
    demands = draw(st.lists(st.sampled_from(palette), min_size=T, max_size=T))
    prices = draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T))
    params = ps.BillingParams(
        p_g=1.0,
        p_m=draw(st.floats(0.1, 50.0)),
        capacity=draw(st.sampled_from([1, 2, 4])),
        ramp=draw(st.sampled_from([None, None, 1.0])),
    )
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=T, max_size=T))
    run = (draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 3.0)), draw(st.integers(0, 2**32 - 1)))
    return ps.Trace(prices=prices, demands=demands), params, zeros, run


def _costed(costing, schedule, trace, params):
    """The hex of volume, peak, local and total, or the error's type and message."""
    try:
        volume, peak, local = costing(schedule, trace, params)
    except ps.PeakSchedError as error:
        return type(error), str(error)
    return volume.hex(), peak.hex(), local.hex(), (volume + peak + local).hex()


def _cost_of(schedule, trace, params):
    cost = ps.cost_of(schedule, trace, params)
    assert cost.total == cost.volume + cost.peak + cost.local
    return cost.volume, cost.peak, cost.local


@PROPERTY
@given(costing_cases())
@example((ps.Trace(prices=[0.5], demands=[-0.0]), ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1), [-0.0], (0.5, 2.0, 7)))
def test_cost_of_equals_the_plain_reference_bit_for_bit(case):
    # cost_of adds +0.0 for a side whose largest entry is 0 and reads the
    # kept demand total for a u that is the trace's demand; every schedule
    # must cost, or fail, as the full dot, max and sum do
    trace, params, zeros, (lam, hat, seed) = case
    d, T = trace.demands, len(trace)
    switches = [ps.switch_schedule(trace, slot) for slot in [None, *range(T + 1)]]
    checked = [
        ps.Schedule(u=d, v=zeros),
        ps.Schedule(u=np.array(d), v=zeros),
        ps.Schedule(u=zeros, v=d),
        ps.Schedule(u=zeros, v=list(reversed(zeros))),
    ]
    # a schedule built from arrays copies them; only the engine's own shares the demand
    assert switches[0].u is d and checked[0].u is not d
    layered = []
    if trace.has_integer_demands():
        layered = [_layered(trace, params, (algorithm, lam, hat, seed)) for algorithm in ALGORITHMS]
    for schedule in switches + checked + layered:
        expected = _costed(reference_cost_of, schedule, trace, params)
        assert _costed(_cost_of, schedule, trace, params) == expected
    if trace.has_binary_demands():
        # the batched engine costs every switch slot as cost_of does
        expected = [_costed(reference_cost_of, schedule, trace, params) for schedule in switches[1:]]
        if any(outcome[0] is ps.ValidationError for outcome in expected):
            with pytest.raises(ps.ValidationError):
                ps.switch_costs(trace, params, range(T + 1))
        else:
            totals = ps.switch_costs(trace, params, range(T + 1)).tolist()
            assert [total.hex() for total in totals] == [outcome[3] for outcome in expected]


@st.composite
def layered_traces(draw):
    """A trace of 1 to 12 slots whose demand is all zero (0.0 or -0.0), 0/1,
    or one to three integer levels up to 6, each repeated over the slots,
    with a peak price."""
    T = draw(st.integers(1, 12))
    levels = draw(st.sampled_from([[0.0, -0.0], [0.0, 1.0], None]))
    if levels is None:
        levels = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    demands = draw(st.lists(st.sampled_from(levels), min_size=T, max_size=T))
    prices = draw(st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T))
    return ps.Trace(prices=prices, demands=demands), draw(st.floats(0.1, 50.0))


@PROPERTY
@given(layered_traces())
def test_each_layer_equals_the_checked_trace_of_its_demand(case):
    # decompose builds its layers without Trace's checks; each must be the
    # trace those checks build from the same arrays
    trace, _ = case
    stack = ps.decompose(trace)
    assert stack.depth == len(stack.layers) == int(trace.max_demand)
    for i, layer in enumerate(stack.layers, start=1):
        checked = ps.Trace(prices=trace.prices, demands=(trace.demands >= i).astype(float))
        assert layer.prices is trace.prices and checked.prices.tobytes() == trace.prices.tobytes()
        assert layer.demands.tobytes() == checked.demands.tobytes() and not layer.demands.flags.writeable
        for name in ("min_price", "max_price", "max_demand"):
            assert getattr(layer, name).hex() == getattr(checked, name).hex()
        assert (layer.has_integer_demands(), layer.has_binary_demands()) == (True, True)
        assert (checked.has_integer_demands(), checked.has_binary_demands()) == (True, True)
        assert pickle.dumps(layer) == pickle.dumps(checked)
        rebuilt = pickle.loads(pickle.dumps(layer))
        assert rebuilt.demands.tobytes() == checked.demands.tobytes()
        assert (rebuilt.max_demand, rebuilt.has_binary_demands()) == (1.0, True)


@PROPERTY
@given(layered_traces(), st.floats(0.05, 1.0), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_a_layered_schedule_costs_as_the_checked_schedule_of_its_arrays_bit_for_bit(case, lam, hat, seed):
    # run_layered's schedule skips Schedule's checks, and cost_of skips
    # validate_schedule on it where it would pass; neither may change a bit
    # or an error, at any capacity, with or without a ramp
    trace, p_m = case
    depth = int(trace.max_demand)
    twin = ps.Trace(prices=trace.prices, demands=trace.demands)
    capacities = sorted({1.0, max(1.0, depth - 1.0), max(1.0, depth - 0.5), depth + 1.0})
    for algorithm in ALGORITHMS:
        for capacity in capacities:
            params = ps.BillingParams(p_g=1.0, p_m=p_m, capacity=capacity)
            lean = ps.run_layered(trace, params, algorithm, lam=lam, sigma_hats=hat, seed=seed)
            checked = ps.Schedule(u=lean.u, v=lean.v)
            assert lean._trace is trace and np.array_equal(lean.u + lean.v, trace.demands)
            assert (lean._max_u.hex(), lean._max_v.hex()) == (checked._max_u.hex(), checked._max_v.hex())
            for other in capacities:
                for ramp in (None, 0.5, 1.0, 7.0):
                    costed = ps.BillingParams(p_g=1.0, p_m=p_m, capacity=other, ramp=ramp)
                    outcome = _cost_outcome(checked, trace, costed)
                    assert _cost_outcome(lean, trace, costed) == outcome == _cost_outcome(lean, twin, costed)
                    if lean._max_u > other:
                        assert outcome[0] is ps.ValidationError and "exceeds capacity" in outcome[1]


@settings(PROPERTY, max_examples=500)
@given(st.integers(0, 2**192))
def test_the_seeded_uniform_is_the_first_draw_of_default_rng(seed):
    # one to seven 32-bit words: past four, SeedSequence mixes the extra
    # words into its pool, which the draw reads
    assert online._seeded_uniform(seed).hex() == reference_seeded_uniform(seed).hex()


def _is_its_checked_twin(stored, twin):
    """``stored``, as the run path builds it (without its class's
    ``__init__``, or once and shared), against ``twin``, the same values
    passed through it: the same attributes in the same order, and alike
    under every protocol the class takes part in."""
    assert type(stored) is type(twin) and list(vars(stored).items()) == list(vars(twin).items())
    assert repr(stored) == repr(twin)
    if type(twin).__eq__ is not object.__eq__:  # a RunRecord compares by identity
        assert stored == twin and hash(stored) == hash(twin)
    assert pickle.dumps(stored) == pickle.dumps(twin)
    assert repr(pickle.loads(pickle.dumps(stored))) == repr(twin)
    assert list(vars(copy.copy(stored)).items()) == list(vars(copy.copy(twin)).items())
    assert list(vars(dataclasses.replace(stored)).items()) == list(vars(dataclasses.replace(twin)).items())


@PROPERTY
@given(
    integer_instances(max_demand=1),
    st.sampled_from(["red", "lambda-red", "naive-lambda-red"]),
    st.floats(0.05, 1.0),
    st.floats(-1.0, 3.0),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_a_stored_policy_record_and_cost_each_equal_their_checked_twin(instance, algorithm, lam, hat, uniform):
    trace, params = instance
    policy = ps.sample(ps.policy_distribution(algorithm, ps.beta(trace, params), lam, hat), uniform)
    _is_its_checked_twin(policy, ps.SwitchPolicy(policy.s))
    record = ps.run_threshold(trace, params, policy)
    twin = ps.RunRecord(
        trace=trace, switch_slot=record.switch_slot, policy=policy, cumulative_premium=record.cumulative_premium
    )
    _is_its_checked_twin(record, twin)
    cost = ps.cost_of(record.schedule, trace, params)
    _is_its_checked_twin(cost, ps.CostBreakdown(volume=cost.volume, peak=cost.peak, local=cost.local))


@st.composite
def binary_blocks(draw, max_rows=4):
    """1 to ``max_rows`` rows of 0/1 demand over 1 to 40 slots, each with
    its own ``p_g`` and ``p_m``, and (n, k) thresholds to run on them.
    Rows may have no demand or prices tied with their ``p_g``; a tied
    row's peak price is its premium, so its mass is exactly 1.  Every row
    runs -1, inf and drawn thresholds, and two that land on its own
    ``S(k) / p_m``."""
    n, T = draw(st.integers(1, max_rows)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_g = np.array(draw(st.lists(st.sampled_from([1.0, 2.5]), min_size=n, max_size=n)))
    density = draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=n, max_size=n))
    demands = (rng.random((n, T)) < np.array(density)[:, None]).astype(float)
    prices = rng.uniform(0.05, 1.0, (n, T)) * p_g[:, None]
    prices = np.where(rng.random((n, T)) < draw(st.sampled_from([0.0, 0.3])), p_g[:, None], prices)
    p_m = []
    for r in range(n):
        premium = float((p_g[r] - prices[r]) @ demands[r])
        p_m.append(premium if premium > 0 and draw(st.booleans()) else draw(st.floats(0.01, 100.0)))
    p_m = np.array(p_m)
    prefix = ((p_g[:, None] - prices) * demands).cumsum(axis=1)
    landing = prefix[:, draw(st.lists(st.integers(0, T - 1), min_size=2, max_size=2))] / p_m[:, None]
    drawn = draw(st.lists(st.floats(0.0, 5.0), max_size=6))
    thresholds = np.hstack([np.tile([-1.0, math.inf, *drawn], (n, 1)), landing])
    return prices, demands, p_g, p_m, thresholds


@PROPERTY
@given(binary_blocks(), st.data())
def test_block_functions_answer_each_row_as_its_trace_bit_for_bit(case, data):
    prices, demands, p_g, p_m, thresholds = case
    n, T = prices.shape
    slots = online._block_slots(prices, demands, p_g[:, None], p_m[:, None], thresholds)
    # each row's own slots, then two drawn ones, the never-switch slot T among them
    drawn = data.draw(st.lists(st.lists(st.integers(0, T), min_size=2, max_size=2), min_size=n, max_size=n))
    table = np.hstack([slots, np.array(drawn, dtype=np.intp)])
    costs = online._block_costs(prices, demands, online._demand_counts(demands), p_g[:, None], p_m[:, None], table)
    assert slots.shape == thresholds.shape and costs.shape == table.shape
    for r in range(n):
        trace = ps.Trace(prices=prices[r], demands=demands[r])
        params = ps.BillingParams(p_g=float(p_g[r]), p_m=float(p_m[r]), capacity=1)
        assert slots[r].tolist() == ps.switch_slots(trace, params, thresholds[r]).tolist()
        assert costs[r].tobytes() == ps.switch_costs(trace, params, table[r]).tobytes()


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.1, 0.5, 1.0, 1.3, 2.0]) | st.floats(0.01, 3.0),
            st.sampled_from([0.05, 0.5, 0.95, 1.0]) | st.floats(0.01, 1.0),
        ),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.sampled_from([0.1, 0.5, 1.0, 1.3, 2.0]) | st.floats(0.05, 3.0), min_size=1, max_size=4),
    st.integers(1, 40),
    st.integers(0, 2),
)
# s = 1 at beta = 0.3 over 8 slots has mass exactly 1, where the oracle's
# all-local and all-grid totals differ in the last bit
@example([(1.0, 0.3), (1.3, 0.5)], [1.0, 2.0], 8, 1)
def test_measured_ratios_equal_the_one_trace_path_bit_for_bit(cases, s_grid, slots, spare):
    # each row is its worst-case instance run and priced alone, at every
    # grid threshold and at its own s nudged down, over optimal_basic; the
    # rows share a demand block that may hold spare rows
    s, beta = (np.array(column) for column in zip(*cases))
    unit = analysis._unit_demands(len(cases) + spare, slots)
    mass, measured = verify._measured_ratios(s, beta, s_grid, slots, unit)
    assert mass.shape == (len(cases),) and measured.shape == (len(cases), len(s_grid) + 1)
    for r, (s_r, beta_r) in enumerate(cases):
        trace, params = ps.worst_case_instance(s_r, beta_r, slots=slots)
        opt = ps.optimal_basic(trace, params).total
        expected = []
        for threshold in [*s_grid, s_r * (1.0 - 1e-9)]:
            record = ps.run_threshold(trace, params, ps.SwitchPolicy(threshold))
            expected.append(ps.empirical_ratio(ps.cost_of(record.schedule, trace, params).total, opt))
        assert [x.hex() for x in measured[r].tolist()] == [x.hex() for x in expected]
        assert mass[r].hex() == ps.sigma(trace, params).hex()


binary_traces = st.integers(1, 8).flatmap(
    lambda T: st.tuples(
        st.lists(st.floats(0.05, 1.0), min_size=T, max_size=T),
        st.lists(st.integers(0, 1), min_size=T, max_size=T),
    )
)
# two trace slots and two p_g values, each call repeated up to three times,
# so that the memo often stores a prefix and the next step often reads it
memo_steps = st.one_of(
    st.tuples(st.just("run"), st.integers(0, 1), st.sampled_from([1.0, 3.0]), st.integers(1, 3), st.floats(0.0, 5.0)),
    st.tuples(
        st.just("batch"), st.integers(0, 1), st.sampled_from([1.0, 3.0]), st.integers(1, 3),
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
    ),
    st.tuples(st.just("rebuild"), st.integers(0, 1), binary_traces),
)


@PROPERTY
@given(st.lists(binary_traces, min_size=2, max_size=2), st.lists(memo_steps, min_size=1, max_size=30))
def test_premium_prefix_memo_equals_uncached_runs(initial, steps):
    # runs on two traces at two p_g values, interleaved and repeated; a
    # rebuilt trace is made right after its predecessor is dropped, so it
    # usually gets the dropped trace's id
    traces = [ps.Trace(prices=p, demands=d) for p, d in initial]
    for kind, k, *rest in steps:
        if kind == "rebuild":
            prices, demands = rest[0]
            traces[k] = None
            traces[k] = ps.Trace(prices=prices, demands=demands)
            continue
        p_g, times, thresholds = rest
        for _ in range(times):
            _check_threshold_runs(traces[k], ps.BillingParams(p_g=p_g, p_m=1.0, capacity=1), kind, thresholds)


def _check_threshold_runs(trace, params, kind, thresholds):
    # a helper, so that no local of the property keeps a dropped trace alive
    if kind == "run":
        record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(thresholds))
        switch, u, v, premium = reference_run_threshold(trace, params, thresholds)
        assert record.switch_slot == switch
        assert record.schedule.u.tobytes() == u.tobytes()
        assert record.schedule.v.tobytes() == v.tobytes()
        assert record.cumulative_premium.hex() == premium.hex()
    else:
        expected = []
        for s in thresholds:
            switch = reference_run_threshold(trace, params, s)[0]
            expected.append(len(trace) if switch is None else switch)
        assert ps.switch_slots(trace, params, thresholds).tolist() == expected


# small trust values stretch the naive support to [0, 1/lambda], whose
# panels miss their tolerance share and take the adaptive fallback; sigma
# also lands on 0, on the kink at 1 and on the support ends.  Masses below
# 1e-5 leave the [0, sigma] segment a length share under rounding, which
# both sides floor at the rounding of its panels.
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


@st.composite
def mixed_supports(draw):
    """Specs on [0, 1], [0, lambda] and [0, 1/lambda] in one batch, one of
    them twice: the batch's segments are partly shared, partly distinct.
    Trust stays at 0.2 or more so the stretched support is short; ``specs``
    draws the small trusts."""
    beta, lam = draw(st.floats(0.01, 1.0)), draw(st.floats(0.2, 1.0))
    rows = [
        (ps.red_distribution(beta), beta),
        (ps.lambda_red_distribution(2.0, lam, beta), beta),
        (ps.naive_red_distribution(2.0, lam, beta), beta),
        (ps.naive_red_distribution(0.5, lam, beta), beta),
    ]
    return rows + [rows[draw(st.integers(0, 3))]]


@st.composite
def shared_segments(draw):
    """Rows whose density segments the batch's dedup key must merge or keep
    apart: a hand-built support from -0.0 beside the same support from 0.0
    (merged: their nodes differ at most in the sign of a zero), and the
    segment [0, 1] under two betas and three coefficients (merged ends,
    distinct integrands).  The masses then take -0.0 from the first row's
    end and repeat every drawn mass."""
    beta, other, lam = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)), draw(st.floats(0.2, 1.0))
    hi = draw(st.floats(0.1, 3.0))
    coeff = 1.0 / (math.exp(hi) - 1.0)
    return [
        (ps.DistributionSpec(atoms=(), coeff=coeff, lo=-0.0, hi=hi), beta),
        (ps.DistributionSpec(atoms=(), coeff=coeff, lo=0.0, hi=hi), other),
        (ps.red_distribution(beta), beta),
        (ps.red_distribution(other), other),
        (ps.lambda_red_distribution(2.0, lam, beta), beta),
    ]


@PROPERTY
@given(
    st.one_of(st.lists(specs(), min_size=1, max_size=4), mixed_supports(), shared_segments()),
    st.lists(st.floats(1e-9, 20.0), max_size=4),
)
def test_expected_ratios_equal_the_scalar_quadrature_bit_for_bit(rows, drawn):
    sigmas = [0.0, 1.0, *drawn, *drawn]
    for spec, _ in rows:
        sigmas += [spec.lo, spec.hi]
    values = ps.expected_ratios([spec for spec, _ in rows], [beta for _, beta in rows], sigmas)
    assert values.shape == (len(rows), len(sigmas))
    for (spec, beta), row in zip(rows, values.tolist()):
        assert [x.hex() for x in row] == [reference_expected_ratio(spec, sg, beta).hex() for sg in sigmas]


@st.composite
def shared_classes(draw):
    """A batch whose specs mostly share one (support, beta) class, and so
    their ratios at every node: lambda-red's two branches at a few trusts
    and red, all on [0, 1] at one beta, a hand-built spec on [-0.0, 1] at
    that beta beside them, and one spec at another beta on the same
    support.  Then a permutation, so that no class sits at a fixed row."""
    beta, other = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
    lams = draw(st.lists(trusts, min_size=1, max_size=3))
    rows = [(ps.lambda_red_distribution(hat, lam, beta), beta) for lam in lams for hat in (2.0, 0.5)]
    rows += [
        (ps.red_distribution(beta), beta),
        (ps.DistributionSpec(atoms=(), coeff=1.0 / (math.e - 1.0), lo=-0.0, hi=1.0), beta),
        (ps.lambda_red_distribution(2.0, lams[0], other), other),
    ]
    return draw(st.permutations(rows))


@PROPERTY
@given(
    st.one_of(shared_classes(), shared_segments()),
    st.lists(st.floats(1e-9, 20.0), max_size=3),
)
def test_a_row_of_expected_ratios_is_the_same_alone_and_in_a_batch(rows, drawn):
    # masses repeated, at both ends of every support, and -0.0 beside 0.0
    sigmas = [*drawn, 0.5, *drawn, 0.0, -0.0, 1.0, 0.5]
    for spec, _ in rows:
        sigmas += [spec.lo, spec.hi]
    batch = ps.expected_ratios([spec for spec, _ in rows], [beta for _, beta in rows], sigmas)
    for (spec, beta), row in zip(rows, batch.tolist()):
        alone = ps.expected_ratios([spec], [beta], sigmas)[0].tolist()
        assert [x.hex() for x in row] == [x.hex() for x in alone]
        assert [x.hex() for x in row] == [reference_expected_ratio(spec, sg, beta).hex() for sg in sigmas]


def _quadrature_outcome(call) -> tuple:
    """A quadrature's values by ``float.hex``, or its error by type, message
    and achieved estimate."""
    try:
        values = call()
    except ps.NumericError as error:
        achieved = error.achieved
        return type(error).__name__, str(error), None if achieved is None else achieved.hex()
    return ("values", *(float(x).hex() for x in np.ravel(values)))


# integrands the bisection must walk as the recursion does: a kink, a root
# singularity, an oscillation, one whose panels round above 1e-16 near 0,
# and non-finite regions
INTEGRANDS = {
    "kink": lambda x: abs(x - 0.3) * math.exp(x),
    "root": lambda x: math.sqrt(abs(x)),
    "wave": lambda x: math.sin(7 * x) + x**3,
    "steep": lambda x: (1.0 + (1.0 - 1e-7 + x) * 0.5 / 1e-7) * math.exp(x),
    "nan above 0.9": lambda x: math.nan if x > 0.9 else x,
    "inf below -0.2": lambda x: math.inf if x < -0.2 else x * x,
}
interval_ends = st.one_of(st.integers(-2, 3), st.floats(-2.0, 3.0))
# 1024 is the package's cap; the small ones cut the walk mid-tree
panel_caps = st.sampled_from([1024, 1024, 1, 2, 3, 5, 17, 100, 333])


@PROPERTY
@given(
    st.sampled_from(sorted(INTEGRANDS)),
    interval_ends,
    st.one_of(st.integers(0, 4), st.floats(0.0, 4.0)),
    st.lists(interval_ends, max_size=2),
    st.sampled_from([1e-6, 1e-9, 1e-12, 1e-16]),
    panel_caps,
)
@example("steep", 0.0, 1e-7, [], 1e-16, 1024)  # a tolerance below rounding
@example("root", -2.0, 5.0, [0.0], 1e-9, 333)  # cut with right siblings pending
@example("root", -2, 5, [0], 1e-9, 5)  # integer ends, in messages as given
@example("nan above 0.9", 0, 1, [], 1e-9, 1024)
@example("kink", 1.0, -0.5, [], 1e-9, 1024)  # an inverted interval
def test_integrate_equals_the_scalar_recursion(name, a, width, breakpoints, abs_tol, cap):
    f, b = INTEGRANDS[name], a + width
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_MAX_PANELS", cap)
        engine = _quadrature_outcome(lambda: integrate(f, a, b, abs_tol, breakpoints))
        assert engine == _quadrature_outcome(lambda: reference_integrate(f, a, b, abs_tol, breakpoints))


@PROPERTY
@given(
    st.lists(st.tuples(st.sampled_from([0.5, 2.0]), st.floats(0.01, 0.1), st.floats(0.01, 1.0)), min_size=1, max_size=3),
    st.lists(st.one_of(st.floats(0.0, 120.0), st.sampled_from([5e-324, 1e-310, 1.8e-278, 1e-12, 1e-7])),
             min_size=1, max_size=4),
    panel_caps,
)
@example([(0.5, 0.01, 0.5)], [2.0, 5e-324], 2)  # a cut point before a NaN one
def test_expected_ratios_equal_the_scalar_recursion_point_by_point(naive, sigmas, cap):
    # naive specs at small trusts, whose first panels often miss, beside
    # red; a batch that fails raises the first failing point's error
    rows = [(ps.naive_red_distribution(hat, lam, beta), beta) for hat, lam, beta in naive]
    rows.append((ps.red_distribution(0.5), 0.5))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_MAX_PANELS", cap)
        batch = _quadrature_outcome(lambda: ps.expected_ratios([spec for spec, _ in rows], [beta for _, beta in rows], sigmas))
        points = [_quadrature_outcome(lambda: reference_expected_ratio(spec, sg, beta)) for spec, beta in rows for sg in sigmas]
    failed = [point for point in points if point[0] != "values"]
    assert batch == (failed[0] if failed else ("values", *(point[1] for point in points)))


# a spec of each kind: red, both branches of lambda-red (which move the
# never-switch mass to the grid-from-start atom or keep it), and naive
SPEC_KINDS = {
    "red": lambda lam, beta: ps.red_distribution(beta),
    "lambda-red high": lambda lam, beta: ps.lambda_red_distribution(2.0, lam, beta),
    "lambda-red low": lambda lam, beta: ps.lambda_red_distribution(0.5, lam, beta),
    "naive high": lambda lam, beta: ps.naive_red_distribution(2.0, lam, beta),
    "naive low": lambda lam, beta: ps.naive_red_distribution(0.5, lam, beta),
}


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(SPEC_KINDS)),
            st.sampled_from([0.05, 0.5, 1.0]),
            # few betas, so that atoms of different specs share a class
            st.one_of(st.sampled_from([0.1, 0.4, 1.0]), st.floats(0.05, 1.0)),
        ),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-7]), st.floats(0.0, 12.0)), min_size=1, max_size=4),
)
@example([("red", 0.5, 0.4), ("lambda-red high", 0.5, 0.4), ("lambda-red low", 0.5, 1.0)], [0.5, 1.0, 2.0])
def test_expected_ratios_equal_a_row_by_row_reference(kinds, sigmas):
    specs = [SPEC_KINDS[kind](lam, beta) for kind, lam, beta in kinds]
    betas = [beta for _, _, beta in kinds]
    batch = _quadrature_outcome(lambda: ps.expected_ratios(specs, betas, sigmas))
    assert batch == _quadrature_outcome(lambda: reference_expected_ratios(specs, betas, sigmas))


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


# A trace CSV pair drawn valid, then mutated line by line and as a whole.
# The header line is never turned into a data row, and no quote is put
# anywhere but around a whole field: there the bulk reader rejects on
# purpose what the per-row reader took (tests/test_traces.py).
STAMP0 = datetime(2018, 4, 1)
OFFSETS = ["", "+00:00", "+02:00"]
HEADERS = ["timestamp,value", '"timestamp","value"', "timestamp,value,unit", " time , value "]
ODD_VALUES = ["nan", "NaN", "inf", "-inf", "infinity", "0", "-0", "0.0", "-1.5", "abc", "", " ", "1e400", "2_2", "\u0661\u0662"]
ODD_STAMPS = ["", "2018-13-01T00:00", "2018-04-01", "2018-04-01 03:00", "not-a-time", "2018-04-01T05:00+00:00", "2018-04-01T05:00"]
GARBAGE_TEXT = st.text(st.sampled_from("abc019:-. \tT+\u00e9"), max_size=8)
GARBAGE = st.one_of(GARBAGE_TEXT, st.tuples(GARBAGE_TEXT, GARBAGE_TEXT).map(",".join))

line_edits = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 20), GARBAGE),
    st.tuples(st.just("insert"), st.integers(0, 20), st.sampled_from(["", " ", "\t", "  \t "])),
    st.tuples(st.just("value"), st.integers(0, 20), st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("stamp"), st.integers(0, 20), st.sampled_from(ODD_STAMPS)),
    st.tuples(st.just("fields"), st.integers(0, 20), st.sampled_from([",", ",x", ",1,2"])),
    st.tuples(st.just("duplicate"), st.integers(0, 20), st.integers(0, 20)),
    st.tuples(st.just("same instant"), st.integers(0, 20), st.just(None)),
    st.tuples(st.just("pad"), st.integers(0, 20), st.sampled_from([" ", "\t", " \u00a0"])),
    st.tuples(st.just("swap"), st.integers(0, 20), st.integers(0, 20)),
)


def _edit_line(lines, edit):
    kind, i, arg = edit
    i %= len(lines)
    stamp, _, value = lines[i].partition(",")
    if kind == "replace":
        lines[i] = arg
    elif kind == "insert":
        lines.insert(i, arg)
    elif kind == "value":
        lines[i] = f"{stamp},{arg}"
    elif kind == "stamp":
        lines[i] = f"{arg},{value}"
    elif kind == "fields":
        lines[i] = lines[i].replace(",", "", 1) if arg == "," else lines[i] + arg
    elif kind == "duplicate":
        lines[i] = f"{lines[arg % len(lines)].partition(',')[0]},{value}"
    elif kind == "same instant":
        # the same instant written at another offset compares equal, so it
        # still aligns with the other file's stamp for that hour
        try:
            instant = datetime.fromisoformat(stamp)
        except ValueError:
            return
        if instant.tzinfo is not None:
            moved = instant.astimezone(timezone(timedelta(hours=5)))
            lines[i] = f"{moved.isoformat(timespec='minutes')},{value}"
    elif kind == "pad":
        lines[i] = f"{arg}{stamp}{arg},{arg}{value}{arg}" if "," in lines[i] else lines[i]
    else:
        j = arg % len(lines)
        lines[i], lines[j] = lines[j], lines[i]


@st.composite
def trace_csv_files(draw, kind, offset, hours):
    hours = sorted({*hours, *draw(st.lists(st.integers(0, 15), max_size=3))})
    if kind == "price":
        values = draw(st.lists(st.floats(0.01, 100.0).map(repr), min_size=len(hours), max_size=len(hours)))
    else:
        values = draw(st.lists(st.integers(0, 9).map(str), min_size=len(hours), max_size=len(hours)))
    lines = [
        f"{(STAMP0 + timedelta(hours=h)).isoformat(timespec='minutes')}{offset},{v}" for h, v in zip(hours, values)
    ]
    for edit in draw(st.lists(line_edits, max_size=4)):
        _edit_line(lines, edit)
    # quotes go last, so that no later edit splits or pads a quoted field
    for i, k in draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 1)), max_size=3)):
        fields = lines[i % len(lines)].split(",")
        if k < len(fields) and '"' not in fields[k]:
            fields[k] = f'"{fields[k]}"'
        lines[i % len(lines)] = ",".join(fields)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([draw(st.sampled_from(HEADERS)), *lines]) + draw(st.sampled_from(["", "\n", "\n\n"]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@st.composite
def trace_csv_pairs(draw):
    # the two files share most hours, and their stamps are mostly of one
    # kind: else no stamp is common
    hours = draw(st.lists(st.integers(0, 11), min_size=1, max_size=8))
    offset = draw(st.sampled_from(OFFSETS))
    other = draw(st.sampled_from([offset, offset, offset, *OFFSETS]))
    return draw(trace_csv_files("price", offset, hours)), draw(trace_csv_files("demand", other, hours))


def _outcome(parse, price_file, demand_file):
    try:
        loaded = parse(price_file, demand_file)
    except Exception as exc:
        return type(exc), str(exc)
    trace = loaded.trace
    return trace.prices.dtype, trace.prices.tobytes(), trace.demands.tobytes(), loaded.dropped_price_rows, loaded.dropped_demand_rows


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(PROPERTY, max_examples=200)
@given(trace_csv_pairs())
def test_bulk_csv_reader_answers_as_the_per_row_reader(csv_dir, texts):
    # the same arrays, bit for bit, and drop counts; or the same exception
    # class with the same message, which names the file's first bad line
    price_file, demand_file = csv_dir / "p.csv", csv_dir / "d.csv"
    price_file.write_bytes(texts[0].encode())
    demand_file.write_bytes(texts[1].encode())
    expected = _outcome(reference_parse_trace_csv, price_file, demand_file)
    assert _outcome(parse_trace_csv, price_file, demand_file) == expected


# every boundary that reads one number (not an array of any shape, where a
# nested list is a block), each fed the value where 1 is legal and
# returning what it read
_ONE_SLOT = ps.Trace(prices=[0.5], demands=[1.0])
_ONE_SLOT_PARAMS = ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1)
NUMBER_READERS = {
    "BillingParams p_g": lambda v: float(ps.BillingParams(p_g=v, p_m=1.0, capacity=1).p_g),
    "BillingParams capacity": lambda v: float(ps.BillingParams(p_g=1.0, p_m=1.0, capacity=v).capacity),
    "Trace demand": lambda v: ps.Trace(prices=[0.5, 0.5], demands=[0.0, v]).demands.tobytes(),
    "Schedule output": lambda v: ps.Schedule(u=[0.0, v], v=[1.0, 0.0]).u.tobytes(),
    "gaussian sigma1": lambda v: ps.gaussian_predictor(_ONE_SLOT, sigma1=v, sigma2=0.0, seed=1).prices.tobytes(),
    "worst_case_ratio s": lambda v: ps.worst_case_ratio(v, 0.5),
    "cost_reduction cost": lambda v: ps.cost_reduction(v, _ONE_SLOT, _ONE_SLOT_PARAMS),
    "run_layered sigma_hats": lambda v: ps.run_layered(
        _ONE_SLOT, _ONE_SLOT_PARAMS, "lambda-bed", lam=0.5, sigma_hats=[v]
    ).u.tobytes(),
    "config peak-multiplier": lambda v: ExperimentConfig(peak_multiplier=v).validate(),
    "SwitchPolicy s": lambda v: ps.SwitchPolicy(v).s,
    "lambda_bed_policy sigma_hat": lambda v: ps.lambda_bed_policy(v, 0.5).s,
    "lambda_red_distribution lambda": lambda v: ps.lambda_red_distribution(2.0, v, 0.5),
    "red_distribution beta": lambda v: ps.red_distribution(v),
    "DistributionSpec coeff": lambda v: ps.DistributionSpec(atoms=(), coeff=v, lo=0.0, hi=1.0).coeff,
    "DistributionSpec lo": lambda v: ps.DistributionSpec(atoms=(), coeff=1.0, lo=v, hi=2.0).lo,
    "DistributionSpec hi": lambda v: ps.DistributionSpec(atoms=(), coeff=1.0, lo=0.0, hi=v).hi,
    "DistributionSpec atom mass": lambda v: ps.DistributionSpec(atoms=((math.inf, v),), coeff=0.0, lo=0.0, hi=0.0).atoms,
    "sweep value": lambda v: ExperimentConfig(capacity_ratio=experiment._sweep_values("capacity", [v])[0]).validate(),
}
# None stands for the default noise level, not for a number
_NONE_IS_A_DEFAULT = {"gaussian sigma1"}
numbers_and_hostile_values = st.one_of(
    st.sampled_from([1, 1.0, np.float32(1.0), np.int64(1), np.uint8(1)]),
    st.sampled_from([True, False, np.True_, "1", "x", None, 1j, math.nan, np.float32(math.nan)]),
    st.integers(2**1024, 2**1030) | st.integers(-(2**1030), -(2**1024)),
    st.lists(st.just(1.0), min_size=1, max_size=3).flatmap(lambda row: st.sampled_from([[row], np.array([row])])),
)


def _read(reader, value):
    try:
        return True, reader(value)
    except ps.PeakSchedError:
        return False, None


@PROPERTY
@given(numbers_and_hostile_values)
def test_every_number_reader_rejects_a_value_or_reads_it_as_the_same_float(value):
    names = [name for name in NUMBER_READERS if not (value is None and name in _NONE_IS_A_DEFAULT)]
    read = {name: _read(NUMBER_READERS[name], value) for name in names}
    accepted = sorted(name for name, (ok, _) in read.items() if ok)
    assert accepted in ([], sorted(names)), f"{value!r} read by {accepted} only"
    for name in accepted:
        assert read[name][1] == NUMBER_READERS[name](float(value))
