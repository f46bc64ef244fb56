"""Trace, parameter, schedule, and cost-accounting behavior."""
import math
import re

import numpy as np
import pytest

import peaksched as ps
from conftest import make_binary_instance, make_integer_instance, schedule_cost


def test_cost_of_grid_only():
    trace = ps.Trace(prices=[1, 1], demands=[1, 1])
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    cost = ps.cost_of(ps.Schedule(u=[0, 0], v=[1, 1]), trace, params)
    assert (cost.volume, cost.peak, cost.local, cost.total) == (2, 4, 0, 6)


def test_cost_of_local_only_has_no_peak_charge():
    trace = ps.Trace(prices=[1, 1], demands=[1, 1])
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    cost = ps.cost_of(ps.Schedule(u=[1, 1], v=[0, 0]), trace, params)
    assert (cost.volume, cost.peak, cost.local, cost.total) == (0, 0, 4, 4)


def test_cost_of_mixed_three_slots():
    # hand-traced: volume 2, peak 2, local 2
    trace = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
    params = ps.BillingParams(p_g=2, p_m=2, capacity=1)
    cost = ps.cost_of(ps.Schedule(u=[1, 0, 0], v=[0, 1, 1]), trace, params)
    assert cost.total == 6


def test_cost_of_rejects_length_mismatch():
    trace = ps.Trace(prices=[1, 1], demands=[1, 1])
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    with pytest.raises(ps.StructuralError):
        ps.cost_of(ps.Schedule(u=[0], v=[1]), trace, params)


def test_cost_of_names_first_offending_slot():
    trace = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    with pytest.raises(ps.ValidationError, match="slot 1"):
        ps.cost_of(ps.Schedule(u=[1, 0, 1], v=[0, 0, 0]), trace, params)
    with pytest.raises(ps.ValidationError, match="slot 2"):
        ps.cost_of(ps.Schedule(u=[1, 1, 3], v=[0, 0, 0]), trace, params)


def test_cost_of_checks_ramp_when_active():
    trace = ps.Trace(prices=[1, 1], demands=[2, 2])
    params = ps.BillingParams(p_g=2, p_m=4, capacity=3, ramp=1)
    with pytest.raises(ps.ValidationError, match="ramp"):
        ps.cost_of(ps.Schedule(u=[2, 2], v=[0, 0]), trace, params)
    ok = ps.cost_of(ps.Schedule(u=[1, 2], v=[1, 0]), trace, params)
    assert ok.total == 1 + 4 + 6


def test_sigma_examples():
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    assert ps.sigma(ps.Trace(prices=[1, 1], demands=[1, 1]), params) == 0.5
    assert ps.sigma(ps.Trace(prices=[1, 1], demands=[0, 0]), params) == 0.0
    tri = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
    assert ps.sigma(tri, ps.BillingParams(p_g=2, p_m=2, capacity=1)) == 1.5


def test_sigma_requires_pairing():
    trace = ps.Trace(prices=[3, 1], demands=[1, 1])
    with pytest.raises(ps.ValidationError, match="p_g"):
        ps.sigma(trace, ps.BillingParams(p_g=2, p_m=4, capacity=1))


def test_sigma_linear_in_demand(rng):
    for _ in range(50):
        trace, params = make_integer_instance(rng)
        k = float(rng.uniform(0, 4))
        scaled = ps.Trace(prices=trace.prices, demands=k * trace.demands)
        assert ps.sigma(scaled, params) == pytest.approx(k * ps.sigma(trace, params), abs=1e-9)


def test_beta_examples():
    assert ps.beta(ps.Trace(prices=[1, 2], demands=[1, 1]), ps.BillingParams(p_g=2, p_m=1, capacity=1)) == 0.5
    assert ps.beta(ps.Trace(prices=[2, 2], demands=[1, 1]), ps.BillingParams(p_g=2, p_m=1, capacity=1)) == 1.0
    spring_spot = ps.Trace(prices=[13.69, 64.62], demands=[1, 1])
    value = ps.beta(spring_spot, ps.BillingParams(p_g=64.62, p_m=1, capacity=1))
    assert value == pytest.approx(13.69 / 64.62, abs=1e-12)
    assert round(value, 4) == 0.2119


def test_trace_rejects_nonpositive_price_and_negative_demand():
    with pytest.raises(ps.ValidationError):
        ps.Trace(prices=[0.0, 1.0], demands=[1, 1])
    with pytest.raises(ps.ValidationError):
        ps.Trace(prices=[1.0, 1.0], demands=[1, -1])
    with pytest.raises(ps.ValidationError):
        ps.Trace(prices=[], demands=[])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ps.Trace(prices=[1.0, 2.0], demands=[1.0]), r"prices \(2 slots\) and demands \(1 slots\) differ in length"),
        (lambda: ps.Trace(prices=[[1.0, 2.0]], demands=[1.0, 1.0]), "prices must be a one-dimensional sequence"),
        (lambda: ps.Trace(prices=[1.0, 2.0], demands=[[1.0, 1.0]]), "demands must be a one-dimensional sequence"),
        (lambda: ps.Schedule(u=[1.0], v=[0.0, 0.0]), r"u \(1 slots\) and v \(2 slots\) differ in length"),
        (lambda: ps.Schedule(u=[[1.0]], v=[0.0]), "u must be a one-dimensional sequence"),
        (
            lambda: ps.Prediction(prices=[1.0], demands=[1.0, 1.0]),
            "predicted prices and demands must be 1-d vectors of equal length",
        ),
        (lambda: ps.Prediction(prices=[[1.0, 2.0]], demands=[1.0, 1.0]), "predicted prices must be a one-dimensional sequence"),
    ],
)
def test_vectors_of_the_wrong_shape_are_structural_errors(build, message):
    with pytest.raises(ps.StructuralError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize(
    "field, value",
    [("p_g", math.nan), ("p_m", math.nan), ("capacity", math.nan), ("ramp", math.nan),
     ("p_g", math.inf), ("p_m", math.inf)],
)
def test_billing_params_reject_nan_and_infinite_prices(field, value):
    fields = {"p_g": 2.0, "p_m": 4.0, "capacity": 1, "ramp": 1.0, field: value}
    with pytest.raises(ps.ValidationError, match=field):
        ps.BillingParams(**fields)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("p_g", "1", "generation cost p_g must be a real number, got '1'"),
        ("p_g", True, "generation cost p_g must be a real number, got True"),
        ("p_m", "4", "peak price p_m must be a real number, got '4'"),
        ("capacity", None, "capacity must be a real number, got None"),
        ("capacity", True, "capacity must be a real number, got True"),
        ("ramp", "3", "ramp limit must be a real number, got '3'"),
        ("ramp", False, "ramp limit must be a real number, got False"),
    ],
)
def test_billing_params_reject_bools_and_non_numbers_naming_the_field(field, value, message):
    # a string raised a bare TypeError from the range check, and a bool read as 0 or 1
    fields = {"p_g": 2.0, "p_m": 4.0, "capacity": 1, "ramp": 1.0, field: value}
    with pytest.raises(ps.ValidationError, match=f"^{re.escape(message)}$"):
        ps.BillingParams(**fields)


@pytest.mark.parametrize(
    "field, name",
    [("p_g", "generation cost p_g"), ("p_m", "peak price p_m"), ("capacity", "capacity"), ("ramp", "ramp limit")],
)
def test_billing_params_reject_an_int_too_large_for_a_float_naming_the_field(field, name):
    # it compared below inf, and sigma, optimal_general or optimal_with_ramp
    # then raised a bare OverflowError
    fields = {"p_g": 2.0, "p_m": 4.0, "capacity": 1, "ramp": 1.0, field: 10**400}
    with pytest.raises(ps.ValidationError, match=f"^{name} must fit in a float, got 1000"):
        ps.BillingParams(**fields)


def test_billing_params_allow_unbounded_capacity_and_ramp():
    params = ps.BillingParams(p_g=2.0, p_m=4.0, capacity=math.inf, ramp=math.inf)
    assert params.capacity == params.ramp == math.inf


def test_cost_reduction_identities():
    trace = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
    params = ps.BillingParams(p_g=2, p_m=2, capacity=1)
    baseline = 3 + 2  # volume of all-grid plus peak
    assert ps.cost_reduction(baseline, trace, params) == 0.0
    assert ps.cost_reduction(0.0, trace, params) == 1.0
    assert ps.cost_reduction(6.0, trace, params) == pytest.approx(-0.2)


@pytest.mark.parametrize(
    "total, message",
    [
        (math.nan, "algorithm cost must be finite, got nan"),
        (math.inf, "algorithm cost must be finite, got inf"),
        (-math.inf, "algorithm cost must be finite, got -inf"),
        (True, "algorithm cost must be a real number, got True"),
        ("1", "algorithm cost must be a real number, got '1'"),
        (None, "algorithm cost must be a real number, got None"),
    ],
)
def test_cost_reduction_names_a_cost_that_is_not_a_finite_number(total, message):
    # these read nan, -inf, a ValidationError, 0.9375 (True as 1), and a bare TypeError twice
    trace = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
    with pytest.raises(ps.DomainError, match=f"^{re.escape(message)}$"):
        ps.cost_reduction(total, trace, ps.BillingParams(p_g=2, p_m=13, capacity=1))


def test_cost_reduction_rejects_zero_demand_baseline():
    trace = ps.Trace(prices=[1, 1], demands=[0, 0])
    with pytest.raises(ps.UndefinedRatioError):
        ps.cost_reduction(1.0, trace, ps.BillingParams(p_g=2, p_m=4, capacity=1))


def test_cost_monotone_in_purchases(rng):
    """Raising any single u(t) or v(t) never lowers the total."""
    for _ in range(60):
        trace, params = make_integer_instance(rng)
        d = trace.demands
        u = np.minimum(d, rng.integers(0, 3, len(d))).astype(float)
        v = d - u
        base = ps.cost_of(ps.Schedule(u=u, v=v), trace, params).total
        t = int(rng.integers(0, len(d)))
        bump = float(rng.uniform(0, 2))
        for which in ("u", "v"):
            u2, v2 = u.copy(), v.copy()
            if which == "u":
                u2[t] = min(params.capacity, u2[t] + bump)
            else:
                v2[t] += bump
            assert ps.cost_of(ps.Schedule(u=u2, v=v2), trace, params).total >= base - 1e-12


def test_any_feasible_schedule_dominates_oracle(rng):
    for _ in range(40):
        trace, params = make_integer_instance(rng, max_demand=3, horizon=8)
        opt = ps.optimal_general(trace, params).total
        d = trace.demands
        u = np.minimum(np.minimum(d, params.capacity), rng.integers(0, 4, len(d))).astype(float)
        v = d - u
        total = ps.cost_of(ps.Schedule(u=u, v=v), trace, params).total
        assert total >= opt - 1e-9


def test_schedule_cost_helper_agrees_with_cost_of(rng):
    # ties the package accounting to the independently written formula
    for _ in range(20):
        trace, params = make_binary_instance(rng)
        d = trace.demands
        u = np.where(rng.random(len(d)) < 0.5, d, 0.0)
        v = d - u
        ours = ps.cost_of(ps.Schedule(u=u, v=v), trace, params).total
        theirs = schedule_cost(u, v, trace, params)
        assert ours == pytest.approx(theirs, abs=1e-9)


def test_trace_copies_writable_input_and_readonly_view():
    source = np.array([1.0, 2.0, 3.0])
    owner = np.array([1.0, 1.0, 1.0])
    view = owner[:]
    view.setflags(write=False)
    trace = ps.Trace(prices=source, demands=view)
    assert trace.prices is not source and trace.demands is not view
    source[0] = 9.0
    owner[0] = 9.0
    assert np.array_equal(trace.prices, [1, 2, 3])
    assert np.array_equal(trace.demands, [1, 1, 1])


def test_a_frozen_vector_is_copied_so_an_older_writable_view_cannot_write_into_the_instance():
    # a frozen, owned float64 array was kept, and a view made before the
    # freeze changed t.demands while t.max_demand and the cached facts stayed
    a = np.zeros(3)
    b = a[:]
    a.setflags(write=False)
    t = ps.Trace(prices=[1, 1, 1], demands=a)
    schedule = ps.Schedule(u=a, v=[1, 1, 1])
    prediction = ps.Prediction(prices=[1, 1, 1], demands=a)
    b[0] = 5
    assert t.demands.tolist() == schedule.u.tolist() == prediction.demands.tolist() == [0.0, 0.0, 0.0]
    assert t.max_demand == 0.0 and schedule._max_u == 0.0
    for arr in (t.prices, t.demands, schedule.u, schedule.v, prediction.demands):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and not arr.flags.writeable


def test_frozen_vector_of_another_dtype_is_copied_as_float():
    demands = np.array([1, 0, 2])
    demands.setflags(write=False)
    trace = ps.Trace(prices=[1, 1, 1], demands=demands)
    assert trace.demands is not demands and trace.demands.dtype == np.float64


def test_trace_facts_match_direct_reductions(rng):
    for _ in range(30):
        trace, _ = make_integer_instance(rng)
        binary = ps.Trace(prices=trace.prices, demands=np.minimum(trace.demands, 1))
        fractional = ps.Trace(prices=trace.prices, demands=trace.demands + 0.5)
        assert trace.min_price == trace.prices.min() and trace.max_price == trace.prices.max()
        assert trace.max_demand == trace.demands.max()
        assert trace.has_integer_demands() and binary.has_binary_demands()
        assert trace.has_binary_demands() == bool(np.all(trace.demands <= 1))
        assert not fractional.has_integer_demands() and not fractional.has_binary_demands()


@pytest.mark.parametrize(
    "prices, demands, message",
    [
        ([1, 2, 3], [1, math.nan, 2], "demand at slot 1"),
        ([1, 2, 3], [1, math.inf, 2], "demand at slot 1"),
        ([1, 2, 3], [1, 0, -math.inf], "demand at slot 2"),
        ([1, math.nan, 3], [1, 1, 1], "price at slot 1"),
        ([1, 2, math.inf], [1, 1, 1], "price at slot 2"),
    ],
)
def test_trace_rejects_non_finite_values(prices, demands, message):
    with pytest.raises(ps.ValidationError, match=message):
        ps.Trace(prices=prices, demands=demands)


@pytest.mark.parametrize(
    "u, v, message",
    [
        ([math.nan], [1], "generator output at slot 0"),
        ([0, math.inf], [1, 0], "generator output at slot 1"),
        ([1, 0], [0, math.nan], "grid purchase at slot 1"),
        ([1, 0], [-math.inf, 1], "grid purchase at slot 0"),
    ],
)
def test_schedule_rejects_non_finite_values(u, v, message):
    with pytest.raises(ps.ValidationError, match=message):
        ps.Schedule(u=u, v=v)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ps.Trace(prices=[1.0, 1.0], demands=["a", 1]), "demands at slot 0 is 'a'; must be a real number"),
        (lambda: ps.Trace(prices=["1", "2"], demands=[1, 1]), "prices at slot 0 is '1'; must be a real number"),
        (lambda: ps.Trace(prices=[1.0, 1.0], demands=[1, True]), "demands at slot 1 is True; must be a real number"),
        (lambda: ps.Trace(prices=np.array(["1", "2"]), demands=[1, 1]), "prices at slot 0 is '1'; must be a real number"),
        (lambda: ps.Trace(prices=[1, 1], demands=np.array([0, 1], dtype=bool)), "demands at slot 0 is False; must be a real number"),
        (lambda: ps.Trace(prices=[1.0, 1.0], demands=[1, None]), "demands at slot 1 is None; must be a real number"),
        (lambda: ps.Trace(prices=[1.0, 10**400], demands=[1, 1]), "prices at slot 1 is 1000"),
        (lambda: ps.Prediction(prices=[1.0, 1.0], demands=["a", 1]), "predicted demands at slot 0 is 'a'; must be a real number"),
        (lambda: ps.Prediction(prices=[1.0, True], demands=[1, 1]), "predicted prices at slot 1 is True; must be a real number"),
        (lambda: ps.Schedule(u=[1, "0"], v=[0, 1]), "u at slot 1 is '0'; must be a real number"),
        (lambda: ps.Schedule(u=[1, 0], v=[True, 1]), "v at slot 0 is True; must be a real number"),
        (lambda: ps.Prediction(prices=[1.0, None], demands=[1, 1]), "predicted prices at slot 1 is None; must be a real number"),
    ],
)
def test_instance_vectors_reject_strings_and_bools_naming_the_slot(build, message):
    # np.array read "2" as 2.0 and True as 1, and raised a bare ValueError on "a"
    with pytest.raises(ps.ValidationError, match=f"^{re.escape(message)}"):
        build()


def test_instance_vectors_still_take_numpy_scalars_and_object_arrays_of_numbers():
    trace = ps.Trace(prices=[np.float32(0.5), 1], demands=np.array([np.int64(2), 1.5], dtype=object))
    assert trace.prices.tolist() == [0.5, 1.0] and trace.demands.tolist() == [2.0, 1.5]
