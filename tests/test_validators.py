"""The shared domain checks and the functions that rely on them."""
import math
import re

import numpy as np
import pytest

import peaksched as ps
from peaksched import analysis
from peaksched.harness import experiment
from peaksched.harness.experiment import ExperimentConfig
from peaksched.validators import NAIVE_LAMBDA_FLOOR

# each takes lambda alone: the first list checks (0, 1], the second [0, 1]
OPEN_AT_ZERO = [
    lambda lam: ps.lambda_bed_policy(0.5, lam),
    lambda lam: ps.naive_red_distribution(0.5, lam, 0.4),
    lambda lam: ps.deterministic_bounds(lam, 0.4),
    lambda lam: ps.naive_randomized_bounds(lam, 0.4),
]
CLOSED_AT_ZERO = [
    lambda lam: ps.lambda_red_distribution(0.5, lam, 0.4),
    lambda lam: ps.randomized_bounds(lam, 0.4),
    lambda lam: ps.expected_ratio_closed_form(True, 0.5, lam, 0.4),
]


@pytest.mark.parametrize("fn", OPEN_AT_ZERO)
@pytest.mark.parametrize("lam", [0.0, -0.1, 1.5, math.nan])
def test_open_lambda_domain(fn, lam):
    with pytest.raises(ps.DomainError, match=r"lambda must lie in \(0, 1\]"):
        fn(lam)


@pytest.mark.parametrize("fn", CLOSED_AT_ZERO)
@pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan])
def test_closed_lambda_domain(fn, lam):
    with pytest.raises(ps.DomainError, match=r"lambda must lie in \[0, 1\]"):
        fn(lam)


# the naive variant takes e^(1/lambda), which overflows below 1/709.78
STRETCHED = [
    lambda lam: ps.naive_red_distribution(0.5, lam, 0.4),
    lambda lam: ps.naive_randomized_bounds(lam, 0.4),
]


@pytest.mark.parametrize("fn", STRETCHED)
@pytest.mark.parametrize("lam", [1e-3, 0.0014, math.nextafter(NAIVE_LAMBDA_FLOOR, 0.0), 5e-324])
def test_stretched_lambda_below_the_floor_is_rejected(fn, lam):
    with pytest.raises(ps.DomainError, match=rf"lambda must be at least {NAIVE_LAMBDA_FLOOR!r} \(1/709.78\)"):
        fn(lam)


@pytest.mark.parametrize("fn", STRETCHED)
@pytest.mark.parametrize("lam", [NAIVE_LAMBDA_FLOOR, 0.0015, 0.5])
def test_stretched_lambda_from_the_floor_up_is_accepted(fn, lam):
    fn(lam)


def test_naive_high_branch_ignores_the_floor():
    # a predicted mass above 1 shrinks the support to [0, lambda]: no overflow
    spec = ps.naive_red_distribution(2.0, 1e-3, 0.4)
    assert spec.hi == 1e-3
    spec.require_normalized()


# each takes the predicted premium mass alone and branches on sigma_hat > 1
SIGMA_HAT_USERS = [
    lambda hat: ps.lambda_bed_policy(hat, 0.5),
    lambda hat: ps.lambda_red_distribution(hat, 0.5, 0.4),
    lambda hat: ps.naive_red_distribution(hat, 0.5, 0.4),
    lambda hat: ps.policy_distribution(ps.Algorithm.LAMBDA_RED, 0.4, 0.5, hat),
    lambda hat: ps.run_algorithm(
        ps.Trace(prices=[1, 2, 3], demands=[1, 1, 1]), ps.BillingParams(p_g=3, p_m=10, capacity=2),
        "lambda-bed", lam=0.5, sigma_hat=hat,
    ),
    lambda hat: ps.run_layered(
        ps.Trace(prices=[1, 2, 3], demands=[1, 1, 1]), ps.BillingParams(p_g=3, p_m=10, capacity=2),
        "lambda-bed", lam=0.5, sigma_hats=hat,
    ),
    lambda hat: ps.run_layered(
        ps.Trace(prices=[1, 2, 3], demands=[2, 1, 1]), ps.BillingParams(p_g=3, p_m=10, capacity=2),
        "naive-lambda-red", lam=0.5, sigma_hats=[2.0, hat], seed=3,
    ),
]


@pytest.mark.parametrize("fn", SIGMA_HAT_USERS)
@pytest.mark.parametrize("hat", [math.nan, math.inf, -math.inf])
def test_non_finite_sigma_hat_rejected(fn, hat):
    with pytest.raises(ps.DomainError, match="sigma_hat must be finite"):
        fn(hat)


@pytest.mark.parametrize("fn", SIGMA_HAT_USERS)
@pytest.mark.parametrize("hat", [-0.5, 0.0, 1.0, 2.0])
def test_finite_sigma_hat_accepted(fn, hat):
    fn(hat)


# Python reads a bool as an int and numpy reads "0.5" as 0.5: neither is a
# parameter.  Each must fail as a DomainError naming the value, not as a
# bare TypeError or ValueError, nor pass as a number.
HOSTILE = [True, False, np.True_, "0.5", "x", None, 0.5j]
# a scalar parameter names a list whole; where arrays are taken, a list is
# one, and its first element that is not a real number is named
SCALAR_HOSTILE = [(value, value) for value in HOSTILE] + [([0.5], [0.5])]
ARRAY_HOSTILE = [(value, value) for value in HOSTILE] + [(["0.5"], "0.5"), ([0.5, True, "x"], True)]
SCALAR_BETA_USERS = [
    lambda beta: ps.randomized_bounds(0.5, beta),
    lambda beta: ps.deterministic_bounds(0.5, beta),
    lambda beta: ps.naive_randomized_bounds(0.5, beta),
    lambda beta: ps.worst_case_ratio(1.0, beta),
    lambda beta: ps.red_distribution(beta),
    lambda beta: ps.lambda_red_distribution(2.0, 0.5, beta),
    lambda beta: ps.expected_ratio(ps.red_distribution(0.5), 0.7, beta),
    lambda beta: ps.expected_ratios([ps.red_distribution(0.5)], [beta], [0.7]),
]
ARRAY_BETA_USERS = [
    lambda beta: ps.cost_ratio(0.5, 0.5, beta),
    lambda beta: ps.expected_ratio_closed_form(True, 0.7, 0.5, beta),
    lambda beta: ps.worst_case_instance(1.0, beta),
]
MASS_USERS = [
    lambda sigma: ps.cost_ratio(0.5, sigma, 0.5),
    lambda sigma: ps.expected_ratio(ps.red_distribution(0.5), sigma, 0.5),
    lambda sigma: ps.expected_ratios([ps.red_distribution(0.5)], [0.5], sigma),
    lambda sigma: ps.expected_ratio_closed_form(True, sigma, 0.5, 0.5),
]


def _naming(what: str, named) -> str:
    return rf"^{what} must be a real number, got {re.escape(repr(named))}$"


@pytest.mark.parametrize("fn", SCALAR_BETA_USERS)
@pytest.mark.parametrize("beta, named", SCALAR_HOSTILE)
def test_a_hostile_beta_is_a_domain_error_naming_it(fn, beta, named):
    with pytest.raises(ps.DomainError, match=_naming("beta", named)):
        fn(beta)


@pytest.mark.parametrize("fn", ARRAY_BETA_USERS)
@pytest.mark.parametrize("beta, named", ARRAY_HOSTILE)
def test_a_hostile_beta_array_is_a_domain_error_naming_its_element(fn, beta, named):
    with pytest.raises(ps.DomainError, match=_naming("beta", named)):
        fn(beta)


@pytest.mark.parametrize("fn", OPEN_AT_ZERO + CLOSED_AT_ZERO)
@pytest.mark.parametrize("lam, named", SCALAR_HOSTILE)
def test_a_hostile_lambda_is_a_domain_error_naming_it(fn, lam, named):
    with pytest.raises(ps.DomainError, match=_naming("lambda", named)):
        fn(lam)


@pytest.mark.parametrize("fn", MASS_USERS)
@pytest.mark.parametrize("sigma, named", ARRAY_HOSTILE)
def test_a_hostile_mass_is_a_domain_error_naming_it(fn, sigma, named):
    with pytest.raises(ps.DomainError, match=_naming("premium mass", named)):
        fn(sigma)


# a threshold multiplier, a predicted premium mass and a run's cost are
# parameters too: each call below read a bool or a numeric string as a
# number, or failed on one with a bare TypeError
SCALAR_THRESHOLD_USERS = [
    lambda s: ps.SwitchPolicy.at(s),
    lambda s: ps.worst_case_ratio(s, 0.5),
]
ARRAY_THRESHOLD_USERS = [
    lambda s: ps.cost_ratio(s, 0.5, 0.5),
    lambda s: ps.worst_case_instance(s, 0.5),
    lambda s: analysis._worst_case_rows(s, 0.5, 100.0, 10),
    lambda s: ps.switch_slots(
        ps.Trace(prices=[1, 2, 3], demands=[1, 1, 1]), ps.BillingParams(p_g=3, p_m=10, capacity=1), s
    ),
]
# the sigma_hat users that take the predicted mass as given (policy_distribution
# reads None as a missing prediction)
SCALAR_SIGMA_HAT_USERS = SIGMA_HAT_USERS[:3]
COST_USERS = [
    ("online cost", lambda total: ps.empirical_ratio(total, 2.0)),
    ("offline optimum", lambda total: ps.empirical_ratio(1.0, total)),
    (
        "algorithm cost",
        lambda total: ps.cost_reduction(
            total, ps.Trace(prices=[1, 2, 3], demands=[1, 1, 1]), ps.BillingParams(p_g=3, p_m=10, capacity=1)
        ),
    ),
]


@pytest.mark.parametrize("fn", SCALAR_THRESHOLD_USERS)
@pytest.mark.parametrize("s, named", SCALAR_HOSTILE)
def test_a_hostile_threshold_is_a_domain_error_naming_it(fn, s, named):
    with pytest.raises(ps.DomainError, match=_naming("threshold multiplier", named)):
        fn(s)


@pytest.mark.parametrize("fn", ARRAY_THRESHOLD_USERS)
@pytest.mark.parametrize("s, named", ARRAY_HOSTILE)
def test_a_hostile_threshold_array_is_a_domain_error_naming_its_element(fn, s, named):
    with pytest.raises(ps.DomainError, match=_naming("threshold multiplier", named)):
        fn(s)


@pytest.mark.parametrize("fn", SCALAR_SIGMA_HAT_USERS)
@pytest.mark.parametrize("hat, named", SCALAR_HOSTILE)
def test_a_hostile_sigma_hat_is_a_domain_error_naming_it(fn, hat, named):
    with pytest.raises(ps.DomainError, match=_naming("sigma_hat", named)):
        fn(hat)


@pytest.mark.parametrize("what, fn", COST_USERS)
@pytest.mark.parametrize("total, named", SCALAR_HOSTILE)
def test_a_hostile_cost_is_a_domain_error_naming_it(what, fn, total, named):
    with pytest.raises(ps.DomainError, match=_naming(what, named)):
        fn(total)


@pytest.mark.parametrize("what, fn", COST_USERS)
@pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf])
def test_a_non_finite_cost_is_a_domain_error_naming_it(what, fn, total):
    with pytest.raises(ps.DomainError, match=f"^{what} must be finite, got {total}$"):
        fn(total)


@pytest.mark.parametrize("what, fn", COST_USERS)
@pytest.mark.parametrize("total", [10**400, -(10**400)])
def test_an_int_too_large_for_a_float_is_a_domain_error_naming_it(what, fn, total):
    # it passed the finiteness check and the division raised a bare OverflowError
    with pytest.raises(ps.DomainError, match=f"^{what} must fit in a float, got {total}$"):
        fn(total)


def test_an_int_too_long_to_print_is_still_a_domain_error():
    # naming it would raise ValueError past Python's int-to-str digit limit
    with pytest.raises(ps.DomainError, match=r"^offline optimum must fit in a float, got a number too long to print \(int\)$"):
        ps.empirical_ratio(1.0, 10**5000)


@pytest.mark.parametrize(
    "call, what, named",
    [
        (lambda: ps.cost_ratio("0.5", 0.5, 0.5), "threshold multiplier", "0.5"),
        (lambda: ps.cost_ratio(True, 0.5, 0.5), "threshold multiplier", True),
        (lambda: ps.SwitchPolicy.at(True), "threshold multiplier", True),
        (lambda: ps.lambda_bed_policy(True, 0.5), "sigma_hat", True),
        (lambda: ps.worst_case_instance("1.0", 0.5), "threshold multiplier", "1.0"),
        (lambda: ps.lambda_red_distribution(True, 0.5, 0.5), "sigma_hat", True),
        (lambda: ps.lambda_red_distribution("2", 0.5, 0.5), "sigma_hat", "2"),
        (lambda: ps.worst_case_ratio("1", 0.5), "threshold multiplier", "1"),
        (lambda: ps.empirical_ratio("1", 2), "online cost", "1"),
    ],
)
def test_each_call_that_took_a_bool_or_a_string_as_a_number_now_names_it(call, what, named):
    # cost_ratio("0.5", ...) gave 2.0 and SwitchPolicy.at(True) gave s = 1.0;
    # lambda_red_distribution("2", ...) raised a bare TypeError
    with pytest.raises(ps.DomainError, match=_naming(what, named)):
        call()


def test_real_arguments_of_every_type_still_pass():
    # a list of reals is an array argument where arrays are taken
    assert ps.cost_ratio(0.5, [0.5, 2.0], [0.5]).tolist() == [ps.cost_ratio(0.5, 0.5, 0.5), ps.cost_ratio(0.5, 2.0, 0.5)]
    assert ps.expected_ratio_closed_form(True, [2.0], 0.5, [0.4]).tolist() == [
        ps.expected_ratio_closed_form(True, 2.0, 0.5, 0.4)
    ]
    assert ps.randomized_bounds(1, 1) == ps.randomized_bounds(1.0, 1.0)
    assert ps.cost_ratio(0.5, np.float64(0.5), np.float64(0.5)) == ps.cost_ratio(0.5, 0.5, 0.5)
    assert ps.expected_ratio(ps.red_distribution(0.5), 1, np.float64(0.5)) == ps.expected_ratio(
        ps.red_distribution(0.5), 1.0, 0.5
    )
    assert ps.SwitchPolicy.at(1) == ps.SwitchPolicy.at(np.float64(1.0)) == ps.SwitchPolicy.at(1.0)
    assert ps.worst_case_ratio(np.int64(2), 0.5) == ps.worst_case_ratio(2.0, 0.5)
    assert ps.cost_ratio(np.array([1, 2]), 0.5, 0.5).tolist() == ps.cost_ratio([1.0, 2.0], 0.5, 0.5).tolist()
    assert ps.lambda_bed_policy(np.float64(2.0), 0.5) == ps.lambda_bed_policy(2, 0.5)
    assert ps.empirical_ratio(3, 2) == 1.5
    assert ps.empirical_ratio(np.array([1.0, 3.0]), np.float64(2.0)).tolist() == [0.5, 1.5]


# one message per check, which the one-trace functions raise as it is
SWITCH_FAULTS = [
    ("thresholds", math.nan, "threshold multiplier must be -1, >= 0, or inf; got nan"),
    ("thresholds", -0.5, "threshold multiplier must be -1, >= 0, or inf; got -0.5"),
    ("thresholds", "1", "threshold multiplier must be a real number, got '1'"),
    ("thresholds", True, "threshold multiplier must be a real number, got True"),
    ("slots", math.nan, "switch slots must be integers, got nan"),
    ("slots", -0.5, "switch slots must be integers, got -0.5"),
    ("slots", "1", "switch slots must be integers, got '1'"),
    ("slots", True, "switch slots must be integers, got True"),
    ("slots", 2.5, "switch slots must be integers, got 2.5"),
    ("slots", 4, "switch slot 4 lies outside [0, 3]"),  # T + 1
]


@pytest.mark.parametrize("kind, bad, message", SWITCH_FAULTS)
def test_a_bad_threshold_or_slot_raises_one_message(kind, bad, message):
    trace = ps.Trace(prices=[1, 2, 3], demands=[1, 1, 1])
    params = ps.BillingParams(p_g=3, p_m=10, capacity=1)
    good = 0.5 if kind == "thresholds" else 1
    one_trace = ps.switch_slots if kind == "thresholds" else ps.switch_costs
    with pytest.raises(ps.DomainError, match=f"^{re.escape(message)}$"):
        one_trace(trace, params, [good, bad])


HUGE = 10**400
_TRACE = ps.Trace(prices=[1, 2, 3], demands=[1, 1, 1])
_PARAMS = ps.BillingParams(p_g=3, p_m=10, capacity=1)
_LAYERED = (ps.Trace(prices=[1, 1], demands=[2, 2]), ps.BillingParams(p_g=2, p_m=10, capacity=2))

# each raised a bare OverflowError where numpy or float() read the int
OVERFLOW_ESCAPES = [
    (lambda: ps.cost_ratio([HUGE], 0.5, 0.5), ps.DomainError, f"threshold multiplier must fit in a float, got {HUGE}"),
    (lambda: ps.cost_ratio(0.5, [HUGE], 0.5), ps.DomainError, f"premium mass must fit in a float, got {HUGE}"),
    (lambda: ps.worst_case_ratio(HUGE, 0.5), ps.DomainError, f"threshold multiplier must fit in a float, got {HUGE}"),
    (
        lambda: ps.switch_slots(_TRACE, _PARAMS, [HUGE]),
        ps.DomainError,
        f"threshold multiplier must fit in a float, got {HUGE}",
    ),
    (
        lambda: ps.expected_ratios([ps.red_distribution(0.5)], [0.5], [HUGE]),
        ps.DomainError,
        f"premium mass must fit in a float, got {HUGE}",
    ),
    (
        lambda: ps.run_layered(*_LAYERED, "lambda-bed", lam=0.5, sigma_hats=HUGE),
        ps.DomainError,
        f"sigma_hats must fit in a float, got {HUGE}",
    ),
    (
        lambda: experiment._sweep_values("capacity", [HUGE]),
        ps.ValidationError,
        f"sweep axis 'capacity': must fit in a float, got {HUGE}",
    ),
    (
        lambda: ExperimentConfig(peak_multiplier=HUGE).validate(),
        ps.ValidationError,
        f"peak-multiplier: must fit in a float, got {HUGE}",
    ),
]


@pytest.mark.parametrize(
    "call, error, message",
    OVERFLOW_ESCAPES,
    ids=["cost_ratio-s", "cost_ratio-sigma", "worst_case_ratio", "switch_slots", "expected_ratios",
         "run_layered", "sweep_values", "config"],
)
def test_an_int_too_large_for_a_float_is_named_by_every_reader(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


LONG = 10**5000
_TOO_LONG = "a number too long to print (int)"
_RUN = (ps.Trace(prices=[0.5, 0.25, 0.5], demands=[1, 0, 1]), ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1))

# the per-run scalar checks: the first four raised a bare OverflowError, the
# next two a bare ValueError from their range message's f-string, and
# SwitchPolicy(LONG) was built with an int s
PER_RUN_ESCAPES = [
    (lambda: ps.lambda_red_distribution(HUGE, 0.5, 0.5), f"sigma_hat must fit in a float, got {HUGE}"),
    (lambda: ps.lambda_bed_policy(HUGE, 0.5), f"sigma_hat must fit in a float, got {HUGE}"),
    (lambda: ps.SwitchPolicy.at(HUGE), f"threshold multiplier must fit in a float, got {HUGE}"),
    (
        lambda: ps.run_algorithm(*_RUN, "lambda-red", lam=0.5, sigma_hat=HUGE, seed=1),
        f"sigma_hat must fit in a float, got {HUGE}",
    ),
    (lambda: ps.red_distribution(LONG), f"beta must fit in a float, got {_TOO_LONG}"),
    (lambda: ps.deterministic_bounds(LONG, 0.5), f"lambda must fit in a float, got {_TOO_LONG}"),
    (lambda: ps.SwitchPolicy(LONG), f"threshold multiplier must fit in a float, got {_TOO_LONG}"),
]


@pytest.mark.parametrize(
    "call, message",
    PER_RUN_ESCAPES,
    ids=["lambda_red_distribution", "lambda_bed_policy", "SwitchPolicy.at", "run_algorithm", "red_distribution",
         "deterministic_bounds", "SwitchPolicy"],
)
def test_a_per_run_check_names_an_int_too_large_for_a_float(call, message):
    with pytest.raises(ps.DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_a_switch_policy_stores_a_real_threshold_as_a_float():
    # SwitchPolicy(True) and SwitchPolicy(2) kept a bool and an int
    with pytest.raises(ps.DomainError, match=r"^threshold multiplier must be a real number, got True$"):
        ps.SwitchPolicy(True)
    for s in (2, np.int64(2), np.float32(2.0), 2.0):
        policy = ps.SwitchPolicy(s)
        assert type(policy.s) is float and policy == ps.SwitchPolicy.at(s) == ps.SwitchPolicy(2.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda values: ps.cost_ratio(values, 0.5, 0.5), "threshold multiplier"),
        (lambda values: ps.Trace(prices=values, demands=[1, 1]), "prices"),
        (lambda values: ps.Trace(prices=[1, 1], demands=values), "demands"),
        (
            lambda values: ps.switch_slots(
                ps.Trace(prices=[1, 2, 3], demands=[1, 1, 1]), ps.BillingParams(p_g=3, p_m=10, capacity=1), values
            ),
            "threshold multiplier",
        ),
    ],
)
def test_arrays_numpy_cannot_stack_are_refused_naming_the_argument(call, name):
    # np.asarray(..., dtype=object) raised a bare ValueError on these
    with pytest.raises(ps.PeakSchedError, match=f"^{name} "):
        call([np.zeros((2, 2)), np.zeros((2, 3))])
