"""The shared domain checks and the functions that rely on them."""
import math
import re

import numpy as np
import pytest

import peaksched as ps
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
