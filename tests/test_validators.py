"""The shared domain checks and the functions that rely on them."""
import math

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
