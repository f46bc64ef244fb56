"""Predictors and the predicted premium mass."""
import math
import re

import numpy as np
import pytest

import peaksched as ps
from conftest import make_integer_instance


def test_perfect_prediction_reproduces_mass(rng):
    for _ in range(30):
        trace, params = make_integer_instance(rng)
        prediction = ps.perfect_prediction(trace)
        assert ps.sigma_hat(prediction, params) == ps.sigma(trace, params)


def test_zero_demand_prediction_has_zero_mass():
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    prediction = ps.Prediction(prices=np.array([1.0, 1.0]), demands=np.zeros(2))
    assert ps.sigma_hat(prediction, params) == 0.0


def test_mass_arithmetic_example():
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    prediction = ps.Prediction(prices=np.array([1.0, 1.0]), demands=np.array([2.0, 2.0]))
    assert ps.sigma_hat(prediction, params) == 1.0


def test_overpriced_prediction_can_go_negative():
    params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
    prediction = ps.Prediction(prices=np.array([3.0, 3.0]), demands=np.array([1.0, 1.0]))
    assert ps.sigma_hat(prediction, params) < 0


class TestGaussianPredictor:
    def test_zero_noise_is_identity(self, rng):
        trace, _ = make_integer_instance(rng)
        prediction = ps.gaussian_predictor(trace, sigma1=0, sigma2=0, seed=3)
        assert np.array_equal(prediction.prices, trace.prices)
        assert np.array_equal(prediction.demands, trace.demands)

    def test_seed_determinism(self, rng):
        trace, _ = make_integer_instance(rng)
        a = ps.gaussian_predictor(trace, seed=11)
        b = ps.gaussian_predictor(trace, seed=11)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.demands, b.demands)
        c = ps.gaussian_predictor(trace, seed=12)
        assert not np.array_equal(a.prices, c.prices)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(self, rng, seed):
        trace, _ = make_integer_instance(rng)
        with pytest.raises(ps.DomainError, match="seed"):
            ps.gaussian_predictor(trace, seed=seed)

    @pytest.mark.parametrize(
        "noise, message",
        [
            ({"sigma1": math.nan, "sigma2": math.nan}, "noise standard deviation sigma1 must be finite, got nan"),
            ({"sigma2": math.nan}, "noise standard deviation sigma2 must be finite, got nan"),
            ({"sigma1": math.inf}, "noise standard deviation sigma1 must be finite, got inf"),
            ({"sigma1": "a"}, "noise standard deviation sigma1 must be a real number, got 'a'"),
            ({"sigma2": True}, "noise standard deviation sigma2 must be a real number, got True"),
            ({"sigma1": -1.0, "sigma2": math.nan}, "noise standard deviations must be >= 0"),
            # an int beyond the largest float raised a bare OverflowError from math.isfinite
            ({"sigma1": 10**400}, f"noise standard deviation sigma1 must fit in a float, got {10**400}"),
            ({"sigma2": 10**400}, f"noise standard deviation sigma2 must fit in a float, got {10**400}"),
        ],
    )
    def test_a_noise_level_that_is_not_a_finite_number_is_rejected(self, rng, noise, message):
        # NaN failed both `< 0` and `> 0`, so the prediction came back noiseless
        trace, _ = make_integer_instance(rng)
        with pytest.raises(ps.ValidationError, match=f"^{re.escape(message)}$"):
            ps.gaussian_predictor(trace, **noise)

    def test_noise_scale_matches_request(self):
        # price noise is unclamped, so its sample std tracks sigma1
        trace = ps.Trace(prices=np.full(100_000, 30.0), demands=np.ones(100_000))
        prediction = ps.gaussian_predictor(trace, sigma1=4.0, sigma2=0.0, seed=5)
        sample_std = float(np.std(prediction.prices - trace.prices, ddof=1))
        assert sample_std == pytest.approx(4.0, rel=0.02)

    def test_demands_clamped_nonnegative(self):
        trace = ps.Trace(prices=np.full(1000, 30.0), demands=np.full(1000, 0.5))
        prediction = ps.gaussian_predictor(trace, sigma1=0.0, sigma2=5.0, seed=5)
        assert prediction.demands.min() >= 0.0

    def test_default_noise_levels(self, rng):
        trace = ps.Trace(prices=np.full(50_000, 40.0), demands=np.full(50_000, 8.0))
        prediction = ps.gaussian_predictor(trace, seed=2)
        price_std = float(np.std(prediction.prices - trace.prices, ddof=1))
        assert price_std == pytest.approx(20.0, rel=0.03)  # half the max price


class TestAdversarialPredictor:
    def test_flips_low_to_high(self):
        trace = ps.Trace(prices=[1, 1], demands=[1, 1])
        params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
        assert ps.sigma(trace, params) == 0.5
        prediction = ps.adversarial_predictor(trace, params)
        assert ps.sigma_hat(prediction, params) == pytest.approx(2.0, abs=1e-12)

    def test_flips_high_to_low(self):
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
        params = ps.BillingParams(p_g=2, p_m=2, capacity=1)
        assert ps.sigma(trace, params) == 1.5
        prediction = ps.adversarial_predictor(trace, params)
        assert ps.sigma_hat(prediction, params) == 0.0

    def test_zero_mass_instances_still_flip(self):
        trace = ps.Trace(prices=[2, 2], demands=[1, 1])  # prices at the generation cost
        params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
        assert ps.sigma(trace, params) == 0.0
        prediction = ps.adversarial_predictor(trace, params)
        assert ps.sigma_hat(prediction, params) == pytest.approx(2.0, abs=1e-12)

    def test_trusting_bad_advice_underperforms_plain_rule(self):
        """On an adversarial instance, full trust in a flipped prediction
        costs more than the plain break-even rule ever would."""
        trace, params = ps.worst_case_instance(0.5, 0.5, p_m=100.0, slots=1000)
        prediction = ps.adversarial_predictor(trace, params)
        record = ps.run_algorithm(
            trace, params, "lambda-bed", lam=0.1,
            sigma_hat=ps.sigma_hat(prediction, params),
        )
        total = ps.cost_of(record.schedule, trace, params).total
        opt = ps.optimal_basic(trace, params).total
        assert total / opt > ps.worst_case_ratio(1.0, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", ["prices", "demands"])
def test_prediction_rejects_non_finite_entries(bad, slot):
    vectors = {"prices": [1.0, 2.0, 3.0], "demands": [1.0, 1.0, 1.0]}
    vectors[slot][1] = bad
    what = slot[:-1]
    with pytest.raises(ps.ValidationError, match=f"predicted {what} at slot 1 is"):
        ps.Prediction(**vectors)


def test_an_empty_prediction_has_mass_zero():
    prediction = ps.Prediction(prices=[], demands=[])
    assert len(prediction) == 0
    assert ps.sigma_hat(prediction, ps.BillingParams(p_g=2.0, p_m=4.0, capacity=1)) == 0.0


def test_prediction_keeps_negative_prices_and_rejects_negative_demand():
    prediction = ps.Prediction(prices=[-1.0, 2.0], demands=[1.0, 1.0])
    assert prediction.prices[0] == -1.0
    with pytest.raises(ps.ValidationError, match="predicted demand at slot 0 is -1.0"):
        ps.Prediction(prices=[1.0, 2.0], demands=[-1.0, 1.0])


def test_prediction_vectors_are_frozen_copies_of_their_inputs():
    trace = ps.Trace(prices=[1.0, 2.0], demands=[1.0, 0.0])
    prediction = ps.perfect_prediction(trace)
    assert prediction.prices is not trace.prices and prediction.demands is not trace.demands
    assert prediction.prices.tobytes() == trace.prices.tobytes()
    assert prediction.demands.tobytes() == trace.demands.tobytes()
    assert not prediction.prices.flags.writeable and not prediction.demands.flags.writeable
    writable = np.array([1.0, 2.0])
    copied = ps.Prediction(prices=writable, demands=[0.0, 0.0])
    assert copied.prices is not writable and not copied.prices.flags.writeable
