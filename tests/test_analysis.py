"""Ratio curves, guarantee formulas, quadrature, and instance construction."""
import itertools
import math
import re
import time

import numpy as np
import pytest

import conftest
import peaksched as ps
from conftest import reference_expected_ratio, reference_integrate
from peaksched import quadrature
from peaksched.quadrature import integrate

E = math.e


class TestCostRatio:
    def test_low_mass_switching_branch(self):
        assert ps.cost_ratio(0.5, 0.5, 0.5) == pytest.approx(2.0)

    def test_high_mass_holding_branch(self):
        assert ps.cost_ratio(2.0, 1.5, 0.5) == pytest.approx(1.2)

    def test_grid_from_start_low_mass_equals_beta(self):
        assert ps.cost_ratio(ps.SwitchPolicy.grid_from_start(), 0.5, 0.5) == pytest.approx(0.5)

    def test_grid_from_start_high_mass_is_optimal(self):
        # the optimum is itself all-grid above the threshold
        assert ps.cost_ratio(-1.0, 2.5, 0.3) == 1.0

    def test_never_switch_below_threshold_is_optimal(self):
        assert ps.cost_ratio(math.inf, 0.8, 0.3) == 1.0

    def test_zero_mass_convention(self):
        assert ps.cost_ratio(0.7, 0.0, 0.4) == 1.0

    def test_never_switch_above_threshold(self):
        sigma, beta = 3.0, 0.25
        expected = sigma / ((sigma - 1) * beta + 1)
        assert ps.cost_ratio(math.inf, sigma, beta) == pytest.approx(expected)


    def test_arrays_broadcast_and_scalars_stay_float(self):
        s = np.array([-1.0, 0.5, 2.0, math.inf])[:, None]
        sigma = np.array([0.0, 0.5, 1.5, 3.0])
        grid = ps.cost_ratio(s, sigma, 0.25)
        assert grid.shape == (4, 4)
        assert grid[1, 1] == ps.cost_ratio(0.5, 0.5, 0.25) and type(ps.cost_ratio(0.5, 0.5, 0.25)) is float

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, -math.inf])
    def test_rejects_a_mass_outside_the_domain(self, sigma):
        with pytest.raises(ps.DomainError, match="premium mass"):
            ps.cost_ratio(0.5, sigma, 0.5)
        with pytest.raises(ps.DomainError, match="premium mass"):
            ps.cost_ratio(0.5, np.array([0.5, sigma]), 0.5)

    @pytest.mark.parametrize("s", [math.nan, -math.inf, -0.5])
    def test_rejects_a_multiplier_outside_the_policy_rule_naming_it(self, s):
        message = re.escape(f"threshold multiplier must be -1, >= 0, or inf; got {s}")
        with pytest.raises(ps.DomainError, match=message):
            ps.cost_ratio(s, 3.0, 0.5)
        with pytest.raises(ps.DomainError, match=message):
            ps.cost_ratio(np.array([-1.0, s, 0.5]), 3.0, 0.5)

    def test_a_subnormal_mass_is_not_an_overflow_warning(self):
        # the low-mass branch's quotient overflows, but s > sigma discards it
        # (the suite turns a RuntimeWarning into an error)
        assert ps.cost_ratio(0.5, 5e-324, 0.5) == 1.0
        assert ps.cost_ratio(np.array([0.5, 2.0]), 5e-324, 0.5).tolist() == [1.0, 1.0]

    def test_beta_broadcasts_like_its_points(self):
        beta = np.array([0.2, 0.5, 1.0])[:, None]
        s = np.array([-1.0, 0.4, 1.5, math.inf])
        grid = ps.cost_ratio(s, 1.2, beta)
        assert grid.tolist() == [[ps.cost_ratio(x, 1.2, float(b)) for x in s] for b in beta[:, 0]]

    @pytest.mark.parametrize("beta", [0.0, 1.5, math.nan])
    def test_rejects_a_beta_outside_the_unit_interval(self, beta):
        with pytest.raises(ps.DomainError, match=f"beta must lie in \\(0, 1\\], got {beta}"):
            ps.cost_ratio(0.5, 0.5, beta)
        with pytest.raises(ps.DomainError, match=f"beta must lie in \\(0, 1\\], got {beta}"):
            ps.cost_ratio(0.5, 0.5, np.array([0.5, beta]))


class TestWorstCaseRatio:
    def test_break_even_value(self):
        assert ps.worst_case_ratio(1.0, 0.5) == pytest.approx(1.5)  # 2 - beta

    def test_no_premium_no_loss(self):
        assert ps.worst_case_ratio(1.0, 1.0) == 1.0

    def test_equals_ratio_curve_supremum(self):
        grid = np.linspace(0.01, 12, 4000)
        for s in (0.3, 0.5, 1.0, 1.7):
            for beta in (0.2, 0.5, 0.8):
                envelope = ps.cost_ratio(s, np.append(grid, s), beta).max()
                assert ps.worst_case_ratio(s, beta) == pytest.approx(envelope, abs=1e-9)
        assert ps.worst_case_ratio(0.5, 0.5) == pytest.approx(2.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ps.DomainError):
            ps.worst_case_ratio(0.0, 0.5)


class TestDeterministicBounds:
    def test_no_trust_recovers_break_even(self):
        assert ps.deterministic_bounds(1.0, 0.5).robustness == pytest.approx(1.5)

    def test_mid_trust_example(self):
        assert ps.deterministic_bounds(0.5, 0.75) == pytest.approx((1.5, 1.5))

    def test_full_trust_limit_is_optimal(self):
        assert ps.deterministic_bounds(1e-12, 0.5).consistency == pytest.approx(1.0, abs=1e-9)

    def test_tradeoff_monotone(self):
        lams = np.linspace(0.05, 1.0, 30)
        for beta in (0.1, 0.5, 0.9):
            bounds = [ps.deterministic_bounds(float(l), beta) for l in lams]
            robust = [b.robustness for b in bounds]
            consist = [b.consistency for b in bounds]
            assert all(a >= b for a, b in zip(robust, robust[1:]))
            assert all(a <= b for a, b in zip(consist, consist[1:]))


class TestRandomizedBounds:
    def test_no_trust_recovers_pure_ratio(self):
        for beta in (0.1, 0.5, 1.0):
            bounds = ps.randomized_bounds(1.0, beta)
            pure = E / (E - 1 + beta)
            assert bounds.robustness == pytest.approx(pure, abs=1e-12)
            assert bounds.consistency == pytest.approx(pure, abs=1e-12)

    def test_full_trust_consistency_is_one(self):
        for beta in (0.1, 0.5, 1.0):
            assert ps.randomized_bounds(0.0, beta).consistency == pytest.approx(1.0, abs=1e-12)

    def test_mid_point_formula(self):
        lam, beta = 0.5, 0.5
        phi = 1 / (E - 0.5)
        expected_rob = phi * (E + 0.5 * 0.5 * (E - 0.5) / 0.5)
        expected_cons = phi * (E - 0.5 * 0.5 + 0.5 * 0.5 * 0.5 * (E - 1) / 0.5)
        bounds = ps.randomized_bounds(lam, beta)
        assert bounds.robustness == pytest.approx(expected_rob, abs=1e-12)
        assert bounds.consistency == pytest.approx(expected_cons, abs=1e-12)


class TestNaiveBounds:
    def test_consistency_is_inverse_beta(self):
        assert ps.naive_randomized_bounds(0.5, 0.5).consistency == 2.0
        assert ps.naive_randomized_bounds(0.5, 0.1).consistency == pytest.approx(10.0)

    def test_small_beta_consistency_exceeds_designed_rule(self):
        naive = ps.naive_randomized_bounds(0.5, 0.1).consistency
        designed = ps.randomized_bounds(0.5, 0.1).consistency
        assert naive > designed + 1.0

    def test_full_trust_robustness_recovers_pure(self):
        for beta in (0.2, 0.6, 1.0):
            expected = E / (E - 1 + beta)
            assert ps.naive_randomized_bounds(1.0, beta).robustness == pytest.approx(expected, abs=1e-12)


class TestQuadrature:
    def test_polynomials_exact(self):
        value, _ = integrate(lambda x: 3 * x**2, 0, 1)
        assert value == pytest.approx(1.0, abs=1e-14)
        value, _ = integrate(lambda x: x**7 - x, -1, 2)
        assert value == pytest.approx(2**8 / 8 - 1 / 8 - (2**2 / 2 - 1 / 2), abs=1e-12)

    def test_exponential_exact(self):
        value, err = integrate(lambda x: math.exp(x), 0, 1)
        assert value == pytest.approx(E - 1, abs=1e-13)
        assert err < 1e-9

    def test_kink_handled_via_breakpoint(self):
        f = lambda x: abs(x - 0.3)
        value, _ = integrate(f, 0, 1, breakpoints=(0.3,))
        assert value == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, abs=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda x: x, 2, 2) == (0.0, 0.0)

    def test_inverted_interval_is_rejected_naming_it(self):
        with pytest.raises(ps.NumericError, match=re.escape("inverted interval [1.0, 0.5]")):
            integrate(lambda x: x, 1.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_fails_at_once(self, bad):
        with pytest.raises(ps.NumericError, match="not finite"):
            integrate(lambda x: bad if x > 0.5 else x, 0, 1)

    def test_panel_cap_stops_a_tolerance_below_rounding(self):
        # a whole tolerance of 1e-16 is under the rounding of the [0, 1e-7]
        # panels (about 8e-16), and no share is floored above the whole
        # tolerance, so bisection alone would run to 2**48 panels
        with pytest.raises(ps.NumericError, match="panels") as raised:
            integrate(lambda x: (1.0 + (1.0 - 1e-7 + x) * 0.5 / 1e-7) * math.exp(x), 0.0, 1e-7, abs_tol=1e-16)
        assert raised.value.achieved is not None and raised.value.achieved > 0

    def test_panel_cap_leaves_a_result_that_fits_it(self, monkeypatch):
        f = lambda x: math.sqrt(abs(x))
        value = integrate(f, -2.0, 3.0, breakpoints=(0.0,))
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        assert integrate(counted, -2.0, 3.0, breakpoints=(0.0,)) == value
        used = len(calls) // 15  # one integrand call per node of each panel
        assert len(calls) == 15 * used
        assert 100 < used < quadrature._MAX_PANELS
        # a cap of exactly the panels the result needs leaves it as it is
        monkeypatch.setattr(quadrature, "_MAX_PANELS", used)
        assert integrate(f, -2.0, 3.0, breakpoints=(0.0,)) == value
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
        with pytest.raises(ps.NumericError, match="panels"):
            integrate(f, -2.0, 3.0, breakpoints=(0.0,))

    def test_node_table_matches_the_indexed_rule_bit_for_bit(self, monkeypatch):
        def indexed_gk15(f, a, b):
            # the rule as first written: index the abscissae, test j for a Gauss node
            center = 0.5 * (a + b)
            half = 0.5 * (b - a)
            fc = f(center)
            kronrod = quadrature._WGK[7] * fc
            gauss = quadrature._WG[3] * fc
            for j in range(7):
                lo = f(center - half * quadrature._XGK[j])
                hi = f(center + half * quadrature._XGK[j])
                kronrod += quadrature._WGK[j] * (lo + hi)
                if j % 2 == 1:
                    gauss += quadrature._WG[j // 2] * (lo + hi)
            kronrod *= half
            gauss *= half
            return kronrod, abs(kronrod - gauss)

        cases = [
            (lambda x: abs(x - 0.3) * math.exp(x), 0.0, 1.0, (0.3,)),
            (lambda x: 1.0 if x > 0.45 else 1.0 + (0.55 + x) * 0.7 / 0.45, 0.0, 1.0, (0.45,)),
            (lambda x: math.sin(7 * x) + x**3, -1.0, 2.5, (0.0, 1.1)),
            (lambda x: math.sqrt(abs(x)), -2.0, 3.0, (0.0,)),
        ]
        # the array engine against the scalar recursion run on the indexed rule
        current = [integrate(f, a, b, abs_tol=1e-9, breakpoints=bp) for f, a, b, bp in cases]
        monkeypatch.setattr(conftest, "reference_gk15", indexed_gk15)
        indexed = [reference_integrate(f, a, b, abs_tol=1e-9, breakpoints=bp) for f, a, b, bp in cases]
        assert current == indexed


class TestExpectedRatio:
    def test_low_branch_constant_value(self):
        spec = ps.lambda_red_distribution(0.5, 0.5, 0.5)
        value = ps.expected_ratio(spec, 0.7, 0.5)
        assert value == pytest.approx((E - 0.25) / (E - 0.5), abs=1e-9)
        # constant across the below-threshold range
        assert ps.expected_ratio(spec, 0.2, 0.5) == pytest.approx(value, abs=1e-9)

    def test_full_trust_reproduces_pure_ratio(self):
        for beta in (0.25, 0.6):
            spec = ps.lambda_red_distribution(2.0, 1.0, beta)
            for sigma in (0.3, 0.9):
                assert ps.expected_ratio(spec, sigma, beta) == pytest.approx(
                    E / (E - 1 + beta), abs=1e-9
                )

    def test_high_branch_matches_closed_form(self):
        for lam in (0.2, 0.5, 0.8):
            for beta in (0.2, 0.5, 0.8):
                spec = ps.lambda_red_distribution(2.0, lam, beta)
                for sigma in (1.5, 3.0, 8.0):
                    quad = ps.expected_ratio(spec, sigma, beta)
                    closed = ps.expected_ratio_closed_form(True, sigma, lam, beta)
                    assert quad == pytest.approx(closed, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.0, -0.2, 1.5, math.nan])
    def test_rejects_beta_outside_unit_interval(self, beta):
        with pytest.raises(ps.DomainError, match="beta"):
            ps.expected_ratio(ps.red_distribution(0.5), 0.7, beta)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan])
    def test_rejects_negative_mass(self, sigma):
        with pytest.raises(ps.DomainError, match="premium mass"):
            ps.expected_ratio(ps.red_distribution(0.5), sigma, 0.5)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf, -math.inf])
    def test_every_entry_point_rejects_a_mass_outside_the_domain(self, sigma):
        with pytest.raises(ps.DomainError, match="premium mass"):
            ps.expected_ratio(ps.red_distribution(0.5), sigma, 0.5)
        with pytest.raises(ps.DomainError, match="premium mass"):
            ps.expected_ratio(ps.lambda_red_distribution(2.0, 0.5, 0.5), sigma, 0.5)
        with pytest.raises(ps.DomainError, match="premium mass"):
            ps.expected_ratio_closed_form(True, sigma, 0.5, 0.5)
        with pytest.raises(ps.DomainError, match="premium mass"):
            ps.expected_ratios([ps.red_distribution(0.5)], [0.5], [0.7, sigma])

    @pytest.mark.parametrize("sigma", [1e-7, 1.8e-278])
    def test_a_tiny_mass_meets_the_closed_form_within_a_second(self, sigma):
        # the [0, sigma] segment's length share of 1e-9 is below the rounding
        # of its panels; floored at that rounding, the segment converges
        spec = ps.red_distribution(0.5)
        start = time.perf_counter()
        value = ps.expected_ratio(spec, sigma, 0.5)
        assert time.perf_counter() - start < 1.0
        assert value == reference_expected_ratio(spec, sigma, 0.5)
        assert abs(value - ps.expected_ratio_closed_form(True, sigma, 1.0, 0.5)) <= 1e-9
        # a little more mass leaves the segment a share above rounding
        assert ps.expected_ratio(spec, 1e-5, 0.5) == reference_expected_ratio(spec, 1e-5, 0.5)

    def test_a_subnormal_mass_fails_as_a_non_finite_integrand(self):
        # the [0, sigma] segment's integrand is infinite: the quadrature must
        # say so, not leak an overflow warning from the array panel
        with pytest.raises(ps.NumericError, match="integrand is not finite"):
            ps.expected_ratio(ps.red_distribution(0.5), 5e-324, 0.5)

    @pytest.mark.parametrize(
        "naive_first, sigmas, first",
        [
            (False, [0.5, 5e-324, 1e-310], "integrand is not finite on [0.0, 5e-324]"),
            (False, [0.5, 1e-310, 5e-324], "integrand is not finite on [0.0, 1e-310]"),
            # the cut point's error is known only when its walk ends, many
            # steps after the later points' NaNs stopped their walks
            (True, [2.0, 5e-324], "quadrature used its 2 panels at error"),
            (True, [5e-324, 2.0], "integrand is not finite on [0.0, 5e-324]"),
        ],
    )
    def test_the_first_failing_point_in_point_order_raises(self, monkeypatch, naive_first, sigmas, first):
        # naive lambda-red at trust 0.01 spreads its density over [0, 100],
        # which two panels do not settle
        specs = [ps.red_distribution(0.5), ps.naive_red_distribution(0.5, 0.01, 0.5)]
        specs = specs[::-1] if naive_first else specs
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        with pytest.raises(ps.NumericError, match=f"^{re.escape(first)}") as raised:
            ps.expected_ratios(specs, [0.5, 0.5], sigmas)
        # as the first of the one-point calls, row by row, raises alone
        for spec, sigma in itertools.product(specs, sigmas):
            try:
                reference_expected_ratio(spec, sigma, 0.5)
            except ps.NumericError as error:
                assert (str(error), error.achieved) == (str(raised.value), raised.value.achieved)
                break
        else:
            raise AssertionError("no point failed alone")

    @pytest.mark.parametrize("lo", [-1.0, -math.inf])
    def test_a_density_support_below_zero_is_refused(self, lo):
        # thresholds below 0 are no policy's; at -inf, numpy would warn on
        # the panel's nodes before the quadrature failed
        spec = ps.DistributionSpec(atoms=(), coeff=1.0 / (1.0 - math.exp(lo)), lo=lo, hi=0.0)
        spec.require_normalized()
        message = f"density support [{lo}, 0.0] holds threshold multipliers below 0"
        with pytest.raises(ps.DomainError, match=f"^{re.escape(message)}$"):
            ps.expected_ratios([ps.red_distribution(0.5), spec], [0.5, 0.5], [0.5])
        with pytest.raises(ps.DomainError, match=re.escape(message)):
            ps.expected_ratio(spec, 0.5, 0.5)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_masses_down_to_1e_12_meet_the_closed_form(self, lam, beta):
        # the low-prediction branch: its only atom is never-switch, whose
        # ratio is exactly 1, so the density segments carry all the error
        sigmas = [1e-12, 1e-9, 1e-7, 1e-6]
        spec = ps.lambda_red_distribution(0.5, lam, beta)
        values = ps.expected_ratios([spec], [beta], sigmas)[0]
        closed = ps.expected_ratio_closed_form(False, np.array(sigmas), lam, beta)
        assert np.abs(values - closed).max() <= 1e-9

    def test_batch_shape_and_one_beta_per_spec(self):
        specs = [ps.red_distribution(0.3), ps.lambda_red_distribution(2.0, 0.4, 0.6)]
        values = ps.expected_ratios(specs, [0.3, 0.6], [0.0, 0.5, 1.0, 4.0])
        assert values.shape == (2, 4)
        assert values[1, 3] == ps.expected_ratio(specs[1], 4.0, 0.6)
        assert type(ps.expected_ratio(specs[1], 4.0, 0.6)) is float
        assert ps.expected_ratios([], [], [0.5]).shape == (0, 1)
        with pytest.raises(ps.DomainError, match="one beta per spec"):
            ps.expected_ratios(specs, [0.3], [0.5])

    def test_closed_form_on_arrays_equals_its_points(self):
        high = np.array([[True], [False]])
        sigma = np.array([0.1, 0.5, 1.0, 1.5, 8.0])
        grid = ps.expected_ratio_closed_form(high, sigma, 0.3, 0.4)
        assert grid.shape == (2, 5)
        for i, h in enumerate((True, False)):
            assert grid[i].tolist() == [ps.expected_ratio_closed_form(h, float(x), 0.3, 0.4) for x in sigma]
        with pytest.raises(ps.DomainError, match="positive premium mass"):
            ps.expected_ratio_closed_form(high, np.array([0.5, 0.0]), 0.3, 0.4)

    def test_closed_form_on_a_beta_array_equals_the_per_beta_calls_bit_for_bit(self):
        # verify's grid, one call per lambda as its sweep makes it
        from peaksched.harness.verify import default_beta_grid, default_lambda_grid, default_sigma_grid

        betas = default_beta_grid()
        high = np.array([True, False])[:, None]
        mass = np.array(default_sigma_grid())
        for lam in (0.0, *default_lambda_grid(), 1.0):
            grid = ps.expected_ratio_closed_form(high, mass, lam, np.array(betas)[:, None, None])
            loop = np.array([ps.expected_ratio_closed_form(high, mass, lam, beta) for beta in betas])
            assert grid.shape == (len(betas), 2, len(mass))
            assert grid.tobytes() == loop.tobytes()
        assert type(ps.expected_ratio_closed_form(True, 2.0, 0.5, np.float64(0.4))) is float

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5, math.nan])
    def test_closed_form_names_the_first_bad_beta_in_an_array(self, bad):
        betas = np.array([0.2, 0.5, bad, 3.0, 0.7])
        with pytest.raises(ps.DomainError, match=rf"beta must lie in \(0, 1\], got {re.escape(str(bad))}$"):
            ps.expected_ratio_closed_form(True, 0.5, 0.3, betas)
        with pytest.raises(ps.DomainError, match=r"beta must be a real number, got True$"):
            ps.expected_ratio_closed_form(True, 0.5, 0.3, [0.2, True, bad])

    def test_rejects_unnormalized_spec(self):
        spec = ps.DistributionSpec(atoms=((math.inf, 0.5),), coeff=0.1, lo=0.0, hi=1.0)
        with pytest.raises(ps.ValidationError, match="mass"):
            ps.expected_ratio(spec, 0.7, 0.5)

    def test_checks_hold_without_atoms(self):
        # a pure density segment: no atom goes through cost_ratio's own checks
        spec = ps.DistributionSpec(atoms=(), coeff=1.0 / (E - 1.0), lo=0.0, hi=1.0)
        assert ps.expected_ratio(spec, 0.7, 0.5) > 1.0
        with pytest.raises(ps.DomainError, match="beta"):
            ps.expected_ratio(spec, 0.7, 0.0)
        with pytest.raises(ps.DomainError, match="premium mass"):
            ps.expected_ratio(spec, -1.0, 0.5)
        with pytest.raises(ps.ValidationError, match="mass"):
            ps.expected_ratio(ps.DistributionSpec(atoms=(), coeff=0.5, lo=0.0, hi=1.0), 0.7, 0.5)

    def test_pure_distribution_expected_ratio(self):
        # the pure randomized rule meets its competitive ratio at every mass
        for beta in (0.3, 0.7):
            spec = ps.red_distribution(beta)
            for sigma in (0.4, 1.0):
                assert ps.expected_ratio(spec, sigma, beta) <= E / (E - 1 + beta) + 1e-9


class TestWorstCaseInstance:
    def test_mass_hits_target_exactly(self):
        for s in (0.5, 1.0, 1.7):
            trace, params = ps.worst_case_instance(s, 0.5, p_m=100.0, slots=977)
            assert ps.sigma(trace, params) == pytest.approx(s, abs=1e-9)
            assert ps.beta(trace, params) == pytest.approx(0.5, abs=1e-12)

    def test_break_even_ratio_converges(self):
        trace, params = ps.worst_case_instance(1.0 + 1e-9, 0.5, p_m=100.0, slots=500_000)
        record = ps.run_threshold(trace, params, ps.bed_policy())
        total = ps.cost_of(record.schedule, trace, params).total
        opt = ps.optimal_basic(trace, params).total
        assert total / opt == pytest.approx(ps.worst_case_ratio(1.0, 0.5), abs=2e-6)

    def test_unit_beta_leaves_no_premium_to_lose(self):
        # with prices at the generation cost the premium mass is 0, so no
        # positive threshold ever switches and the ratio is exactly 1;
        # buying from the grid outright still pays the one peak charge,
        # which washes out as the horizon grows
        trace, params = ps.worst_case_instance(1.0, 1.0, p_m=10.0, slots=100)
        opt = ps.optimal_basic(trace, params).total
        for policy in (ps.bed_policy(), ps.SwitchPolicy.at(0.3), ps.SwitchPolicy.never_switch()):
            record = ps.run_threshold(trace, params, policy)
            total = ps.cost_of(record.schedule, trace, params).total
            assert ps.empirical_ratio(total, opt) == pytest.approx(1.0, abs=1e-9)
        eager = ps.run_threshold(trace, params, ps.SwitchPolicy.grid_from_start())
        total = ps.cost_of(eager.schedule, trace, params).total
        assert ps.empirical_ratio(total, opt) == pytest.approx(1.0 + 10.0 / 100.0, abs=1e-12)


class TestEmpiricalRatio:
    def test_values(self):
        assert ps.empirical_ratio(6.0, 5.0) == pytest.approx(1.2)
        assert ps.empirical_ratio(5.0, 5.0) == 1.0

    def test_rejects_zero_optimum(self):
        with pytest.raises(ps.UndefinedRatioError):
            ps.empirical_ratio(1.0, 0.0)

    def test_a_column_of_optima_divides_each_row_as_a_call_per_row(self):
        costs = np.array([[3.0, 7.0, 1.1], [2.5, 0.3, 9.0]])
        optima = np.array([[1.7], [0.9]])
        rows = [ps.empirical_ratio(row, opt) for row, opt in zip(costs, optima[:, 0])]
        assert ps.empirical_ratio(costs, optima).tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize(
        "optima, error, message",
        [
            (np.array([[1.0], [0.0], [-1.0]]), ps.UndefinedRatioError, "offline optimum must be > 0, got 0.0"),
            (np.array([[1.0], [math.inf]]), ps.DomainError, "offline optimum must be finite, got inf"),
        ],
    )
    def test_a_column_of_optima_names_its_first_bad_element(self, optima, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            ps.empirical_ratio(np.ones((len(optima), 2)), optima)

    @pytest.mark.parametrize(
        "costs, first", [(np.array([1.0, -math.inf, math.nan]), "-inf"), (np.array([[1.0], [math.nan]]), "nan")]
    )
    def test_an_array_of_costs_names_its_first_non_finite_element(self, costs, first):
        # these read [1, -inf, nan] and [[1], [nan]]; the scalar cases are in test_validators
        with pytest.raises(ps.DomainError, match=f"^online cost must be finite, got {first}$"):
            ps.empirical_ratio(costs, 1.0)


class TestThresholdChecks:
    @pytest.mark.parametrize("s", [-1, 0, -0.5, math.nan])
    def test_the_ratio_and_the_instance_builders_name_a_threshold_below_0_alike(self, s):
        message = f"^threshold multiplier must be > 0, got {float(s)}$"
        for call in (ps.worst_case_ratio, ps.worst_case_instance, ps.worst_case_bank):
            with pytest.raises(ps.DomainError, match=message):
                call(s, 0.5)

    def test_expected_ratios_name_the_first_bad_beta(self):
        specs = [ps.red_distribution(0.5)] * 3
        with pytest.raises(ps.DomainError, match=r"^beta must lie in \(0, 1\], got 1.5$"):
            ps.expected_ratios(specs, [0.5, 1.5, 0.0], [0.7])
        with pytest.raises(ps.DomainError, match=r"^beta must be a real number, got \[0.5\]$"):
            ps.expected_ratios(specs, [0.5, [0.5], 0.5], [0.7])


def test_measured_ratios_stay_under_curve(rng):
    """Constructed instances never beat the ratio curve, across a grid of
    policies and masses."""
    betas = (0.25, 0.55, 0.85)
    s_values = [round(0.1 * i, 1) for i in range(1, 21)]
    for beta in betas:
        for target in (0.4, 1.0, 1.6):
            trace, params = ps.worst_case_instance(target, beta, p_m=50.0, slots=800)
            opt = ps.optimal_basic(trace, params).total
            mass = ps.sigma(trace, params)
            for s in s_values:
                record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(s))
                measured = ps.empirical_ratio(ps.cost_of(record.schedule, trace, params).total, opt)
                bound = ps.cost_ratio(s, mass, beta)
                if abs(s - mass) <= 1e-9:
                    bound = max(bound, ps.cost_ratio(s, s, beta))
                assert measured <= bound + 1e-6
