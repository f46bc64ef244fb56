"""The one-sweep expected-ratio checks against per-check reference loops."""
import math

import peaksched as ps
from peaksched.harness import verify
from peaksched.harness.verify import CheckResult

LAMBDAS = (0.05, 0.3, 0.55, 0.8, 1.0)
BETAS = (0.05, 0.25, 0.5, 0.75, 1.0)
SIGMAS = (0.1, 0.4, 0.8, 1.0, 1.1, 1.5, 2.0, 3.3, 5.0, 7.5, 9.9, 10.0)


def _branches(lam, beta):
    yield True, ps.lambda_red_distribution(2.0, lam, beta)
    yield False, ps.lambda_red_distribution(0.5, lam, beta)


def _reference_closed_forms(lambdas, betas, sigmas, tol):
    worst, where = 0.0, ""
    for lam in lambdas:
        for beta in betas:
            for high, spec in _branches(lam, beta):
                for sg in sigmas:
                    gap = abs(ps.expected_ratio(spec, sg, beta) - ps.expected_ratio_closed_form(high, sg, lam, beta))
                    if gap > worst:
                        worst, where = gap, f"lam={lam} beta={beta} sigma={sg} high={high}"
    return CheckResult("expected-ratio-closed-forms", tol, worst, where)


def _reference_envelopes(lambdas, betas, sigmas, tol):
    worst_rob = worst_cons = -math.inf
    rob_at = cons_at = ""
    for lam in lambdas:
        for beta in betas:
            robustness, consistency = ps.randomized_bounds(lam, beta)
            for high, spec in _branches(lam, beta):
                for sg in sigmas:
                    value = ps.expected_ratio(spec, sg, beta)
                    if value - robustness > worst_rob:
                        worst_rob, rob_at = value - robustness, f"lam={lam} beta={beta} sigma={sg} high={high}"
                    if high == (sg > 1) and value - consistency > worst_cons:
                        worst_cons, cons_at = value - consistency, f"lam={lam} beta={beta} sigma={sg}"
    return (
        CheckResult("randomized-robustness-envelope", tol, worst_rob, rob_at),
        CheckResult("randomized-consistency-envelope", tol, worst_cons, cons_at),
    )


def test_one_sweep_equals_per_check_reference():
    swept = verify.check_expected_ratios(LAMBDAS, BETAS, SIGMAS)
    reference = (_reference_closed_forms(LAMBDAS, BETAS, SIGMAS, 1e-6), *_reference_envelopes(LAMBDAS, BETAS, SIGMAS, 1e-9))
    assert swept == reference
    assert all(check.detail for check in swept)


def test_wrappers_pass_their_tolerance_through():
    assert verify.check_closed_forms(LAMBDAS, BETAS, SIGMAS, tol=1e-3) == _reference_closed_forms(
        LAMBDAS, BETAS, SIGMAS, 1e-3
    )
    assert verify.check_randomized_envelopes(LAMBDAS, BETAS, SIGMAS, tol=1e-7) == _reference_envelopes(
        LAMBDAS, BETAS, SIGMAS, 1e-7
    )


def test_verify_theorems_integrates_each_point_once(monkeypatch):
    calls = []
    original = verify.expected_ratio

    def counted(spec, sigma, beta):
        calls.append((spec, sigma, beta))
        return original(spec, sigma, beta)

    monkeypatch.setattr(verify, "expected_ratio", counted)
    # below full trust the two prediction branches draw from different distributions
    lambdas = LAMBDAS[:-1] + (0.95,)
    report = verify.verify_theorems(lambdas, BETAS, SIGMAS, empirical_slots=300)
    assert report.passed
    assert len(calls) == len(lambdas) * len(BETAS) * 2 * len(SIGMAS)
    assert len(set(calls)) == len(calls)
