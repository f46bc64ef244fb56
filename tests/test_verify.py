"""The batched verification checks against per-point reference loops."""
import math
from pathlib import Path

import numpy as np
import pytest

import peaksched as ps
from conftest import reference_expected_ratio
from peaksched import analysis
from peaksched.harness import verify
from peaksched.harness.verify import CheckResult

LAMBDAS = (0.05, 0.3, 0.55, 0.8, 1.0)
BETAS = (0.05, 0.25, 0.5, 0.75, 1.0)
SIGMAS = (0.1, 0.4, 0.8, 1.0, 1.1, 1.5, 2.0, 3.3, 5.0, 7.5, 9.9, 10.0)

# the report of `peaksched verify --full` as the per-point scalar sweeps wrote it
GOLDEN_REPORT = Path(__file__).parent / "data" / "verification.txt"


def _branches(lam, beta):
    yield True, ps.lambda_red_distribution(2.0, lam, beta)
    yield False, ps.lambda_red_distribution(0.5, lam, beta)


def _reference_closed_forms(lambdas, betas, sigmas, tol):
    worst, where = 0.0, ""
    for lam in lambdas:
        for beta in betas:
            for high, spec in _branches(lam, beta):
                for sg in sigmas:
                    value = reference_expected_ratio(spec, sg, beta)
                    gap = abs(value - ps.expected_ratio_closed_form(high, sg, lam, beta))
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
                    value = reference_expected_ratio(spec, sg, beta)
                    if value - robustness > worst_rob:
                        worst_rob, rob_at = value - robustness, f"lam={lam} beta={beta} sigma={sg} high={high}"
                    if high == (sg > 1) and value - consistency > worst_cons:
                        worst_cons, cons_at = value - consistency, f"lam={lam} beta={beta} sigma={sg}"
    return (
        CheckResult("randomized-robustness-envelope", tol, worst_rob, rob_at),
        CheckResult("randomized-consistency-envelope", tol, worst_cons, cons_at),
    )


# axes of equal length would hide a batch laid out with its axes swapped
@pytest.mark.parametrize("lambdas, betas", [(LAMBDAS, BETAS), (LAMBDAS[1:4], BETAS), (LAMBDAS, BETAS[1:3])])
def test_one_sweep_equals_per_check_reference(lambdas, betas):
    swept = verify.check_expected_ratios(lambdas, betas, SIGMAS)
    reference = (_reference_closed_forms(lambdas, betas, SIGMAS, 1e-6), *_reference_envelopes(lambdas, betas, SIGMAS, 1e-9))
    assert swept == reference
    assert all(check.detail for check in swept)


def test_a_beta_batch_takes_each_node_ratio_once_per_segment_and_mass(monkeypatch):
    # all 38 specs of one beta column share the support [0, 1]: the density's
    # ratios are one (15, 108) table, 99 masses plus the 9 that split [0, 1]
    lambdas, sigmas = verify.default_lambda_grid(), verify.default_sigma_grid()
    specs = [spec for lam in lambdas for _, spec in verify._branches(lam, 0.4)]
    shapes = []
    original = analysis._ratio

    def counted(s, sigma, beta):
        shapes.append(np.shape(s))
        return original(s, sigma, beta)

    monkeypatch.setattr(analysis, "_ratio", counted)
    assert ps.expected_ratios(specs, [0.4] * len(specs), sigmas).shape == (38, 99)
    # the atoms take one call, a row per (location, beta) class (at -1 and
    # at inf, where absent atoms are padded); the rest is the density
    assert shapes == [(2, 1), (15, 99 + 9)]


def test_wrappers_pass_their_tolerance_through():
    assert verify.check_closed_forms(LAMBDAS, BETAS, SIGMAS, tol=1e-3) == _reference_closed_forms(
        LAMBDAS, BETAS, SIGMAS, 1e-3
    )
    assert verify.check_randomized_envelopes(LAMBDAS, BETAS, SIGMAS, tol=1e-7) == _reference_envelopes(
        LAMBDAS, BETAS, SIGMAS, 1e-7
    )


def test_verify_theorems_integrates_each_point_once(monkeypatch):
    points = []
    batches = []
    original = verify.expected_ratios

    def counted(specs, betas, sigmas):
        batches.append(len(specs))
        points.extend((spec, beta, float(sg)) for spec, beta in zip(specs, betas) for sg in sigmas)
        return original(specs, betas, sigmas)

    monkeypatch.setattr(verify, "expected_ratios", counted)
    # below full trust the two prediction branches draw from different
    # distributions; one lambda more than betas tells the batch axes apart
    lambdas = LAMBDAS[:-1] + (0.9, 0.95)
    report = verify.verify_theorems(lambdas, BETAS, SIGMAS, empirical_slots=300)
    assert report.passed
    assert batches == [2 * len(lambdas)] * len(BETAS)  # one batch per beta column
    assert len(points) == len(lambdas) * len(BETAS) * 2 * len(SIGMAS)
    assert len(set(points)) == len(points)


def _reference_ratio_curve(betas, slots):
    """check_ratio_curve_empirical as its scalar loop: one run and one
    costing per threshold, one scalar bound per run."""
    s_grid = [round(0.1 * i, 1) for i in range(1, 21)]
    worst_above, worst_gap, above_at = 0.0, 0.0, ""
    for beta in betas:
        for sg in s_grid:
            trace, params = ps.worst_case_instance(sg, beta, p_m=100.0, slots=slots)
            opt = ps.optimal_basic(trace, params).total
            mass = ps.sigma(trace, params)
            for s in s_grid:
                record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(s))
                measured = ps.cost_of(record.schedule, trace, params).total / opt
                bound = ps.cost_ratio(s, mass, beta)
                if abs(s - mass) <= 1e-9:
                    bound = max(bound, ps.cost_ratio(s, s, beta))
                if measured - bound > worst_above:
                    worst_above, above_at = measured - bound, f"s={s} sigma={sg} beta={beta}"
            nudged = ps.run_threshold(trace, params, ps.SwitchPolicy.at(sg * (1.0 - 1e-9)))
            measured = ps.cost_of(nudged.schedule, trace, params).total / opt
            bound = ps.cost_ratio(sg, max(mass, sg), beta)
            if sg > 1:
                one_slot = (1.0 - beta) * sg / (slots * ((sg - 1.0) * beta + 1.0))
            else:
                one_slot = (1.0 - beta) / slots
            worst_gap = max(worst_gap, bound - measured - one_slot)
    return (
        CheckResult("ratio-curve-dominates-measured", 1e-6, worst_above, above_at),
        CheckResult("ratio-curve-tightness", 1e-9, worst_gap, f"slots={slots}"),
    )


def test_batched_ratio_curve_equals_per_threshold_runs():
    for slots in (300, 4000):
        assert verify.check_ratio_curve_empirical(BETAS, slots=slots) == _reference_ratio_curve(BETAS, slots)


def test_worst_case_envelope_equals_scalar_maximum():
    worst = 0.0
    for beta in BETAS:
        for s in [round(0.1 * i, 1) for i in range(1, 21)]:
            envelope = max(ps.cost_ratio(s, sg, beta) for sg in (*SIGMAS, s))
            worst = max(worst, abs(ps.worst_case_ratio(s, beta) - envelope))
    expected = CheckResult("worst-case-ratio-is-envelope", 1e-9, worst)
    assert verify.check_worst_case_is_envelope(BETAS, SIGMAS) == expected


def test_a_nan_expected_ratio_fails_its_checks(monkeypatch):
    original = verify.expected_ratios

    def poisoned(specs, betas, sigmas):
        values = original(specs, betas, sigmas)
        if betas[0] == BETAS[1]:
            values[1::2, 5] = math.nan  # every lambda predicted low, sigma = SIGMAS[5]
        return values

    monkeypatch.setattr(verify, "expected_ratios", poisoned)
    gap, rob, cons = verify.check_expected_ratios(LAMBDAS, BETAS, SIGMAS)
    for check in (gap, rob):
        assert math.isnan(check.max_violation) and not check.passed
        assert check.detail == f"lam={LAMBDAS[0]} beta={BETAS[1]} sigma={SIGMAS[5]} high=False"
        assert check.format().startswith("FAIL ")
    # the poisoned point is above 1 on the low branch: no consistency claim covers it
    assert cons.passed
    report = verify.verify_theorems(LAMBDAS, BETAS, SIGMAS, empirical_slots=300)
    assert not report.passed and report.format().endswith("CHECK FAILURES PRESENT")


def test_a_nan_ratio_bound_fails_its_checks(monkeypatch):
    original = verify.cost_ratio

    def poisoned(policy, sigma, beta):
        return original(policy, sigma, beta) * math.nan

    monkeypatch.setattr(verify, "cost_ratio", poisoned)
    above, tight = verify.check_ratio_curve_empirical(BETAS, slots=300)
    envelope = verify.check_worst_case_is_envelope(BETAS, SIGMAS)
    for check in (above, tight, envelope):
        assert math.isnan(check.max_violation) and not check.passed


@pytest.mark.parametrize("axis", ["lambda", "beta", "sigma"])
def test_each_grid_needs_five_points(axis):
    grids = {"lambdas": LAMBDAS, "betas": BETAS, "sigmas": SIGMAS}
    grids[f"{axis}s"] = grids[f"{axis}s"][:4]
    with pytest.raises(ps.DomainError, match=f"^{axis} grid needs at least 5 points, got 4$"):
        verify.verify_theorems(**grids, empirical_slots=300)


def test_infinite_sigma_is_rejected_not_skipped():
    with pytest.raises(ps.DomainError, match="premium mass"):
        verify.verify_theorems(LAMBDAS, BETAS, SIGMAS + (math.inf,), empirical_slots=300)


def test_the_full_report_equals_the_golden_file_byte_for_byte():
    # `verify --full` writes report.format() plus a newline; every number,
    # every named worst point and the pass line must stay as they were
    assert (verify.verify_theorems().format() + "\n").encode() == GOLDEN_REPORT.read_bytes()
