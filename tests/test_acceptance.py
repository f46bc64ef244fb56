"""Acceptance suite: every release gate in one module.

Each criterion prints one pass/fail line (echoed in the terminal summary)
and asserts at its stated tolerance.  The whole module is sized for a
laptop run of a few minutes.
"""
import math

import numpy as np
import pytest

import peaksched as ps
import conftest
from conftest import brute_force_optimum, make_binary_instance, make_integer_instance
from peaksched import online
from peaksched.harness.experiment import config_from_sources, run_experiment, run_sweep
from peaksched.model import _premium_mass

E = math.e


def _criterion(number: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures

def _switch_costs(block, thresholds):
    """Each row's switch cost at each of its row of ``thresholds``, on the
    switch engine's block functions: per row, what ``switch_costs`` gives
    at the slots ``switch_slots`` finds on that row's trace."""
    prices, demands, counts, p_m = block
    slots = online._block_slots(prices, demands, 1.0, p_m[:, None], thresholds)
    return online._block_costs(prices, demands, counts, 1.0, p_m[:, None], slots)


@pytest.fixture(scope="module")
def binary_blocks():
    """10,000 seeded binary instances spanning beta in [0.05, 0.95], one
    block of rows per horizon, as (block, sigma, beta, opt) with a row per
    instance; the optimum is priced at ``optimal_basic``'s switch slot."""
    n = 10_000
    betas = np.array([0.05 + 0.9 * i / (n - 1) for i in range(n)])
    groups = []
    for index, prices, demands, p_m in conftest.make_binary_blocks(np.random.default_rng(42), betas.tolist()):
        block = (prices, demands, online._demand_counts(demands), p_m)
        sigma = np.array([_premium_mass(1.0 - p, d, m) for p, d, m in zip(prices, demands, p_m.tolist())])
        oracle = np.where(sigma > 1, 0, prices.shape[1])[:, None]
        opt = online._block_costs(prices, demands, block[2], 1.0, p_m[:, None], oracle)[:, 0]
        # every instance has demand, so every optimum is positive
        assert (opt > 0).all()
        groups.append((block, sigma, betas[index], opt))
    assert sum(len(sigma) for _, sigma, *_ in groups) == n
    return groups


@pytest.fixture(scope="module")
def ratio_grid():
    """Quadrature of the expected ratio over the full acceptance grids, one
    batch per lambda, as (lam, beta, predicted_high, sigmas, values) rows."""
    lambdas = [round(0.05 * i, 2) for i in range(1, 20)]
    betas = [round(0.05 * i, 2) for i in range(1, 20)]
    sigmas = np.array([round(0.1 * i, 1) for i in range(1, 10)] + [round(1.1 + 0.1 * i, 1) for i in range(90)])
    branches = ((True, 2.0), (False, 0.5))
    rows = []
    for lam in lambdas:
        specs = [ps.lambda_red_distribution(sigma_hat, lam, beta) for beta in betas for _, sigma_hat in branches]
        values = iter(ps.expected_ratios(specs, [beta for beta in betas for _ in branches], sigmas))
        for beta in betas:
            for predicted_high, _ in branches:
                rows.append((lam, beta, predicted_high, sigmas, next(values)))
    return rows


# ---------------------------------------------------------------- criteria

def test_c01_exact_reductions():
    """Full-trust variants collapse onto the pure online algorithms."""
    rng = np.random.default_rng(1)
    worst_cost_gap = 0.0
    for _ in range(1000):
        trace, params = make_binary_instance(rng)
        bed = ps.run_algorithm(trace, params, "bed")
        assisted = ps.run_algorithm(
            trace, params, "lambda-bed", lam=1.0, sigma_hat=float(rng.uniform(0, 3))
        )
        a = ps.cost_of(bed.schedule, trace, params).total
        b = ps.cost_of(assisted.schedule, trace, params).total
        worst_cost_gap = max(worst_cost_gap, abs(a - b))
    worst_mass_gap = 0.0
    coeff_exact = True
    for beta in np.linspace(0.05, 1.0, 25):
        pure = ps.red_distribution(float(beta))
        for sigma_hat in (0.5, 2.0):
            spec = ps.lambda_red_distribution(sigma_hat, 1.0, float(beta))
            coeff_exact &= spec.coeff == pure.coeff and spec.lo == pure.lo and spec.hi == pure.hi
            worst_mass_gap = max(
                worst_mass_gap,
                abs(spec.atom_mass(math.inf) - pure.atom_mass(math.inf)),
                spec.atom_mass(-1.0),
            )
    _criterion(
        1,
        "full-trust reductions are exact",
        worst_cost_gap == 0.0 and coeff_exact and worst_mass_gap <= 1e-12,
        f"cost gap {worst_cost_gap}, atom gap {worst_mass_gap:.2e}",
    )


LAMBDAS = np.array([round(0.1 * i, 1) for i in range(1, 11)])


def _lambda_bed_ratios(block, sigma_hats, opt):
    """Ratios of the assisted rule at each trust in ``LAMBDAS``, one row per
    instance: each row runs ``lambda_bed_policy``'s threshold on its side of 1."""
    above = [ps.lambda_bed_policy(2.0, lam).s for lam in LAMBDAS.tolist()]
    below = [ps.lambda_bed_policy(0.0, lam).s for lam in LAMBDAS.tolist()]
    thresholds = np.where(sigma_hats[:, None] > 1, above, below)
    return _switch_costs(block, thresholds) / opt[:, None]


def test_c02_deterministic_robustness(binary_blocks):
    """Flipped predictions never push the assisted rule past its guarantee."""
    worst = -math.inf
    for block, sigma, beta, opt in binary_blocks:
        flipped = np.where(sigma > 1, 0.0, 2.0)
        ratios = _lambda_bed_ratios(block, flipped, opt)
        worst = max(worst, float(np.max(ratios - (1 + (1 - beta[:, None]) / LAMBDAS))))
    _criterion(2, "robustness bound under flipped predictions", worst <= 1e-9, f"max excess {worst:.2e}")


def test_c03_deterministic_consistency(binary_blocks):
    """Perfect predictions keep the assisted rule within 1 + lambda."""
    worst = -math.inf
    for block, sigma, beta, opt in binary_blocks:
        ratios = _lambda_bed_ratios(block, sigma, opt)
        worst = max(worst, float(np.max(ratios - (1 + LAMBDAS))))
    _criterion(3, "consistency bound under perfect predictions", worst <= 1e-9, f"max excess {worst:.2e}")


def test_c04_break_even_tightness():
    """Constructed instances drive the break-even rule to its ratio."""
    worst = 0.0
    slots = 2000
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        trace, params = ps.worst_case_instance(1.0 + 1e-9, beta, p_m=100.0, slots=slots)
        record = ps.run_threshold(trace, params, ps.bed_policy())
        total = ps.cost_of(record.schedule, trace, params).total
        opt = ps.optimal_basic(trace, params).total
        worst = max(worst, abs(total / opt - (2 - beta)))
    _criterion(4, "break-even worst case reaches 2 - beta", worst <= 1e-3, f"max gap {worst:.2e}")


def test_c05_expected_ratio_closed_forms(ratio_grid):
    # np.max, not max: a NaN gap must fail the gate, not be skipped
    gaps = [
        np.abs(values - ps.expected_ratio_closed_form(predicted_high, sigmas, lam, beta))
        for lam, beta, predicted_high, sigmas, values in ratio_grid
    ]
    worst = float(np.max(gaps, initial=0.0))
    _criterion(5, "expected-ratio closed forms match quadrature", worst <= 1e-6, f"max gap {worst:.2e}")


def test_c06_randomized_envelopes(ratio_grid):
    rob, cons = [], []
    for lam, beta, predicted_high, sigmas, values in ratio_grid:
        robustness, consistency = ps.randomized_bounds(lam, beta)
        rob.append(values - robustness)
        cons.append(values[predicted_high == (sigmas > 1)] - consistency)
    worst_rob = float(np.max(np.concatenate(rob), initial=-math.inf))
    worst_cons = float(np.max(np.concatenate(cons), initial=-math.inf))
    worst_identity = 0.0
    for beta in [round(0.05 * i, 2) for i in range(1, 20)]:
        pure = E / (E - 1 + beta)
        worst_identity = max(
            worst_identity,
            abs(ps.randomized_bounds(1.0, beta).robustness - pure),
            abs(ps.randomized_bounds(0.0, beta).consistency - 1.0),
        )
    ok = worst_rob <= 1e-9 and worst_cons <= 1e-9 and worst_identity <= 1e-9
    _criterion(
        6,
        "randomized robustness/consistency envelopes",
        ok,
        f"rob excess {worst_rob:.2e}, cons excess {worst_cons:.2e}, identities {worst_identity:.2e}",
    )


def test_c07_monte_carlo_agreement():
    """Sampled runs of the randomized rule average to the quadrature value."""
    lam, beta, mass = 0.5, 0.4, 0.6
    trace, params = ps.worst_case_instance(mass, beta, p_m=100.0, slots=2000)
    opt = ps.optimal_basic(trace, params).total
    sigma = ps.sigma(trace, params)
    expected = ps.expected_ratio(ps.lambda_red_distribution(mass, lam, beta), sigma, beta)
    n = 100_000
    # one draw per run, as run_algorithm makes it: the first uniform of
    # default_rng(seed), bit for bit, computed without building the
    # generator; the runs' switch slots and costs then come in one batch each
    thresholds = [
        ps.select_policy(trace, params, "lambda-red", lam=lam, sigma_hat=mass, seed=seed).s for seed in range(n)
    ]
    ratios = ps.switch_costs(trace, params, ps.switch_slots(trace, params, thresholds)) / opt
    gap = abs(float(ratios.mean()) - expected)
    three_se = 3 * float(ratios.std(ddof=1)) / math.sqrt(n)
    _criterion(7, "Monte Carlo mean matches quadrature", gap <= three_se, f"gap {gap:.2e} vs 3se {three_se:.2e}")


def test_c08_naive_variant_consistency_failure():
    value = ps.naive_randomized_bounds(0.5, 0.1).consistency
    worst_gap = math.inf
    for lam in [round(0.1 * i, 1) for i in range(1, 10)]:
        gap = ps.naive_randomized_bounds(lam, 0.1).consistency - ps.randomized_bounds(lam, 0.1).consistency
        worst_gap = min(worst_gap, gap)
    ok = value == pytest.approx(10.0, abs=1e-12) and worst_gap >= 1.0
    _criterion(8, "support-stretching variant loses consistency", ok, f"value {value}, min gap {worst_gap:.2f}")


def test_c09_oracles_match_brute_force():
    rng = np.random.default_rng(2024)
    worst_free = 0.0
    worst_ramp = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 7))
        demands = rng.integers(0, 4, T).astype(float)
        prices = rng.uniform(0.1, 1.0, T)
        p_m = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
        capacity = int(rng.integers(1, 4))
        ramp = int(rng.integers(0, 3))
        trace = ps.Trace(prices=prices, demands=demands)
        free = ps.BillingParams(p_g=1.0, p_m=p_m, capacity=capacity)
        worst_free = max(
            worst_free,
            abs(ps.optimal_general(trace, free).total - brute_force_optimum(trace, free)),
        )
        ramped = ps.BillingParams(p_g=1.0, p_m=p_m, capacity=capacity, ramp=ramp)
        worst_ramp = max(
            worst_ramp,
            abs(ps.optimal_with_ramp(trace, ramped).total - brute_force_optimum(trace, ramped, ramp=True)),
        )
    ok = worst_free <= 1e-9 and worst_ramp <= 1e-9
    _criterion(9, "oracles equal exhaustive enumeration", ok, f"free {worst_free:.2e}, ramp {worst_ramp:.2e}")


def test_c10_layering():
    rng = np.random.default_rng(77)
    roundtrip_ok = True
    worst = -math.inf
    for _ in range(1000):
        trace, params = make_integer_instance(rng)
        stack = ps.decompose(trace)
        rebuilt = sum((layer.demands for layer in stack.layers), np.zeros(len(trace)))
        roundtrip_ok &= bool(np.array_equal(rebuilt, trace.demands))
        opt = ps.optimal_general(trace, params).total
        hats = ps.true_layer_sigma_hats(trace, params)
        for lam in (0.25, 0.5, 1.0):
            schedule = ps.run_layered(trace, params, "lambda-bed", lam=lam, sigma_hats=hats)
            ratio = ps.cost_of(schedule, trace, params).total / opt
            worst = max(worst, ratio - (1 + lam))
    ok = roundtrip_ok and worst <= 1e-6
    _criterion(10, "layer round-trip and layered consistency", ok, f"max excess {worst:.2e}")


def test_c11_ramp_projection():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(1000):
        trace, params = make_integer_instance(rng)
        cap = int(params.capacity)
        ramped = ps.BillingParams(
            p_g=params.p_g, p_m=params.p_m, capacity=params.capacity,
            ramp=float(rng.integers(1, cap + 1)),
        )
        u = np.minimum(rng.integers(0, cap + 2, len(trace)), cap).astype(float)
        v = np.maximum(0.0, trace.demands - u) + rng.integers(0, 2, len(trace))
        once = ps.project_ramp(ps.Schedule(u=u, v=v), trace, ramped)
        try:
            ps.validate_schedule(once, trace, ramped)
        except ps.PeakSchedError:
            ok = False
            break
        twice = ps.project_ramp(once, trace, ramped)
        if not (np.array_equal(once.u, twice.u) and np.array_equal(once.v, twice.v)):
            ok = False
            break
    _criterion(11, "ramp projection feasible and idempotent", ok)


def test_c12_figure_patterns():
    base = dict(days=30, seed=7, capacity_ratio=1.0, out_dir="unused")
    sweep_cfg = config_from_sources(overrides=dict(
        base, algorithms="bed,lambda-bed",
        lambdas="0.05,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
        predictors="perfect,adversarial",
    ))
    result = run_experiment(sweep_cfg, write=False)
    bed_cr = next(
        r["empirical_cr"] for r in result.rows if r["algorithm"] == "bed" and r["predictor"] == "perfect"
    )
    perfect = [
        (r["lambda"], r["empirical_cr"])
        for r in result.rows
        if r["algorithm"] == "lambda-bed" and r["predictor"] == "perfect"
    ]
    adversarial = [
        (r["lambda"], r["empirical_cr"])
        for r in result.rows
        if r["algorithm"] == "lambda-bed" and r["predictor"] == "adversarial"
    ]
    perfect.sort()
    adversarial.sort()
    perfect_crs = [cr for _, cr in perfect]
    trust_region = perfect_crs[0] <= 1.01  # near-optimal at strong trust
    monotone = all(a <= b + 1e-9 for a, b in zip(perfect_crs, perfect_crs[1:]))
    improves = perfect_crs[0] < perfect_crs[-1]
    adversarial_worse = adversarial[0][1] > bed_cr
    recovers = abs(perfect_crs[-1] - bed_cr) <= 1e-12

    cap_cfg = config_from_sources(overrides=dict(
        base, algorithms="bed,lambda-bed", lambdas="0.5", predictors="perfect",
    ))
    sweep = run_sweep(cap_cfg, "capacity", write=False)
    saving = {
        (row["algorithm"], row["axis_value"]): row["cost_reduction"] for row in sweep.rows
    }
    rhos = sorted({rho for _, rho in saving})
    high = [rho for rho in rhos if rho > 0.6]
    gap = {rho: saving[("lambda-bed", rho)] - saving[("bed", rho)] for rho in rhos}
    assisted_wins_high = all(gap[rho] >= 0 for rho in high)
    widening = gap[rhos[-1]] > gap[0.6]

    ok = trust_region and monotone and improves and adversarial_worse and recovers \
        and assisted_wins_high and widening
    _criterion(
        12,
        "qualitative sweep patterns",
        ok,
        f"trust CR {perfect_crs[0]:.4f}, adversarial {adversarial[0][1]:.4f} vs plain {bed_cr:.4f}, "
        f"capacity gap {gap[0.6]:.4f}->{gap[rhos[-1]]:.4f}",
    )
