"""Layer decomposition, layered execution, and ramp projection."""
import copy
import gc
import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import peaksched as ps
from conftest import make_binary_instance, make_integer_instance
from peaksched import layering, online


class TestDecompose:
    def test_two_layer_example(self):
        stack = ps.decompose(ps.Trace(prices=[1, 1, 1], demands=[2, 0, 1]))
        assert stack.depth == 2
        assert np.array_equal(stack.layers[0].demands, [1, 0, 1])
        assert np.array_equal(stack.layers[1].demands, [1, 0, 0])

    def test_zero_demand_gives_empty_stack(self):
        stack = ps.decompose(ps.Trace(prices=[1, 1], demands=[0, 0]))
        assert stack.depth == 0 and stack.layers == ()

    def test_single_slot_column(self):
        stack = ps.decompose(ps.Trace(prices=[1], demands=[3]))
        assert stack.depth == 3
        assert all(np.array_equal(layer.demands, [1]) for layer in stack.layers)

    def test_rejects_fractional_demand(self):
        with pytest.raises(ps.DomainError):
            ps.decompose(ps.Trace(prices=[1], demands=[1.5]))

    def test_layers_share_the_parent_prices(self, rng):
        trace, _ = make_integer_instance(rng)
        stack = ps.decompose(trace)
        assert stack.depth > 0
        for layer in stack.layers:
            assert layer.prices is trace.prices
            assert not layer.demands.flags.writeable

    def test_roundtrip(self, rng):
        for _ in range(100):
            trace, _ = make_integer_instance(rng)
            stack = ps.decompose(trace)
            rebuilt = sum((layer.demands for layer in stack.layers), np.zeros(len(trace)))
            assert np.array_equal(rebuilt, trace.demands)


class TestDecomposeMemo:
    def test_the_same_trace_gets_the_same_stack(self, rng):
        trace, _ = make_integer_instance(rng)
        assert ps.decompose(trace) is ps.decompose(trace)

    def test_an_equal_rebuilt_trace_gets_a_fresh_stack(self, rng):
        trace, _ = make_integer_instance(rng)
        rebuilt = ps.Trace(prices=np.array(trace.prices), demands=np.array(trace.demands))
        first, second = ps.decompose(trace), ps.decompose(rebuilt)
        assert second is not first
        assert second.depth == first.depth
        for a, b in zip(first.layers, second.layers):
            assert a is not b and b.prices is rebuilt.prices
            assert a.demands.tobytes() == b.demands.tobytes()

    def test_the_stack_is_freed_with_its_trace(self, rng):
        trace, _ = make_integer_instance(rng)
        stack = weakref.ref(ps.decompose(trace))
        layer = weakref.ref(ps.decompose(trace).layers[0])
        assert vars(trace)["_layer_stack"] is stack()
        del trace
        gc.collect()
        assert stack() is None and layer() is None

    def test_a_rejected_trace_is_not_stored(self):
        trace = ps.Trace(prices=[1, 1], demands=[1.5, 2])
        for _ in range(2):
            with pytest.raises(ps.DomainError):
                ps.decompose(trace)
        assert "_layer_stack" not in vars(trace)

    def test_copies_and_pickles_leave_the_derived_state_behind(self, rng):
        trace, params = make_integer_instance(rng, max_demand=6, horizon=200)
        for _ in range(2):
            ps.run_layered(trace, params, "red", seed=5)
        stack = ps.decompose(trace)
        assert "_premium_prefix" in vars(stack.layers[0])
        for derived in (trace, stack.layers[0]):
            fresh = ps.Trace(prices=np.array(derived.prices), demands=np.array(derived.demands))
            assert len(pickle.dumps(derived)) == len(pickle.dumps(fresh))
            loaded = pickle.loads(pickle.dumps(derived))
            for got, want in ((loaded.prices, derived.prices), (loaded.demands, derived.demands)):
                assert got.tobytes() == want.tobytes() and not got.flags.writeable
            for twin in (copy.copy(derived), copy.deepcopy(derived), loaded):
                assert "_layer_stack" not in vars(twin) and "_premium_prefix" not in vars(twin)

    def test_threads_decomposing_one_trace_get_equal_stacks(self, rng):
        traces = [make_integer_instance(rng, max_demand=12, horizon=300)[0] for _ in range(20)]
        expected = [
            [layer.demands.tobytes() for layer in ps.decompose(ps.Trace(prices=t.prices, demands=t.demands)).layers]
            for t in traces
        ]

        def worker():
            # every worker asks for each trace's stack, racing the others on its first call
            return [ps.decompose(trace) for trace in traces]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(worker) for _ in range(6)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, trace in enumerate(traces):
            stacks = [result[k] for result in results]
            assert all(stack is stacks[0] for stack in stacks)
            assert [layer.demands.tobytes() for layer in stacks[0].layers] == expected[k]
            assert stacks[0] is ps.decompose(trace)


class TestRunLayered:
    def test_single_layer_equals_plain_run(self, rng):
        for algorithm in ("bed", "lambda-bed", "red", "lambda-red"):
            trace, params = make_binary_instance(rng)
            layered = ps.run_layered(
                trace, params, algorithm, lam=0.5, sigma_hats=0.4, seed=77
            )
            plain = ps.run_algorithm(
                trace, params, algorithm, lam=0.5, sigma_hat=0.4, seed=77
            )
            assert np.array_equal(layered.u, plain.schedule.u)
            assert np.array_equal(layered.v, plain.schedule.v)

    def test_capacity_excess_layer_is_grid_forced(self):
        trace = ps.Trace(prices=[1, 1], demands=[2, 2])
        params = ps.BillingParams(p_g=2, p_m=100, capacity=1)
        schedule = ps.run_layered(trace, params, "bed")
        # layer 2 forced to grid; layer 1 stays local under the huge peak price
        assert np.array_equal(schedule.u, [1, 1])
        assert np.array_equal(schedule.v, [1, 1])

    def test_feasibility_all_algorithms(self, rng):
        for _ in range(30):
            trace, params = make_integer_instance(
                rng, capacity=float(rng.integers(1, 6))
            )
            for algorithm in ("bed", "lambda-bed", "red", "lambda-red", "naive-lambda-red"):
                schedule = ps.run_layered(
                    trace, params, algorithm, lam=0.5, sigma_hats=0.7,
                    seed=int(rng.integers(0, 2**31)),
                )
                ps.validate_schedule(schedule, trace, params)  # raises on violation
                assert np.all(schedule.u <= params.capacity + 1e-12)
                assert np.all(schedule.u + schedule.v >= trace.demands - 1e-12)

    @pytest.mark.parametrize("algorithm", ["bed", "lambda-bed", "red", "lambda-red", "naive-lambda-red"])
    @pytest.mark.parametrize("capacity", [2.0, 9.0])
    def test_one_schedule_is_built_per_call(self, rng, monkeypatch, algorithm, capacity):
        # depth 5: the capacity lies below and above it
        trace, params = make_integer_instance(rng, max_demand=5, capacity=capacity)
        assert ps.decompose(trace).depth == 5
        built = []
        post_init = ps.Schedule.__post_init__
        monkeypatch.setattr(ps.Schedule, "__post_init__", lambda self: (built.append(1), post_init(self))[1])
        for seed in range(3):
            ps.run_layered(trace, params, algorithm, lam=0.5, sigma_hats=[0.5, 2.0, 0.7, 3.0, 0.1], seed=seed)
        assert len(built) == 3

    @pytest.mark.parametrize("algorithm", ["red", "lambda-red", "naive-lambda-red"])
    @pytest.mark.parametrize("capacity", [2.0, 9.0])
    def test_one_generator_is_built_per_layer_seed(self, rng, monkeypatch, algorithm, capacity):
        # depth 5: the capacity lies below and above it; later calls reuse the draws
        trace, params = make_integer_instance(rng, max_demand=5, capacity=capacity)
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(online.np.random, "default_rng", lambda seed: (built.append(seed), default_rng(seed))[1])
        online._seeded_uniform.cache_clear()
        hats = [0.5, 2.0, 0.7, 3.0, 0.1]
        outputs = {
            ps.run_layered(trace, params, algorithm, lam=0.5, sigma_hats=hats, seed=11).u.tobytes() for _ in range(3)
        }
        assert len(outputs) == 1
        assert len(built) == min(int(capacity), 5)

    def test_an_unknown_algorithm_name_is_a_domain_error(self):
        trace = ps.Trace(prices=[1, 1], demands=[2, 2])
        params = ps.BillingParams(p_g=2, p_m=10, capacity=2)
        with pytest.raises(ps.PeakSchedError, match="unknown algorithm 'blue'; choose one of bed"):
            ps.run_layered(trace, params, "blue")

    def test_combined_cost_within_sum_of_layer_costs(self, rng):
        for _ in range(20):
            trace, params = make_integer_instance(rng)
            hats = ps.true_layer_sigma_hats(trace, params)
            schedule = ps.run_layered(trace, params, "lambda-bed", lam=0.4, sigma_hats=hats, seed=5)
            combined = ps.cost_of(schedule, trace, params).total
            total = 0.0
            for i, layer in enumerate(ps.decompose(trace).layers, start=1):
                if i > params.capacity:
                    total += ps.cost_of(
                        ps.Schedule(u=np.zeros(len(trace)), v=layer.demands), layer, params
                    ).total
                else:
                    record = ps.run_algorithm(
                        layer, params, "lambda-bed", lam=0.4, sigma_hat=hats[i - 1]
                    )
                    total += ps.cost_of(record.schedule, layer, params).total
            assert combined <= total + 1e-9

    def test_layered_consistency_bound(self, rng):
        """Perfect per-layer masses keep the assisted deterministic rule
        within (1 + lambda) of the exact optimum when capacity is slack."""
        for _ in range(60):
            trace, params = make_integer_instance(rng)  # capacity = max demand
            opt = ps.optimal_general(trace, params).total
            hats = ps.true_layer_sigma_hats(trace, params)
            for lam in (0.2, 0.6, 1.0):
                schedule = ps.run_layered(trace, params, "lambda-bed", lam=lam, sigma_hats=hats)
                ratio = ps.cost_of(schedule, trace, params).total / opt
                assert ratio <= 1 + lam + 1e-9

    @pytest.mark.parametrize("hat", [np.float32(0.5), np.int64(1), np.float64(2.0), 3])
    def test_any_real_scalar_hat_applies_to_every_layer(self, rng, hat):
        trace, params = make_integer_instance(rng)
        depth = ps.decompose(trace).depth
        for algorithm in ("lambda-bed", "lambda-red"):
            scalar = ps.run_layered(trace, params, algorithm, lam=0.5, sigma_hats=hat, seed=9)
            listed = ps.run_layered(trace, params, algorithm, lam=0.5, sigma_hats=[float(hat)] * depth, seed=9)
            assert scalar.u.tobytes() == listed.u.tobytes()
            assert scalar.v.tobytes() == listed.v.tobytes()

    @pytest.mark.parametrize("hats", ["0.5", b"0.5", True, object(), np.array(0.5), [1.0, "2"], [1.0, None]])
    def test_non_numeric_hats_are_rejected_by_name(self, hats):
        trace = ps.Trace(prices=[1, 1], demands=[2, 2])
        params = ps.BillingParams(p_g=2, p_m=10, capacity=2)
        with pytest.raises(ps.DomainError, match="sigma_hats"):
            ps.run_layered(trace, params, "lambda-bed", lam=0.5, sigma_hats=hats)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, np.float64(2.0)])
    @pytest.mark.parametrize("algorithm", ["bed", "red"])
    def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(self, seed, algorithm):
        trace = ps.Trace(prices=[1, 1], demands=[2, 2])
        params = ps.BillingParams(p_g=2, p_m=10, capacity=2)
        with pytest.raises(ps.DomainError, match="seed must be a non-negative integer"):
            ps.run_layered(trace, params, algorithm, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_layer_seeds_reject_a_bad_root_seed(self, seed):
        for i in (1, 2):
            with pytest.raises(ps.DomainError, match="seed"):
                layering._layer_seed(seed, i)

    def test_numpy_integer_seeds_keep_their_bits(self, rng):
        trace, params = make_integer_instance(rng)
        for algorithm in ("red", "naive-lambda-red"):
            plain = ps.run_layered(trace, params, algorithm, lam=0.5, sigma_hats=0.7, seed=2**40 + 3)
            # derive the numpy seed's layer seeds and draw their uniforms afresh
            layering._layer_seed.cache_clear()
            online._seeded_uniform.cache_clear()
            numpy = ps.run_layered(trace, params, algorithm, lam=0.5, sigma_hats=0.7, seed=np.uint64(2**40 + 3))
            assert plain.u.tobytes() == numpy.u.tobytes()

    def test_per_layer_sigma_hat_list_length_checked(self):
        trace = ps.Trace(prices=[1, 1], demands=[2, 2])
        params = ps.BillingParams(p_g=2, p_m=10, capacity=2)
        with pytest.raises(ps.DomainError):
            ps.run_layered(trace, params, "lambda-bed", lam=0.5, sigma_hats=[1.0])


class TestProjectRamp:
    def test_spike_clamp_example(self):
        trace = ps.Trace(prices=[1, 1, 1], demands=[0, 3, 0])
        params = ps.BillingParams(p_g=2, p_m=10, capacity=3, ramp=1)
        projected = ps.project_ramp(ps.Schedule(u=[0, 3, 0], v=[0, 0, 0]), trace, params)
        assert np.array_equal(projected.u, [0, 1, 0])
        assert np.array_equal(projected.v, [0, 2, 0])

    def test_slack_ramp_is_identity(self, rng):
        for _ in range(20):
            trace, params = make_integer_instance(rng)
            loose = ps.BillingParams(
                p_g=params.p_g, p_m=params.p_m, capacity=params.capacity, ramp=params.capacity
            )
            d = trace.demands
            u = np.minimum(np.minimum(d, params.capacity), rng.integers(0, 4, len(d))).astype(float)
            schedule = ps.Schedule(u=u, v=d - u)
            projected = ps.project_ramp(schedule, trace, loose)
            assert np.array_equal(projected.u, schedule.u)
            assert np.array_equal(projected.v, schedule.v)

    def test_zero_output_unchanged(self):
        trace = ps.Trace(prices=[1, 1], demands=[1, 1])
        params = ps.BillingParams(p_g=2, p_m=10, capacity=1, ramp=0)
        schedule = ps.Schedule(u=[0, 0], v=[1, 1])
        projected = ps.project_ramp(schedule, trace, params)
        assert np.array_equal(projected.u, [0, 0])

    def test_feasible_and_idempotent_on_random_schedules(self, rng):
        for _ in range(60):
            trace, params = make_integer_instance(rng)
            ramped = ps.BillingParams(
                p_g=params.p_g,
                p_m=params.p_m,
                capacity=params.capacity,
                ramp=float(rng.integers(1, int(params.capacity) + 1)),
            )
            d = trace.demands
            u = rng.integers(0, int(params.capacity) + 2, len(d)).astype(float)
            u = np.minimum(u, params.capacity)
            v = np.maximum(0.0, d - u) + rng.integers(0, 2, len(d))
            once = ps.project_ramp(ps.Schedule(u=u, v=v), trace, ramped)
            ps.validate_schedule(once, trace, ramped)
            twice = ps.project_ramp(once, trace, ramped)
            assert np.array_equal(once.u, twice.u)
            assert np.array_equal(once.v, twice.v)

    def test_never_raises_output_when_downsteps_fit_the_ramp(self, rng):
        """When neither the demand nor the input output drops faster than
        the ramp limit, the projection only clamps downward, so local cost
        never increases while grid cost may.  (A faster drop can force
        brief over-generation; the feasibility test above covers that.)"""
        for _ in range(40):
            trace, params = make_integer_instance(rng, max_demand=4)
            ramp = int(rng.integers(1, int(params.capacity) + 1))
            cap = int(params.capacity)
            d = np.array(trace.demands)
            for t in range(1, len(d)):
                d[t] = max(d[t], d[t - 1] - ramp)  # demand drops at most ramp per slot
            trace = ps.Trace(prices=trace.prices, demands=d)
            u = np.zeros(len(d))
            prev = 0
            for t in range(len(d)):
                lo = max(0, prev - ramp)
                hi = int(min(d[t], cap))
                prev = int(rng.integers(lo, hi + 1)) if hi >= lo else lo
                u[t] = prev
            ramped = ps.BillingParams(
                p_g=params.p_g, p_m=params.p_m, capacity=params.capacity, ramp=float(ramp)
            )
            schedule = ps.Schedule(u=u, v=np.maximum(0.0, d - u))
            projected = ps.project_ramp(schedule, trace, ramped)
            assert np.all(projected.u <= schedule.u + 1e-12)
            local_before = schedule.u.sum() * params.p_g
            local_after = projected.u.sum() * params.p_g
            assert local_after <= local_before + 1e-9

    def test_requires_ramp(self):
        trace = ps.Trace(prices=[1], demands=[1])
        with pytest.raises(ps.DomainError):
            ps.project_ramp(ps.Schedule(u=[1], v=[0]), trace, ps.BillingParams(p_g=2, p_m=2, capacity=1))

    def test_rejects_a_schedule_of_another_length(self):
        trace = ps.Trace(prices=[1, 1], demands=[1, 1])
        params = ps.BillingParams(p_g=2, p_m=2, capacity=1, ramp=1)
        with pytest.raises(ps.DomainError, match="^schedule and trace lengths differ$"):
            ps.project_ramp(ps.Schedule(u=[1], v=[0]), trace, params)


class TestLayerSigmaHats:
    def test_true_hats_match_layer_masses(self, rng):
        trace, params = make_integer_instance(rng)
        hats = ps.true_layer_sigma_hats(trace, params)
        for layer, hat in zip(ps.decompose(trace).layers, hats):
            assert hat == ps.sigma(layer, params)

    def test_flipped_hats_swap_branch(self, rng):
        trace, params = make_integer_instance(rng)
        for true, flipped in zip(
            ps.true_layer_sigma_hats(trace, params), ps.flipped_layer_sigma_hats(trace, params)
        ):
            assert (true > 1) != (flipped > 1)

    def test_predicted_hats_from_perfect_prediction(self, rng):
        trace, params = make_integer_instance(rng)
        prediction = ps.perfect_prediction(trace)
        hats = ps.predicted_layer_sigma_hats(prediction, params, ps.decompose(trace).depth)
        assert hats == pytest.approx(ps.true_layer_sigma_hats(trace, params), abs=1e-12)
