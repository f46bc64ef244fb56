"""Threshold runs, policy construction, threshold distributions, sampling."""
import copy
import gc
import math
import pickle
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import peaksched as ps
from peaksched import analysis, online
from conftest import (
    make_binary_bank,
    make_binary_instance,
    reference_run_threshold,
    reference_sample,
    reference_seeded_uniform,
)

E = math.e

TRI = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
TRI_PARAMS = ps.BillingParams(p_g=2, p_m=2, capacity=1)


class TestRunThreshold:
    def test_break_even_trace(self):
        record = ps.run_threshold(TRI, TRI_PARAMS, ps.SwitchPolicy.at(1.0))
        assert record.switch_slot == 1  # premiums 1, 2, 3: crossing at the second slot
        assert np.array_equal(record.schedule.u, [1, 0, 0])
        assert np.array_equal(record.schedule.v, [0, 1, 1])
        assert ps.cost_of(record.schedule, TRI, TRI_PARAMS).total == 6

    def test_grid_from_start(self):
        record = ps.run_threshold(TRI, TRI_PARAMS, ps.SwitchPolicy.grid_from_start())
        assert record.switch_slot == 0
        assert ps.cost_of(record.schedule, TRI, TRI_PARAMS).total == 5

    def test_never_switch(self):
        record = ps.run_threshold(TRI, TRI_PARAMS, ps.SwitchPolicy.never_switch())
        assert record.switch_slot is None
        assert ps.cost_of(record.schedule, TRI, TRI_PARAMS).total == 6

    def test_rejects_nonbinary(self):
        trace = ps.Trace(prices=[1, 1], demands=[2, 0])
        with pytest.raises(ps.DomainError):
            ps.run_threshold(trace, ps.BillingParams(p_g=2, p_m=2, capacity=2), ps.bed_policy())

    @pytest.mark.parametrize("s, switch", [(-1.0, 0), (0.0, 0), (math.inf, None), ("last", 24)])
    def test_split_equals_the_masked_formula_bit_for_bit(self, rng, s, switch):
        trace, params = make_binary_instance(rng, horizon=25)
        if s == "last":
            # all-ones demand and a threshold between the premium paid
            # before the last slot and the total: the switch lands on the last slot
            trace = ps.Trace(prices=trace.prices, demands=np.ones(25))
            premium = np.cumsum(params.p_g - trace.prices)
            s = float(premium[-2] + premium[-1]) / 2 / params.p_m
        record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(s))
        assert record.switch_slot == switch
        d = trace.demands
        k = len(d) if switch is None else switch
        u = np.where(np.arange(len(d)) < k, d, 0.0)
        assert record.schedule.u.tobytes() == u.tobytes()
        assert record.schedule.v.tobytes() == (d - u).tobytes()
        assert not record.schedule.u.flags.writeable and not record.schedule.v.flags.writeable

    def test_final_premium_is_sigma_times_peak_price(self, rng):
        for _ in range(40):
            trace, params = make_binary_instance(rng)
            record = ps.run_threshold(trace, params, ps.bed_policy())
            expected = ps.sigma(trace, params) * params.p_m
            assert record.cumulative_premium == pytest.approx(expected, abs=1e-9)

    def test_slot_exclusivity_and_split_shape(self, rng):
        for _ in range(40):
            trace, params = make_binary_instance(rng)
            s = float(rng.uniform(0, 2))
            record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(s))
            u, v = record.schedule.u, record.schedule.v
            assert np.all(u * v == 0)
            if record.switch_slot is not None:
                assert np.all(v[: record.switch_slot] == 0)
                assert np.all(u[record.switch_slot :] == 0)
            else:
                assert np.all(v == 0)

    def test_paid_premium_stays_below_threshold(self, rng):
        """The crossing slot is grid-served, so the generator-side premium
        paid never reaches s * p_m."""
        for _ in range(60):
            trace, params = make_binary_instance(rng)
            s = float(rng.uniform(0, 2))
            record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(s))
            premiums = (params.p_g - trace.prices) * trace.demands
            paid = float(premiums[record.schedule.u > 0].sum())
            cap = s * params.p_m + float((params.p_g - trace.prices).max())
            assert paid < s * params.p_m + 1e-12
            assert paid < cap

    def test_determinism_byte_for_byte(self, rng):
        trace, params = make_binary_instance(rng)
        a = ps.run_threshold(trace, params, ps.bed_policy())
        b = ps.run_threshold(trace, params, ps.bed_policy())
        assert pickle.dumps((a.schedule.u.tobytes(), a.schedule.v.tobytes(), a.switch_slot)) == \
            pickle.dumps((b.schedule.u.tobytes(), b.schedule.v.tobytes(), b.switch_slot))

    def test_no_demand_never_switches(self):
        trace = ps.Trace(prices=[1, 1], demands=[0, 0])
        record = ps.run_threshold(trace, ps.BillingParams(p_g=2, p_m=2, capacity=1), ps.bed_policy())
        assert record.switch_slot is None
        assert ps.cost_of(record.schedule, trace, ps.BillingParams(p_g=2, p_m=2, capacity=1)).total == 0


class TestLazySchedule:
    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.3, 1.0, math.inf])
    def test_the_schedule_is_the_switch_schedule_byte_for_byte(self, rng, s):
        for _ in range(10):
            trace, params = make_binary_instance(rng)
            record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(s))
            expected = ps.switch_schedule(trace, record.switch_slot)
            got = record.schedule
            assert got.u.tobytes() == expected.u.tobytes()
            assert got.v.tobytes() == expected.v.tobytes()
            assert (got._max_u, got._max_v) == (expected._max_u, expected._max_v)

    def test_the_schedule_is_read_only_and_built_once_on_first_read(self, rng, monkeypatch):
        trace, params = make_binary_instance(rng)
        built = []
        # switch schedules skip Schedule.__post_init__, so count the builder
        build = online.switch_schedule
        monkeypatch.setattr(online, "switch_schedule", lambda *args: (built.append(1), build(*args))[1])
        record = ps.run_algorithm(trace, params, "lambda-red", lam=0.5, sigma_hat=2.0, seed=4)
        assert built == []
        first = record.schedule
        assert record.schedule is first and len(built) == 1
        assert not first.u.flags.writeable and not first.v.flags.writeable
        with pytest.raises(AttributeError):
            record.schedule = ps.switch_schedule(trace, None)
        assert record.schedule is first
        assert "trace" not in repr(record)


class TestSwitchSchedule:
    @pytest.mark.parametrize("slot", [-1, -3, 4, 100])
    def test_rejects_a_slot_outside_the_horizon(self, slot):
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, 0, 1])
        with pytest.raises(ps.DomainError, match=f"switch slot {slot} lies outside \\[0, 3\\]"):
            ps.switch_schedule(trace, slot)

    @pytest.mark.parametrize("slot", [1.5, 1.0, True, "1", np.float64(2.0)])
    def test_rejects_a_slot_that_is_not_an_integer(self, slot):
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, 0, 1])
        with pytest.raises(ps.DomainError, match=re.escape(f"switch slot {slot!r} must be an integer")):
            ps.switch_schedule(trace, slot)

    def test_the_horizon_and_numpy_integers_are_slots(self):
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, 0, 1])
        never = ps.switch_schedule(trace, None)
        assert ps.switch_schedule(trace, 3).u.tobytes() == never.u.tobytes() == trace.demands.tobytes()
        assert ps.switch_schedule(trace, np.int64(0)).v.tobytes() == trace.demands.tobytes()

    @pytest.mark.parametrize("slot", [None, 3, 0])
    def test_a_schedule_on_one_source_shares_the_trace_demands(self, slot):
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, -0.0, 1])
        schedule = ps.switch_schedule(trace, slot)
        shared, other = (schedule.v, schedule.u) if slot == 0 else (schedule.u, schedule.v)
        assert shared is trace.demands
        assert other is not trace.demands and other.base is None and not other.flags.writeable
        assert other.tobytes() == np.zeros(3).tobytes()
        max_shared, max_other = (schedule._max_v, schedule._max_u) if slot == 0 else (schedule._max_u, schedule._max_v)
        assert (max_shared.hex(), max_other.hex()) == (trace.max_demand.hex(), (0.0).hex())

    def test_cost_of_checks_a_switch_schedule_paired_with_another_trace(self):
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, 0, 1])
        params = ps.BillingParams(p_g=2, p_m=1, capacity=1)
        schedule = ps.switch_schedule(trace, 2)
        # an equal trace is another object: its schedule is checked, and passes
        twin = ps.Trace(prices=trace.prices, demands=trace.demands)
        assert ps.cost_of(schedule, twin, params) == ps.cost_of(schedule, trace, params)
        other = ps.Trace(prices=[1, 1, 1], demands=[1, 1, 1])
        with pytest.raises(ps.ValidationError, match=r"^demand not met at slot 1: u\+v = 0.0 < d = 1.0$"):
            ps.cost_of(schedule, other, params)
        shorter = ps.Trace(prices=[1, 1], demands=[1, 0])
        with pytest.raises(ps.StructuralError, match="^schedule has 3 slots but trace has 2$"):
            ps.cost_of(schedule, shorter, params)

    def test_cost_of_checks_a_switch_schedule_above_the_capacity(self):
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, 3, 2])
        schedule = ps.switch_schedule(trace, None)
        with pytest.raises(ps.ValidationError, match="^generator output 3.0 at slot 1 exceeds capacity 2$"):
            ps.cost_of(schedule, trace, ps.BillingParams(p_g=2, p_m=1, capacity=2))

    def test_cost_of_checks_a_switch_schedule_under_a_ramp_below_one(self):
        trace = ps.Trace(prices=[1, 1, 1], demands=[0, 1, 1])
        params = ps.BillingParams(p_g=2, p_m=1, capacity=1, ramp=0.5)
        with pytest.raises(ps.ValidationError, match="^ramp violation at slot 1: output change 1.0 exceeds limit 0.5$"):
            ps.cost_of(ps.switch_schedule(trace, None), trace, params)

    @pytest.mark.parametrize("slot", [None, 0, 2, 3])
    def test_a_pickled_or_copied_switch_schedule_is_rebuilt_and_checked_again(self, slot, monkeypatch):
        trace = ps.Trace(prices=[0.5, 1, 0.25], demands=[1, 0, 1])
        params = ps.BillingParams(p_g=2, p_m=3, capacity=1)
        schedule = ps.switch_schedule(trace, slot)
        checked = ps.Schedule(u=schedule.u, v=schedule.v)
        # the trace stays behind: the pickle is a checked schedule's
        assert len(pickle.dumps(schedule)) == len(pickle.dumps(checked))
        validated = []
        validate = ps.model.validate_schedule
        monkeypatch.setattr(ps.model, "validate_schedule", lambda *args: (validated.append(1), validate(*args))[1])
        expected = ps.cost_of(schedule, trace, params)
        assert validated == []
        for rebuilt in (pickle.loads(pickle.dumps(schedule)), copy.copy(schedule), copy.deepcopy(schedule)):
            assert rebuilt._trace is None
            assert rebuilt.u.tobytes() == schedule.u.tobytes() and rebuilt.v.tobytes() == schedule.v.tobytes()
            assert ps.cost_of(rebuilt, trace, params) == expected
        assert len(validated) == 3


class TestSwitchSlots:
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -0.5])
    def test_rejects_what_switch_policy_rejects_naming_the_value(self, bad):
        trace = ps.Trace(prices=[0.5, 0.5, 0.5], demands=[1, 1, 1])
        params = ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1)
        message = re.escape(f"threshold multiplier must be -1, >= 0, or inf; got {bad}")
        with pytest.raises(ps.DomainError, match=message):
            ps.SwitchPolicy.at(bad)
        with pytest.raises(ps.DomainError, match=message):
            ps.switch_slots(trace, params, [0.5, bad, math.nan])
        with pytest.raises(ps.DomainError, match=message):
            ps.switch_slots(trace, params, bad)


class TestSwitchCosts:
    def test_totals_equal_costing_each_switch_schedule(self):
        trace = ps.Trace(prices=[0.5, 1.0, 0.25, 0.75], demands=[1, 0, 1, 1])
        params = ps.BillingParams(p_g=1.0, p_m=3.0, capacity=1)
        slots = np.array([[4, 0], [2, 2]])
        totals = ps.switch_costs(trace, params, slots)
        assert totals.shape == (2, 2)
        for slot, total in zip(slots.ravel().tolist(), totals.ravel().tolist()):
            assert total == ps.cost_of(ps.switch_schedule(trace, slot), trace, params).total
        assert ps.switch_costs(trace, params, []).shape == (0,)

    def test_rejects_non_binary_demand(self):
        trace = ps.Trace(prices=[1, 1], demands=[1, 2])
        with pytest.raises(ps.DomainError, match="0/1 demands"):
            ps.switch_costs(trace, ps.BillingParams(p_g=2, p_m=1, capacity=2), [0])

    @pytest.mark.parametrize("slot", [-1, 4, 100])
    def test_rejects_a_slot_outside_the_horizon(self, slot):
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, 0, 1])
        params = ps.BillingParams(p_g=2, p_m=1, capacity=1)
        with pytest.raises(ps.DomainError, match=f"switch slot {slot} lies outside \\[0, 3\\]"):
            ps.switch_costs(trace, params, [0, 3, slot])

    def test_rejects_slots_that_are_not_integers(self):
        trace = ps.Trace(prices=[1, 1], demands=[1, 1])
        with pytest.raises(ps.DomainError, match="integers"):
            ps.switch_costs(trace, ps.BillingParams(p_g=2, p_m=1, capacity=1), [0.5])

    def test_a_bool_in_a_list_of_slots_is_not_slot_1(self):
        # np.asarray read [True, 3] as int64, so True was priced as slot 1,
        # although switch_schedule(trace, True) raises
        trace = ps.Trace(prices=[1, 1, 1], demands=[1, 0, 1])
        params = ps.BillingParams(p_g=2, p_m=1, capacity=1)
        bank = ps.TraceBank([trace.prices] * 2, [trace.demands] * 2, params.p_g, params.p_m)
        message = "switch slots must be integers, got True"
        with pytest.raises(ps.DomainError, match=f"^{message}$"):
            ps.switch_costs(trace, params, [True, 3])
        with pytest.raises(ps.DomainError, match=f"^row 0: {message}$"):
            bank.switch_costs([True, 3])
        numpy_bool = f"^row 1: switch slots must be integers, got {re.escape(repr(np.True_))}$"
        with pytest.raises(ps.DomainError, match=numpy_bool):
            bank.switch_costs([[1, 3], [np.True_, 3]])
        # integer arrays and lists of numpy integers are slots
        expected = ps.switch_costs(trace, params, np.array([1, 3]))
        assert ps.switch_costs(trace, params, [np.int64(1), 3]).tobytes() == expected.tobytes()
        assert bank.switch_costs([[1, 3], [1, 3]]).tobytes() == np.vstack([expected, expected]).tobytes()

    def test_rejects_a_failed_pairing(self):
        trace = ps.Trace(prices=[1, 3], demands=[1, 1])
        with pytest.raises(ps.ValidationError, match="exceeds generation cost"):
            ps.switch_costs(trace, ps.BillingParams(p_g=2, p_m=1, capacity=1), [1])

    def test_a_ramp_below_one_raises_what_cost_of_raises(self):
        trace = ps.Trace(prices=[1, 1, 1, 1], demands=[0, 0, 1, 1])
        params = ps.BillingParams(p_g=2, p_m=1, capacity=1, ramp=0.5)
        with pytest.raises(ps.ValidationError) as scalar:
            ps.cost_of(ps.switch_schedule(trace, 3), trace, params)
        with pytest.raises(ps.ValidationError) as batch:
            ps.switch_costs(trace, params, [0, 3, 1])
        assert str(batch.value) == str(scalar.value) == "ramp violation at slot 2: output change 1.0 exceeds limit 0.5"
        # switches at or before the first demand never turn the generator on
        expected = [ps.cost_of(ps.switch_schedule(trace, k), trace, params).total for k in (0, 2, 1)]
        assert ps.switch_costs(trace, params, [0, 2, 1]).tolist() == expected


class TestTraceBank:
    def test_the_bank_builder_makes_the_instance_builders_instances_in_order(self):
        n = 300
        betas = [0.05 + 0.9 * i / (n - 1) for i in range(n)]
        rng = np.random.default_rng(42)
        expected = [make_binary_instance(rng, beta=beta) for beta in betas]
        seen = []
        for index, bank in make_binary_bank(np.random.default_rng(42), betas):
            assert len(bank) == len(index) and bank.horizon == len(expected[index[0]][0])
            for row, i in enumerate(index.tolist()):
                trace, params = expected[i]
                assert bank.prices[row].tobytes() == trace.prices.tobytes()
                assert bank.demands[row].tobytes() == trace.demands.tobytes()
                assert (bank.p_g[row], bank.p_m[row]) == (params.p_g, params.p_m)
                seen.append(i)
        assert sorted(seen) == list(range(n))

    def test_shared_and_per_row_arguments(self):
        bank = ps.TraceBank([[0.5, 1.0, 0.25], [1.0, 1.0, 1.0]], [[1, 0, 1], [0, 0, 0]], [1.0, 2.0], 3.0)
        assert bank.prices.shape == bank.demands.shape == (2, 3) and not bank.prices.flags.writeable
        assert bank.p_m.tolist() == [3.0, 3.0]
        shared = bank.switch_slots([-1.0, math.inf])
        assert shared.tolist() == [[0, 3], [0, 3]]
        assert bank.switch_slots([[-1.0, math.inf]] * 2).tolist() == shared.tolist()
        assert bank.switch_costs([0, 3]).tolist() == bank.switch_costs([[0, 3], [0, 3]]).tolist()
        assert bank.switch_costs(np.zeros((2, 0), dtype=int)).shape == (2, 0)
        assert bank.oracle_slots().tolist() == [3, 3]  # sigma 0.25/3 and 0: all local

    @pytest.mark.parametrize(
        "prices, demands, p_g, p_m, message",
        [
            ([[1.0, 1.0]], [[1.0, 1.0, 1.0]], 1.0, 1.0, r"prices \(1, 2\) and demands \(1, 3\) differ in shape"),
            ([1.0, 1.0], [1.0, 1.0], 1.0, 1.0, "prices must be a two-dimensional"),
            (np.ones((2, 0)), np.ones((2, 0)), 1.0, 1.0, "empty trace"),
            ([[1.0], [1.0]], [[1.0], [1.0]], [1.0, 1.0, 1.0], 1.0, r"p_g must be a number or one number per row \(2\)"),
        ],
    )
    def test_rejects_shapes_that_are_not_a_bank(self, prices, demands, p_g, p_m, message):
        with pytest.raises(ps.PeakSchedError, match=message):
            ps.TraceBank(prices, demands, p_g, p_m)

    @pytest.mark.parametrize(
        "p_g, p_m, message",
        [
            ("1", 1.0, "p_g must be a real number, got '1'"),
            (True, 1.0, "p_g must be a real number, got True"),
            ([1.0, "2"], 1.0, "row 1: p_g must be a real number, got '2'"),
            (1.0, [None, 1.0], "row 0: p_m must be a real number, got None"),
            (np.array(["1", "2"]), 1.0, "row 0: p_g must be a real number, got '1'"),
            (1.0, 10**400, f"p_m must fit in a float, got {10**400}"),
            ([1.0, 10**400], 1.0, f"row 1: p_g must fit in a float, got {10**400}"),
        ],
    )
    def test_rejects_per_row_prices_that_are_not_real_numbers(self, p_g, p_m, message):
        # the float fill read "1" and True as 1.0, and raised a bare OverflowError on 10**400
        with pytest.raises(ps.ValidationError, match=f"^{re.escape(message)}$"):
            ps.TraceBank([[0.5, 0.5], [0.5, 0.5]], [[0, 1], [1, 0]], p_g, p_m)

    def test_per_row_prices_take_numpy_scalars_and_lists_of_numbers(self):
        bank = ps.TraceBank([[0.5, 0.5], [0.5, 0.5]], [[0, 1], [1, 0]], np.float32(1.0), [np.int64(2), 3.0])
        assert bank.p_g.tolist() == [1.0, 1.0] and bank.p_m.tolist() == [2.0, 3.0]
        with pytest.raises(ps.StructuralError, match=r"p_m must be a number or one number per row \(2\)"):
            ps.TraceBank([[0.5, 0.5], [0.5, 0.5]], [[0, 1], [1, 0]], 1.0, [[2.0, 3.0]])

    def test_a_fortran_order_block_gives_contiguous_rows_that_answer_as_their_traces(self):
        # an F-order copy kept its order, and its strided rows' dot products
        # grouped differently: sigmas and costs differed in the last bits
        rng = np.random.default_rng(3)
        prices = rng.uniform(0.1, 1.0, (3, 500))
        demands = (rng.random((3, 500)) < 0.6).astype(float)
        bank = ps.TraceBank(np.asfortranarray(prices), np.asfortranarray(demands), 1.0, 20.0)
        assert bank.prices.flags.c_contiguous and bank.demands.flags.c_contiguous
        slots = np.arange(0, 501, 7)
        costs = bank.switch_costs(slots)
        for r in range(len(bank)):
            trace, params = bank.instance(r)
            assert bank.sigmas[r].hex() == ps.sigma(trace, params).hex()
            assert costs[r].tobytes() == ps.switch_costs(trace, params, slots).tobytes()

    def test_a_frozen_c_order_block_is_kept_and_anything_else_is_copied(self):
        frozen = np.ones((2, 3))
        frozen.setflags(write=False)
        assert ps.TraceBank(frozen, frozen, 1.0, 1.0).prices is frozen
        writable = np.ones((2, 3))
        copied = ps.TraceBank(writable, writable, 1.0, 1.0).prices
        assert copied is not writable and not copied.flags.writeable

    def test_rejects_thresholds_and_slots_of_the_wrong_shape(self):
        bank = ps.TraceBank(np.ones((2, 3)), np.ones((2, 3)), 1.0, 1.0)
        with pytest.raises(ps.StructuralError, match=r"thresholds must be \(k,\) or \(2, k\)"):
            bank.switch_slots(np.ones((3, 1)))
        with pytest.raises(ps.StructuralError, match=r"slots must be \(k,\) or \(2, k\)"):
            bank.switch_costs(np.zeros((1, 1, 1), dtype=int))

    def test_a_worst_case_bank_row_is_the_worst_case_instance(self):
        bank = ps.worst_case_bank([0.5, 1.5, 2.0], [[0.3], [1.0]], p_m=50.0, slots=40)
        assert len(bank) == 6
        for row, (beta, s) in enumerate((beta, s) for beta in (0.3, 1.0) for s in (0.5, 1.5, 2.0)):
            trace, params = ps.worst_case_instance(s, beta, p_m=50.0, slots=40)
            assert bank.prices[row].tobytes() == trace.prices.tobytes()
            assert bank.demands[row].tobytes() == trace.demands.tobytes()
            assert (bank.p_g[row], bank.p_m[row]) == (params.p_g, params.p_m)
            assert bank.sigmas[row] == ps.sigma(trace, params)
        with pytest.raises(ps.DomainError, match="threshold multiplier must be > 0, got 0.0"):
            ps.worst_case_bank([0.5, 0.0], 0.5)
        with pytest.raises(ps.DomainError, match="beta must lie in"):
            ps.worst_case_bank(0.5, [0.5, 1.5])


def _checked_worst_case_bank(s, beta, p_m, slots):
    """The worst-case rows as (n, T) arrays, through TraceBank's own checks."""
    s, beta = (np.ravel(x) for x in np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(beta, dtype=float)))
    with np.errstate(over="ignore", divide="ignore"):
        p_g = np.where(beta != 1.0, s * p_m / ((1.0 - beta) * slots), 1.0)
    prices = np.repeat((beta * p_g)[:, None], slots, axis=1)
    return ps.TraceBank(prices=prices, demands=np.ones((len(s), slots)), p_g=p_g, p_m=p_m)


class TestWorstCaseBank:
    @pytest.mark.parametrize(
        "s, beta, slots",
        [
            ([0.5, 1.0, 1.5, 2.0], [[0.3], [1.0]], 40),  # beta = 1 rows: p_g = 1, mass 0
            (1e-320, 0.999, 7),  # a subnormal p_g and price
            ([0.1, 0.9, 1.1, 1.9], [0.05, 0.5, 0.95, 0.999], 977),
        ],
    )
    def test_the_bank_built_from_checked_parameters_is_the_checked_bank(self, s, beta, slots):
        bank = ps.worst_case_bank(s, beta, p_m=50.0, slots=slots)
        checked = _checked_worst_case_bank(s, beta, 50.0, slots)
        for name in ("prices", "demands", "p_g", "p_m"):
            ours, theirs = getattr(bank, name), getattr(checked, name)
            assert (ours.dtype, ours.shape, ours.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())
            assert not ours.flags.writeable and not theirs.flags.writeable
        assert bank.sigmas.tobytes() == checked.sigmas.tobytes()
        thresholds = [-1.0, 0.0, 1e-320, 0.25, 0.5, 1.0, 1.5, 2.0 * (1 - 1e-9), math.inf]
        slots_of = bank.switch_slots(thresholds)
        assert slots_of.tobytes() == checked.switch_slots(thresholds).tobytes()
        table = np.hstack([slots_of, bank.oracle_slots()[:, None], np.full((len(bank), 1), slots // 2)])
        assert bank.switch_costs(table).tobytes() == checked.switch_costs(table).tobytes()

    @pytest.mark.parametrize("s", [5e-324, 1e308, [0.5, 1e308]])
    def test_a_row_that_fails_raises_what_the_checked_bank_raises(self, s):
        # 5e-324 prices the row at 0; 1e308 overflows p_g to inf, which
        # leaked a RuntimeWarning before the ValidationError
        with pytest.raises(ps.ValidationError) as checked:
            _checked_worst_case_bank(s, 0.5, 100.0, 1000)
        with pytest.raises(ps.ValidationError) as built:
            ps.worst_case_bank(s, 0.5)
        assert str(built.value) == str(checked.value)
        assert re.fullmatch(r"row \d: price at slot 0 is (0\.0|inf); prices must be finite and > 0", str(built.value))
        with pytest.raises(ps.ValidationError) as instance:
            ps.worst_case_instance(np.ravel(s)[-1], 0.5)
        assert f"row {len(np.ravel(s)) - 1}: {instance.value}" == str(built.value)

    @pytest.mark.parametrize(
        "p_m, error, message",
        [
            ("100", ps.ValidationError, "peak price p_m must be a real number, got '100'"),
            (True, ps.ValidationError, "peak price p_m must be a real number, got True"),
            (10**400, ps.ValidationError, "peak price p_m must fit in a float, got 1000"),
            (-2, ps.DomainError, "peak price must be > 0, got -2.0"),
        ],
    )
    def test_a_bad_peak_price_is_named(self, p_m, error, message):
        # a string raised a bare TypeError and a huge int a bare OverflowError
        for build in (ps.worst_case_bank, ps.worst_case_instance):
            with pytest.raises(error, match=f"^{re.escape(message)}"):
                build(0.5, 0.5, p_m=p_m)

    def test_banks_on_one_shared_demand_block_keep_to_their_rows(self):
        unit = analysis._unit_demands(4, 30)
        banks = [analysis._worst_case_bank(s, 0.4, 100.0, 30, unit) for s in ([0.5, 1.5, 2.0, 0.1], [1.2, 0.3])]
        assert not unit[0].flags.writeable and not unit[1].flags.writeable
        assert unit[1].tolist() == [list(range(31))] * 4
        for bank, s in zip(banks, ([0.5, 1.5, 2.0, 0.1], [1.2, 0.3])):
            own = ps.worst_case_bank(s, 0.4, slots=30)
            assert np.shares_memory(bank.demands, unit[0])
            assert bank.demands.tobytes() == own.demands.tobytes()
            slots = bank.switch_slots([0.2, 1.0, math.inf])
            assert bank.switch_costs(slots).tobytes() == own.switch_costs(slots).tobytes()


class TestPremiumPrefixMemo:
    def _check(self, trace, params, s):
        record = ps.run_threshold(trace, params, ps.SwitchPolicy.at(s))
        switch, u, v, premium = reference_run_threshold(trace, params, s)
        assert record.switch_slot == switch
        assert record.schedule.u.tobytes() == u.tobytes()
        assert record.schedule.v.tobytes() == v.tobytes()
        assert record.cumulative_premium == premium

    @staticmethod
    def _fresh(trace, p_g):
        return ((p_g - trace.prices) * trace.demands).cumsum()

    def test_a_trace_rebuilt_at_a_dropped_traces_id_gets_its_own_prefix(self, rng):
        params = ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1)
        for _ in range(50):
            old = ps.Trace(prices=rng.uniform(0.1, 1.0, 30), demands=np.ones(30))
            for _ in range(3):  # the first run stores the prefix, the later ones read it
                self._check(old, params, 4.0)
            old_id = id(old)
            del old
            new = ps.Trace(prices=rng.uniform(0.1, 1.0, 30), demands=np.ones(30))
            if id(new) == old_id:
                self._check(new, params, 4.0)
                self._check(new, params, 4.0)
                return
        pytest.skip("the interpreter never reused a dropped trace's id")

    def test_a_new_p_g_gets_a_new_prefix(self):
        trace = ps.Trace(prices=[0.5, 0.25, 0.75, 1.0], demands=[1, 1, 0, 1])
        for p_g in (1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 3.0):
            self._check(trace, ps.BillingParams(p_g=p_g, p_m=1.0, capacity=1), 0.6)

    def test_the_stored_prefix_is_read_only(self):
        trace = ps.Trace(prices=[0.5, 0.5], demands=[1, 1])
        ps.run_threshold(trace, ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1), ps.bed_policy())
        p_g, stored = vars(trace)["_premium_prefix"]
        assert p_g == 1.0 and not stored.flags.writeable
        assert online._premium_prefix(trace, 1.0) is stored

    def test_the_second_run_reads_the_prefix_the_first_stored(self, rng):
        # the visiting order of a layered experiment: every cell runs layer A, then layer B
        traces = [ps.Trace(prices=rng.uniform(0.1, 1.0, 50), demands=np.ones(50)) for _ in range(2)]
        seen = [[], []]
        for _ in range(3):
            for k, trace in enumerate(traces):
                seen[k].append(online._premium_prefix(trace, 1.0))
        for trace, (first, second, third) in zip(traces, seen):
            assert first is second is third is vars(trace)["_premium_prefix"][1]
            assert first.tobytes() == self._fresh(trace, 1.0).tobytes()
            replaced = online._premium_prefix(trace, 3.0)
            assert replaced is not first and replaced.tobytes() == self._fresh(trace, 3.0).tobytes()
            assert vars(trace)["_premium_prefix"][1] is replaced
            assert online._premium_prefix(trace, 3.0) is replaced

    def test_a_dropped_trace_takes_its_prefix_along(self):
        trace = ps.Trace(prices=[0.5, 0.25, 0.75], demands=[1, 1, 1])
        prefix = weakref.ref(online._premium_prefix(trace, 1.0))
        assert prefix() is vars(trace)["_premium_prefix"][1]
        del trace
        gc.collect()
        assert prefix() is None

    def test_a_new_p_g_recomputes_the_prefix(self):
        trace = ps.Trace(prices=[0.5, 0.25, 0.75, 1.0], demands=[1, 1, 0, 1])
        stored = online._premium_prefix(trace, 1.0)
        changed = online._premium_prefix(trace, 2.0)
        assert changed is not stored
        assert changed.tobytes() == self._fresh(trace, 2.0).tobytes()
        p_g, kept = vars(trace)["_premium_prefix"]
        assert p_g == 2.0 and kept is changed
        again = online._premium_prefix(trace, 1.0)
        assert again is not stored and again.tobytes() == stored.tobytes()

    def test_threads_sharing_two_traces_never_read_the_other_prefix(self, rng):
        traces = [
            ps.Trace(prices=rng.uniform(0.1, 1.0, 400), demands=(rng.random(400) < 0.7).astype(float))
            for _ in range(2)
        ]
        params = ps.BillingParams(p_g=1.0, p_m=10.0, capacity=1)
        thresholds = [0.5, 1.5, 4.0, 9.0]
        expected = {
            (k, s): reference_run_threshold(traces[k], params, s)[0] for k in range(2) for s in thresholds
        }

        def worker(w):
            mismatches = 0
            for i in range(600):
                # runs of four calls on one trace let the memo store and reuse
                k = (w + i // 4) % 2
                s = thresholds[i % len(thresholds)]
                record = ps.run_threshold(traces[k], params, ps.SwitchPolicy.at(s))
                mismatches += record.switch_slot != expected[k, s]
                slots = ps.switch_slots(traces[1 - k], params, thresholds)
                mismatches += slots.tolist() != [
                    len(traces[1 - k]) if expected[1 - k, t] is None else expected[1 - k, t] for t in thresholds
                ]
            return mismatches

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(worker, w) for w in range(4)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [0, 0, 0, 0]


class TestPolicies:
    def test_break_even_is_unit_threshold(self):
        assert ps.bed_policy() == ps.SwitchPolicy.at(1.0)

    def test_break_even_ratio_on_tri(self):
        record = ps.run_threshold(TRI, TRI_PARAMS, ps.bed_policy())
        total = ps.cost_of(record.schedule, TRI, TRI_PARAMS).total
        assert total / ps.optimal_basic(TRI, TRI_PARAMS).total == pytest.approx(1.2)

    def test_assisted_branches(self):
        assert ps.lambda_bed_policy(1.5, 0.5) == ps.SwitchPolicy.at(0.5)
        assert ps.lambda_bed_policy(0.5, 0.5) == ps.SwitchPolicy.at(2.0)
        assert ps.lambda_bed_policy(7.0, 1.0) == ps.bed_policy()
        assert ps.lambda_bed_policy(0.2, 1.0) == ps.bed_policy()

    def test_assisted_rejects_zero_trust(self):
        with pytest.raises(ps.DomainError):
            ps.lambda_bed_policy(1.5, 0.0)

    def test_policy_domain(self):
        with pytest.raises(ps.DomainError):
            ps.SwitchPolicy.at(-0.5)
        assert ps.SwitchPolicy.at(0.0).is_finite


class TestDistributions:
    def test_pure_randomized_masses(self):
        spec = ps.red_distribution(0.5)
        assert spec.atom_mass(math.inf) == pytest.approx(0.5 / (E - 0.5), abs=1e-12)
        assert spec.total_mass() == pytest.approx(1.0, abs=1e-12)
        unit = ps.red_distribution(1.0)
        assert unit.continuous_mass() == pytest.approx((E - 1) / E, abs=1e-12)
        assert unit.atom_mass(math.inf) == pytest.approx(1 / E, abs=1e-12)

    def test_full_trust_reduces_to_pure(self):
        for sigma_hat in (0.2, 5.0):
            for beta in (0.1, 0.5, 1.0):
                pure = ps.red_distribution(beta)
                spec = ps.lambda_red_distribution(sigma_hat, 1.0, beta)
                assert spec.coeff == pure.coeff
                assert spec.lo == pure.lo and spec.hi == pure.hi
                assert spec.atom_mass(-1.0) == 0.0
                assert abs(spec.atom_mass(math.inf) - pure.atom_mass(math.inf)) <= 1e-12

    def test_low_branch_atom_mass(self):
        spec = ps.lambda_red_distribution(0.5, 0.5, 0.5)
        expected = (0.5 * (E - 1) + 0.5) / (E - 0.5)
        assert spec.atom_mass(math.inf) == pytest.approx(expected, abs=1e-12)
        assert spec.atom_mass(-1.0) == 0.0

    def test_high_branch_splits_moved_mass(self):
        spec = ps.lambda_red_distribution(2.0, 0.25, 0.4)
        moved = (0.75 * (E - 1) + 0.4) / (E - 0.6)
        assert spec.atom_mass(-1.0) == pytest.approx(moved * 0.75, abs=1e-12)
        assert spec.atom_mass(math.inf) == pytest.approx(moved * 0.25, abs=1e-12)

    def test_normalization_over_grid(self):
        for lam in np.linspace(0, 1, 11):
            for beta in np.linspace(0.05, 1.0, 11):
                for sigma_hat in (0.5, 2.0):
                    spec = ps.lambda_red_distribution(sigma_hat, float(lam), float(beta))
                    assert abs(spec.total_mass() - 1.0) <= 1e-12
                    if 0 < lam:
                        naive = ps.naive_red_distribution(sigma_hat, float(lam), float(beta))
                        assert abs(naive.total_mass() - 1.0) <= 1e-12

    def test_zero_trust_degenerates_to_atoms(self):
        high = ps.lambda_red_distribution(2.0, 0.0, 0.3)
        assert high.atom_mass(-1.0) == pytest.approx(1.0, abs=1e-12)
        low = ps.lambda_red_distribution(0.3, 0.0, 0.3)
        assert low.atom_mass(math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_naive_high_branch_weights(self):
        spec = ps.naive_red_distribution(2.0, 0.5, 0.5)
        root_e = math.exp(0.5)
        assert spec.hi == 0.5
        assert spec.continuous_mass() == pytest.approx((root_e - 1) / (root_e - 0.5), abs=1e-12)
        assert spec.atom_mass(math.inf) == pytest.approx(0.5 / (root_e - 0.5), abs=1e-12)

    def test_naive_full_trust_is_pure(self):
        for beta in (0.2, 0.7):
            naive = ps.naive_red_distribution(0.5, 1.0, beta)
            pure = ps.red_distribution(beta)
            assert naive.coeff == pure.coeff and naive.hi == pure.hi
            assert abs(naive.atom_mass(math.inf) - pure.atom_mass(math.inf)) <= 1e-12

    def test_naive_rejects_zero_trust(self):
        with pytest.raises(ps.DomainError):
            ps.naive_red_distribution(0.5, 0.0, 0.5)


class TestSampling:
    def test_origin_hits_leading_atom(self):
        spec = ps.lambda_red_distribution(2.0, 0.5, 0.5)
        assert ps.sample(spec, 0.0).is_grid_from_start

    def test_tail_hits_trailing_atom(self):
        spec = ps.lambda_red_distribution(0.5, 0.5, 0.5)
        assert ps.sample(spec, 0.999999).is_never_switch

    def test_continuous_inverse_matches_cdf(self):
        spec = ps.red_distribution(0.5)
        # mass below s inside the segment: coeff * (e^s - 1)
        for s_target in (0.1, 0.5, 0.9):
            mass = spec.coeff * (math.exp(s_target) - 1)
            policy = ps.sample(spec, mass)
            assert policy.is_finite and policy.s == pytest.approx(s_target, abs=1e-12)

    def test_a_draw_below_zero_from_a_users_spec_is_refused_as_switch_policy_refuses_it(self):
        # a normalized spec whose support starts at -0.5: sample stores a
        # drawn s >= 0 directly, and must still refuse this one
        spec = ps.DistributionSpec(atoms=(), coeff=1 / (E - E**-0.5), lo=-0.5, hi=1.0)
        spec.require_normalized()
        s = math.log(E**-0.5 + 0.01 / spec.coeff)
        message = f"threshold multiplier must be -1, >= 0, or inf; got {s}"
        assert message.startswith("threshold multiplier must be -1, >= 0, or inf; got -0.4657")
        with pytest.raises(ps.DomainError, match=f"^{re.escape(message)}$"):
            ps.sample(spec, 0.01)

    def test_atom_frequencies_match_masses(self):
        spec = ps.lambda_red_distribution(2.0, 0.6, 0.35)
        n = 100_000
        draws = np.random.default_rng(99).random(n)
        starts = sum(ps.sample(spec, u).is_grid_from_start for u in draws)
        nevers = sum(ps.sample(spec, u).is_never_switch for u in draws)
        for count, mass in ((starts, spec.atom_mass(-1.0)), (nevers, spec.atom_mass(math.inf))):
            tol = 3 * math.sqrt(mass * (1 - mass) / n)
            assert abs(count / n - mass) <= tol

    def test_finite_samples_pass_ks(self):
        """Empirical CDF of the finite part vs its analytic conditional CDF."""
        spec = ps.lambda_red_distribution(0.5, 0.7, 0.4)
        n = 100_000
        draws = np.random.default_rng(7).random(n)
        values = np.array(
            [p.s for p in (ps.sample(spec, u) for u in draws) if p.is_finite]
        )
        values.sort()
        m = len(values)
        cont = spec.continuous_mass()
        cdf = spec.coeff * (np.exp(values) - math.exp(spec.lo)) / cont
        grid = np.arange(1, m + 1) / m
        d_stat = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1 / m)).max())
        assert d_stat < 1.628 / math.sqrt(m)  # 1% critical value

    @pytest.mark.parametrize("uniform", [-0.1, 1.0, 1.5, math.nan])
    def test_rejects_a_uniform_outside_the_unit_interval(self, uniform):
        with pytest.raises(ps.DomainError, match=re.escape(f"uniform draw must lie in [0, 1), got {uniform}")):
            ps.sample(ps.red_distribution(0.5), uniform)

    def test_rejects_an_empty_density_support(self):
        with pytest.raises(ps.ValidationError, match=re.escape("empty density support [1.0, 0.5]")):
            ps.DistributionSpec(atoms=((math.inf, 1.0),), coeff=0.0, lo=1.0, hi=0.5)

    def test_rejects_unnormalized_spec(self):
        bad = ps.DistributionSpec(atoms=((math.inf, 0.3),), coeff=0.1, lo=0.0, hi=1.0)
        with pytest.raises(ps.ValidationError):
            ps.sample(bad, 0.5)
        # the check runs on every draw, not once per spec
        with pytest.raises(ps.ValidationError):
            ps.sample(bad, 0.5)

    @pytest.mark.parametrize(
        "fields, match",
        [
            (((), math.nan, 0.0, 1.0), "density coefficient must be >= 0, got nan"),
            (((), 1.0, math.nan, 1.0), "density support end lo must not be NaN"),
            (((), 1.0, 0.0, math.nan), "density support end hi must not be NaN"),
            ((((math.inf, math.nan),), 0.0, 0.0, 1.0), "atom at inf must have mass >= 0, got nan"),
            ((((-1.0, -0.5), (math.inf, 1.5)), 0.0, 0.0, 1.0), "atom at -1.0 must have mass >= 0, got -0.5"),
            # sample draws an atom only at -1 or inf: one elsewhere would be
            # drawn at inf but integrated where it sits
            ((((math.nan, 1.0),), 0.0, 0.0, 1.0), "atom location must be -1 or inf, got nan"),
            ((((0.5, 1.0),), 0.0, 0.0, 1.0), "atom location must be -1 or inf, got 0.5"),
            ((((-math.inf, 1.0),), 0.0, 0.0, 1.0), "atom location must be -1 or inf, got -inf"),
            ((((0.0, 0.5), (math.inf, 0.5)), 0.0, 0.0, 1.0), "atom location must be -1 or inf, got 0.0"),
        ],
    )
    def test_rejects_a_nan_or_a_misplaced_atom_naming_the_field(self, fields, match):
        with pytest.raises(ps.ValidationError, match=re.escape(match)):
            ps.DistributionSpec(*fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(coeff="1"), "density coefficient must be a real number, got '1'"),
            (dict(coeff=True), "density coefficient must be a real number, got True"),
            (dict(atoms=((math.inf, "0.5"),)), "mass of the atom at inf must be a real number, got '0.5'"),
            (dict(hi=10**400), f"density support end hi must fit in a float, got {10**400}"),
            # e^1000 overflows a float where the masses are computed
            (dict(hi=1000.0), "density support end hi must keep e^hi a finite float, got 1000.0"),
            (dict(lo=1000.0, hi=1000.0), "density support end lo must keep e^lo a finite float, got 1000.0"),
            (dict(atoms=None), "atoms must be (location, mass) pairs, got None"),
            (dict(atoms=((math.inf,),)), "atoms must be (location, mass) pairs, got ((inf,),)"),
            (dict(atoms=((True, 1.0),)), "atom location must be -1 or inf, got True"),
        ],
    )
    def test_a_malformed_field_is_refused_naming_it(self, fields, message):
        with pytest.raises(ps.ValidationError, match=f"^{re.escape(message)}$"):
            ps.DistributionSpec(**{"atoms": (), "coeff": 0.0, "lo": 0.0, "hi": 1.0, **fields})

    def test_fields_are_stored_as_the_floats_they_read_as(self):
        spec = ps.DistributionSpec(atoms=[(-1, np.float32(0.25)), (math.inf, 0.75)], coeff=0, lo=0, hi=np.int64(1))
        assert spec == ps.DistributionSpec(atoms=((-1.0, 0.25), (math.inf, 0.75)), coeff=0.0, lo=0.0, hi=1.0)
        assert all(type(x) is float for x in (spec.coeff, spec.lo, spec.hi, *spec.atoms[0], *spec.atoms[1]))
        spec.require_normalized()

    @pytest.mark.parametrize("fields", [((), math.inf, 0.0, 0.0), ((), 1.0, math.inf, math.inf)])
    def test_a_nan_total_mass_is_not_normalized(self, fields):
        # inf * 0 and e^inf - e^inf leave the total NaN, which no draw or
        # quadrature may read as 1
        spec = ps.DistributionSpec(*fields)
        assert math.isnan(spec.total_mass())
        with pytest.raises(ps.ValidationError, match="distribution mass is nan"):
            spec.require_normalized()
        with pytest.raises(ps.ValidationError, match="distribution mass is nan"):
            ps.sample(spec, 0.5)
        with pytest.raises(ps.ValidationError, match="distribution mass is nan"):
            ps.expected_ratio(spec, 0.5, 0.5)

    def test_samples_equal_a_sampler_that_recomputes_the_masses(self):
        specs = [
            ps.DistributionSpec(atoms=((-1.0, 0.2), (math.inf, 0.3)), coeff=0.5 / (E - 1), lo=0.0, hi=1.0),
            ps.DistributionSpec(atoms=(), coeff=1.0 / (math.exp(2.0) - math.exp(0.5)), lo=0.5, hi=2.0),
            ps.DistributionSpec(atoms=((-1.0, 1.0),), coeff=0.0, lo=0.0, hi=1.0),
        ]
        for beta in (0.05, 0.4, 1.0):
            specs.append(ps.red_distribution(beta))
            for lam in (0.0, 0.01, 0.3, 1.0):
                for hat in (0.5, 2.0):
                    specs.append(ps.lambda_red_distribution(hat, lam, beta))
                    if lam > 0:
                        specs.append(ps.naive_red_distribution(hat, lam, beta))
        grid = np.linspace(0.0, 1.0, 257)[:-1].tolist()
        for spec in specs:
            start = sum(mass for where, mass in spec.atoms if where == -1.0)
            edges = [start, start + spec.coeff * (math.exp(spec.hi) - math.exp(spec.lo))]
            near = [x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0)) if 0 <= x < 1]
            for u in grid + near:
                assert ps.sample(spec, u).s.hex() == reference_sample(spec, u).hex(), (spec, u)


class TestRunAlgorithm:
    def test_full_trust_deterministic_equals_break_even(self, rng):
        for _ in range(30):
            trace, params = make_binary_instance(rng)
            bed = ps.run_algorithm(trace, params, "bed")
            assisted = ps.run_algorithm(
                trace, params, "lambda-bed", lam=1.0, sigma_hat=float(rng.uniform(0, 3))
            )
            a = ps.cost_of(bed.schedule, trace, params).total
            b = ps.cost_of(assisted.schedule, trace, params).total
            assert a == b

    @pytest.mark.parametrize("algorithm", ["lambda-bed", "lambda-red", "naive-lambda-red"])
    @pytest.mark.parametrize(
        "missing, message",
        [("sigma_hat", "needs a predicted premium mass (sigma_hat)"), ("lam", "needs the trust parameter lambda")],
    )
    def test_an_assisted_algorithm_names_the_argument_it_misses(self, rng, algorithm, missing, message):
        trace, params = make_binary_instance(rng)
        kwargs = {"lam": 0.5, "sigma_hat": 2.0, "seed": 1}
        del kwargs[missing]
        with pytest.raises(ps.DomainError, match=f"^{re.escape(f'{algorithm} {message}')}$"):
            ps.run_algorithm(trace, params, algorithm, **kwargs)
        if algorithm != "lambda-bed":
            with pytest.raises(ps.DomainError, match=f"^{re.escape(f'{algorithm} {message}')}$"):
                ps.policy_distribution(algorithm, 0.4, kwargs.get("lam"), kwargs.get("sigma_hat"))

    def test_policy_distribution_is_shared_and_equals_its_constructor(self):
        first = ps.policy_distribution(ps.Algorithm.LAMBDA_RED, 0.4, 0.5, 2.0)
        assert ps.policy_distribution(ps.Algorithm.LAMBDA_RED, 0.4, 0.5, 2.0) is first
        assert first == ps.lambda_red_distribution(2.0, 0.5, 0.4)
        assert ps.policy_distribution(ps.Algorithm.NAIVE_LAMBDA_RED, 0.4, 0.5, 2.0) == ps.naive_red_distribution(
            2.0, 0.5, 0.4
        )
        assert ps.policy_distribution(ps.Algorithm.RED, 0.4, None, None) == ps.red_distribution(0.4)

    @pytest.mark.parametrize("algorithm", [ps.Algorithm.LAMBDA_RED, ps.Algorithm.NAIVE_LAMBDA_RED])
    @pytest.mark.parametrize("hat", [math.nan, math.inf, -math.inf])
    def test_policy_distribution_rejects_a_non_finite_hat_on_every_call(self, algorithm, hat):
        ps.policy_distribution(algorithm, 0.4, 0.5, 2.0)
        for _ in range(3):
            with pytest.raises(ps.DomainError, match="sigma_hat must be finite"):
                ps.policy_distribution(algorithm, 0.4, 0.5, hat)
        for _ in range(3):
            with pytest.raises(ps.DomainError, match="lambda"):
                ps.policy_distribution(algorithm, 0.4, math.nan, 2.0)

    def test_policy_distribution_takes_algorithm_names(self):
        assert ps.policy_distribution("red", 0.4, None, None) is ps.policy_distribution(ps.Algorithm.RED, 0.4, None, None)
        assert ps.policy_distribution("lambda-red", 0.4, 0.5, 2.0) == ps.lambda_red_distribution(2.0, 0.5, 0.4)
        with pytest.raises(ValueError):
            ps.policy_distribution("blue", 0.4, None, None)
        with pytest.raises(ps.DomainError, match="deterministic"):
            ps.policy_distribution("lambda-bed", 0.4, 0.5, 2.0)

    @pytest.mark.parametrize("algorithm, build", [
        (ps.Algorithm.LAMBDA_RED, ps.lambda_red_distribution),
        (ps.Algorithm.NAIVE_LAMBDA_RED, ps.naive_red_distribution),
    ])
    @pytest.mark.parametrize("hats", [(1.5, 7.0, 1.0000001), (0.2, 1.0, -3.0)])
    def test_hats_on_the_same_side_of_one_share_one_spec(self, algorithm, build, hats):
        specs = [ps.policy_distribution(algorithm, 0.4, 0.5, hat) for hat in hats]
        assert all(spec is specs[0] for spec in specs)
        for hat in hats:
            assert specs[0] == build(hat, 0.5, 0.4)
        other = ps.policy_distribution(algorithm, 0.4, 0.5, 0.5 if hats[0] > 1 else 2.0)
        assert other != specs[0]

    def test_red_shares_one_spec_whatever_lam_and_hat(self):
        spec = ps.policy_distribution(ps.Algorithm.RED, 0.4, None, None)
        assert ps.policy_distribution(ps.Algorithm.RED, 0.4, 0.3, 5.0) is spec
        assert ps.policy_distribution(ps.Algorithm.RED, 0.4, 1.0, 0.1) is spec

    def test_full_trust_randomized_distribution_equals_pure(self):
        beta = 0.45
        pure = ps.red_distribution(beta)
        spec = ps.policy_distribution(ps.Algorithm.LAMBDA_RED, beta, 1.0, sigma_hat=0.7)
        assert spec.coeff == pure.coeff
        assert abs(spec.atom_mass(math.inf) - pure.atom_mass(math.inf)) <= 1e-12

    def test_trusted_prediction_stays_local_below_threshold(self):
        # true mass 0.5 and trusted prediction: threshold 10x the peak price
        trace = ps.Trace(prices=[1, 1], demands=[1, 1])
        params = ps.BillingParams(p_g=2, p_m=4, capacity=1)
        record = ps.run_algorithm(trace, params, "lambda-bed", lam=0.1, sigma_hat=0.5)
        assert record.switch_slot is None
        total = ps.cost_of(record.schedule, trace, params).total
        assert total == ps.optimal_basic(trace, params).total

    def test_seeded_runs_reproduce(self, rng):
        trace, params = make_binary_instance(rng)
        a = ps.run_algorithm(trace, params, "lambda-red", lam=0.5, sigma_hat=2.0, seed=1234)
        b = ps.run_algorithm(trace, params, "lambda-red", lam=0.5, sigma_hat=2.0, seed=1234)
        assert a.policy == b.policy
        assert np.array_equal(a.schedule.u, b.schedule.u)

    @pytest.mark.parametrize(
        "algorithm, kwargs",
        [
            ("bed", {}),
            ("lambda-bed", {"lam": 0.3, "sigma_hat": 2.0}),
            ("red", {"seed": 7}),
            ("lambda-red", {"lam": 0.5, "sigma_hat": 0.5, "seed": 11}),
            ("naive-lambda-red", {"lam": 0.5, "sigma_hat": 2.0, "seed": 13}),
        ],
    )
    def test_runs_the_policy_that_select_policy_chooses(self, rng, algorithm, kwargs):
        trace, params = make_binary_instance(rng)
        policy = ps.select_policy(trace, params, algorithm, **kwargs)
        record = ps.run_algorithm(trace, params, algorithm, **kwargs)
        assert record.policy == policy
        assert record.schedule.u.tobytes() == ps.run_threshold(trace, params, policy).schedule.u.tobytes()

    def test_randomized_requires_seed(self, rng):
        trace, params = make_binary_instance(rng)
        with pytest.raises(ps.DomainError):
            ps.run_algorithm(trace, params, "red")

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    @pytest.mark.parametrize("algorithm", ["bed", "red", "lambda-red"])
    def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(self, rng, algorithm, seed):
        trace, params = make_binary_instance(rng)
        with pytest.raises(ps.DomainError, match="seed must be a non-negative integer"):
            ps.select_policy(trace, params, algorithm, lam=0.5, sigma_hat=2.0, seed=seed)

    @pytest.mark.parametrize(
        "call",
        [
            lambda trace, params: ps.select_policy(trace, params, "blue", seed=1),
            lambda trace, params: ps.run_algorithm(trace, params, "blue", seed=1),
            lambda trace, params: ps.policy_distribution("blue", 0.4, 0.5, 2.0),
        ],
        ids=["select_policy", "run_algorithm", "policy_distribution"],
    )
    def test_an_unknown_algorithm_name_is_a_domain_error_naming_the_choices(self, rng, call):
        trace, params = make_binary_instance(rng)
        with pytest.raises(ps.PeakSchedError, match="unknown algorithm 'blue'; choose one of bed, lambda-bed"):
            call(trace, params)

    def test_numpy_integer_seeds_draw_what_python_ints_draw(self, rng):
        trace, params = make_binary_instance(rng)
        for seed in (0, 5, 2**63 + 1):
            assert ps.select_policy(trace, params, "red", seed=np.uint64(seed)) == ps.select_policy(
                trace, params, "red", seed=seed
            )


class TestSeededUniform:
    def test_equals_the_first_draw_of_default_rng(self):
        online._seeded_uniform.cache_clear()
        # one to three 32-bit words, then five and six, which SeedSequence
        # mixes into its four-word pool in its extra-entropy loop
        wide = [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5, 2**96 + 7]
        wide += [base + k for base in (2**128, 2**160) for k in (0, 1, 7, 2**31 + 3)]
        for seed in [*range(10_000), *wide]:
            assert online._seeded_uniform(seed).hex() == reference_seeded_uniform(seed).hex()
        numpy_seeds = [np.uint8(255), np.int8(9), np.uint16(65535), np.int16(3), np.uint32(7), np.int32(2**31 - 1)]
        numpy_seeds += [np.int64(2**40 + 3), np.uint64(2**64 - 1)]
        for seed in numpy_seeds:
            online._seeded_uniform.cache_clear()
            assert online._seeded_uniform(seed).hex() == reference_seeded_uniform(int(seed)).hex()

    def test_numpy_and_python_seeds_share_one_entry(self, rng):
        trace, params = make_binary_instance(rng)
        online._seeded_uniform.cache_clear()
        seeds = (5, np.uint32(5), np.uint64(5))
        policies = {ps.select_policy(trace, params, "red", seed=seed) for seed in seeds}
        assert len(policies) == 1
        info = online._seeded_uniform.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)

    def test_a_bad_seed_raises_before_the_lookup(self, rng):
        trace, params = make_binary_instance(rng)
        online._seeded_uniform.cache_clear()
        for seed in (-1, 1.5, True):
            with pytest.raises(ps.DomainError, match="seed"):
                ps.select_policy(trace, params, "red", seed=seed)
        assert online._seeded_uniform.cache_info().misses == 0


_CHOICES = "choose one of bed, lambda-bed, red, lambda-red, naive-lambda-red"
# (algorithm, lam, sigma_hat, seed) and the message every per-run entry point
# raises on it; policy_distribution takes no seed, so a seed row skips it
PER_RUN_MESSAGES = [
    ("nope", 0.5, 0.6, 1, f"unknown algorithm 'nope'; {_CHOICES}"),
    (["red"], 0.5, 0.6, 1, f"unknown algorithm ['red']; {_CHOICES}"),
    ("lambda-red", 0.5, 0.6, True, "seed must be a non-negative integer, got True"),
    ("lambda-red", 0.5, 0.6, -1, "seed must be a non-negative integer, got -1"),
    ("lambda-red", 0.5, 0.6, 1.5, "seed must be a non-negative integer, got 1.5"),
    ("bed", None, None, True, "seed must be a non-negative integer, got True"),
    ("lambda-red", None, 0.6, 1, "lambda-red needs the trust parameter lambda"),
    ("lambda-red", 0.5, None, 1, "lambda-red needs a predicted premium mass (sigma_hat)"),
    ("naive-lambda-red", None, 0.6, 1, "naive-lambda-red needs the trust parameter lambda"),
    ("naive-lambda-red", 0.5, None, 1, "naive-lambda-red needs a predicted premium mass (sigma_hat)"),
    ("lambda-bed", None, 0.6, None, "lambda-bed needs the trust parameter lambda"),
    ("lambda-bed", 0.5, None, None, "lambda-bed needs a predicted premium mass (sigma_hat)"),
    ("lambda-red", 0.5, "2", 1, "sigma_hat must be a real number, got '2'"),
    ("lambda-red", 0.5, math.nan, 1, "sigma_hat must be finite, got nan"),
    ("lambda-red", 0.5, math.inf, 1, "sigma_hat must be finite, got inf"),
    ("lambda-bed", 0.5, "2", None, "sigma_hat must be a real number, got '2'"),
    ("lambda-bed", 0.5, math.nan, None, "sigma_hat must be finite, got nan"),
    ("lambda-bed", 0.5, math.inf, None, "sigma_hat must be finite, got inf"),
    ("red", None, None, None, "red is randomized and requires a seed"),
    ("lambda-red", 0.5, 0.6, None, "lambda-red is randomized and requires a seed"),
]


class TestPerRunMessages:
    """The messages a run's own arguments raise, pinned: the run path reads
    each argument once, and each entry point must still say the same."""

    @pytest.mark.parametrize("algorithm, lam, sigma_hat, seed, message", PER_RUN_MESSAGES)
    def test_each_entry_point_raises_the_pinned_message(self, algorithm, lam, sigma_hat, seed, message):
        trace = ps.Trace(prices=[0.5, 0.25, 0.5], demands=[1, 0, 1])
        params = ps.BillingParams(p_g=1.0, p_m=1.0, capacity=1)
        pattern = f"^{re.escape(message)}$"
        for run in (ps.run_algorithm, ps.select_policy):
            with pytest.raises(ps.DomainError, match=pattern):
                run(trace, params, algorithm, lam=lam, sigma_hat=sigma_hat, seed=seed)
        if not message.startswith("seed ") and "requires a seed" not in message:
            with pytest.raises(ps.DomainError, match=pattern):
                ps.policy_distribution(algorithm, 0.4, lam, sigma_hat)

    @pytest.mark.parametrize("algorithm", ["red", "lambda-red", "naive-lambda-red"])
    def test_python_and_numpy_seeds_give_one_policy_and_one_record(self, rng, algorithm):
        trace, params = make_binary_instance(rng)
        seeds = (5, np.uint32(5), np.uint64(5))
        policies = {ps.select_policy(trace, params, algorithm, lam=0.5, sigma_hat=0.6, seed=seed) for seed in seeds}
        assert len(policies) == 1
        records = [ps.run_algorithm(trace, params, algorithm, lam=0.5, sigma_hat=0.6, seed=seed) for seed in seeds]
        assert len({(r.switch_slot, r.policy, r.cumulative_premium) for r in records}) == 1
