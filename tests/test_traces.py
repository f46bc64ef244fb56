"""CSV ingestion and synthetic trace generation."""
from datetime import datetime, timedelta

import numpy as np
import pytest

import peaksched as ps
from peaksched.harness import parse_trace_csv, synth_trace, write_trace_csv


def _write(path, rows):
    path.write_text("timestamp,value\n" + "".join(f"{t},{v}\n" for t, v in rows))


class TestParseTraceCsv:
    def test_happy_path(self, tmp_path):
        _write(tmp_path / "p.csv", [("2018-04-01T00:00", 23.5), ("2018-04-01T01:00", 25.0)])
        _write(tmp_path / "d.csv", [("2018-04-01T00:00", 3), ("2018-04-01T01:00", 4)])
        loaded = parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
        assert np.array_equal(loaded.trace.prices, [23.5, 25.0])
        assert np.array_equal(loaded.trace.demands, [3, 4])
        assert loaded.dropped_price_rows == 0 and loaded.dropped_demand_rows == 0

    def test_intersection_alignment_reports_drops(self, tmp_path):
        _write(tmp_path / "p.csv", [("2018-04-01T00:00", 20.0), ("2018-04-01T01:00", 25.0)])
        _write(tmp_path / "d.csv", [("2018-04-01T01:00", 4), ("2018-04-01T02:00", 5)])
        loaded = parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
        assert len(loaded.trace) == 1
        assert loaded.trace.prices[0] == 25.0 and loaded.trace.demands[0] == 4
        assert loaded.dropped_price_rows == 1 and loaded.dropped_demand_rows == 1

    def test_unsorted_input_comes_out_sorted(self, tmp_path):
        _write(tmp_path / "p.csv", [("2018-04-01T01:00", 25.0), ("2018-04-01T00:00", 20.0)])
        _write(tmp_path / "d.csv", [("2018-04-01T00:00", 1), ("2018-04-01T01:00", 2)])
        loaded = parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
        assert np.array_equal(loaded.trace.prices, [20.0, 25.0])

    def test_negative_demand_names_line(self, tmp_path):
        _write(tmp_path / "p.csv", [("2018-04-01T00:00", 20.0)])
        _write(tmp_path / "d.csv", [("2018-04-01T00:00", 1), ("2018-04-01T01:00", -1)])
        with pytest.raises(ps.ValidationError, match="line 3"):
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, value):
        _write(tmp_path / "p.csv", [("2018-04-01T00:00", 20.0), ("2018-04-01T01:00", 21.0)])
        _write(tmp_path / "d.csv", [("2018-04-01T00:00", 1), ("2018-04-01T01:00", value)])
        with pytest.raises(ps.ValidationError, match=r"d\.csv line 3: demand .* is not finite"):
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    def test_non_finite_price_rejected(self, tmp_path):
        _write(tmp_path / "p.csv", [("2018-04-01T00:00", "nan")])
        _write(tmp_path / "d.csv", [("2018-04-01T00:00", 1)])
        with pytest.raises(ps.ValidationError, match=r"p\.csv line 2: price nan is not finite"):
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    def test_bad_row_names_line(self, tmp_path):
        (tmp_path / "p.csv").write_text("timestamp,value\n2018-04-01T00:00,20\nnot-a-time,5\n")
        _write(tmp_path / "d.csv", [("2018-04-01T00:00", 1)])
        with pytest.raises(ps.StructuralError, match="line 3"):
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    @pytest.mark.parametrize(
        "first, other", [("2018-04-01T00:00", "2018-04-01T02:00+00:00"), ("2018-04-01T00:00+02:00", "2018-04-01T02:00")]
    )
    def test_stamps_with_and_without_offset_in_one_file_name_the_line(self, tmp_path, first, other):
        # Python cannot order the two kinds, so a mix would fail in the alignment sort
        rows = [(first, 20.0), (first.replace("T00", "T01"), 21.0), (other, 22.0)]
        for name in ("p.csv", "d.csv"):
            _write(tmp_path / name, rows)
        with pytest.raises(ps.StructuralError, match=r"p\.csv line 4: timestamp .* UTC offset, unlike line 2's"):
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    def test_duplicate_timestamp_rejected(self, tmp_path):
        _write(tmp_path / "p.csv", [("2018-04-01T00:00", 20.0), ("2018-04-01T00:00", 21.0)])
        _write(tmp_path / "d.csv", [("2018-04-01T00:00", 1)])
        with pytest.raises(ps.ValidationError, match="duplicate"):
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    def test_empty_intersection_rejected(self, tmp_path):
        _write(tmp_path / "p.csv", [("2018-04-01T00:00", 20.0)])
        _write(tmp_path / "d.csv", [("2018-04-02T00:00", 1)])
        with pytest.raises(ps.StructuralError, match="common"):
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    def test_roundtrip_through_writer(self, tmp_path):
        trace = synth_trace(days=2, seed=9)
        write_trace_csv(trace, tmp_path / "p.csv", tmp_path / "d.csv")
        loaded = parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
        assert np.array_equal(loaded.trace.prices, trace.prices)
        assert np.array_equal(loaded.trace.demands, trace.demands)

    @pytest.mark.parametrize(
        "start",
        [
            "2018-04-01T00:00",
            "2018-04-01T00:00+02:00",
            "2020-02-28T20:00-05:30",
            "2018-03-25T00:17:42",
            "1969-12-31T23:30:30.500000",
            "0999-12-31T01:59:59+01:00:30",
        ],
    )
    def test_writer_stamps_match_per_row_datetimes(self, tmp_path, start):
        # the per-row formula the writer's stamps must equal byte for byte
        trace = synth_trace(days=3, seed=9)
        stamp0 = datetime.fromisoformat(start)
        stamps = [(stamp0 + timedelta(hours=i)).isoformat(timespec="minutes") for i in range(len(trace))]
        write_trace_csv(trace, tmp_path / "p.csv", tmp_path / "d.csv", start=start)
        for name, values in (("p.csv", trace.prices), ("d.csv", trace.demands)):
            rows = "".join(f"{stamp},{value!r}\n" for stamp, value in zip(stamps, values.tolist()))
            assert (tmp_path / name).read_bytes() == ("timestamp,value\n" + rows).encode()

    def test_writer_rejects_stamps_past_year_9999(self, tmp_path):
        # the per-row formula raised here too: the 24th stamp is in year 10000
        trace = synth_trace(days=1, seed=9)
        with pytest.raises(OverflowError):
            write_trace_csv(trace, tmp_path / "p.csv", tmp_path / "d.csv", start="9999-12-31T01:00")


class TestSynthTrace:
    def test_noiseless_demand_is_periodic(self):
        trace = synth_trace(days=3, seed=1, noise=0.0)
        demands = trace.demands.reshape(3, 24)
        assert np.array_equal(demands[0], demands[1])
        assert np.array_equal(demands[0], demands[2])

    def test_seed_determinism(self):
        a = synth_trace(days=4, seed=13)
        b = synth_trace(days=4, seed=13)
        assert np.array_equal(a.demands, b.demands)
        assert not np.array_equal(a.demands, synth_trace(days=4, seed=14).demands)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(self, seed):
        with pytest.raises(ps.DomainError, match="seed"):
            synth_trace(days=1, seed=seed)

    def test_monthly_cycle_length(self):
        assert len(synth_trace(days=30, seed=0)) == 720

    def test_demands_are_nonnegative_integers(self):
        trace = synth_trace(days=10, seed=3, noise=4.0)
        assert trace.has_integer_demands()
        assert trace.demands.min() >= 0

    def test_prices_positive_and_bounded(self):
        trace = synth_trace(days=2, seed=0)
        assert trace.prices.min() >= 20.0 and trace.prices.max() <= 60.0
