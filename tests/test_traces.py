"""CSV ingestion and synthetic trace generation."""
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import peaksched as ps
from peaksched.harness import parse_trace_csv, synth_trace, write_trace_csv
from conftest import reference_parse_trace_csv


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

    @pytest.mark.parametrize("value", ["0", "-0", "0.0", "-2.5"])
    def test_price_not_above_zero_names_file_and_line(self, tmp_path, value):
        _write(tmp_path / "p.csv", [("2018-04-01T00:00", 20.0), ("2018-04-01T01:00", value)])
        _write(tmp_path / "d.csv", [("2018-04-01T00:00", 1), ("2018-04-01T01:00", 1)])
        with pytest.raises(ps.ValidationError, match=rf"p\.csv line 3: price {float(value)} must be > 0"):
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    def test_a_file_without_a_header_names_line_1(self, tmp_path, bom):
        # the first line used to be skipped as the header, dropping its row
        rows = "".join(f"2018-04-01T0{h}:00,{20 + h}\n" for h in range(3))
        (tmp_path / "p.csv").write_text(bom + rows)
        _write(tmp_path / "d.csv", [(f"2018-04-01T0{h}:00", 1) for h in range(3)])
        with pytest.raises(ps.StructuralError, match=r"p\.csv line 1: header missing: the first line .* is a data row"):
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



HOURS = ("2018-04-01T00:00", "2018-04-01T01:00", "2018-04-01T02:00")


class TestAcceptedFormat:
    """What the reader takes beyond plain ``timestamp,value`` LF rows.  Each
    file loads as the plain file with the same rows would."""

    def _load(self, tmp_path, price_text, demand_rows=((HOURS[0], 1), (HOURS[1], 2), (HOURS[2], 3))):
        (tmp_path / "p.csv").write_bytes(price_text.encode())
        _write(tmp_path / "d.csv", demand_rows)
        return parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")

    def _plain(self, tmp_path, prices=(20.0, 21.0, 22.0)):
        return self._load(tmp_path, "timestamp,value\n" + "".join(f"{t},{v}\n" for t, v in zip(HOURS, prices)))

    def _same(self, loaded, plain):
        assert loaded.trace.prices.tobytes() == plain.trace.prices.tobytes()
        assert loaded.trace.demands.tobytes() == plain.trace.demands.tobytes()
        assert (loaded.dropped_price_rows, loaded.dropped_demand_rows) == (plain.dropped_price_rows, plain.dropped_demand_rows)

    def test_whole_fields_in_double_quotes(self, tmp_path):
        text = '"timestamp","value"\n' + "".join(f'"{t}","{v}"\n' for t, v in zip(HOURS, (20, 21, 22)))
        self._same(self._load(tmp_path, text), self._plain(tmp_path))

    def test_blank_and_whitespace_only_lines_are_skipped(self, tmp_path):
        text = f"timestamp,value\n\n{HOURS[0]},20\n   \n\t\n{HOURS[1]},21\n\n{HOURS[2]},22\n\n\n"
        self._same(self._load(tmp_path, text), self._plain(tmp_path))

    def test_whitespace_around_fields(self, tmp_path):
        text = "timestamp,value\n" + "".join(f" {t}\t, {v} \n" for t, v in zip(HOURS, (20, 21, 22)))
        self._same(self._load(tmp_path, text), self._plain(tmp_path))

    def test_utf8_byte_order_mark(self, tmp_path):
        text = "\ufefftimestamp,value\n" + "".join(f"{t},{v}\n" for t, v in zip(HOURS, (20, 21, 22)))
        self._same(self._load(tmp_path, text), self._plain(tmp_path))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_line_breaks(self, tmp_path, newline):
        text = newline.join(["timestamp,value", *(f"{t},{v}" for t, v in zip(HOURS, (20, 21, 22)))]) + newline
        self._same(self._load(tmp_path, text), self._plain(tmp_path))

    def test_header_with_more_than_two_columns(self, tmp_path):
        text = "timestamp,value,unit,source\n" + "".join(f"{t},{v}\n" for t, v in zip(HOURS, (20, 21, 22)))
        self._same(self._load(tmp_path, text), self._plain(tmp_path))

    def test_values_follow_float_grammar(self, tmp_path):
        # underscores between digits and non-ASCII digits parse as float() parses them
        text = f"timestamp,value\n{HOURS[0]},2_2\n{HOURS[1]},\u0661\u0662\n{HOURS[2]},+.5e1\n"
        self._same(self._load(tmp_path, text), self._plain(tmp_path, prices=(22.0, 12.0, 5.0)))

    @pytest.mark.parametrize(
        "row",
        [
            '2018-04-01T02:00,"22,5"',  # a comma inside quotes
            '2018-04-01T02:00,"2""2"',  # a doubled quote inside quotes
            '2018-04-01T02:00,"22"0',  # text after the closing quote
            '2018-04-01T02:00, "22"',  # text before the opening quote
            '2018-04-01T02:00,22"',  # a quote inside an unquoted field
            '"2018-04-01T02:00,22',  # a quote left open
        ],
    )
    def test_any_other_quoting_names_file_and_line(self, tmp_path, row):
        # csv read these; the bulk reader takes only whole quoted fields
        text = f"timestamp,value\n{HOURS[0]},20\n{HOURS[1]},21\n{row}\n"
        with pytest.raises(ps.StructuralError, match=r"p\.csv line 4: a quote must enclose a whole field"):
            self._load(tmp_path, text)

    def test_a_quote_around_the_whole_header_names_line_1(self, tmp_path):
        # csv read it as one field, so it failed as a short header
        text = f'"timestamp,value"\n{HOURS[0]},20\n'
        with pytest.raises(ps.StructuralError, match=r"p\.csv line 1: a quote must enclose a whole field"):
            self._load(tmp_path, text)

    def test_infinity_spelled_out_is_a_non_finite_value(self, tmp_path):
        text = f"timestamp,value\n{HOURS[0]},20\n{HOURS[1]},infinity\n"
        with pytest.raises(ps.ValidationError, match=r"p\.csv line 3: price inf is not finite"):
            self._load(tmp_path, text)

    def test_hexadecimal_and_doubled_underscores_are_bad_values(self, tmp_path):
        for value in ("0x10", "1__2"):
            text = f"timestamp,value\n{HOURS[0]},20\n{HOURS[1]},{value}\n"
            with pytest.raises(ps.StructuralError, match=rf"p\.csv line 3: bad value '{value}'"):
                self._load(tmp_path, text)


@pytest.mark.parametrize(
    "text",
    ["", "\ufeff", "\n", "\ufeff\n", "timestamp", "timestamp,value", "timestamp,value\n", "timestamp,value\n\n \n\t",
     "timestamp,value\r\n\r\n", "timestamp;value\n2018-04-01T00:00;20\n"],
)
def test_files_without_data_rows_fail_as_the_per_row_reader_failed(tmp_path, text):
    (tmp_path / "p.csv").write_text(text, newline="")
    _write(tmp_path / "d.csv", [("2018-04-01T00:00", 1)])
    with pytest.raises(ps.StructuralError) as expected:
        reference_parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
    with pytest.raises(ps.StructuralError) as got:
        parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
    assert str(got.value) == str(expected.value)


# one fault per entry, as the text of a data row at hour 9 (the other rows
# are hours 0 to 5); "same stamp" repeats the stamp of the row before it
FAULTS = {
    "field count": "2018-04-01T09:00,20,1",
    "bad timestamp": "2018-04-31T09:00,20",
    "offset kind": "2018-04-01T09:00+01:00,20",
    "bad value": "2018-04-01T09:00,2O",
    "not finite": "2018-04-01T09:00,nan",
    "out of range": "2018-04-01T09:00,-3",
    "same stamp": None,
}


@pytest.mark.parametrize("kind", ["price", "demand"])
@pytest.mark.parametrize("first, second", [(a, b) for a in FAULTS for b in FAULTS if a != b])
def test_of_two_faults_the_earlier_line_is_named(tmp_path, kind, first, second):
    # faults at lines 3 and 6 of one file: the error is line 3's, with the
    # message the per-row reader gave
    lines = [f"2018-04-01T0{h}:00,{20 + h}" for h in range(6)]
    for at, fault in ((1, first), (4, second)):
        lines[at] = FAULTS[fault] or f"2018-04-01T0{at - 1}:00,20"
    bad, good = ("p.csv", "d.csv") if kind == "price" else ("d.csv", "p.csv")
    (tmp_path / bad).write_text("timestamp,value\n" + "\n".join(lines) + "\n")
    _write(tmp_path / good, [(f"2018-04-01T0{h}:00", 1) for h in range(6)])
    with pytest.raises(ps.PeakSchedError) as expected:
        reference_parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
    assert f"{bad} line 3: " in str(expected.value)
    with pytest.raises(type(expected.value)) as got:
        parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
    assert str(got.value) == str(expected.value)


def _stamps(hours):
    return [(datetime(2018, 4, 1) + timedelta(hours=h)).isoformat(timespec="minutes") for h in hours]


# demand stamps against the price file's hours 0 to 23, in file order
ALIGNMENTS = {
    "the same stamps in another order": _stamps([5, 3, 0, 23, *range(6, 23), 1, 2, 4]),
    "all stamps but one shared": _stamps([*range(23), 40]),
    "no stamp shared": _stamps(range(30, 54)),
    "the same instants at another offset": [
        (datetime(2018, 4, 1, tzinfo=timezone.utc) + timedelta(hours=h)).astimezone(timezone(timedelta(hours=2)))
        .isoformat(timespec="minutes") for h in range(24)
    ],
}


@pytest.mark.parametrize("case", list(ALIGNMENTS))
def test_alignment_answers_as_the_per_row_reader(tmp_path, case):
    # files that share their stamps align in one pass, the others by a
    # lookup per stamp: both must give the per-row reader's trace or error
    aware = case.endswith("offset")
    price_stamps = [f"{t}+00:00" for t in _stamps(range(24))] if aware else _stamps(range(24))
    _write(tmp_path / "p.csv", [(t, 20.0 + 0.25 * k) for k, t in enumerate(price_stamps)])
    _write(tmp_path / "d.csv", [(t, k % 7) for k, t in enumerate(ALIGNMENTS[case])])
    try:
        expected = reference_parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
    except ps.PeakSchedError as error:
        with pytest.raises(type(error)) as got:
            parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
        assert case == "no stamp shared" and str(got.value) == str(error)
        return
    loaded = parse_trace_csv(tmp_path / "p.csv", tmp_path / "d.csv")
    assert loaded.trace.prices.tobytes() == expected.trace.prices.tobytes()
    assert loaded.trace.demands.tobytes() == expected.trace.demands.tobytes()
    assert (loaded.dropped_price_rows, loaded.dropped_demand_rows) == (
        expected.dropped_price_rows, expected.dropped_demand_rows
    )
    assert len(loaded.trace) == (23 if case.startswith("all stamps") else 24)


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"days": 0}, "days must be >= 1, got 0"),
            ({"peak_level": 5.0, "base_level": 6.0}, "need peak_level >= base_level >= 0"),
            ({"peak_level": 5.0, "base_level": -1.0}, "need peak_level >= base_level >= 0"),
            ({"noise": -0.5}, "noise must be >= 0, got -0.5"),
            ({"days": 367}, "days must be at most 366, got 367"),
            ({"peak_level": 1e308, "base_level": 0.0}, "peak_level must be at most 1000.0, got 1e\\+308"),
            ({"noise": 1e300}, "noise must be at most 100.0, got 1e\\+300"),
        ],
    )
    def test_rejects_a_bad_length_level_or_noise_naming_it(self, kwargs, message):
        with pytest.raises(ps.ValidationError, match=f"^{message}$"):
            synth_trace(**{"days": 1, "seed": 0, **kwargs})

    def test_monthly_cycle_length(self):
        assert len(synth_trace(days=30, seed=0)) == 720

    def test_demands_are_nonnegative_integers(self):
        trace = synth_trace(days=10, seed=3, noise=4.0)
        assert trace.has_integer_demands()
        assert trace.demands.min() >= 0

    def test_prices_positive_and_bounded(self):
        trace = synth_trace(days=2, seed=0)
        assert trace.prices.min() >= 20.0 and trace.prices.max() <= 60.0
