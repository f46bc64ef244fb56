"""Trace ingestion from CSV files and synthetic trace generation.

A trace file is UTF-8 text with LF, CRLF or CR line breaks; a leading BOM
is ignored.  Its first line is a header of at least two fields that does
not itself read as a data row.  Each later line is one ``timestamp,value``
row; blank and whitespace-only lines are skipped, and a field may be wholly
in double quotes.  Prices and demands live in separate files and are
aligned on the intersection of their timestamps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import compress
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import StructuralError, ValidationError
from ..model import Trace
from ..validators import check_seed


@dataclass(frozen=True)
class LoadedTrace:
    """A parsed trace plus counts of rows dropped by timestamp alignment."""

    trace: Trace
    dropped_price_rows: int
    dropped_demand_rows: int


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file.  A file that cannot be read (a
    missing path, a directory) or that is not UTF-8 raises
    ``StructuralError`` naming the path, and for a bad byte also its line."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StructuralError(f"{path}: cannot read: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise StructuralError(f"{path} line {line}: not UTF-8 text ({exc.reason})") from None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF line endings, unlinking
    an existing file first: on some disks truncating a file that was just
    written waits for its old data to be flushed, while a new file does
    not wait.  A path that cannot be written (a directory in its place, a
    read-only directory) raises ``StructuralError`` naming the path."""
    path = Path(path)
    try:
        path.unlink(missing_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise StructuralError(f"{path}: cannot write: {exc.strerror or exc}") from None


class _Series(NamedTuple):
    """One file's data rows in file order: their stamps as a list and as a
    set, the stable order that sorts the stamps, and the values."""

    stamps: list[datetime]
    unique: set[datetime]
    order: np.ndarray
    values: np.ndarray


def _unquote(line: str) -> str | None:
    """``line`` with each field that is wholly in double quotes unquoted, as
    ``csv`` reads it; None when a quote sits anywhere else."""
    fields = line.split(",")
    for k, field in enumerate(fields):
        if '"' in field:
            if len(field) < 2 or field[0] != '"' or field[-1] != '"' or '"' in field[1:-1]:
                return None
            fields[k] = field[1:-1]
    return ",".join(fields)


def _is_data_row(fields: list[str]) -> bool:
    """Whether a first line's fields read as a ``timestamp,value`` row."""
    if len(fields) != 2:
        return False
    try:
        datetime.fromisoformat(fields[0].strip())
        float(fields[1])
    except ValueError:
        return False
    return True


_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _comma_counts(body: str, lines: int) -> np.ndarray:
    """The number of commas on each of the ``lines`` LF-separated lines of
    ``body``.  In UTF-8, ',' and LF are single bytes that occur inside no
    other character, so the encoded text less every other byte is the
    sequence of separators."""
    seps = np.frombuffer(body.encode().translate(None, _NOT_SEPARATORS), np.uint8)
    line_of = np.cumsum(seps == ord("\n"))
    return np.bincount(line_of[seps == ord(",")], minlength=lines)


def _parse_column(parse, strs: list[str], collect=list):
    """``collect(map(parse, strs))`` up to the first string ``parse``
    rejects, and that string's index and ``ValueError`` (None when it
    accepts all of them)."""
    try:
        return collect(map(parse, strs)), None
    except ValueError:
        for i, s in enumerate(strs):
            try:
                parse(s)
            except ValueError as exc:
                return collect(map(parse, strs[:i])), (i, exc)
        raise


def _read_series(path: str | Path, kind: str) -> _Series:
    """One file's rows, parsed as columns.

    Each check runs over the whole column at once and cuts the rows before
    the first row it rejects, so the checks after it see only the rows
    before that one.  The checks run in the order a row is read: quoting,
    field count, timestamp, offset kind, value, finiteness, range,
    duplicate.  So
    the error raised is the one of the file's first bad row, and for that
    row the one of its first failing check.  A file's stamps must all carry
    a UTC offset or all lack one: Python cannot order the two kinds."""
    path = Path(path)
    text = read_text(path)
    if not text:
        raise StructuralError(f"{path}: no data rows")
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    error = None  # the first bad row's error; the rows are cut before that row
    if '"' in text:
        lines = text.split("\n")
        for i, line in enumerate(lines):
            if '"' not in line:
                continue
            unquoted = _unquote(line)
            if unquoted is None:
                error = StructuralError(
                    f"{path} line {i + 1}: a quote must enclose a whole field with no quote or comma inside, "
                    f"got {line!r}"
                )
                if i == 0:
                    raise error
                del lines[i:]
                break
            lines[i] = unquoted
        text = "\n".join(lines)
    # The whole text, the token list and the value strings are each let go
    # as soon as they are used: at a year's size each is 0.1-0.6 MB.
    header, _, body = text.partition("\n")
    del text
    fields = header.split(",")
    if len(fields) < 2:
        raise StructuralError(f"{path}: header must be 'timestamp,value'")
    if _is_data_row(fields):
        raise StructuralError(f"{path} line 1: header missing: the first line {header!r} is a data row")
    body = body.removesuffix("\n")
    if not body:
        raise error or StructuralError(f"{path}: no data rows")

    n = body.count("\n") + 1
    lineno = np.arange(2, n + 2)
    counts = _comma_counts(body, n)
    if not (counts == 1).all():
        rows = body.split("\n")
        keep = counts == 1
        for i in np.flatnonzero(~keep):
            if counts[i] or rows[i].strip():
                error = StructuralError(
                    f"{path} line {lineno[i]}: expected 'timestamp,value', got {rows[i].split(',')!r}"
                )
                keep[i:] = False
                break
        lineno = lineno[keep]
        body = "\n".join(compress(rows, keep))
        if not body:
            raise error or StructuralError(f"{path}: no data rows")

    tokens = body.replace("\n", ",").split(",")
    stamp_strs, value_strs = tokens[0::2], tokens[1::2]
    del tokens
    stamps, bad = _parse_column(datetime.fromisoformat, list(map(str.strip, stamp_strs)))
    if bad:
        i, exc = bad
        error = StructuralError(f"{path} line {lineno[i]}: bad timestamp {stamp_strs[i]!r}: {exc}")
        value_strs = value_strs[:i]

    tzinfos = list(map(attrgetter("tzinfo"), stamps))
    if 0 < tzinfos.count(None) < len(tzinfos):
        naive = tzinfos[0] is None
        i = next(i for i, tz in enumerate(tzinfos) if (tz is None) is not naive)
        error = StructuralError(
            f"{path} line {lineno[i]}: timestamp {stamp_strs[i]!r} {'has a' if naive else 'has no'} UTC offset, "
            f"unlike line {lineno[0]}'s"
        )
        value_strs = value_strs[:i]

    values, bad = _parse_column(float, value_strs, collect=lambda floats: np.fromiter(floats, float))
    if bad:
        i = bad[0]
        error = StructuralError(f"{path} line {lineno[i]}: bad value {value_strs[i]!r}")
    del value_strs

    out_of_range = ~np.isfinite(values) | (values <= 0 if kind == "price" else values < 0)
    if out_of_range.any():
        i = int(out_of_range.argmax())
        value = float(values[i])
        if not math.isfinite(value):
            reason = "is not finite"
        else:
            reason = "must be > 0" if kind == "price" else "must be >= 0"
        error = ValidationError(f"{path} line {lineno[i]}: {kind} {value} {reason}")
        values = values[:i]

    stamps = stamps[: len(values)]
    unique = set(stamps)
    order = sorted(range(len(stamps)), key=stamps.__getitem__)
    if len(unique) < len(stamps):
        # a stable sort puts equal stamps next to each other in file order,
        # so each repeat is the later of an adjacent equal pair
        i = min(b for a, b in zip(order, order[1:]) if stamps[a] == stamps[b])
        error = ValidationError(f"{path} line {lineno[i]}: duplicate timestamp {stamp_strs[i]}")
    if error:
        raise error
    return _Series(stamps, unique, np.array(order, dtype=np.intp), values)


def _common_values(series: _Series, other: _Series) -> np.ndarray:
    """``series``' values at the stamps it shares with ``other``, sorted by
    stamp."""
    shared = np.fromiter(map(other.unique.__contains__, series.stamps), bool, len(series.stamps))
    return series.values[series.order[shared[series.order]]]


def parse_trace_csv(price_file: str | Path, demand_file: str | Path) -> LoadedTrace:
    """Load a trace from aligned price and demand CSVs.

    Rows whose timestamp appears in only one of the files are dropped; the
    result is sorted by timestamp.  An empty intersection is an error.
    """
    prices = _read_series(price_file, "price")
    demands = _read_series(demand_file, "demand")
    trace_prices = _common_values(prices, demands)
    if not trace_prices.size:
        raise StructuralError(
            f"no common timestamps between {price_file} and {demand_file}"
        )
    trace = Trace(prices=trace_prices, demands=_common_values(demands, prices))
    return LoadedTrace(
        trace=trace,
        dropped_price_rows=len(prices.stamps) - len(trace),
        dropped_demand_rows=len(demands.stamps) - len(trace),
    )


def _diurnal(hours: np.ndarray, peak_hour: float) -> np.ndarray:
    # smooth 24h bump in [0, 1] peaking at peak_hour
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (hours - peak_hour + 12.0) / 24.0))


def synth_trace(
    days: int,
    seed: int = 0,
    peak_level: float = 12.0,
    base_level: float = 2.0,
    noise: float = 1.0,
) -> Trace:
    """Generate a synthetic billing cycle of ``24 * days`` hourly slots.

    Demand follows a diurnal bump between ``base_level`` and ``peak_level``
    plus seeded Gaussian noise, rounded to non-negative integers; prices
    follow their own deterministic diurnal profile between 20 and 60.  With
    ``noise = 0`` the demand is exactly 24-periodic.
    """
    if days < 1:
        raise ValidationError(f"days must be >= 1, got {days}")
    if peak_level < base_level or base_level < 0:
        raise ValidationError("need peak_level >= base_level >= 0")
    if noise < 0:
        raise ValidationError(f"noise must be >= 0, got {noise}")
    hours = np.arange(24 * days) % 24
    rng = np.random.default_rng(check_seed(seed))
    demand = base_level + (peak_level - base_level) * _diurnal(hours, peak_hour=16.0)
    if noise > 0:
        demand = demand + rng.normal(0.0, noise, len(hours))
    demand = np.maximum(0.0, np.rint(demand))
    prices = 20.0 + 40.0 * _diurnal(hours, peak_hour=18.0)
    return Trace(prices=prices, demands=demand)


def write_trace_csv(
    trace: Trace,
    price_file: str | Path,
    demand_file: str | Path,
    start: str = "2018-04-01T00:00",
) -> None:
    """Write a trace as two hourly `timestamp,value` CSVs (LF endings).

    Row ``i`` is stamped ``(start + i hours).isoformat(timespec="minutes")``;
    the stamps come from one numpy minute range, not per-row datetimes.
    """
    stamp0 = datetime.fromisoformat(start)
    # the last stamp raises OverflowError past year 9999, as datetime arithmetic does
    stamp0 + timedelta(hours=len(trace) - 1)
    # an aware start has a fixed offset, so every stamp carries its suffix;
    # numpy floors the wall-clock time to the minute, as isoformat truncates it
    naive = stamp0.replace(tzinfo=None)
    offset = stamp0.isoformat(timespec="minutes")[len(naive.isoformat(timespec="minutes")) :]
    hours = np.arange(len(trace)) * np.timedelta64(1, "h")
    stamps = np.datetime_as_string(np.datetime64(naive, "m") + hours, unit="m").tolist()
    for path, values in ((price_file, trace.prices), (demand_file, trace.demands)):
        rows = "".join(f"{stamp}{offset},{value!r}\n" for stamp, value in zip(stamps, values.tolist()))
        write_text(path, "timestamp,value\n" + rows)
