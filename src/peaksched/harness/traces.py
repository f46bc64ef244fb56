"""Trace ingestion from CSV files and synthetic trace generation.

Trace files carry one ``timestamp,value`` row per hour with a header line;
prices and demands live in separate files and are aligned on the
intersection of their timestamps.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

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


def _read_series(path: str | Path, kind: str) -> dict[datetime, float]:
    """One file's ``{timestamp: value}`` rows.  Its stamps must all carry a
    UTC offset or all lack one: Python cannot order the two kinds."""
    path = Path(path)
    series: dict[datetime, float] = {}
    naive = None  # the kind of the first data row's stamp
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if len(row) < 2:
                    raise StructuralError(f"{path}: header must be 'timestamp,value'")
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise StructuralError(f"{path} line {lineno}: expected 'timestamp,value', got {row!r}")
            try:
                stamp = datetime.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise StructuralError(f"{path} line {lineno}: bad timestamp {row[0]!r}: {exc}") from exc
            if naive is None:
                naive, first = stamp.tzinfo is None, lineno
            elif (stamp.tzinfo is None) is not naive:
                raise StructuralError(
                    f"{path} line {lineno}: timestamp {row[0]!r} {'has a' if naive else 'has no'} UTC offset, "
                    f"unlike line {first}'s"
                )
            try:
                value = float(row[1])
            except ValueError as exc:
                raise StructuralError(f"{path} line {lineno}: bad value {row[1]!r}") from exc
            if not math.isfinite(value):
                raise ValidationError(f"{path} line {lineno}: {kind} {value} is not finite")
            if kind == "price" and value <= 0:
                raise ValidationError(f"{path} line {lineno}: price {value} must be > 0")
            if kind == "demand" and value < 0:
                raise ValidationError(f"{path} line {lineno}: demand {value} must be >= 0")
            if stamp in series:
                raise ValidationError(f"{path} line {lineno}: duplicate timestamp {row[0]}")
            series[stamp] = value
    if not series:
        raise StructuralError(f"{path}: no data rows")
    return series


def parse_trace_csv(price_file: str | Path, demand_file: str | Path) -> LoadedTrace:
    """Load a trace from aligned price and demand CSVs.

    Rows whose timestamp appears in only one of the files are dropped; the
    result is sorted by timestamp.  An empty intersection is an error.
    """
    prices = _read_series(price_file, "price")
    demands = _read_series(demand_file, "demand")
    common = sorted(prices.keys() & demands.keys())
    if not common:
        raise StructuralError(
            f"no common timestamps between {price_file} and {demand_file}"
        )
    trace = Trace(
        prices=np.array([prices[t] for t in common]),
        demands=np.array([demands[t] for t in common]),
    )
    return LoadedTrace(
        trace=trace,
        dropped_price_rows=len(prices) - len(common),
        dropped_demand_rows=len(demands) - len(common),
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
    check_seed(seed)
    hours = np.arange(24 * days) % 24
    rng = np.random.default_rng(seed)
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
