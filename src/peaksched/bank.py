"""Instance banks: many 0/1-demand traces of one length, run and priced
together.

A :class:`TraceBank` is the costing engine behind
:func:`~peaksched.online.switch_slots` and
:func:`~peaksched.online.switch_costs`, which are its one-row case.  The
module loads on first use: ``import peaksched`` does not import it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PeakSchedError, StructuralError, ValidationError
from .model import BillingParams, Trace, _frozen, check_pairing
from .online import _BINARY_ONLY, _GRID_FROM_START, _premium_prefix


def _require_binary(trace: Trace) -> None:
    if not trace.has_binary_demands():
        raise DomainError(_BINARY_ONLY)


def _readonly_block(values, name: str) -> np.ndarray:
    # a bank's (n, T) arrays, kept or copied and frozen as Trace's vectors
    # are; rows must be C-contiguous for the per-row dot products
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.ndim == 2
        and values.flags.c_contiguous
        and values.base is None
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=float)
    if arr.ndim != 2:
        raise StructuralError(f"{name} must be a two-dimensional (rows, slots) array")
    return _frozen(arr)


def _per_row(values, rows: int, name: str) -> np.ndarray:
    # one float per row, a scalar standing for every row's
    arr = np.empty(rows)
    try:
        arr[:] = values
    except ValueError:
        raise StructuralError(f"{name} must be a number or one number per row ({rows})") from None
    return _frozen(arr)


def _first_row(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask.any(axis=1))[0])


@dataclass(frozen=True, eq=False)
class TraceBank:
    """``n`` 0/1-demand traces of one length ``T``, each with its own ``p_g``
    and ``p_m``: instances that are run and priced together.

    ``prices`` and ``demands`` are read-only (n, T) float64 arrays, kept or
    copied as :class:`Trace` keeps or copies its vectors; ``p_g`` and
    ``p_m`` are read-only (n,) vectors, a scalar standing for every row's.
    Each row must pass what one trace must pass to be run: the rules of
    :class:`Trace` and :class:`BillingParams`, 0/1 demand and
    :func:`check_pairing`.  The first row that does not raises the error
    that its trace would, led by ``row r`` and, where that error names no
    slot, by the slot at fault.

    :meth:`switch_slots` and :meth:`switch_costs` answer, row for row and
    bit for bit, what :func:`~peaksched.online.switch_slots` and
    :func:`~peaksched.online.switch_costs` answer on each row's trace, which
    are their one-row case.  :attr:`sigmas` and :meth:`oracle_slots` give
    :func:`~peaksched.model.sigma` and
    :func:`~peaksched.offline.optimal_basic`'s schedule of each row, so a
    bank's oracle is priced by the same engine.
    """

    prices: np.ndarray
    demands: np.ndarray
    p_g: np.ndarray
    p_m: np.ndarray

    def __post_init__(self):
        prices = _readonly_block(self.prices, "prices")
        demands = _readonly_block(self.demands, "demands")
        if prices.shape != demands.shape:
            raise StructuralError(f"prices {prices.shape} and demands {demands.shape} differ in shape")
        rows, horizon = prices.shape
        if horizon == 0:
            raise ValidationError("empty trace: the peak charge needs at least one slot")
        p_g = _per_row(self.p_g, rows, "p_g")
        p_m = _per_row(self.p_m, rows, "p_m")
        # every row rule at once, each comparison written so that NaN fails it
        ok = (
            ((prices > 0) & (prices <= p_g[:, None]) & ((demands == 0) | (demands == 1))).all(axis=1)
            & (p_g > 0) & (p_g < math.inf) & (p_m > 0) & (p_m < math.inf)
        )
        if not ok.all():
            _reject_row(int(np.flatnonzero(~ok)[0]), prices, demands, p_g, p_m)
        for name, value in (("prices", prices), ("demands", demands), ("p_g", p_g), ("p_m", p_m)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_rows_named", True)
        object.__setattr__(self, "_stored_prefix", None)

    @classmethod
    def _of_trace(cls, trace: Trace, params: BillingParams) -> "TraceBank":
        """The one-row bank of a trace that
        :func:`~peaksched.online.run_threshold` accepts, on
        views of its vectors and the premium prefix stored on the trace; its
        errors name no row."""
        _require_binary(trace)
        check_pairing(trace, params)
        bank = object.__new__(cls)
        for name, value in (
            ("prices", trace.prices[None]),
            ("demands", trace.demands[None]),
            ("p_g", np.array([params.p_g])),
            ("p_m", np.array([params.p_m])),
            ("_rows_named", False),
            ("_stored_prefix", _premium_prefix(trace, params.p_g)[None]),
        ):
            object.__setattr__(bank, name, value)
        return bank

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def horizon(self) -> int:
        return self.prices.shape[1]

    def instance(self, row: int) -> tuple[Trace, BillingParams]:
        """Row ``row`` as a trace and its billing parameters (capacity 1)."""
        trace = Trace(prices=self.prices[row], demands=self.demands[row])
        return trace, BillingParams(p_g=float(self.p_g[row]), p_m=float(self.p_m[row]), capacity=1)

    def _row(self, r: int) -> str:
        return f"row {r}: " if self._rows_named else ""

    @cached_property
    def sigmas(self) -> np.ndarray:
        """Each row's premium mass, the ``(p_g - p) @ d / p_m`` dot that
        :func:`~peaksched.model.sigma` takes of the row's trace."""
        rows = zip(self.prices, self.demands, self.p_g.tolist(), self.p_m.tolist())
        return _frozen(np.array([float((p_g - p) @ d) / p_m for p, d, p_g, p_m in rows], dtype=float))

    def oracle_slots(self) -> np.ndarray:
        """The switch slot of each row's
        :func:`~peaksched.offline.optimal_basic` schedule: 0
        (all grid) where the premium mass exceeds 1, ``T`` (all local)
        otherwise.  Its cost is the oracle's total, bit for bit: on 0/1
        demand the local count is the exact integer ``u.sum()`` is."""
        return np.where(self.sigmas > 1, 0, self.horizon)

    def switch_slots(self, thresholds) -> np.ndarray:
        """(n, k) first grid-served slots of the threshold multipliers,
        ``thresholds`` being (k,) for every row or (n, k) one row each; ``T``
        where a policy never switches.  One ``searchsorted`` per row on its
        premium prefix; a threshold that :class:`SwitchPolicy` would reject
        raises ``DomainError`` naming its row and value."""
        s = self._rows_of(np.asarray(thresholds, dtype=float), "thresholds")
        bad = ~((s == _GRID_FROM_START) | (s >= 0))
        if bad.any():
            r = _first_row(bad)
            value = s[r][bad[r]][0]
            raise DomainError(f"{self._row(r)}threshold multiplier must be -1, >= 0, or inf; got {value}")
        return self._slots(s)

    def _slots(self, s: np.ndarray) -> np.ndarray:
        """:meth:`switch_slots` of checked (n, k) thresholds."""
        targets = s * self.p_m[:, None]
        prefixes = self._stored_prefix
        if prefixes is None:
            # ((p_g - p) * d).cumsum() of every row, in one buffer
            prefixes = self.p_g[:, None] - self.prices
            prefixes *= self.demands
            prefixes.cumsum(axis=1, out=prefixes)
        slots = np.empty(s.shape, dtype=np.intp)
        for r, prefix in enumerate(prefixes):
            slots[r] = prefix.searchsorted(targets[r], side="left")
        return slots

    def switch_costs(self, slots) -> np.ndarray:
        """(n, k) total costs of each row's switch schedule at each slot,
        ``slots`` being (k,) for every row or (n, k) one row each (``T``
        never switches): bit for bit ``cost_of(switch_schedule(trace, slot),
        trace, params).total`` on the row's trace.  A slot that is not an
        integer in ``[0, T]`` raises ``DomainError`` naming its row."""
        return self._costs(self._check_slots(slots))

    def _rows_of(self, values: np.ndarray, name: str) -> np.ndarray:
        if values.ndim == 1:
            return np.broadcast_to(values, (len(self), values.size))
        if values.ndim != 2 or len(values) != len(self):
            raise StructuralError(f"{name} must be (k,) or ({len(self)}, k), got shape {values.shape}")
        return values

    def _check_slots(self, slots) -> np.ndarray:
        slots = self._rows_of(np.asarray(slots), "slots")
        if slots.size and slots.dtype.kind not in "iu":
            r = 0  # the row of the first value that is not whole, if any is not
            if slots.dtype.kind == "f":
                with np.errstate(invalid="ignore"):
                    fractional = ~(np.mod(slots, 1) == 0)
                r = _first_row(fractional) if fractional.any() else 0
            raise DomainError(f"{self._row(r)}switch slots must be integers, got {slots.dtype}")
        horizon = self.horizon
        outside = (slots < 0) | (slots > horizon)
        if outside.any():
            r = _first_row(outside)
            raise DomainError(f"{self._row(r)}switch slot {slots[r][outside[r]][0]} lies outside [0, {horizon}]")
        return slots.astype(np.intp)

    def _costs(self, slots: np.ndarray) -> np.ndarray:
        """:meth:`switch_costs` of checked (n, k) slots.

        On 0/1 demand a switch at slot ``k`` pays ``p_g`` times the number
        of demand slots before ``k``, a cumsum that is exact in floats, and
        ``p_m`` while that count is below the row's total.  The volume is the
        full-length dot product of the row's prices with its grid purchase,
        one per distinct slot, on one buffer whose head is zeroed as the
        slots ascend: a sliced, summed or stacked product would group the
        partial sums differently and change the last bits.
        """
        rows, horizon = self.prices.shape
        count = np.zeros((rows, horizon + 1))
        np.cumsum(self.demands, axis=1, out=count[:, 1:])
        local = count[np.arange(rows)[:, None], slots]
        peak = local < count[:, -1:]
        volume = np.empty(slots.shape)
        grid = np.empty(horizon)
        for r, row in enumerate(slots.tolist()):
            prices = self.prices[r]
            grid[:] = self.demands[r]
            done, costs = 0, {}
            for slot in sorted(set(row)):
                grid[done:slot] = 0.0
                done = slot
                costs[slot] = prices @ grid
            volume[r] = [costs[slot] for slot in row]
        return volume + self.p_m[:, None] * peak + self.p_g[:, None] * local


def _reject_row(r: int, prices, demands, p_g, p_m) -> None:
    """Raise the error that row ``r`` raises as one trace, led by its row,
    and by its slot where that error names none."""
    trace = params = None
    try:
        trace = Trace(prices=prices[r], demands=demands[r])
        params = BillingParams(p_g=float(p_g[r]), p_m=float(p_m[r]), capacity=1)
        _require_binary(trace)
        check_pairing(trace, params)
    except PeakSchedError as exc:
        where = f"row {r}"
        if params is not None:
            d = trace.demands
            at = (d != 0) & (d != 1) if not trace.has_binary_demands() else trace.prices == trace.max_price
            where += f", slot {int(np.flatnonzero(at)[0])}"
        raise type(exc)(f"{where}: {exc}") from None
    raise AssertionError(f"row {r} passes every rule of one trace")  # the mask and the rules disagree
