"""Instance banks: many 0/1-demand traces of one length, run and priced
together.

A :class:`TraceBank` checks its rows once and runs them through the switch
engine of :mod:`peaksched.online`, the block functions that
:func:`~peaksched.online.switch_costs` runs on its one trace.  The module
loads on first use: ``import peaksched`` does not import it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PeakSchedError, StructuralError, ValidationError
from .model import BillingParams, Trace, _frozen, _premium_mass, _readonly_vector, _stored
from .online import _block_costs, _block_slots, _check_runnable, _check_slots, _check_thresholds, _demand_counts
from .validators import PER_ROW, read_reals


def _per_row(values, rows: int, name: str) -> np.ndarray:
    # one float per row, a scalar standing for every row's
    arr = np.empty(rows)
    arr[:] = read_reals(values, name, PER_ROW, ValidationError, rows=rows)
    return _frozen(arr)


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
    :func:`~peaksched.online.switch_costs` answer on each row's trace, and
    raise their errors, led by ``row r: ``.  :attr:`sigmas` and
    :meth:`oracle_slots` give :func:`~peaksched.model.sigma` and
    :func:`~peaksched.offline.optimal_basic`'s schedule of each row, so a
    bank's oracle is priced by the same engine.
    """

    prices: np.ndarray
    demands: np.ndarray
    p_g: np.ndarray
    p_m: np.ndarray

    def __post_init__(self):
        prices = _readonly_vector(self.prices, "prices", ndim=2)
        demands = _readonly_vector(self.demands, "demands", ndim=2)
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

    @classmethod
    def _of_constant_rows(cls, price: np.ndarray, p_g, p_m, ones: np.ndarray, counts: np.ndarray) -> "TraceBank":
        """The bank ``TraceBank(prices, ones, p_g, p_m)``, row ``r`` of
        ``prices`` being ``price[r]`` on every slot, where ``ones`` is a
        frozen all-ones (n, T) block and ``counts`` its frozen
        :func:`~peaksched.online._demand_counts`, which banks may share.
        On such rows a rule holds on every slot where it holds on the (n,)
        vectors, so only those are tested; the first row that fails raises
        what the constructor raises."""
        rows, horizon = ones.shape
        prices = np.empty((rows, horizon))
        prices[:] = price[:, None]
        p_g, p_m = _per_row(p_g, rows, "p_g"), _per_row(p_m, rows, "p_m")
        ok = (price > 0) & (price <= p_g) & (p_g > 0) & (p_g < math.inf) & (p_m > 0) & (p_m < math.inf)
        if not ok.all():
            _reject_row(int(np.flatnonzero(~ok)[0]), prices, ones, p_g, p_m)
        return _stored(cls, prices=_frozen(prices), demands=ones, p_g=p_g, p_m=p_m, _counts=counts)

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def horizon(self) -> int:
        return self.prices.shape[1]

    def instance(self, row: int) -> tuple[Trace, BillingParams]:
        """Row ``row`` as a trace and its billing parameters (capacity 1)."""
        trace = Trace(prices=self.prices[row], demands=self.demands[row])
        return trace, BillingParams(p_g=float(self.p_g[row]), p_m=float(self.p_m[row]), capacity=1)

    @cached_property
    def sigmas(self) -> np.ndarray:
        """Each row's premium mass, as :func:`~peaksched.model.sigma` takes
        it of the row's trace."""
        rows = zip(self.prices, self.demands, self.p_g.tolist(), self.p_m.tolist())
        return _frozen(np.array([_premium_mass(p_g - p, d, p_m) for p, d, p_g, p_m in rows], dtype=float))

    @cached_property
    def _counts(self) -> np.ndarray:
        return _frozen(_demand_counts(self.demands))

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
        block = self._rows_of(thresholds, "thresholds")
        try:
            s = _check_thresholds(block)
        except DomainError:
            # the first row that fails raises its one-trace error, led by the row
            for r, row in enumerate(block):
                try:
                    _check_thresholds(row)
                except DomainError as exc:
                    raise DomainError(f"row {r}: {exc}") from None
            raise
        return _block_slots(self.prices, self.demands, self.p_g[:, None], self.p_m[:, None], s)

    def switch_costs(self, slots) -> np.ndarray:
        """(n, k) total costs of each row's switch schedule at each slot,
        ``slots`` being (k,) for every row or (n, k) one row each (``T``
        never switches): bit for bit ``cost_of(switch_schedule(trace, slot),
        trace, params).total`` on the row's trace.  A slot that is not an
        integer in ``[0, T]`` raises ``DomainError`` naming its row."""
        checked = _check_slots(self._rows_of(slots, "slots"), self.horizon, named=True)
        return _block_costs(self.prices, self.demands, self._counts, self.p_g[:, None], self.p_m[:, None], checked)

    def _rows_of(self, values, name: str) -> np.ndarray:
        # anything but an array is read as objects, so that the checks see
        # a list's bools and strings as they are
        values = np.asarray(values, dtype=None if isinstance(values, np.ndarray) else object)
        if values.ndim == 1:
            return np.broadcast_to(values, (len(self), values.size))
        if values.ndim != 2 or len(values) != len(self):
            raise StructuralError(f"{name} must be (k,) or ({len(self)}, k), got shape {values.shape}")
        return values


def _reject_row(r: int, prices, demands, p_g, p_m) -> None:
    """Raise the error that row ``r`` raises as one trace, led by its row,
    and by its slot where that error names none."""
    trace = params = None
    try:
        trace = Trace(prices=prices[r], demands=demands[r])
        params = BillingParams(p_g=float(p_g[r]), p_m=float(p_m[r]), capacity=1)
        _check_runnable(trace, params)
    except PeakSchedError as exc:
        where = f"row {r}"
        if params is not None:
            d = trace.demands
            at = (d != 0) & (d != 1) if not trace.has_binary_demands() else trace.prices == trace.max_price
            where += f", slot {int(np.flatnonzero(at)[0])}"
        raise type(exc)(f"{where}: {exc}") from None
    raise AssertionError(f"row {r} passes every rule of one trace")  # the mask and the rules disagree
