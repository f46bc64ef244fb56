"""Adaptive Gauss-Kronrod integration (7/15 pair).

Small, dependency-free integrator for the smooth-by-segments integrands in
this package.  Intervals are pre-split at caller-supplied breakpoints (kink
locations), then each segment is bisected until its error estimate, the
difference between the embedded 7-point Gauss and 15-point Kronrod rules,
fits its share of the absolute tolerance.

The panel rule :func:`_gk15` is written in plain arithmetic, so it also
runs on arrays: given arrays ``a`` and ``b`` and an integrand that maps an
array of nodes elementwise, it returns one panel value and error per
interval, bit for bit what the scalar rule gives each one.  Batch callers
run one panel per segment that way and hand only the segments it does not
settle to :func:`integrate`.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .errors import NumericError

# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed abscissae.
_XGK: Sequence[float] = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK: Sequence[float] = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG: Sequence[float] = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# The off-center abscissae in the order they are accumulated, each with its
# Kronrod weight and its Gauss weight (None where the 7-point rule has no node).
_NODES: Sequence[tuple[float, float, float | None]] = tuple(
    (_XGK[j], _WGK[j], _WG[j // 2] if j % 2 else None) for j in range(7)
)

_MAX_DEPTH = 48

# Panels one ``integrate`` call may evaluate.  A segment whose share of the
# tolerance is below rounding never converges, and its bisection would
# otherwise grow as 2**depth up to _MAX_DEPTH.
_MAX_PANELS = 1024


class _Budget:
    """Panels left to one ``integrate`` call, and whether any panel that
    still needed splitting was refused one."""

    __slots__ = ("left", "cut")

    def __init__(self):
        self.left = _MAX_PANELS
        self.cut = False


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    kronrod = _WGK[7] * fc
    gauss = _WG[3] * fc
    for x, wk, wg in _NODES:
        pair = f(center - half * x) + f(center + half * x)
        kronrod += wk * pair
        if wg is not None:
            gauss += wg * pair
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss)


def _adaptive(f, a, b, tol, depth, budget: _Budget) -> tuple[float, float]:
    value, err = _gk15(f, a, b)
    budget.left -= 1
    if err <= tol or depth >= _MAX_DEPTH:
        return value, err
    if math.isnan(err):
        # no bisection can shrink a NaN estimate; without this stop every
        # panel would split down to _MAX_DEPTH, 2**48 of them
        raise NumericError(f"integrand is not finite on [{a}, {b}]")
    if budget.left <= 0:
        budget.cut = True
        return value, err
    mid = 0.5 * (a + b)
    left = _adaptive(f, a, mid, tol / 2, depth + 1, budget)
    right = _adaptive(f, mid, b, tol / 2, depth + 1, budget)
    return left[0] + right[0], left[1] + right[1]


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-9,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``abs_tol``.

    Returns ``(value, error_estimate)``.  Raises :class:`NumericError`
    with the achieved estimate if the tolerance cannot be met, or if
    meeting it would take more than ``_MAX_PANELS`` panels.
    """
    if b < a:
        raise NumericError(f"inverted interval [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    cuts = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    total = 0.0
    err = 0.0
    budget = _Budget()
    for lo, hi in zip(cuts, cuts[1:]):
        seg_tol = abs_tol * (hi - lo) / (b - a)
        value, seg_err = _adaptive(f, lo, hi, seg_tol, 0, budget)
        total += value
        err += seg_err
    if budget.cut:
        raise NumericError(
            f"quadrature used its {_MAX_PANELS} panels at error {err:.3e} (target {abs_tol:.3e})",
            achieved=err,
        )
    if err > abs_tol and not math.isclose(err, abs_tol):
        raise NumericError(
            f"quadrature stalled at error {err:.3e} (target {abs_tol:.3e})", achieved=err
        )
    return total, err
