"""Adaptive Gauss-Kronrod integration (7/15 pair), on arrays.

Intervals are pre-split at caller-supplied breakpoints (kink locations),
then each segment is bisected until its error estimate, the difference
between the embedded 7-point Gauss and 15-point Kronrod rules, fits its
share of the absolute tolerance.  Shares go by length, floored at the
rounding of the segment's first panel value, so a short segment is not
asked for an error no panel can reach.  The panel rule is plain arithmetic
on arrays of interval ends, each panel bit for bit the rule on its interval
alone.  :func:`bisect_panels` is the one bisection engine, for many points
in lockstep; :func:`integrate` is its one-point case.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

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

# A panel's error estimate cannot fall below the rounding of its value,
# about 16 ulp of it on this package's integrands.  A segment's share of the
# tolerance is floored at 50 ulp of its first panel's value, but never above
# the whole tolerance, which bisection could not meet either.
_ROUNDING_FLOOR = 50 * sys.float_info.epsilon

# Panels one point's integral may evaluate.  A segment whose share of the
# tolerance is below rounding never converges, and its bisection would
# otherwise grow as 2**depth up to _MAX_DEPTH.
_MAX_PANELS = 1024


def _gk15_nodes(a, b) -> tuple[list, object]:
    """The panel's 15 nodes on ``[a, b]`` in the order :func:`_gk15_sum`
    takes their values (the center, then each abscissa's lower and upper
    node), and its half width."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = [center]
    for x, _, _ in _NODES:
        nodes += (center - half * x, center + half * x)
    return nodes, half


def _gk15_sum(values: Iterable, half) -> tuple:
    """The panel's value and error estimate from its integrand ``values``,
    taken in :func:`_gk15_nodes`'s order."""
    values = iter(values)
    fc = next(values)
    kronrod = _WGK[7] * fc
    gauss = _WG[3] * fc
    for _, wk, wg in _NODES:
        pair = next(values) + next(values)
        kronrod += wk * pair
        if wg is not None:
            gauss += wg * pair
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss)


def bisect_panels(evaluate: Callable, cuts: Sequence[Sequence], roots: tuple, abs_tol: float) -> list:
    """Integrate many points to absolute tolerance ``abs_tol`` at once.

    Point ``p`` integrates over the segments between the ascending ends
    ``cuts[p]``, whose first panels' values and errors ``roots`` holds in
    point order (None for a panel still to evaluate).  Each point walks its panel tree in pre-order, one panel a
    step; a step's new panels are one ``evaluate(a, b, owner)`` call on
    arrays of their ends and points.  Returns each point's ``(value,
    error)``, or raises the first point's :class:`NumericError`, each as
    :func:`integrate` on that point alone.
    """
    values, errs = (iter(np.asarray(x).tolist()) for x in roots)
    # a point's pending panels, next on top, as [a, b, tol, ceiling, depth,
    # value, error]: a segment's first panel passes the whole tolerance as
    # its ceiling, and its halves inherit the floored share
    pending = [[[lo, hi, abs_tol * (hi - lo) / (ends[-1] - ends[0]), abs_tol, 0, next(values), next(errs)]
                for lo, hi in zip(ends, ends[1:])][::-1] for ends in cuts]
    # each point's panels in pre-order, as (value, error), or None where one
    # split; and its fate: None, "cut" where a split was refused, or an error
    walked, fate = [[] for _ in cuts], [None] * len(cuts)
    active = range(len(cuts))
    while active := [p for p in active if pending[p]]:
        panels = [pending[p].pop() for p in active]
        new = [k for k, panel in enumerate(panels) if panel[5] is None]
        lo, hi = (np.array([panels[k][end] for k in new], dtype=float) for end in (0, 1))
        for k, *result in zip(new, *(x.tolist() for x in evaluate(lo, hi, np.array(active)[new]))):
            panels[k][5:] = result
        for p, (a, b, tol, ceiling, depth, value, err) in zip(active, panels):
            # a panel splits while its error misses its tolerance, which
            # halves at each split, down to _MAX_DEPTH; past the point's
            # _MAX_PANELS panels in pre-order none splits
            tol = max(tol, min(ceiling, _ROUNDING_FLOOR * abs(value)))
            if not (err <= tol or depth >= _MAX_DEPTH):
                if math.isnan(err):
                    # no bisection shrinks a NaN: stop before 2**48 panels
                    fate[p] = NumericError(f"integrand is not finite on [{a}, {b}]")
                    pending[p].clear()
                    continue
                if len(walked[p]) + 1 < _MAX_PANELS:
                    mid = 0.5 * (a + b)
                    pending[p] += ([mid, b, tol / 2, 0.0, depth + 1, None, None],
                                   [a, mid, tol / 2, 0.0, depth + 1, None, None])
                    walked[p].append(None)
                    continue
                fate[p] = "cut"
            walked[p].append((value, err))

    results = []
    for order, failed in zip(walked, fate):
        if isinstance(failed, NumericError):
            raise failed
        sums = []
        for panel in reversed(order):
            if panel is None:
                (left, left_err), (right, right_err) = sums.pop(), sums.pop()
                panel = left + right, left_err + right_err
            sums.append(panel)
        total = err = 0.0
        for value, seg_err in reversed(sums):
            total, err = total + value, err + seg_err
        at = f"error {err:.3e} (target {abs_tol:.3e})"
        if failed:
            raise NumericError(f"quadrature used its {_MAX_PANELS} panels at {at}", achieved=err)
        if err > abs_tol and not math.isclose(err, abs_tol):
            raise NumericError(f"quadrature stalled at {at}", achieved=err)
        results.append((total, err))
    return results


def integrate(f: Callable[[float], float], a: float, b: float, abs_tol: float = 1e-9,
              breakpoints: Iterable[float] = ()) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``abs_tol``,
    ``f`` taken on one float node at a time.

    Returns ``(value, error_estimate)``.  Raises :class:`NumericError`
    with the achieved estimate if the tolerance cannot be met, or if
    meeting it would take more than ``_MAX_PANELS`` panels.
    """
    if b < a:
        raise NumericError(f"inverted interval [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    cuts = sorted({a, b, *(x for x in breakpoints if a < x < b)})

    def evaluate(lo, hi, owner):
        # as in float arithmetic, an overflow or an inf - inf is silent
        with np.errstate(over="ignore", invalid="ignore"):
            nodes, half = _gk15_nodes(lo, hi)
            return _gk15_sum(np.fromiter(map(f, np.concatenate(nodes).tolist()), float).reshape(15, -1), half)

    # every panel, the first ones too, is evaluated when the walk reaches it
    return bisect_panels(evaluate, [cuts], ([None] * (len(cuts) - 1),) * 2, abs_tol)[0]
