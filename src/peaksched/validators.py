"""Domain checks shared by the online engine and the analysis formulas."""
from __future__ import annotations

import math
import numbers
import operator
import sys

import numpy as np

from .errors import DomainError, StructuralError

_LOG_MAX = math.log(sys.float_info.max)

#: Smallest trust parameter whose stretched support ``[0, 1/lambda]`` keeps
#: ``e^(1/lambda)`` a finite float: 1/709.78.
NAIVE_LAMBDA_FLOOR = 1.0 / _LOG_MAX


def check_beta(beta: float) -> float:
    """``beta`` as a float, or ``DomainError`` where the hardness parameter
    is a bool, not a real number, too large for a float, or outside (0, 1],
    NaN included."""
    value = read_reals(beta, "beta", SCALAR)
    if not 0 < value <= 1:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")
    return value


def check_lambda(lam: float, allow_zero: bool = False) -> float:
    """``lam`` as a float, or ``DomainError`` where the trust parameter is a
    bool, not a real number, too large for a float, or outside (0, 1], or
    outside [0, 1] when ``allow_zero`` is set, NaN included."""
    value = read_reals(lam, "lambda", SCALAR)
    if allow_zero:
        if not 0 <= value <= 1:
            raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    elif not 0 < value <= 1:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    return value


def check_stretched_lambda(lam: float) -> None:
    """Reject a trust parameter in (0, 1] below :data:`NAIVE_LAMBDA_FLOOR`,
    where ``math.exp(1/lambda)`` would overflow."""
    if lam < NAIVE_LAMBDA_FLOOR:
        raise DomainError(
            f"lambda must be at least {NAIVE_LAMBDA_FLOOR!r} (1/{_LOG_MAX:.2f}) where the support "
            f"stretches to 1/lambda, got {lam}"
        )


def check_sigma_hat(sigma_hat: float) -> None:
    """Reject a predicted premium mass that is a bool, not a real number, too
    large for a float, NaN or infinite, which would otherwise pick a branch
    of ``sigma_hat > 1`` silently; negative values stay legal."""
    if not math.isfinite(read_reals(sigma_hat, "sigma_hat", SCALAR)):
        raise DomainError(f"sigma_hat must be finite, got {sigma_hat}")


def check_cost(total, what: str, arrays: bool = False):
    """``total`` as a float (or a float array, where ``arrays`` admits a
    real array), or ``DomainError`` where it is a bool, not a real number,
    not finite, or too large for a float (an int that a division would
    overflow on), naming it or its first bad element."""
    if arrays and isinstance(total, np.ndarray) and total.dtype.kind in "fiu":
        if not np.isfinite(total).all():
            raise DomainError(f"{what} must be finite, got {total[~np.isfinite(total)][0]}")
        return total.astype(float, copy=False)
    value = read_reals(total, what, SCALAR)
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {total}")
    return value


def fits_float(value) -> bool:
    """Whether a real number converts to a float: an int (or a fraction)
    beyond the largest float does not, though it compares below ``inf``."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _shown(value) -> str:
    try:
        return str(value)
    except ValueError:  # an int with more digits than Python converts
        return f"a number too long to print ({type(value).__name__})"


def is_real(value) -> bool:
    """A real number that is not a bool: what a float parameter admits,
    numpy scalars included."""
    # a plain float first: the ABC check costs about 0.6 us a value
    return type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))


#: The shapes :func:`read_reals` takes besides ``None`` (any shape); with
#: ``PER_ROW``, a scalar stands for every row's value.
SCALAR, VECTOR, BLOCK, PER_ROW = 0, 1, 2, "per row"

_SHAPES = {
    None: "a rectangular array", VECTOR: "a one-dimensional sequence", BLOCK: "a two-dimensional (rows, slots) array"
}


def read_reals(values, name: str, shape=None, error=DomainError, *, rows: int | None = None,
               slots: bool = False, real: str = "must be a real number"):
    """``values`` as floats: a ``float`` for a ``SCALAR``, which must itself
    be a real number, else a float array of ``shape`` (``StructuralError``
    if not).  A numeric array is taken as it is; anything else is read as
    objects, where ``np.asarray`` would read ``True`` as 1 and ``"0.5"`` as
    0.5 and overflow on an int beyond the largest float.  The first element
    that is not a real number (``real``) or does not fit in a float raises
    ``error``, named as ``f"{name} at slot {k} is {value}; {rule}"`` where
    ``slots`` is set, else as ``f"{name} {rule}, got {value}"``, led by
    ``row r: `` in a ``PER_ROW`` vector."""
    if shape == SCALAR:
        if type(values) is float:
            return values
        items = (values,)
    else:
        arr = values
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
            try:
                arr = np.asarray(values, dtype=object)
            except ValueError:  # sequences nested to depths numpy cannot stack
                arr = None
        if arr is None or not (
            shape is None
            or arr.ndim == shape
            or shape == PER_ROW and (arr.ndim == 0 or arr.ndim == 1 and len(arr) == rows)
        ):
            words = f"a number or one number per row ({rows})" if shape == PER_ROW else _SHAPES[shape]
            raise StructuralError(f"{name} must be {words}")
        items = arr.ravel().tolist() if arr.dtype == object else ()
    for k, value in enumerate(items):
        if not is_real(value):
            shown, rule = repr(value), real
        elif not fits_float(value):
            shown, rule = _shown(value), "must fit in a float"
        else:
            continue
        if slots:
            *row, slot = np.unravel_index(k, arr.shape)
            raise error(f"{name} at {f'row {row[0]}, ' if row else ''}slot {slot} is {shown}; {rule}")
        lead = f"row {k}: " if shape == PER_ROW and arr.ndim == 1 else ""
        raise error(f"{lead}{name} {rule}, got {shown}")
    return float(values) if shape == SCALAR else arr.astype(float, copy=False)


def as_reals(values, what: str, ok=None, rule: str = "") -> np.ndarray:
    """``values`` as :func:`read_reals` reads them, of any shape, or
    ``DomainError`` naming the first element that fails the element-wise
    test ``ok``, as ``f"{what} {rule} {value}"``."""
    if type(values) is float and (ok is None or ok(values)):
        return np.asarray(values)  # a float's own comparisons take ns, a 0-d array's us
    values = read_reals(values, what)
    if ok is not None:
        bad = ~ok(values)
        if bad.any():
            raise DomainError(f"{what} {rule} {values[bad][0]}")
    return values


def check_seed(seed) -> int:
    """``operator.index(seed)``, or ``DomainError`` where ``seed`` is not a
    non-negative integer, the only seeds numpy's ``SeedSequence`` takes; a
    bool is not a seed.  A numpy integer gives the equal int."""
    try:
        # every integer type has __index__; an ABC check would cost 0.8 us a draw
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0 or isinstance(seed, bool):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return value
