"""Domain checks shared by the online engine and the analysis formulas."""
from __future__ import annotations

import math
import numbers
import operator
import sys

import numpy as np

from .errors import DomainError

_LOG_MAX = math.log(sys.float_info.max)

#: Smallest trust parameter whose stretched support ``[0, 1/lambda]`` keeps
#: ``e^(1/lambda)`` a finite float: 1/709.78.
NAIVE_LAMBDA_FLOOR = 1.0 / _LOG_MAX


def check_beta(beta: float) -> None:
    """Reject a hardness parameter that is a bool, not a real number, or
    outside (0, 1], NaN included."""
    if not (type(beta) is float or is_real(beta)):
        raise DomainError(f"beta must be a real number, got {beta!r}")
    if not 0 < beta <= 1:
        raise DomainError(f"beta must lie in (0, 1], got {beta}")


def check_lambda(lam: float, allow_zero: bool = False) -> None:
    """Reject a trust parameter that is a bool, not a real number, or
    outside (0, 1], or outside [0, 1] when ``allow_zero`` is set, NaN
    included."""
    # a plain float skips the call: this runs on every layer run
    if not (type(lam) is float or is_real(lam)):
        raise DomainError(f"lambda must be a real number, got {lam!r}")
    if allow_zero:
        if not 0 <= lam <= 1:
            raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    elif not 0 < lam <= 1:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")


def check_stretched_lambda(lam: float) -> None:
    """Reject a trust parameter in (0, 1] below :data:`NAIVE_LAMBDA_FLOOR`,
    where ``math.exp(1/lambda)`` would overflow."""
    if lam < NAIVE_LAMBDA_FLOOR:
        raise DomainError(
            f"lambda must be at least {NAIVE_LAMBDA_FLOOR!r} (1/{_LOG_MAX:.2f}) where the support "
            f"stretches to 1/lambda, got {lam}"
        )


def check_sigma_hat(sigma_hat: float) -> None:
    """Reject a predicted premium mass that is a bool, not a real number, NaN
    or infinite, which would otherwise pick a branch of ``sigma_hat > 1``
    silently; negative values stay legal."""
    # a plain float skips the call: this runs on every layer run
    if not (type(sigma_hat) is float or is_real(sigma_hat)):
        raise DomainError(f"sigma_hat must be a real number, got {sigma_hat!r}")
    if not math.isfinite(sigma_hat):
        raise DomainError(f"sigma_hat must be finite, got {sigma_hat}")


def check_cost(total, what: str, arrays: bool = False) -> None:
    """Reject a cost that is a bool, not a real number (nor a real array,
    where ``arrays``), or not finite, or too large for a float (an int that
    a division would overflow on), naming it or its first bad element."""
    if is_real(total):
        if not fits_float(total):
            raise DomainError(f"{what} must fit in a float, got {_shown(total)}")
        if not math.isfinite(total):
            raise DomainError(f"{what} must be finite, got {total}")
    elif not (arrays and isinstance(total, np.ndarray) and total.dtype.kind in "fiu"):
        raise DomainError(f"{what} must be a real number, got {total!r}")
    elif not np.isfinite(total).all():
        raise DomainError(f"{what} must be finite, got {total[~np.isfinite(total)][0]}")


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


def as_reals(values, what: str, ok=None, rule: str = "") -> np.ndarray:
    """``values`` as a float array, or ``DomainError`` naming the first
    element that is a bool or not a real number, or that fails the
    element-wise test ``ok``, as ``f"{what} {rule} {value}"``.  Anything but
    an array or a float is read as objects first: ``np.asarray`` would read
    ``True`` as 1 and ``"0.5"`` as 0.5, and a list's bools as its floats."""
    if type(values) is float and (ok is None or ok(values)):
        return np.asarray(values)  # a float's own comparisons take ns, a 0-d array's us
    values = np.asarray(values, dtype=None if isinstance(values, np.ndarray) else object)
    if values.dtype.kind not in "fiu":
        for value in values.ravel().tolist():
            if not is_real(value):
                raise DomainError(f"{what} must be a real number, got {value!r}")
    values = values.astype(float, copy=False)
    if ok is not None:
        bad = ~ok(values)
        if bad.any():
            raise DomainError(f"{what} {rule} {values[bad][0]}")
    return values


def check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer, the only seeds
    numpy's ``SeedSequence`` takes; a bool is not a seed."""
    try:
        # every integer type has __index__; an ABC check would cost 0.8 us a draw
        ok = operator.index(seed) >= 0 and not isinstance(seed, bool)
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
