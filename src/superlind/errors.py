"""Exception hierarchy, warning categories, the scalar-parameter rule and the array check.

Every error carries an ``exit_code`` used by the command line interface, so
that each failure class maps to a stable, documented process exit status.
"""
import math
import numbers
import os
import sys

import numpy as np

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


class SuperlindError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(SuperlindError):
    """Config file is malformed or holds inconsistent/unknown keys."""

    exit_code = 3


class ParameterError(SuperlindError, ValueError):
    """An argument is outside its mathematical or physical domain."""

    exit_code = 4


class DimensionError(ParameterError):
    """Operands have incompatible or unsupported dimensions."""


class OrderCapError(ParameterError):
    """Requested super-adiabatic order exceeds the configured cap."""


class TimeDomainError(ParameterError):
    """A time falls outside the trajectory grid."""


class DegeneracyError(SuperlindError):
    """Two levels come closer than the degeneracy tolerance."""

    exit_code = 5


class GridError(SuperlindError):
    """Time grid too coarse to follow the basis between steps."""

    exit_code = 6


class StateIntegrityError(SuperlindError):
    """A state lost a defining invariant (norm, hermiticity, trace)."""

    exit_code = 7


class PositivityError(StateIntegrityError):
    """Density matrix developed a negative eigenvalue beyond tolerance."""


class StiffnessError(SuperlindError):
    """Refining the propagator's sub-steps stopped paying off.

    Either doubling them did not shrink the largest h * ||A|| (the generator
    is singular), or it did not shrink the error estimate (the tolerances
    are below rounding).
    """

    exit_code = 7


def shown(value) -> str:
    """``repr(value)`` for an error message, in at most 40 characters."""
    try:
        text = repr(value)
    except ValueError:  # an int past Python's 4300-digit limit, or a Fraction of one
        return f"<{type(value).__name__} too large to print>"
    return text if len(text) <= 40 else f"{text[:18]}...{text[-19:]}"


def check_real(name: str, value, low: float | None = None, *, inclusive: bool = False) -> float:
    """``value`` as a float; ParameterError naming ``name`` unless it is a real scalar (a
    Python or numpy int or float, no bool) and, given ``low``, finite and > ``low``, or
    >= ``low`` if ``inclusive``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real scalar, got {shown(value)}")
    try:
        x, op = float(value), ">=" if inclusive else ">"
    except OverflowError:  # an int or Fraction beyond it, whose repr can pass the digit limit
        raise ParameterError(f"{name} must be within the float range") from None
    if low is not None and not (math.isfinite(x) and (x >= low if inclusive else x > low)):
        raise ParameterError(f"{name} must be finite and {op} {low:g}, got {shown(value)}")
    return x


def check_ends(t0, t1) -> tuple:
    """Real scalars ``t0, t1`` as floats; ParameterError unless finite with t0 < t1."""
    t0, t1 = check_real("t0", t0), check_real("t1", t1)
    if not -math.inf < t0 < t1 < math.inf:  # NaN fails too
        raise ParameterError(f"need finite t0 < t1, got t0 = {t0!r}, t1 = {t1!r}")
    return t0, t1


def check_array(name: str, value, dtype: type) -> np.ndarray:
    """``value`` as an ndarray of ``dtype``, float or complex; ParameterError naming ``name``
    unless numpy reads it as integers or floats, or complex numbers for a complex ``dtype``."""
    try:
        a = np.asarray(value)  # ValueError for a ragged sequence
        if a.dtype.kind in ("iufc" if dtype is complex else "iuf"):
            return a.astype(dtype, copy=False)
    except (TypeError, ValueError):
        pass
    raise ParameterError(f"{name} must be a numeric array of {dtype.__name__}, got {shown(value)}")


def check_sequence(name: str, values) -> tuple:
    """``values`` as a tuple; ParameterError naming ``name`` unless a non-empty sequence,
    no string or bytes, whose characters would pass for its items."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise ParameterError(f"{name} must be a sequence of numbers, got {shown(values)}")
    if not (values := tuple(values)):
        raise ParameterError(f"{name} must hold at least one number")
    return values


def check_integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int; ParameterError naming ``name`` unless it is a Python or numpy
    integer, no bool, and, given ``low``, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {shown(value)}")
    if low is not None and value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {shown(value)}")
    return int(value)


def check_distinct(name: str, values) -> None:
    """ParameterError naming ``name`` and the first repeated value among checked ``values``."""
    seen = set()
    for x in values:
        if x in seen:
            raise ParameterError(f"{name} holds {shown(x)} twice")
        seen.add(x)


class AdiabaticityWarning(UserWarning):
    """Drive too fast for the adiabatic expansion to be trustworthy."""


class WindowWarning(UserWarning):
    """Simulation window too short for asymptotic initial/final states."""


def _in_package(filename: str) -> bool:
    return os.path.dirname(os.path.abspath(filename)) == _PACKAGE_DIR


def caller_stacklevel() -> int:
    """``stacklevel`` that makes a warning point at the first frame outside
    this package, for a ``warnings.warn`` call in the function calling this.
    """
    frame = sys._getframe(1)
    level = 1
    while frame is not None and _in_package(frame.f_code.co_filename):
        frame = frame.f_back
        level += 1
    return level
