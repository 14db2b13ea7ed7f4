"""Exception hierarchy and warning categories.

Every error carries an ``exit_code`` used by the command line interface, so
that each failure class maps to a stable, documented process exit status.
"""
import os
import sys

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
