"""Semantic exception hierarchy, and the field checks of the config types.

Every failure mode the library promises to detect gets its own class so
callers can branch without string matching; its ``exit_code`` is the exit
status of the command-line program (1 malformed configuration or input, 2
solver failure, the default, 3 certificate failure).
A config value (`solver.SolverConfig`, `cli.RunConfig`, `cli.TargetConfig`)
of the wrong type is a FormatError, one of the right type out of its range
an InvalidParameterError.  The messages name the field, not its source.
"""

import math
import numbers

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CERTIFICATE = 3


class DiracMfpError(Exception):
    """Base class for all library errors."""

    exit_code = EXIT_SOLVER


class InvalidParameterError(DiracMfpError, ValueError):
    """A numeric argument is outside its admissible range."""

    exit_code = EXIT_CONFIG


class UnsupportedParameterError(DiracMfpError, ValueError):
    """The request is well formed but deliberately not served (e.g. the
    power-law value prefactor at the critical exponent theta = 2)."""

    exit_code = EXIT_CONFIG


class FormatError(DiracMfpError, ValueError):
    """A file or table does not match the documented layout."""

    exit_code = EXIT_CONFIG


class DegenerateStateError(DiracMfpError, RuntimeError):
    """A flow field lost strict monotonicity (slope below the floor), or
    its Newton matrix is not positive definite."""


class NewtonDivergenceError(DiracMfpError, RuntimeError):
    """The damped Newton iteration hit its cap without meeting tolerance."""


class CrossingCharacteristicsError(DiracMfpError, RuntimeError):
    """The value extension detected crossing characteristics."""


class CompatibilityError(DiracMfpError, RuntimeError):
    """A terminal density failed the power-growth compatibility check in
    strict mode."""

    exit_code = EXIT_CERTIFICATE


def check_type(name: str, value, kind, what: str) -> None:
    """A bool passes only where ``kind`` is bool: it is not a number."""
    if (isinstance(value, bool) != (kind is bool)
            or not isinstance(value, kind)):
        raise FormatError(f"{name} must be {what}, got {value!r}")


def check_number(name: str, value, positive: bool = False) -> None:
    """A finite real number (an int is one), and above zero if ``positive``."""
    check_type(name, value, numbers.Real, "a number")
    if not math.isfinite(value) or (positive and not value > 0.0):
        raise InvalidParameterError(
            f"{name} must be a {'positive' if positive else 'finite'}"
            f" number, got {value!r}")


def check_int(name: str, value, minimum: int) -> None:
    check_type(name, value, numbers.Integral, "an integer")
    if value < minimum:
        raise InvalidParameterError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def check_fit_window(window) -> tuple[float, float]:
    """A fit window ``[lo, hi]`` in t with 0 < lo < hi, as two floats."""
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise FormatError(f"fit_window must be [lo, hi], got {window!r}")
    for v in window:
        check_number("fit_window", v)
    if not 0.0 < window[0] < window[1]:
        raise InvalidParameterError(f"fit window must satisfy "
                                    f"0 < lo < hi, got {list(window)}")
    return float(window[0]), float(window[1])
