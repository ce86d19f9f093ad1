"""Semantic exception hierarchy.

Every failure mode the library promises to detect gets its own class so
callers (and the CLI exit-code mapping) can branch without string matching.
"""


class DiracMfpError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(DiracMfpError, ValueError):
    """A numeric argument is outside its admissible range."""


class UnsupportedParameterError(DiracMfpError, ValueError):
    """The request is well formed but deliberately not served (e.g. the
    power-law value prefactor at the critical exponent theta = 2)."""


class FormatError(DiracMfpError, ValueError):
    """A file or table does not match the documented layout."""


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
