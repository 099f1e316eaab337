"""Exception types shared across the toolkit.

InvalidConfigError and InvalidArgumentError refuse an input (the command line
exits 2); every other SpectralEdgeError is a numeric failure (exit 1).
"""


class SpectralEdgeError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfigError(SpectralEdgeError, ValueError):
    """A configuration object is malformed or inconsistent."""


class InvalidArgumentError(SpectralEdgeError, ValueError):
    """An argument is outside the operation's domain."""


class PoleError(SpectralEdgeError, ValueError):
    """Evaluation requested exactly at a pole of the resolvent sums."""


class SolverFailureError(SpectralEdgeError, RuntimeError):
    """An iterative solver did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class EdgeNotFoundError(SpectralEdgeError, RuntimeError):
    """No admissible critical point of the edge functional was found."""


class DegenerateScalingError(SpectralEdgeError, RuntimeError):
    """The cubic scaling equation has no real positive solution."""

    def __init__(self, message, A=None, B=None):
        super().__init__(message)
        self.A = A
        self.B = B


class NumericError(SpectralEdgeError, RuntimeError):
    """A dense linear-algebra step failed."""
