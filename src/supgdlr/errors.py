"""Exception types shared across the package."""

__all__ = ["SupgDlrError", "ConfigError", "RankLossError",
           "NearSingularError", "BlowupError", "SolverError"]


class SupgDlrError(Exception):
    """Base class for all package errors."""


class ConfigError(SupgDlrError):
    """Invalid or inconsistent configuration."""


class RankLossError(SupgDlrError):
    """Orthonormalization or factorization detected rank deficiency.

    Carries the numerical rank found so the caller can retry with a
    smaller rank if desired.
    """

    def __init__(self, message, numerical_rank):
        super().__init__(message)
        self.numerical_rank = numerical_rank


class NearSingularError(SupgDlrError):
    """A small linear system is too ill-conditioned to trust."""

    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = condition


class BlowupError(SupgDlrError):
    """Time integration produced non-finite or exploding norms."""

    def __init__(self, message, step_index):
        super().__init__(message)
        self.step_index = step_index


class SolverError(SupgDlrError):
    """A solver failed numerically: an iterative solver did not
    converge, or a linear solve returned non-finite values."""
