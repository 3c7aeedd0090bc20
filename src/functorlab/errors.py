"""Exception hierarchy for the engine.

Every refusal is loud and typed. Computations never silently fall back to a
weaker answer.
"""


class FunctorLabError(Exception):
    """Base class for all engine errors."""


class ConfigurationError(FunctorLabError):
    """Unsupported ring, order, or option combination."""


class HomogeneityError(FunctorLabError):
    """Inhomogeneous input where graded data is required."""


class ContractViolation(FunctorLabError):
    """Caller broke a documented precondition (ambient mismatch, bad matrix)."""


class CapExceeded(FunctorLabError):
    """A resolution or Ext cap was reached without certification."""


class StrategyExhausted(FunctorLabError):
    """No implemented strategy applies; result would be a guess, so refuse."""
