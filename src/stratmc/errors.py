"""Exception types shared across the package."""


class StratError(Exception):
    """Base class for all stratmc errors."""


class DomainError(StratError, ValueError):
    """A point lies outside the domain an operation is defined on."""


class StencilError(StratError, ValueError):
    """A difference stencil cannot be built from the given nodes."""


class OrderError(StratError, ValueError):
    """A requested derivative or smoothness order is out of range."""


class ResolutionError(StratError, ValueError):
    """The grid does not suit the requested construction: too coarse (k too
    small), or too fine for its whole-grid arrays to be indexed."""


class AlignmentError(StratError, ValueError):
    """Replicate reports do not share a common configuration."""


class IncompleteEvaluationError(StratError, KeyError):
    """A stencil node has no function value attached."""


class OptimizationError(StratError, RuntimeError):
    """Mode search failed to converge; carries the iterate trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class IntegrandError(StratError, ValueError):
    """An integrand broke its contract: (n, s) points in, n finite floats out."""
