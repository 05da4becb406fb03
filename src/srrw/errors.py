"""Exception types shared across the package."""


class SrrwError(Exception):
    """Base class for all package errors."""


class GraphStructureError(SrrwError):
    """Graph violates a structural requirement (disconnected, self-loop, too small)."""


class InvalidWeightsError(GraphStructureError):
    """Edge weights are missing, non-positive, or asymmetric."""


class ParameterError(SrrwError):
    """A numeric parameter is outside its admissible range."""


class InsufficientDataError(SrrwError):
    """Not enough samples, blocks, or curve coverage to answer the query."""


class FitError(SrrwError):
    """Envelope fitting failed on degenerate tail data."""


class MinorizationError(SrrwError):
    """No strictly positive multi-step transition floor on the mixing profile's curve."""


class StepCapError(SrrwError):
    """A single-walk simulation exceeded its step cap."""


class InfeasibleInputError(SrrwError):
    """Inputs are mutually inconsistent (e.g. target fork rate above the cap)."""


class ConfigError(SrrwError):
    """Experiment configuration is invalid; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
