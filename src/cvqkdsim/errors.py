"""Exception types shared across the package."""


class DegenerateFitError(ValueError):
    """Raised when a line fit has no spread in the abscissa."""


class DegenerateDataError(ValueError):
    """Raised when estimation inputs carry no usable signal (e.g. all-zero x)."""


class InfeasiblePulseError(ValueError):
    """Raised when a pulse-shaping request cannot be satisfied."""


class NumericalDomainError(ArithmeticError):
    """Raised when a key-rate intermediate leaves its numerical domain."""


class ConfigError(ValueError):
    """Raised on malformed or out-of-range scenario configuration input."""


class ScenarioStageError(RuntimeError):
    """Raised when a scenario stage fails; names the failing stage."""
