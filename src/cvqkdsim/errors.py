"""Exception types that a caller tells apart from the built-ins they extend."""


class InfeasiblePulseError(ValueError):
    """Raised when a pulse-shaping request cannot be satisfied."""


class ConfigError(ValueError):
    """Raised on malformed or out-of-range scenario configuration input."""


class ScenarioStageError(RuntimeError):
    """Raised when a scenario stage fails; names the failing stage."""
