"""Exception hierarchy shared by all nsplab modules."""


class NsplabError(Exception):
    """Base class for all package errors."""


class ParameterError(NsplabError, ValueError):
    """Invalid argument or configuration value."""


class ConfigError(ParameterError):
    """Config-file parse failure; carries key and line information in the message."""


class EvaluationDomainError(NsplabError, ValueError):
    """A nonlinearity was evaluated outside its domain (e.g. nonpositive base)."""


class IterationError(NsplabError, RuntimeError):
    """An iterative solver failed to converge within its budget."""


class MonotonicityError(IterationError):
    """Bracketing iterates crossed or moved against their direction."""


class VacuumError(NsplabError, RuntimeError):
    """Density dropped below the vacuum guard during a simulation."""


class SimulationAbort(NsplabError, RuntimeError):
    """Time integration aborted; carries the failure time and partial output."""

    def __init__(self, message, t_fail, series=None):
        super().__init__(message)
        self.t_fail = t_fail
        self.series = series


class DegenerateFieldError(NsplabError, ValueError):
    """A ratio diagnostic received a field with a vanishing denominator."""
