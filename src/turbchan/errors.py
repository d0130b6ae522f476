"""Exception hierarchy shared across the package.

Domain/configuration problems are ValueErrors so that ordinary call sites can
catch them generically; numerical failures are RuntimeErrors and carry the
best estimate produced before giving up.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A simulation or CLI configuration is inconsistent or under-resolved.

    ``field`` optionally records the dotted path of the offending entry.
    """

    def __init__(self, message, field=None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its tolerance.

    ``best_estimate`` holds the last (unconverged) value, when available.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class SolverError(NumericsError):
    """A nonlinear solve failed to converge or the target is infeasible."""


class EmptySelectionError(ValueError):
    """A postselection rule removed every sample."""
