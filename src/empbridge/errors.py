"""Exception taxonomy shared across the package: one root per exit code.

``DomainError`` (a ValueError) is the root of every error that means the
input is wrong; the CLI exits 2 on it, and otherwise only on an OSError.
``CapacityError`` and ``NumericError`` (RuntimeErrors) mean a budget or a
tolerance could not be met, not that the input was wrong; the CLI exits 3 on
them (and on a MemoryError), and a replication that raises one is counted as
failed rather than ending the run. Any other exception, a ValueError that
numpy raises included, is a bug: the CLI lets it end the run in a traceback.

A subclass of ``DomainError`` exists only where a caller tells it apart:
``ConfigError`` names the config field at fault and the config reader
passes it on unwrapped; the entropy run skips the brackets of a class that
raises ``UnsupportedOperationError``; the acceptance gate tells a
``ScheduleInvalidError`` from other domain errors; and the tests tell a
fit's ``DegenerateFitError`` (data with nothing to fit) from its other
domain errors, which the entropy run records alike as its fit's error.
"""


class DomainError(ValueError):
    """The input lies outside the domain of the operation (exit 2)."""


class ConfigError(DomainError):
    """The experiment configuration is malformed or unresolvable."""


class ScheduleInvalidError(DomainError):
    """A blocking-schedule constraint is violated."""


class DegenerateFitError(DomainError):
    """A regression has no information to fit (constant or collapsed data)."""


class UnsupportedOperationError(DomainError):
    """The operation is not defined for this class kind."""


class CapacityError(RuntimeError):
    """A configured resource budget would be exceeded; names the budget (exit 3)."""


class NumericError(RuntimeError):
    """Quadrature or linear algebra failed to reach its tolerance (exit 3)."""
