"""Exception hierarchy for the FANNet reproduction.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid configuration value or inconsistent option combination."""


class ShapeError(ReproError):
    """Tensor/layer shape mismatch in the neural-network stack."""


class DataError(ReproError):
    """Malformed or inconsistent dataset."""


class IncompleteCampaignError(DataError):
    """A batch merge found task results missing from the output directory.

    ``missing`` maps each affected job name to the sorted list of task
    identities with no recorded result — exactly what ``fannet batch
    status`` reports and what ``fannet batch run --resume`` re-executes.
    """

    def __init__(self, message: str, missing: dict[str, list[str]] | None = None):
        super().__init__(message)
        self.missing = missing or {}


class SmvSyntaxError(ReproError):
    """Lexical or grammatical error in an SMV source text."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SmvTypeError(ReproError):
    """Type error found while checking an SMV module."""


class ModelCheckingError(ReproError):
    """Failure inside a model-checking engine."""


class StateSpaceLimitError(ModelCheckingError):
    """Explicit-state exploration exceeded its configured state budget."""


class SatError(ReproError):
    """Malformed CNF or misuse of the SAT solver API."""


class SmtError(ReproError):
    """Malformed constraint system or misuse of the SMT layer."""


class VerificationError(ReproError):
    """Failure inside a neural-network verification engine."""


class BudgetExceededError(ReproError):
    """A solver or analysis exceeded its node/time budget."""

    def __init__(self, message: str, budget: int | float | None = None):
        super().__init__(message)
        self.budget = budget
