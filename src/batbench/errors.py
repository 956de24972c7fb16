"""Exception taxonomy shared across the toolkit.

Every exception carries a plain human-readable message; callers that need
structured context (row numbers, column names) find it in the message text.
"""


class BatBenchError(Exception):
    """Base class for all toolkit errors."""


class InputError(BatBenchError):
    """The user's input (table, flags or config) is at fault; the CLI exits 2."""


# -- dataset ----------------------------------------------------------------

class SchemaError(InputError):
    """CSV header does not match the expected column set."""


class ParseError(InputError):
    """A cell could not be parsed as a number; message names row and column."""


class EmptyDataError(InputError):
    """No data rows remain after cleaning."""


class UnknownColumnError(BatBenchError):
    """Requested column is neither a feature nor the target."""


class EmptyIndexSetError(BatBenchError):
    """An operation was given an empty row-index set."""


class DimensionMismatchError(BatBenchError):
    """Matrix width does not match what the operation was fitted for."""


class DegenerateSplitError(InputError):
    """Holdout split would leave the train or validation side empty."""


# -- models -----------------------------------------------------------------

class ConfigError(InputError):
    """A run setting or hyperparameter of the wrong type or out of range."""


class KTooLargeError(BatBenchError):
    """KNN neighbor count exceeds the number of training rows."""


class EmptyTrainingSetError(BatBenchError):
    """fit() called with zero training rows."""


class SingularSystemError(BatBenchError):
    """Direct linear solve failed numerically."""


class ConstantTargetError(BatBenchError):
    """Target vector is constant where a spread is required."""


class NotConvergedWarning(UserWarning):
    """Optimizer hit its iteration cap; the best iterate is still returned."""


# -- evaluation -------------------------------------------------------------

class LengthMismatchError(BatBenchError):
    """Paired vectors have different lengths."""


class EmptyVectorsError(BatBenchError):
    """Metric called on zero-length vectors."""


class BadKError(InputError):
    """Fold count outside 2 <= k <= n."""


class AllModelsFailedError(BatBenchError):
    """Every model in a benchmark run errored."""


# -- importance -------------------------------------------------------------

class UnsupportedFamilyError(BatBenchError):
    """Operation requires a tree-based model family."""
