"""Exception types raised across the toolkit.

Every error carries enough structure (row numbers, column names, cell
descriptions) for a CLI front end to print an actionable message.
"""

from __future__ import annotations


class ConfoundAuditError(Exception):
    """Base class for all toolkit errors."""


# -- cohort ingestion and validation ------------------------------------

class MissingColumn(ConfoundAuditError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required column missing: {name!r}")


class BadValue(ConfoundAuditError):
    def __init__(self, row: int, column: str, value: object = None):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"bad value in column {column!r} on data row {row}: {value!r}")


class DuplicateId(ConfoundAuditError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"duplicate participant id: {record_id!r}")


class TooFewRecords(ConfoundAuditError):
    pass


class MissingValue(ConfoundAuditError):
    """A record lacks a value that a cohort array needs (see ``Cohort.labels``)."""

    what = "value"

    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"record {record_id!r} has no {self.what}")


class MissingLabel(MissingValue):
    what = "label"


class MissingScore(MissingValue):
    what = "score"


class MissingFeatures(MissingValue):
    what = "feature vector"


# -- matching and resampling ---------------------------------------------

class MissingCovariate(ConfoundAuditError):
    def __init__(self, name: str, record_id: str):
        self.name = name
        self.record_id = record_id
        super().__init__(f"record {record_id!r} lacks matching covariate {name!r}")


class EmptyResult(ConfoundAuditError):
    pass


class OverlappingInputs(ConfoundAuditError):
    """Raised when matched train/test construction would reuse participants."""


class InsufficientPool(ConfoundAuditError):
    def __init__(self, cell: str, needed: int, available: int):
        self.cell = cell
        self.needed = needed
        self.available = available
        super().__init__(
            f"pool cannot satisfy cell {cell}: need {needed}, have {available}"
        )


# -- metrics --------------------------------------------------------------

class OneClassOnly(ConfoundAuditError):
    pass


class TooFewSamples(ConfoundAuditError):
    pass


class LabelMismatch(ConfoundAuditError):
    pass


class EmptyGroup(ConfoundAuditError):
    pass


class TooLargeForExact(ConfoundAuditError):
    pass


class NoEligibleStrata(ConfoundAuditError):
    pass


class DegenerateTable(ConfoundAuditError):
    pass


class NotAProbabilityRow(ConfoundAuditError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} is not a probability vector")


class OutOfRange(ConfoundAuditError):
    pass


class EmptyCurve(ConfoundAuditError):
    pass


# -- synthetic cohorts ----------------------------------------------------

class EmptyEnrolment(ConfoundAuditError):
    pass


# -- probes ----------------------------------------------------------------

class NoNegatives(ConfoundAuditError):
    pass


class RankDeficientWarning(UserWarning):
    """Requested more principal components than the data's rank supports."""


# -- baseline classifiers ---------------------------------------------------

class EncodingMismatch(ConfoundAuditError):
    pass


# -- reporting ---------------------------------------------------------------

class ShapeMismatch(ConfoundAuditError):
    pass


class ConfigError(ConfoundAuditError):
    """Invalid run configuration; maps to CLI exit code 2."""

    def __init__(self, key: str, message: str = ""):
        self.key, self.message = key, message
        super().__init__(f"bad configuration key {key!r}" + (f": {message}" if message else ""))
