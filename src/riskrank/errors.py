"""Shared exception types."""


class RiskRankError(Exception):
    """Base class for domain and data errors raised by this package; ``kind``
    names the class in the CLI's ``error: <kind>:`` line."""

    kind = "invalid"


class SchemaError(RiskRankError):
    """Malformed input file; carries the offending path and line number."""

    kind = "schema"

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class NoCapacityError(RiskRankError):
    """Target node has no incoming mass to build a capacity from."""

    kind = "no-capacity"


class DegenerateFitError(RiskRankError):
    """Logistic fit is impossible, e.g. single-class training data."""

    kind = "degenerate-fit"


class StructuralDriftError(RiskRankError):
    """Snapshot series does not share a single network structure."""

    kind = "structural-drift"
