"""Exception types shared across the package."""


class TrineError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(TrineError):
    """Raised when a mixed graph violates its structural invariants
    (loops, duplicate edges, a directed and an undirected edge between
    the same pair) or when a graph file cannot be parsed."""


class MaxStepsExceeded(TrineError):
    """Raised when a trajectory does not reach its mirror state within
    the configured step bound.  Finiteness guarantees the mirror exists,
    so this always means the bound was too small for the orbit."""

    def __init__(self, steps: int, start: str):
        super().__init__(f"no mirror state within {steps} steps from start {start!r}")
        self.steps = steps
        self.start = start

    def __reduce__(self):
        return type(self), (self.steps, self.start)


class DegenerateRun(TrineError):
    """Raised when an operation that needs a proper mirror trajectory
    (period > 2) receives a degenerate one."""


class DimensionMismatch(TrineError):
    """Raised when a table operation receives tables of different width."""


class IncompatibleTables(TrineError):
    """Raised when resolution tables cannot be merged because a row of
    one appears under a different sub-table label of another, or because
    the two hold different sub-tables.

    Carries the offending evidence: (row, owner_tag, other_tag, target),
    row None when table ``owner`` holds sub-table ``owner_target`` and
    table ``other`` sub-table ``target``.
    """

    def __init__(self, row, owner, other, target, owner_target=None):
        super().__init__(
            f"row {row} of table {owner} appears in sub-table {target} of table {other}"
            if row is not None else
            f"table {owner} ({owner_target}) and table {other} ({target}) "
            f"hold different sub-tables"
        )
        self.row = row
        self.owner = owner
        self.other = other
        self.target = target
        self.owner_target = owner_target

    def __reduce__(self):
        return type(self), (self.row, self.owner, self.other, self.target, self.owner_target)


class UnconfiguredStepTable(TrineError):
    """Raised by the inductive table builder when no new-column step
    table hypothesis was supplied."""


class UnverifiedRuns(TrineError):
    """Raised when row extraction finds no run pair that passes the
    configured invariant level."""


class RtParseError(TrineError):
    """Raised when a resolution-table file cannot be parsed."""
