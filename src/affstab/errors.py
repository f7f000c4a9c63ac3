"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed circuit text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CapacityError(RuntimeError):
    """A request exceeds a hard width or enumeration limit."""


class ClassificationError(ValueError):
    """A circuit does not belong to the class an operation requires."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a defect in the package, not the input."""
