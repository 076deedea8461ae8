"""Exception hierarchy shared across the library.

The CLI maps these onto its exit-code contract: input-format problems
(ParseError, DuplicateName, UnresolvedReference) exit with 2, every other
precondition violation with 3.
"""

from __future__ import annotations


class FlowHomError(Exception):
    """Base class for all library errors."""


class CycleError(FlowHomError):
    """An order relation whose transitive closure would contain a cycle."""


class UnknownLabel(FlowHomError):
    """A label that does not belong to the structure being queried."""


class NotComparable(FlowHomError):
    """A chain-length query on a pair that is not strictly comparable."""


class LoopError(FlowHomError):
    """A flow presentation whose generator graph contains a directed cycle."""


class NonParallelRelation(FlowHomError):
    """A word relation whose two sides do not share source and target."""


class UnknownState(FlowHomError):
    """A state that does not belong to the flow being queried."""


class UnknownSimplex(FlowHomError):
    """A simplex that does not belong to the index complex being queried."""


class NotAnArrow(FlowHomError):
    """A pair of simplices that is not an arrow of the index category."""


class CyclicCategory(FlowHomError):
    """A category whose arrows admit a composite returning to its source."""


class DegreeOutOfRange(FlowHomError):
    """A homology degree outside the graded range of a chain complex."""


class EmbeddingInvalid(FlowHomError):
    """A ball embedding violating order preservation or multiplicativity."""


class ParseError(FlowHomError):
    """A document text error, carrying the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class DuplicateName(ParseError):
    """Two blocks of the same kind sharing a name, or two lines of one
    block giving the same key (a ``send`` source, a ``map`` point or a
    ``path`` pair)."""


class UnresolvedReference(ParseError):
    """A block referring to a name that no earlier block defines."""
