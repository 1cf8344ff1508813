"""Exception types shared across the workbench.

Every failure the library can signal on valid-looking but unusable input is
one of these; plain ValueError/TypeError are reserved for outright misuse of
an API (wrong type, malformed permutation and the like).
"""
from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyAtomSet(WorkbenchError):
    """An algebra needs at least one atom."""


class LevelOutOfRange(WorkbenchError):
    """An ideal index lies outside 0 .. chain_length-1."""


class MixedAlgebras(WorkbenchError):
    """Two operands belong to different algebras."""


class ChainMismatch(WorkbenchError):
    """Two algebras with different chain lengths were combined."""


class ImproperOrder(WorkbenchError):
    """An atom order violates the nondecreasing-level requirement."""


class ImproperConcatenation(WorkbenchError):
    """Concatenating the level sequences would not be nondecreasing."""


class SizeMismatch(WorkbenchError):
    """Operand atom counts are incompatible."""


class LevelOverlap(WorkbenchError):
    """The left operand's levels must stay strictly below the right's."""


class NotInClass(WorkbenchError):
    """An algebra is not a member of the requested class."""


class NotAnEmbedding(WorkbenchError):
    """A block map fails the embedding conditions."""


class AmalgamationFailed(WorkbenchError):
    """No amalgam was found; signals a bug or a genuine counterexample."""


class BoundExceeded(WorkbenchError):
    """A request exceeds a work budget: witness atoms, chain points or output."""


class VerificationFailed(WorkbenchError):
    """A constructed object failed its independent re-check."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ParseError(WorkbenchError):
    """Malformed JSON input; the message names the offending field."""


class SerializationError(WorkbenchError):
    """A value cannot be rendered in the canonical JSON dialect."""
