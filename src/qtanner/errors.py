"""Exception types shared across the package."""


class QTannerError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(QTannerError):
    """Operands have incompatible bit lengths."""

    def __init__(self, expected: int, got: int, what: str = "vector length"):
        self.expected = expected
        self.got = got
        super().__init__(f"{what} mismatch: expected {expected}, got {got}")


class BudgetError(QTannerError):
    """An exhaustive oracle was asked to run beyond its enumeration budget.

    Raised instead of silently degrading; callers that can fall back to a
    cheaper estimate must do so explicitly.
    """


class GroupAxiomError(QTannerError):
    """A multiplication table violates the group axioms."""


class GeneratingSetError(QTannerError):
    """A generator list is not symmetric or does not generate the group."""


class CommutationError(QTannerError):
    """H_X and H_Z fail to commute; an orientation convention is broken."""


class NotInCodeError(QTannerError):
    """A vector expected to be a codeword is not."""


class LocalCacheError(QTannerError):
    """A local table contradicts the code it was built from: the (c, r)
    sums of the decomposition table miss codewords, or same-class local
    views of the decoder cache overlap."""
