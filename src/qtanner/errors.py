"""Exception types shared across the package, and the one rule for
reading a count."""

import numbers


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
    """A local table contradicts the code it was built from: the kernel
    of the local checks has the wrong size (``DualTensorCode.codewords``),
    a local check depends on the others, or same-class local views
    overlap (both found as the decoder cache is built)."""


def whole(value, name: str) -> int:
    """A count as an int: ints, numpy integers and integral floats (2.0
    is 2) pass; a fractional, boolean or non-numeric value is a
    ValueError, never truncated."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        return int(value)
    raise ValueError(f"{name} = {value!r} is not a whole number")
