"""Exception types shared across the package."""

from __future__ import annotations


class CayleyGapError(Exception):
    """Base class for all package-specific errors."""


class GroupValidationError(CayleyGapError):
    """A multiplication table violates a group axiom or is malformed."""


class GeneratingSetError(CayleyGapError):
    """A generating set is empty, out of range, asymmetric, or non-generating."""


class SpecParseError(CayleyGapError):
    """A group or generator spec string does not match the grammar."""


class ConvergenceError(CayleyGapError):
    """The eigensolver failed to converge within its round cap."""


class CapExceededError(CayleyGapError):
    """A search or a group construction was requested beyond its size cap.

    Carries a machine-readable reason so reports can record the skip.
    """

    def __init__(self, cap_name: str, limit: int, needed: int):
        self.cap_name = cap_name
        self.limit = limit
        self.needed = needed
        super().__init__(
            f"{cap_name} cap exceeded: problem size {needed} > limit {limit}"
        )

    def __reduce__(self):
        # Exception pickles as type(self)(*self.args), and args holds only
        # the message.
        return type(self), (self.cap_name, self.limit, self.needed)

    @property
    def reason(self) -> str:
        return f"cap:{self.cap_name}={self.limit},needed={self.needed}"


class ElementCapError(CapExceededError):
    """A group construction would exceed the element cap."""
