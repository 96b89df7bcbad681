"""Shared exception types.

The distinction that matters downstream: UsageError means the caller supplied
something invalid (CLI exit code 1), ConsistencyError means the engine caught
itself producing something mathematically impossible (CLI exit code 2). The
rest are ordinary ValueErrors raised close to the offending operation.
"""


class PolmodError(Exception):
    """Base class for package-specific errors."""


class UsageError(PolmodError):
    """Bad user input: syntax errors, out-of-range parameters, unknown names."""


class ConsistencyError(PolmodError):
    """Internal invariant violated (non-integral character, negative
    multiplicity, non-symmetric graded series). Indicates an engine bug, not
    a user mistake."""


class NonHomogeneous(PolmodError):
    """A polynomial expected to be homogeneous has terms of two different
    multidegrees; carries both for the error message."""

    def __init__(self, deg_a, deg_b):
        self.deg_a = tuple(deg_a)
        self.deg_b = tuple(deg_b)
        super().__init__(
            "polynomial is not homogeneous: found multidegrees %s and %s"
            % (self.deg_a, self.deg_b)
        )

    def __reduce__(self):
        # the default rebuilds from self.args, the message alone
        return type(self), (self.deg_a, self.deg_b)


class ZeroPolynomial(PolmodError):
    """The zero polynomial has no multidegree."""


class NotSymmetric(PolmodError):
    """A polynomial expected to be symmetric in its variables is not."""
