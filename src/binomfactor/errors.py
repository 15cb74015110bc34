"""Exception types shared across the package."""


class BinomfactorError(Exception):
    """Base class for all library errors."""


class DomainError(BinomfactorError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class OutOfRangeError(BinomfactorError, ValueError):
    """A query exceeds the range a sieve table was built for.

    Raised instead of silently truncating: a prime count at an argument
    beyond the table limit would be wrong, not approximate.
    """


class NonAlternatingError(BinomfactorError, ValueError):
    """A sign combination does not produce an alternating coefficient
    sequence, so the monotone bracketing argument is unavailable."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"coefficient sequence breaks alternation at n={index}")
