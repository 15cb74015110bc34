"""Exception types shared across the package."""


class BinomfactorError(Exception):
    """Base class for all library errors."""


class DomainError(BinomfactorError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class OutOfRangeError(BinomfactorError, ValueError):
    """An argument passes a budget or the range a sieve table was built for.

    Raised instead of silently truncating, which past a table's limit gives a
    wrong prime count, or running past a budget's time or memory.
    """


class NonAlternatingError(BinomfactorError, ValueError):
    """A sign combination does not produce an alternating coefficient
    sequence, so the monotone bracketing argument is unavailable."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"coefficient sequence breaks alternation at n={index}")
