"""Exception types shared across the package.

Everything raised on a domain precondition failure derives from AcxError,
so callers (notably the CLI) can separate domain errors from bugs.
"""


class AcxError(Exception):
    """Base class for all domain errors raised by this package."""


class LetterOutOfRange(AcxError):
    """A letter is not a member of the declared alphabet."""


class NonIntegralLength(AcxError):
    """A fractional power whose target length is not an integer."""


class EmptyBase(AcxError):
    """A power or witness construction was asked for an empty word."""


class LengthMismatch(AcxError):
    """Two words that must have equal length do not."""


class AlphabetMismatch(AcxError):
    """Two objects disagree about the alphabet they live over."""


class BadPrefix(AcxError):
    """A seed word does not have the required shape."""


class BadLength(AcxError):
    """A length parameter violates a divisibility or size requirement."""


class ParseError(AcxError):
    """Malformed textual input; the message points at the offending part."""


class NotAPower(AcxError):
    """A word is not a fractional power of its claimed period prefix."""


class ArityMismatch(AcxError):
    """Two polynomials over different numbers of variables."""


class TooManyVariables(AcxError):
    """A dense polynomial operation beyond the configured size cap."""


class VerificationFailed(AcxError):
    """A verification suite clause did not hold; the message names it."""
