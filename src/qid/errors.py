"""Exception types shared across the engine."""


class QidError(Exception):
    """Base class for all engine errors."""


class NotInvertibleError(QidError):
    """Raised when a series has no nonzero coefficient in its window."""


class TruncationError(QidError):
    """Raised when a coefficient beyond the truncation order is requested."""


class ThetaVanishesError(QidError):
    """Raised when j(z;q^base) is identically zero for the given argument."""


class NonGenericParameterError(QidError):
    """Raised when an Appell-Lerch summand denominator vanishes identically."""


class WindowUnstableError(QidError):
    """Raised when the bilateral Appell-Lerch summation window is not stable:
    a summand just outside it still reaches the truncation order."""


class UnsupportedEtaIndexError(QidError):
    """Raised when a parametrization is requested for an f_k outside {1,2,3,4,6,12}."""


class ParseError(QidError):
    """DSL syntax error carrying position and the expected-token set."""

    def __init__(self, message, line, column, expected=()):
        super().__init__(f"{message} at line {line}, column {column}"
                         + (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
