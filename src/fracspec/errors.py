"""Exception types that callers need to distinguish from plain ValueError."""


class ConsistencyError(ArithmeticError):
    """Two independent numerical routes disagreed beyond tolerance.

    Raised by kernel-window construction when a weight of the asymptotic
    route differs from the quadrature oracle's by more than the cross-check
    tolerance.  Indicates a bug in a route, not bad user input.
    """


class CsvParseError(ValueError):
    """Malformed CSV input; message carries file:line:column."""
