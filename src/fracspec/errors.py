"""Exception types that callers need to distinguish from plain ValueError."""


class ConsistencyError(ArithmeticError):
    """Two independent numerical routes disagreed beyond tolerance.

    Raised by kernel-window construction when a weight from one route
    differs from its oracle by more than the cross-check tolerance: the
    quadrature route against the hypergeometric series, or the asymptotic
    route against quadrature.  Indicates a special-function bug, not bad
    user input.
    """


class CsvParseError(ValueError):
    """Malformed CSV input; message carries file:line:column."""


class ConvergenceError(RuntimeError):
    """An iterative series or scheme failed to converge within its cap."""
