"""Exception types shared across the package, and the two helpers its
messages use: ``require_int`` for integer arguments and ``int_str``.

Every error raised deliberately by this library derives from TreeDensityError,
so callers can catch one base class, with one exception: the readers of a
``frontier.ParetoDP`` (``min_count``, ``vector`` and ``witness``) raise
``KeyError(n)`` for a size n outside the levels built, as a mapping does.
The CLI maps each exit code onto one class: 1 for ConsistencyError (a failed
internal consistency check), 2 for PreconditionError (bad input; a
ParseError is one), 3 for BudgetError (a refused budget). Its exit 4, for
I/O failures, comes from OSError.
"""

from __future__ import annotations

__all__ = [
    "TreeDensityError",
    "ParseError",
    "PreconditionError",
    "BudgetError",
    "ConsistencyError",
]


class TreeDensityError(Exception):
    """Base class for all errors raised by treedensity."""


class PreconditionError(TreeDensityError, ValueError):
    """An argument violated a documented precondition."""


class ParseError(PreconditionError):
    """Malformed tree text. Carries the byte offset of the first bad character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def require_int(value, minimum: int, what: str) -> None:
    """Raise PreconditionError unless ``value`` is an int >= ``minimum``."""
    if not isinstance(value, int) or value < minimum:
        raise PreconditionError(f"{what} must be an integer >= {minimum}, got {value!r}")


def int_str(n: int) -> str:
    """str(n) at any size: str() refuses an int of more digits than
    sys.get_int_max_str_digits(), 4300 by default, and Decimal does not."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # here, so that importing cli loads no decimal

        return str(Decimal(n))


class BudgetError(TreeDensityError, RuntimeError):
    """Work was refused because it would exceed a configured resource cap.

    The message always names the quantity that tripped the cap so the caller
    can decide whether to raise the cap and retry.
    """


class ConsistencyError(TreeDensityError, RuntimeError):
    """Two independent computations of the same quantity disagreed.

    The message names the quantity and both values. Unlike ``assert``, the
    check survives ``python -O``.
    """
