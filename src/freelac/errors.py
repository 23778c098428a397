"""Shared exception types."""

from __future__ import annotations


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed its budget.

    Raised instead of silently truncating: a certificate must mean the whole
    space was searched.
    """


class LimitExceeded(BudgetExceeded):
    """A budget refusal on a limit fixed in the code, which no argument raises."""
