"""Shared exception types, and the base of the records that check their fields."""

from __future__ import annotations

from collections import namedtuple


def checked_record(typename: str, field_names: str) -> type:
    """A namedtuple base for a record whose ``__new__`` checks its fields.  The
    namedtuple's own ``_make``, which ``_replace`` calls, skips ``__new__``;
    this one calls the record, so every way of building one checks it."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed its budget.

    Raised instead of silently truncating: a certificate must mean the whole
    space was searched.
    """


class LimitExceeded(BudgetExceeded):
    """A budget refusal on a limit fixed in the code, which no argument raises."""
