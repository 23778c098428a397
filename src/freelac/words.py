"""Reduced words in a free product of cyclic groups.

A word is an alternating sequence of letters a_n^e with adjacent letters from
different factors and exponents in [1, p_n - 1]; the empty sequence is the
identity.  All values are immutable and every operation is pure, so words can
be shared freely between enumeration workers.

A word is its tuple of (factor, exp) pairs.  ``reduce_pairs`` is the one
reducer of raw sequences and ``inverse_pairs`` the one inverse; the Z_s
engine in ``counting`` walks the same reduced pair tuples and joins two of
them at their junction only.  ``Word`` adds the factor table and validates
its pairs.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from .errors import checked_record
from .primes import FactorTable

START_PLAIN = "start-plain"
START_INVERSE = "start-inverse"
_CONVENTIONS = (START_PLAIN, START_INVERSE)

_KEY_FMT = struct.Struct(">QQ")

Pairs = tuple[tuple[int, int], ...]  # letters a_factor^exp as (factor, exp) pairs


class Word(checked_record("Word", "table pairs")):
    """A reduced word: its (factor, exp) pairs over the factors of ``table``."""

    __slots__ = ()

    def __new__(cls, table: FactorTable, pairs: Pairs):
        prev = None
        for factor, exp in pairs:
            p = table.order(factor)
            if not 1 <= exp <= p - 1:
                raise ValueError(f"exponent {exp} outside [1, {p - 1}] in factor {factor}")
            if prev is not None and prev == factor:
                raise ValueError(f"word not reduced: adjacent letters in factor {factor}")
            prev = factor
        return tuple.__new__(cls, (table, pairs))

    def __len__(self) -> int:
        return len(self.pairs)


def letter_word(table: FactorTable, factor: int, exp: int) -> Word:
    """Single-letter word a_factor^exp; exponent reduced mod p, zero gives e."""
    e = exp % table.order(factor)
    if e == 0:
        return Word(table, ())
    return Word(table, ((factor, e),))


def reduce_pairs(orders: Sequence[int], pairs: Iterable[tuple[int, int]]) -> Pairs:
    """Normal form of a raw (factor, exponent) sequence, as (factor, exp) pairs.

    Factor n has order ``orders[n - 1]``; the caller keeps every index in range.
    Adjacent same-factor letters merge by adding exponents mod p_n and
    zero-exponent letters drop; the stack reaches the fixpoint in one pass.
    Reduced pair tuples sort like the ``canonical_key`` bytes of their words.
    """
    stack: list[tuple[int, int]] = []
    for factor, exp in pairs:
        p = orders[factor - 1]
        e = exp % p
        if stack and stack[-1][0] == factor:
            merged = (stack[-1][1] + e) % p
            if merged == 0:
                stack.pop()
            else:
                stack[-1] = (factor, merged)
        elif e != 0:
            stack.append((factor, e))
    return tuple(stack)


def inverse_pairs(pairs: Pairs) -> Pairs:
    """Raw pairs of the inverse: the exponents negated over the reversed letters."""
    return tuple((factor, -exp) for factor, exp in reversed(pairs))


def reduce_raw(table: FactorTable, pairs: Iterable[tuple[int, int]]) -> Word:
    """Reduce a raw (factor, exponent) sequence to a normal-form ``Word``."""
    pairs = tuple(pairs)
    for factor, _ in pairs:
        table.order(factor)  # rejects factor indices outside the table
    return Word(table, reduce_pairs(table.orders, pairs))


def multiply(a: Word, b: Word) -> Word:
    if a.table != b.table:
        raise ValueError("words from different factor tables cannot be combined")
    return reduce_raw(a.table, a.pairs + b.pairs)


def is_identity(a: Word) -> bool:
    return not a.pairs


def alternating_product(items: Sequence[Word], convention: str) -> Word:
    """Product of the words with exponent signs alternating +1/-1.

    ``start-plain`` applies signs +,-,+,...; ``start-inverse`` applies
    -,+,-,...  Every word must share the table of the first.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {_CONVENTIONS}")
    if not items:
        raise ValueError("alternating product of an empty tuple is undefined")
    table = items[0].table
    plain_parity = 0 if convention == START_PLAIN else 1
    raw: list[tuple[int, int]] = []
    for i, w in enumerate(items):
        if w.table != table:
            raise ValueError("words from different factor tables cannot be combined")
        raw.extend(w.pairs if i % 2 == plain_parity else inverse_pairs(w.pairs))
    return reduce_raw(table, raw)


def canonical_key(w: Word) -> bytes:
    """Injective, run-stable serialization of a reduced word.

    Layout: per letter, factor index then exponent, each 8 bytes big-endian;
    the identity maps to the empty string.
    """
    return b"".join(_KEY_FMT.pack(factor, exp) for factor, exp in w.pairs)
