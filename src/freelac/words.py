"""Reduced words in a free product of cyclic groups.

A word is an alternating sequence of letters a_n^e with adjacent letters from
different factors and exponents in [1, p_n - 1]; the empty sequence is the
identity.  All values are immutable and every operation is pure, so words can
be shared freely between enumeration workers.

``reduce_pairs`` is the one reducer; it works on plain (factor, exp) pairs,
which hot loops use directly.  ``Word`` is the validated type at the API.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .primes import FactorTable

START_PLAIN = "start-plain"
START_INVERSE = "start-inverse"
_CONVENTIONS = (START_PLAIN, START_INVERSE)

_KEY_FMT = struct.Struct(">QQ")


@dataclass(frozen=True)
class Letter:
    """A single generator power a_factor^exp with exp in [1, p-1]."""

    factor: int
    exp: int


@dataclass(frozen=True)
class Word:
    table: FactorTable
    letters: tuple[Letter, ...]

    def __post_init__(self):
        prev = None
        for let in self.letters:
            p = self.table.order(let.factor)
            if not 1 <= let.exp <= p - 1:
                raise ValueError(f"exponent {let.exp} outside [1, {p - 1}] in factor {let.factor}")
            if prev is not None and prev == let.factor:
                raise ValueError(f"word not reduced: adjacent letters in factor {let.factor}")
            prev = let.factor

    def __len__(self) -> int:
        return len(self.letters)


def identity(table: FactorTable) -> Word:
    return Word(table, ())


def letter_word(table: FactorTable, factor: int, exp: int) -> Word:
    """Single-letter word a_factor^exp; exponent reduced mod p, zero gives e."""
    e = exp % table.order(factor)
    if e == 0:
        return Word(table, ())
    return Word(table, (Letter(factor, e),))


def reduce_pairs(orders: Sequence[int], pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
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


def reduce_raw(table: FactorTable, pairs: Iterable[tuple[int, int]]) -> Word:
    """Reduce a raw (factor, exponent) sequence to a normal-form ``Word``."""
    pairs = tuple(pairs)
    for factor, _ in pairs:
        table.order(factor)  # rejects factor indices outside the table
    return Word(table, tuple(Letter(f, e) for f, e in reduce_pairs(table.orders, pairs)))


def multiply(a: Word, b: Word) -> Word:
    if a.table != b.table:
        raise ValueError("words from different factor tables cannot be combined")
    return reduce_raw(a.table, [(l.factor, l.exp) for l in a.letters + b.letters])


def invert(a: Word) -> Word:
    return alternating_product([a], START_INVERSE)


def is_identity(a: Word) -> bool:
    return not a.letters


def alternating_product(
    items: Sequence[Union[Word, Letter]],
    convention: str,
    table: FactorTable | None = None,
) -> Word:
    """Product of the items with exponent signs alternating +1/-1.

    ``start-plain`` applies signs +,-,+,...; ``start-inverse`` applies
    -,+,-,...  Letters are promoted to single-letter words against ``table``
    (or the table of the first Word present).
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {_CONVENTIONS}")
    if not items:
        raise ValueError("alternating product of an empty tuple is undefined")
    if table is None:
        for item in items:
            if isinstance(item, Word):
                table = item.table
                break
        else:
            raise ValueError("a factor table is required when all items are letters")
    raw: list[tuple[int, int]] = []
    start_sign = 1 if convention == START_PLAIN else -1
    for i, item in enumerate(items):
        sign = start_sign if i % 2 == 0 else -start_sign
        if isinstance(item, Word) and item.table != table:
            raise ValueError("words from different factor tables cannot be combined")
        letters = item.letters if isinstance(item, Word) else (item,)
        # an inverse negates the exponents over the reversed letters
        raw.extend((l.factor, sign * l.exp) for l in (letters if sign == 1 else reversed(letters)))
    return reduce_raw(table, raw)


def canonical_key(w: Word) -> bytes:
    """Injective, run-stable serialization of a reduced word.

    Layout: per letter, factor index then exponent, each 8 bytes big-endian;
    the identity maps to the empty string.
    """
    return b"".join(_KEY_FMT.pack(l.factor, l.exp) for l in w.letters)
