"""Group laws and canonical serialization for reduced words."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelac import (
    FactorTable,
    START_INVERSE,
    START_PLAIN,
    Word,
    alternating_product,
    canonical_key,
    identity,
    invert,
    is_identity,
    letter_word,
    multiply,
    reduce_raw,
)
from freelac.words import reduce_pairs

TABLE = FactorTable.paper_default(5)

# raw letters over factors of order 5, 11 and 17, so adjacent same-factor
# letters and exponents that vanish mod p are common; negatives included
RAW = st.lists(st.tuples(st.integers(1, 3), st.integers(-40, 40)), max_size=12)


def random_word(rng: random.Random, max_len: int = 6) -> Word:
    pairs = []
    for _ in range(rng.randrange(max_len + 1)):
        factor = rng.randrange(1, len(TABLE) + 1)
        exp = rng.randrange(1, TABLE.order(factor))
        pairs.append((factor, exp))
    return reduce_raw(TABLE, pairs)


def test_reduce_examples():
    # 2 + 3 = 0 mod 5
    assert is_identity(reduce_raw(TABLE, [(1, 2), (1, 3)]))
    # second factor cancels: 1 + 10 = 0 mod 11
    w = reduce_raw(TABLE, [(1, 1), (2, 1), (2, 10)])
    assert w.pairs == ((1, 1),)
    # already reduced stays put
    w = reduce_raw(TABLE, [(1, 1), (2, 3), (1, 4)])
    assert w.pairs == ((1, 1), (2, 3), (1, 4))


def test_reduce_cascading_cancellation():
    # middle cancellation exposes the outer letters, which then merge
    w = reduce_raw(TABLE, [(1, 2), (2, 5), (2, 6), (1, 3)])
    assert is_identity(w)


def test_reduce_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng)
        assert reduce_raw(TABLE, w.pairs) == w


def test_group_laws():
    rng = random.Random(11)
    e = identity(TABLE)
    for _ in range(200):
        a, b, c = (random_word(rng) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(e, a) == a
        assert multiply(a, e) == a
        assert is_identity(multiply(a, invert(a)))
        assert is_identity(multiply(invert(a), a))
        assert invert(invert(a)) == a


def test_invert_example():
    # -2 = 3 mod 5
    w = letter_word(TABLE, 1, 2)
    assert invert(w).pairs == ((1, 3),)


def test_mixed_tables_rejected():
    other = FactorTable.paper_default(3)
    with pytest.raises(ValueError):
        multiply(letter_word(TABLE, 1, 1), letter_word(other, 1, 1))


def test_word_invariants_enforced():
    with pytest.raises(ValueError):
        Word(TABLE, ((1, 0),))
    with pytest.raises(ValueError):
        Word(TABLE, ((1, 5),))  # exponents stay below the order
    with pytest.raises(ValueError):
        Word(TABLE, ((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        Word(TABLE, ((9, 1),))
    # the reducer indexes the order table, so reduce_raw checks factors first
    for factor in (0, -1, 6):
        with pytest.raises(ValueError):
            reduce_raw(TABLE, [(1, 1), (factor, 1)])


def slow_reduce(raw) -> tuple:
    """Reference normal form: drop zero letters and merge one adjacent
    same-factor pair at a time until neither applies."""
    letters = [(f, e % TABLE.order(f)) for f, e in raw]
    while True:
        letters = [(f, e) for f, e in letters if e]
        for i in range(len(letters) - 1):
            if letters[i][0] == letters[i + 1][0]:
                f = letters[i][0]
                letters[i : i + 2] = [(f, (letters[i][1] + letters[i + 1][1]) % TABLE.order(f))]
                break
        else:
            return tuple(letters)


@settings(deadline=None)
@given(RAW)
def test_reduce_pairs_matches_reduce_raw_and_slow_fixpoint(raw):
    pairs = reduce_pairs(TABLE.orders, raw)
    assert pairs == reduce_raw(TABLE, raw).pairs
    assert pairs == slow_reduce(raw)


@settings(deadline=None)
@given(st.lists(RAW, max_size=20))
def test_pair_tuples_sort_like_canonical_keys(raws):
    words = [reduce_raw(TABLE, raw) for raw in raws]
    by_pairs = sorted(words, key=lambda w: w.pairs)
    assert [canonical_key(w) for w in by_pairs] == sorted(canonical_key(w) for w in words)


def test_alternating_product_examples():
    # exponents 1 - 3 + 4 - 2 = 0 in Z_17
    letters = [letter_word(TABLE, 3, e) for e in (1, 3, 4, 2)]
    assert is_identity(alternating_product(letters, START_PLAIN))
    # -1 + 2 = 1 in Z_5
    w = alternating_product([letter_word(TABLE, 1, 1), letter_word(TABLE, 1, 2)], START_INVERSE)
    assert w.pairs == ((1, 1),)
    # singleton stays put
    x = letter_word(TABLE, 2, 7)
    assert alternating_product([x], START_PLAIN) == x
    assert alternating_product([x], START_INVERSE) == invert(x)


def test_alternating_conventions_related_by_inversion():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.choice([2, 4, 6])
        tup = [random_word(rng, 3) for _ in range(n)]
        if any(is_identity(w) for w in tup):
            continue
        plain = alternating_product(tup, START_PLAIN)
        # inverting the product equals the plain product of the reversed tuple
        assert invert(plain) == alternating_product(list(reversed(tup)), START_PLAIN)
        assert alternating_product(tup, START_INVERSE) == invert(
            alternating_product(list(reversed(tup)), START_INVERSE)
        )


def test_alternating_product_empty_rejected():
    with pytest.raises(ValueError):
        alternating_product([], START_PLAIN)


def test_canonical_key_layout():
    assert canonical_key(identity(TABLE)) == b""
    w = letter_word(TABLE, 1, 2)
    assert canonical_key(w) == (1).to_bytes(8, "big") + (2).to_bytes(8, "big")
    assert canonical_key(letter_word(TABLE, 1, 2)) != canonical_key(letter_word(TABLE, 2, 1))


def test_canonical_key_injective():
    rng = random.Random(17)
    seen: dict[bytes, Word] = {}
    for _ in range(500):
        w = random_word(rng)
        k = canonical_key(w)
        if k in seen:
            assert seen[k] == w
        seen[k] = w
    # adversarial near-duplicates: same letters, different split
    a = reduce_raw(TABLE, [(1, 1), (2, 3)])
    b = reduce_raw(TABLE, [(1, 1), (2, 4)])
    c = reduce_raw(TABLE, [(2, 1), (1, 3)])
    keys = {canonical_key(a), canonical_key(b), canonical_key(c)}
    assert len(keys) == 3
