"""Counting engines: tuple-count supremum, Leinert search, quasi-independence."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import permutations, product

import pytest

from freelac import (
    BudgetExceeded,
    FactorSubset,
    FactorTable,
    LeinertWitness,
    START_INVERSE,
    START_PLAIN,
    alternating_product,
    canonical_key,
    extract_quasi_independent,
    is_identity,
    is_quasi_independent,
    letter_word,
    leinert_violation,
    reduce_raw,
    z_value,
    zs_paper_target,
)

TABLE = FactorTable.paper_default(6)


def words_in(factor: int, exponents) -> list:
    return [letter_word(TABLE, factor, e) for e in exponents]


def distinct_words(size: int, draw) -> list:
    """``size`` pairwise-distinct words from repeated calls of ``draw``."""
    elements, seen = [], set()
    while len(elements) < size:
        w = draw()
        if canonical_key(w) not in seen:
            seen.add(canonical_key(w))
            elements.append(w)
    return elements


def multi_letter_word(rng: random.Random):
    """A reduced word of 1 to 3 letters alternating over the factors of order 5 and 11."""
    letters = []
    factor = rng.choice((1, 2))
    for _ in range(rng.randint(1, 3)):
        letters.append((factor, rng.randrange(1, TABLE.order(factor))))
        factor = 3 - factor
    return reduce_raw(TABLE, letters)


def z_oracle(elements, s) -> tuple:
    """(value, least witness key) from alternating_product and canonical_key per tuple."""
    counts = Counter(
        canonical_key(alternating_product([elements[i] for i in t], START_INVERSE))
        for t in permutations(range(len(elements)), s)
    )
    value = max(counts.values())
    return value, min(k for k, c in counts.items() if c == value)


def leinert_oracle(words, s):
    """First adjacent-distinct index tuple whose start-plain product is e: a full
    product scan without pruning."""
    for tup in product(range(len(words)), repeat=2 * s):
        if any(tup[i] == tup[i + 1] for i in range(2 * s - 1)):
            continue
        if is_identity(alternating_product([words[i] for i in tup], START_PLAIN)):
            return tup
    return None


def test_zs_paper_target():
    assert zs_paper_target(2) == (1, 2)
    assert zs_paper_target(4) == (4, 24)
    assert zs_paper_target(6) == (36, 720)
    with pytest.raises(ValueError):
        zs_paper_target(3)
    with pytest.raises(ValueError):
        zs_paper_target(0)


def test_z_value_examples():
    # {a, a^2} in Z_5: the two ordered pairs give distinct quotients
    cert = z_value(words_in(1, (1, 2)), 2)
    assert cert.value == 1
    # {a, a^2, a^3} in Z_17: difference 1 is hit by (1,2) and (2,3)
    elements = words_in(3, (1, 2, 3))
    cert = z_value(elements, 2)
    assert cert.value == 2
    assert cert.witness is not None
    # exactly value pairwise-distinct s-tuples multiply to the witness
    hits = [
        t for t in permutations(elements, 2)
        if alternating_product(t, "start-inverse") == cert.witness
    ]
    assert len(hits) == cert.value
    # a single element admits no pairwise-distinct pair
    cert = z_value(words_in(1, (1,)), 2)
    assert cert.value == 0 and cert.witness is None


def test_z_value_strategies_agree_on_random_ground_sets():
    rng = random.Random(31)
    for trial in range(50):
        s = 2 if trial % 2 == 0 else 4
        size = rng.randrange(s + 1, 13)

        def draw():
            factor = rng.randrange(1, len(TABLE) + 1)
            return letter_word(TABLE, factor, rng.randrange(1, TABLE.order(factor)))

        elements = distinct_words(size, draw)
        naive = z_value(elements, s, strategy="naive")
        mitm = z_value(elements, s, strategy="meet-in-middle")
        assert naive.value == mitm.value, (trial, s, size)
        assert canonical_key(naive.witness) == canonical_key(mitm.witness)
    # multi-letter elements, where an inverse reverses its letters
    rng = random.Random(47)
    for trial in range(20):
        s = 2 if trial % 2 == 0 else 4
        elements = distinct_words(rng.randrange(s + 1, 9), lambda: multi_letter_word(rng))
        expected = z_oracle(elements, s)
        for strategy in ("naive", "meet-in-middle"):
            cert = z_value(elements, s, strategy=strategy)
            assert (cert.value, canonical_key(cert.witness)) == expected, (trial, strategy)


def test_z_value_translation_invariance_within_one_factor():
    rng = random.Random(37)
    p = TABLE.order(5)  # 67
    for _ in range(10):
        base = rng.sample(range(1, p), 6)
        shift = rng.randrange(1, p)
        shifted = [(e + shift) % p for e in base]
        if any(e == 0 for e in shifted):
            continue
        for s in (2, 4):
            a = z_value(words_in(5, base), s).value
            b = z_value(words_in(5, shifted), s).value
            assert a == b


def test_z_value_input_validation():
    with pytest.raises(ValueError):
        z_value(words_in(1, (1, 1)), 2)  # duplicates
    with pytest.raises(ValueError):
        z_value(words_in(1, (1, 2)), 1)
    with pytest.raises(BudgetExceeded):
        z_value(words_in(3, range(1, 9)), 2, budget=10)
    with pytest.raises(BudgetExceeded):
        z_value(words_in(3, range(1, 9)), 2, budget=10, strategy="meet-in-middle")
    with pytest.raises(ValueError):
        z_value(words_in(3, (1, 2, 3)), 3, strategy="meet-in-middle")  # odd split
    # fewer elements than s: the arguments are still checked
    with pytest.raises(ValueError):
        z_value(words_in(1, (1, 2)), 4, strategy="bogus")
    with pytest.raises(ValueError):
        z_value(words_in(1, (1, 2)), 3, strategy="meet-in-middle")


def test_leinert_witness_example():
    words = words_in(3, (1, 2, 3, 4))
    witness = leinert_violation(words, 2)
    assert witness is not None
    # first in lexicographic order: exponents (1, 2, 3, 2), since 1-2+3-2 = 0
    assert [w.pairs for w in witness.elements] == [((3, e),) for e in (1, 2, 3, 2)]
    # the tuple (a, a^3, a^4, a^2) is a violation as well: 1-3+4-2 = 0
    LeinertWitness(2, tuple(words_in(3, (1, 3, 4, 2))))


def test_leinert_witness_validation():
    with pytest.raises(ValueError):
        LeinertWitness(2, tuple(words_in(3, (1, 1, 3, 2))))  # adjacent repeat
    with pytest.raises(ValueError):
        LeinertWitness(2, tuple(words_in(3, (1, 2, 3, 4))))  # product not identity
    with pytest.raises(ValueError):
        LeinertWitness(2, tuple(words_in(3, (1, 2, 3))))  # wrong length


def test_leinert_none_for_distinct_pair():
    assert leinert_violation(words_in(1, (1, 2)), 1) is None


def test_leinert_matches_slow_enumerator_on_tiny_sets():
    rng = random.Random(41)
    grounds = []
    for _ in range(25):
        factor = rng.choice([3, 4])
        p = TABLE.order(factor)
        size = rng.randrange(2, 6)
        exponents = rng.sample(range(1, p), size)
        grounds.append(words_in(factor, exponents))
    # multi-letter elements, where an inverse reverses its letters
    for _ in range(15):
        grounds.append(distinct_words(rng.randrange(2, 6), lambda: multi_letter_word(rng)))
    # random words rarely cancel; conjugates b a^e and b a^e b^5 of one factor do
    for tail in ([], [(2, 5)]):
        grounds.append([reduce_raw(TABLE, [(2, 3), (1, e)] + tail) for e in (1, 2, 3, 4)])
    for words in grounds:
        for s in (1, 2):
            slow_hit = leinert_oracle(words, s)
            fast = leinert_violation(words, s)
            assert (fast is None) == (slow_hit is None), (words, s)
            if fast is not None:
                assert [canonical_key(w) for w in fast.elements] == [
                    canonical_key(words[i]) for i in slow_hit
                ]


def test_leinert_budget_refusal_before_truncation():
    words = words_in(3, range(1, 9))
    with pytest.raises(BudgetExceeded):
        leinert_violation(words, 4, budget=100)


def test_built_factor_sets_have_no_weight4_violation(desk2_family):
    for result in desk2_family.results[:2]:
        words = result.subset.words(desk2_family.table)
        assert leinert_violation(words, desk2_family.s) is None


def test_quasi_independent_examples():
    assert is_quasi_independent(FactorSubset(1, 17, (1, 2, 4, 8))) == (True, None)
    ok, collision = is_quasi_independent(FactorSubset(1, 13, (1, 4, 8)))
    assert not ok
    assert collision == ((1, 4, 8), ())  # 1 + 4 + 8 = 13 = 0
    ok, collision = is_quasi_independent(FactorSubset(1, 17, (1, 2, 3)))
    assert not ok
    assert collision == ((3,), (1, 2))


def test_quasi_independent_budget():
    subset = FactorSubset(1, 10007, tuple(range(1, 26)))
    with pytest.raises(BudgetExceeded):
        is_quasi_independent(subset, budget_bits=10)


def test_extract_examples():
    witness = extract_quasi_independent(FactorSubset(1, 1009, tuple(range(1, 10))))
    assert witness.subset == (1, 2, 4, 8)
    assert witness.maximal
    witness = extract_quasi_independent(FactorSubset(1, 17, (1,)))
    assert witness.subset == (1,)
    witness = extract_quasi_independent(FactorSubset(1, 17, (1, 2, 3)))
    assert witness.subset == (1, 2)  # 3 = 1 + 2 collides


def test_extract_maximal_and_log3_bound_on_random_sets():
    rng = random.Random(43)
    for _ in range(40):
        p = 10007
        size = rng.randrange(1, 82)
        exponents = tuple(sorted(rng.sample(range(1, p), size)))
        subset = FactorSubset(1, p, exponents)
        witness = extract_quasi_independent(subset)
        assert witness.maximal
        floor_bound = math.ceil(math.log(size, 3)) if size > 1 else 1
        assert len(witness.subset) >= floor_bound
        extracted = FactorSubset(1, p, witness.subset)
        assert is_quasi_independent(extracted)[0]
        for x in exponents:
            if x in witness.subset:
                continue
            grown = FactorSubset(1, p, tuple(sorted(witness.subset + (x,))))
            assert not is_quasi_independent(grown)[0]


def test_extract_digest_is_deterministic():
    subset = FactorSubset(1, 1009, tuple(range(1, 10)))
    a = extract_quasi_independent(subset)
    b = extract_quasi_independent(subset)
    assert a.table_digest == b.table_digest
    assert len(a.table_digest) == 64


def test_extract_empty_rejected():
    with pytest.raises(ValueError):
        extract_quasi_independent(FactorSubset(1, 17, ()))
