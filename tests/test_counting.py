"""Counting engines: tuple-count supremum, Leinert search, quasi-independence."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freelac.counting as counting
from freelac import (
    BudgetExceeded,
    FactorSubset,
    FactorTable,
    build_factor_set,
    LeinertWitness,
    START_INVERSE,
    START_PLAIN,
    Word,
    alternating_product,
    canonical_key,
    extract_quasi_independent,
    is_identity,
    is_quasi_independent,
    letter_word,
    leinert_violation,
    reduce_raw,
    verify_pn_bruteforce,
    z_enumerate,
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


LETTER = st.integers(1, len(TABLE)).flatmap(
    lambda f: st.integers(1, TABLE.order(f) - 1).map(lambda e: letter_word(TABLE, f, e))
)
TABLE_WORDS = st.one_of(LETTER, st.randoms(use_true_random=False).map(multi_letter_word))

# factors of orders 5, 11 and 131101, whose letter codes need 18 exponent bits
WIDE = FactorTable.paper_default(16)
WIDE_FACTORS = (1, 2, 16)


@st.composite
def wide_words(draw) -> Word:
    """A reduced word of 1 to 3 letters over the wide factors, adjacent factors distinct."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(st.sampled_from([f for f in WIDE_FACTORS if not pairs or f != pairs[-1][0]]))
        pairs.append((factor, draw(st.integers(1, WIDE.order(factor) - 1))))
    return Word(WIDE, tuple(pairs))


@st.composite
def mixed_ground_sets(draw, min_size: int, max_size: int, words=TABLE_WORDS) -> list:
    """Distinct single-letter and multi-letter words, the identity among them or not."""
    ground = draw(
        st.lists(words, min_size=min_size, max_size=max_size, unique_by=lambda w: w.pairs)
    )
    if draw(st.booleans()):
        ground.insert(draw(st.integers(0, len(ground))), Word(ground[0].table, ()))
    return ground


def half_count(elements, h, offset) -> int:
    """Distinct (product, index set) over the ordered h-tuples at positions offset.."""
    convention = START_INVERSE if offset % 2 == 0 else START_PLAIN
    return len({
        (canonical_key(alternating_product([elements[i] for i in t], convention)), frozenset(t))
        for t in permutations(range(len(elements)), h)
    })


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
        naive = z_enumerate(elements, s, strategy="naive")
        mitm = z_enumerate(elements, s, strategy="meet-in-middle")
        assert naive.value == mitm.value, (trial, s, size)
        assert canonical_key(naive.witness) == canonical_key(mitm.witness)
    # multi-letter elements, where an inverse reverses its letters
    rng = random.Random(47)
    for trial in range(20):
        s = 2 if trial % 2 == 0 else 4
        elements = distinct_words(rng.randrange(s + 1, 9), lambda: multi_letter_word(rng))
        expected = z_oracle(elements, s)
        for strategy in ("naive", "meet-in-middle"):
            cert = z_enumerate(elements, s, strategy=strategy)
            assert (cert.value, canonical_key(cert.witness)) == expected, (trial, strategy)
    # s=6 inside one cyclic factor: -a+b-c = -c+b-a and a-b+c = c-b+a, so
    # every half on either side is reached by two orderings, and
    # tuples_examined counts each merged half once
    for trial in range(4):
        elements = words_in(5, rng.sample(range(1, TABLE.order(5)), 7))
        expected = z_oracle(elements, 6)
        examined = {
            "naive": math.perm(7, 6),
            "meet-in-middle": half_count(elements, 3, 0) * half_count(elements, 3, 3),
        }
        for strategy in ("naive", "meet-in-middle"):
            cert = z_enumerate(elements, 6, strategy=strategy)
            assert (cert.value, canonical_key(cert.witness)) == expected, (trial, strategy)
            assert cert.tuples_examined == examined[strategy], (trial, strategy)


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from(
        [(2, "naive"), (2, "meet-in-middle"), (3, "naive"), (4, "naive"), (4, "meet-in-middle")]
    ),
    st.sampled_from([TABLE_WORDS, wide_words()]),
    st.data(),
)
def test_z_value_matches_oracle_on_mixed_ground_sets(case, words, data):
    s, strategy = case
    elements = data.draw(mixed_ground_sets(s, 7, words))
    expected = z_oracle(elements, s)
    cert = z_value(elements, s, strategy=strategy)
    assert (cert.value, canonical_key(cert.witness)) == expected
    cert = z_enumerate(elements, s, strategy=strategy)
    assert (cert.value, canonical_key(cert.witness)) == expected
    n, h = len(elements), s // 2
    if strategy == "naive":
        assert cert.tuples_examined == math.perm(n, s)
    else:
        assert cert.tuples_examined == half_count(elements, h, 0) * half_count(elements, h, h)


@pytest.mark.parametrize("strategy", ["naive", "meet-in-middle"])
def test_z_value_budget_refusal_comes_before_any_walk(monkeypatch, strategy):
    walks = []
    walk = counting._prefixes

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(counting, "_prefixes", counted)
    elements = words_in(3, range(1, 9))  # 1 + 2 = 3 in Z_17: the closed form does not apply
    for engine in (z_enumerate, z_value):
        walks.clear()
        with pytest.raises(BudgetExceeded):
            engine(elements, 4, budget=10, strategy=strategy)
        assert walks == []
        engine(elements, 4, strategy=strategy)  # the counter does see an allowed count's walks
        assert walks


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
    for engine in (z_value, z_enumerate):
        with pytest.raises(ValueError):
            engine(words_in(1, (1, 1)), 2)  # duplicates
        with pytest.raises(ValueError):
            engine(words_in(1, (1, 2)), 1)
        with pytest.raises(BudgetExceeded):
            engine(words_in(3, range(1, 9)), 2, budget=10)
        with pytest.raises(BudgetExceeded):
            engine(words_in(3, range(1, 9)), 2, budget=10, strategy="meet-in-middle")
        with pytest.raises(ValueError):
            engine(words_in(3, (1, 2, 3)), 3, strategy="meet-in-middle")  # odd split
        # fewer elements than s: the arguments are still checked
        with pytest.raises(ValueError):
            engine(words_in(1, (1, 2)), 4, strategy="bogus")
        with pytest.raises(ValueError):
            engine(words_in(1, (1, 2)), 3, strategy="meet-in-middle")


# factors of orders 5 to 8209, where seeded avoidance walks give pn-clean sets
CLEAN = FactorTable.paper_default(12)
# (factor, walk seed, target size, a stray exponent added to the walk's set or None);
# in factors 6..12, of orders 131 to 8209, an s=4 walk can reach four letters
FACTOR_SPECS = st.lists(
    st.tuples(st.integers(6, 12), st.integers(0, 999), st.integers(2, 6),
              st.none() | st.integers(1, 130)),
    min_size=1, max_size=3, unique_by=lambda spec: spec[0],
)


def spec_union(s, specs, order_seed) -> tuple:
    """(single letters of the specs' factors in a seeded order, whether every set
    is a walk without a stray).  A walk avoids at order s rounded up to even,
    so its set passes pn at order s."""
    elements = []
    for n, seed, size, stray in specs:
        walk = build_factor_set(n, s + s % 2, size, CLEAN.order(n) - 1, CLEAN, random.Random(seed))
        exponents = set(walk.subset.exponents) | ({stray} if stray else set())
        elements += [letter_word(CLEAN, n, e) for e in sorted(exponents)]
    random.Random(order_seed).shuffle(elements)
    return elements, all(stray is None for *_, stray in specs)


@settings(deadline=None, max_examples=250)
@given(st.sampled_from((2, 3, 4)), FACTOR_SPECS, st.integers(0, 99))
@example(6, [(12, 1, 7, None)], 0)  # seven letters of Z_8209: Z_6 = 3!^2 = 36
@example(6, [(10, 3, 6, None), (12, 1, 2, None)], 1)  # a run of six beside two letters
@example(6, [(6, 0, 3, None), (12, 1, 7, None)], 2)  # the lower factor holds too few for a run
@example(6, [(11, 0, 6, 5)], 3)  # the stray 5 breaks pn
def test_closed_form_matches_enumeration_on_pn_clean_unions(s, specs, order_seed):
    elements, clean = spec_union(s, specs, order_seed)
    cert = z_value(elements, s)
    expected = z_enumerate(elements, s)
    assert (cert.value, cert.witness) == (expected.value, expected.witness)
    sizes = Counter(w.pairs[0][0] for w in elements)
    applies = clean and len(elements) >= s and (s == 2 or max(sizes.values()) >= s)
    if applies:
        assert (cert.basis, cert.tuples_examined) == ("pn-closed-form", 0)
    if cert.basis == "enumeration":
        assert cert == expected


def test_closed_form_applies_only_to_pn_clean_single_letters():
    # seeded s=4 walks of factors 5, 9 and 10: only factor 9 holds four letters
    desk = [(5, (14, 18, 20)), (9, (22, 84, 120, 363, 674)), (10, (126, 934, 1190))]
    union = [letter_word(CLEAN, n, e) for n, exponents in desk for e in exponents]
    for s, value in ((2, 1), (3, 2), (4, 4)):
        cert = z_value(union, s)
        assert (cert.basis, cert.value) == ("pn-closed-form", value)
    # a factor that fails pn: 1 + 2 = 3 in Z_17
    failing = words_in(3, (1, 2, 3, 5, 9))
    assert verify_pn_bruteforce(FactorSubset(3, 17, (1, 2, 3, 5, 9)), 4)[0] is False
    # no factor holds s = 4 letters, although each passes pn
    short = [w for w in union if w.pairs[0][0] != 9] + [letter_word(CLEAN, 9, 22)]
    # one element of two letters
    mixed = union + [reduce_raw(CLEAN, [(5, 1), (9, 1)])]
    for elements in (failing, short, mixed):
        cert = z_value(elements, 4)
        assert cert.basis == "enumeration"
        assert cert == z_enumerate(elements, 4)
        assert cert.tuples_examined == math.perm(len(elements), 4)


def test_closed_form_over_budget_falls_back_to_enumeration():
    # four letters of Z_8209 at s=4: the half table holds 81 signed sums, the
    # enumeration 4! = 24 tuples, so a budget between them still answers
    elements = [letter_word(CLEAN, 12, e) for e in (2163, 2714, 4587, 5090)]
    assert z_value(elements, 4, budget=81).basis == "pn-closed-form"
    cert = z_value(elements, 4, budget=80)
    assert (cert.basis, cert.value, cert.tuples_examined) == ("enumeration", 4, 24)
    with pytest.raises(BudgetExceeded, match="24 tuples, budget is 23"):
        z_value(elements, 4, budget=23)


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


def leinert_pattern(s):
    """The first letter-by-letter cancelling tuple over indices 0, 1, 2, for s >= 3."""
    if s % 2:
        return ((0, 1) * ((s - 1) // 2) + (2,)) * 2
    h = s // 2 - 1
    return (0, 1) * h + (0, 2) + (1, 0) * h + (2, 0)


@st.composite
def single_factor_sets(draw) -> tuple:
    """(p, distinct exponents in Z_p); p = 3 divides s = 3."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17)))
    exponents = draw(st.lists(st.integers(1, p - 1), max_size=6, unique=True))
    return p, exponents


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 4), single_factor_sets())
@example(3, (3, [1, 2]))  # two elements close alternating exactly when p | s
def test_leinert_matches_oracle_on_single_factor_sets(s, case):
    p, exponents = case
    table = FactorTable.explicit([p])
    words = [letter_word(table, 1, e) for e in exponents]
    hit = leinert_oracle(words, s)
    fast = leinert_violation(words, s)
    assert (fast is None) == (hit is None)
    if fast is not None:
        expected = hit if s <= 2 or len(words) == 2 else leinert_pattern(s)
        assert list(fast.elements) == [words[i] for i in expected]


def test_leinert_rejects_all_but_single_letters_of_one_factor():
    two_letters = reduce_raw(TABLE, [(1, 1), (2, 3)])
    for words in (
        [letter_word(TABLE, 1, 1), two_letters],
        words_in(1, (1,)) + words_in(2, (1,)),
        [Word(TABLE, ()), letter_word(TABLE, 1, 1)],
    ):
        with pytest.raises(ValueError, match="single letters of one cyclic factor"):
            leinert_violation(words, 2)


def test_leinert_verdict_is_per_factor_once_s_is_3():
    # {a^4, a^8} in Z_11 and {b^9, b^11} in Z_13 are each clean at s=3, since
    # two elements close only when p | s; across factors (a^4, a^8, a^4, b^11,
    # b^9, b^11) multiplies to a^(4-8+4) b^(-11+9-11) = e
    table = FactorTable.explicit([11, 13])
    left = [letter_word(table, 1, e) for e in (4, 8)]
    right = [letter_word(table, 2, e) for e in (9, 11)]
    assert leinert_violation(left, 3) is None
    assert leinert_violation(right, 3) is None
    union = left + right
    hit = leinert_oracle(union, 3)
    assert hit is not None
    assert [union[i] for i in (0, 1, 0, 3, 2, 3)] == [union[i] for i in hit]


def test_leinert_budget_refusal_before_truncation():
    # 8 elements at s=2: the table holds 8 * 7 = 56 differences
    words = words_in(3, range(1, 9))
    with pytest.raises(BudgetExceeded, match="56 entries, budget is 55"):
        leinert_violation(words, 2, budget=55)
    assert leinert_violation(words, 2, budget=56) is not None


def test_leinert_budget_counts_the_witness_entries():
    # from s = 3 a witness is written out whole, so its 2s entries are counted first
    words = words_in(3, (1, 2, 3))
    with pytest.raises(BudgetExceeded, match="witness has 6 entries, budget is 5"):
        leinert_violation(words, 3, budget=5)
    assert len(leinert_violation(words, 3, budget=6).elements) == 6
    # two letters of Z_17 close alternating at s = 17, in 34 entries
    pair = [letter_word(FactorTable.explicit([17]), 1, e) for e in (1, 2)]
    with pytest.raises(BudgetExceeded, match="witness has 34 entries, budget is 33"):
        leinert_violation(pair, 17, budget=33)
    assert len(leinert_violation(pair, 17, budget=34).elements) == 34
    assert leinert_violation(pair, 16, budget=1) is None  # 17 does not divide 16: nothing built


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


def quasi_independent_oracle(exponents: tuple, p: int):
    """The first repeated subset sum mod p in bitmask order, by a dict scan."""
    sums = [0]
    for x in exponents:
        sums.extend([(t + x) % p for t in sums])
    seen: dict[int, int] = {}
    for mask, value in enumerate(sums):
        if value in seen:
            return False, tuple(
                tuple(x for i, x in enumerate(exponents) if m >> i & 1) for m in (mask, seen[value])
            )
        seen[value] = mask
    return True, None


@st.composite
def qi_candidates(draw):
    """A prime order and up to 10 sorted exponents: superincreasing ones dilated by
    a unit (quasi-independent), or arbitrary ones at an order below 2^10 (mostly not)."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([3, 5, 13, 17, 101, 1009, 131101]))
        base, total = [], 0
        for _ in range(draw(st.integers(0, 10))):
            x = total + draw(st.integers(1, 4))
            if total + x >= p:
                break
            base.append(x)
            total += x
        unit = draw(st.integers(1, p - 1))
        return p, tuple(sorted(x * unit % p for x in base))
    p = draw(st.sampled_from([5, 13, 17, 101, 1009]))
    exponents = draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=min(10, p - 1)))
    return p, tuple(sorted(exponents))


@settings(max_examples=300, deadline=None)
@given(qi_candidates())
@example((13, (1, 4, 8)))
@example((17, (1, 2, 4, 8)))
def test_quasi_independent_matches_the_dict_scan_oracle(candidate):
    p, exponents = candidate
    assert is_quasi_independent(FactorSubset(1, p, exponents)) == quasi_independent_oracle(
        exponents, p
    )


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


def test_extract_empty_rejected():
    with pytest.raises(ValueError):
        extract_quasi_independent(FactorSubset(1, 17, ()))
