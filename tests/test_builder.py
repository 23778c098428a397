"""Builder checks: ledger levels exact against brute-force enumeration,
greedy choice, certificates, and family construction."""

from __future__ import annotations

import hashlib
import json
import math
import random
import tracemalloc
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freelac import builder
from freelac import (
    BudgetExceeded,
    FactorSubset,
    FactorTable,
    ForbiddenStrata,
    PROFILES,
    build_factor_set,
    build_family,
    choose_next,
    epsilon_vector_count,
    extract_quasi_independent,
    is_quasi_independent,
    smallest_admissible_prime,
    strata_extend,
    verify_pn_bruteforce,
)
from ledger import all_strata_search, levels_of, residues

TABLE = FactorTable.paper_default(10)
DATA = Path(__file__).parent / "data"


def enumerate_sums_by_weight(exponents, p, s):
    """Oracle: the set of weight-w combination sums for each w <= 2s,
    coefficients limited to 0, +-1, +-2."""
    by_weight = {w: set() for w in range(2 * s + 1)}
    for eps in product((-2, -1, 0, 1, 2), repeat=len(exponents)):
        w = sum(abs(e) for e in eps)
        if w <= 2 * s:
            by_weight[w].add(sum(e * g for e, g in zip(eps, exponents)) % p)
    return by_weight


def vectors_up_to(n_elements, weight):
    """Vectors over {0, +-1, +-2}^N of weight at most ``weight``, the zero
    vector included: the coefficients of (1 + 2x + 2x^2)^N up to x^weight."""
    coefficients = [1]
    for _ in range(n_elements):
        grown = [0] * (len(coefficients) + 2)
        for k, c in enumerate(coefficients):
            grown[k] += c
            grown[k + 1] += 2 * c
            grown[k + 2] += 2 * c
        coefficients = grown
    return sum(coefficients[: weight + 1])


def strata_from(exponents, p, s):
    strata = ForbiddenStrata.empty(p, s)
    for g in exponents:
        strata = strata_extend(strata, g)
    return strata


def test_strata_single_element():
    strata = strata_from([1], 17, 2)
    assert residues(strata.bits[0]) == {0}
    assert residues(strata.bits[1]) == {0, 1, 16}
    assert residues(strata.bits[2]) == {0, 1, 2, 15, 16}
    # one element admits no weight-3 or weight-4 combination
    assert residues(strata.bits[3]) == {0, 1, 2, 15, 16}
    assert residues(strata.bits[4]) == {0, 1, 2, 15, 16}
    assert residues(strata.forbidden) == {0, 1, 2, 15, 16}


def test_strata_two_elements_contains_mixed_sums():
    strata = strata_from([1, 2], 17, 2)
    assert 3 in residues(strata.bits[2])  # 1 + 2
    assert 14 in residues(strata.bits[2])  # -1 - 2


def test_strata_duplicate_element_flags_degenerate_relation():
    strata = strata_from([5, 5], 17, 2)
    # at weights 3 and 4 the repeated 5 adds +-15 and +-20
    assert list(map(residues, strata.bits)) == [
        {0},
        {0, 5, 12},
        {0, 5, 7, 10, 12},
        {0, 2, 5, 7, 10, 12, 15},  # +-3 * 5 = +-15
        {0, 2, 3, 5, 7, 10, 12, 14, 15},  # +-4 * 5 = +-20 = +-3
    ]
    assert list(map(residues, strata.bits)) == levels_of(enumerate_sums_by_weight([5, 5], 17, 2))
    # up to weight 2 it reaches nothing new, since +5 - 5 vanishes; the builder
    # never admits it, as 5 lies in level 1 of {5}
    assert strata.bits[:3] == strata_from([5], 17, 2).bits[:3]


def test_strata_match_enumeration_exactly():
    rng = random.Random(23)
    for _ in range(30):
        p = rng.choice([17, 37, 67])
        s = rng.choice([2, 4])
        size = rng.randrange(1, 5)
        exponents = rng.sample(range(1, p), size)
        strata = strata_from(exponents, p, s)
        levels = levels_of(enumerate_sums_by_weight(exponents, p, s))
        for w in range(2 * s + 1):
            assert residues(strata.bits[w]) == levels[w], (exponents, p, s, w)


@st.composite
def chains(draw, max_size=4, primes=(17, 67, 131, 257, 521, 1031)):
    """An order p and up to ``max_size`` exponents mod p, biased towards the
    values where a sum or the doubling 2g wraps mod p: 1, p-1 and (p+-1)/2."""
    p = draw(st.sampled_from(primes))
    edge = st.sampled_from([1, p - 1, (p - 1) // 2, (p + 1) // 2])
    exponent = st.one_of(edge, st.integers(1, p - 1))
    return p, draw(st.lists(exponent, min_size=1, max_size=max_size))


@settings(deadline=None)
@given(chains(), st.sampled_from([2, 4]))
def test_bitset_strata_match_enumeration(chain, s):
    p, exponents = chain
    strata = strata_from(exponents, p, s)
    oracle = enumerate_sums_by_weight(exponents, p, s)
    assert list(map(residues, strata.bits)) == levels_of(oracle)
    assert all(lower & ~upper == 0 for lower, upper in zip(strata.bits, strata.bits[1:]))
    assert residues(strata.forbidden) == set().union(*oracle.values())
    # no level outgrows p bits: a narrow window keeps 2 * offset + 1 <= p, a wider one folds
    assert all(level.bit_length() <= p for level in strata.sums)
    edges = (1, p - 1, (p - 1) // 2, (p + 1) // 2)
    after = builder.forbidden_after(strata)
    extended = [strata_extend(strata, g) for g in edges]
    assert [after(g) for g in edges] == [(e.sums[-1], e.offset) for e in extended]


@settings(deadline=None)
@given(chains(), st.sampled_from([2, 4]), st.integers(0, 2000), st.integers(0, 2**32))
def test_choose_next_matches_a_plain_set_scan(chain, s, pool_bound, seed):
    p, exponents = chain
    prefix = exponents[:-1]  # random prefixes, the empty one included
    forbidden = set().union(*enumerate_sums_by_weight(prefix, p, s).values())
    used = frozenset(prefix)
    admissible = [
        g
        for g in range(1, min(pool_bound, p - 1) + 1)
        if g not in forbidden and (2 * g) % p not in forbidden and g not in used
    ]
    strata = strata_from(prefix, p, s)
    assert choose_next(strata, pool_bound, used) == (admissible[0] if admissible else None)
    expected = random.Random(seed).choice(admissible) if admissible else None
    assert choose_next(strata, pool_bound, used, rng=random.Random(seed)) == expected


@st.composite
def scan_cases(draw):
    """(p, top level, the residue set it holds, start, stop) for the scans.

    The top level is a random chain's ledger, with the residue set its
    enumerated strata reach, or every residue set, or none; p = 131,101 is
    the desk s=2 n=16 order.  The window is biased towards the ends callers
    pass, stop == p for a pool of [1, p - 1], and towards starts above p/2,
    whose doubles 2g - p are odd; start >= stop is drawn too.
    """
    p, exponents = draw(chains(primes=(17, 521, 1031, 131101)))
    kind = draw(st.sampled_from(["chain", "all set", "all clear"]))
    if kind == "all set":
        forbidden, reached = (1 << p) - 1, set(range(p))
    elif kind == "all clear":
        forbidden, reached = 0, set()
    else:
        s = draw(st.sampled_from([2, 4]))
        forbidden = strata_from(exponents, p, s).forbidden
        reached = set().union(*enumerate_sums_by_weight(exponents, p, s).values())
    start = draw(st.one_of(st.integers(1, p + 1), st.sampled_from([(p + 1) // 2, p - 1, p])))
    stop = draw(st.one_of(st.just(p), st.integers(1, p)))
    return p, forbidden, reached, start, stop


# at p = 17 after exponent 1, the top level is {0, +-1, +-2}: from 9 up, 9 is
# clear but 2 * 9 - 17 = 1 is not, so the probe moves on to 10 (20 - 17 = 3);
# from 1 the first clear residue is 3, which a stop of 3 leaves out
@settings(deadline=None)
@example(case=(17, strata_from([1], 17, 2).forbidden, {0, 1, 2, 15, 16}, 1, 3))
@example(case=(17, strata_from([1], 17, 2).forbidden, {0, 1, 2, 15, 16}, 9, 17))
@example(case=(17, strata_from([1], 17, 2).forbidden, {0, 1, 2, 15, 16}, 15, 17))
@example(case=(17, strata_from([1], 17, 2).forbidden, {0, 1, 2, 15, 16}, 5, 5))
@given(scan_cases())
def test_first_admissible_matches_the_digit_scan_and_a_set_scan(case):
    p, forbidden, reached, start, stop = case
    expected = next(
        (g for g in range(start, stop) if g not in reached and 2 * g % p not in reached), None
    )
    assert builder._first_admissible(forbidden, p, start, stop) == expected
    assert next(builder._admissible(forbidden, p, start, stop), None) == expected


@st.composite
def probe_cases(draw):
    """(p, s, exponents, start, stop) for the probe on the stored sums.

    p runs from 11 to the desk s=2 n=16 order 131,101.  Exponents are drawn
    small enough to keep the window [-offset, offset] narrower than p, near
    p/2, where 2g - p is a small sum of either sign, or anywhere in
    [1, p - 1], where the window soon passes p and the probe reads the fold.
    """
    p = draw(st.sampled_from((11, 17, 23, 257, 521, 8209, 131101)))
    s = draw(st.sampled_from([2, 4]))
    small = st.integers(1, max(1, (p - 1) // (4 * s)))
    near_half = st.integers(max(1, p // 2 - 3), min(p - 1, p // 2 + 4))
    exponents = draw(st.lists(small | near_half | st.integers(1, p - 1), max_size=5))
    start = draw(st.integers(1, p - 1))
    stop = draw(st.integers(start + 1, p))
    return p, s, exponents, start, stop


DESK2_N16 = (1, 3, 9, 23, 39, 67, 117, 169, 241, 351, 451, 539, 667, 815, 959, 1181)


# 2 * offset = 16 = p - 1 keeps the stored sums and 2 * offset = 24 = p + 1
# folds them; the desk s=2 n=16 chain keeps a 9,449-bit window at p = 131,101;
# the doubles 2g - p of 65,549..65,552 are -3, -1, 1 and 3, sums of {1, 3} on
# both sides of 0
@settings(deadline=None)
@example(case=(17, 2, [2], 1, 17))
@example(case=(23, 2, [3], 1, 23))
@example(case=(131101, 2, list(DESK2_N16), 1182, 65537))
@example(case=(131101, 2, [1, 3], 65549, 65560))
@example(case=(11, 2, [1], 9, 11))  # 9 - 11 = -2 is a sum
@example(case=(11, 2, [1], 5, 11))  # 2 * 5 - 11 = -1 is a sum
@given(probe_cases())
def test_probe_on_stored_sums_matches_the_folded_probe(case):
    p, s, exponents, start, stop = case
    strata = strata_from(exponents, p, s)
    expected = builder._first_admissible(strata.forbidden, p, start, stop)
    assert next(builder._admissible(strata.forbidden, p, start, stop), None) == expected
    forbidden, offset = builder._window(strata.sums[-1], strata.offset, p)
    assert (forbidden, offset) == (
        (strata.sums[-1], strata.offset) if 2 * strata.offset < p else (strata.forbidden, 0)
    )
    assert builder._first_admissible(forbidden, p, start, stop, offset) == expected


def test_strata_negation_closure_and_count_bounds(desk2_family):
    assert vectors_up_to(7, 4) == 1 + epsilon_vector_count(7, 2)
    for result in desk2_family.results[:3]:
        p = result.p
        strata = ForbiddenStrata.empty(p, 2)
        previous = strata.bits
        for i, g in enumerate(result.chosen):
            strata = strata_extend(strata, g)
            if i < 6:
                oracle = enumerate_sums_by_weight(result.chosen[: i + 1], p, 2)
                assert list(map(residues, strata.bits)) == levels_of(oracle)
            for w, level in enumerate(strata.bits):
                assert residues(level) == {(-r) % p for r in residues(level)}
                # a level only grows, level by level and admission by admission
                assert previous[w] & ~level == 0
                assert w == 0 or strata.bits[w - 1] & ~level == 0
                # at most one residue per vector of weight <= w, the zero vector's 0 included
                assert level.bit_count() <= min(p, vectors_up_to(i + 1, w))
            previous = strata.bits


def test_format_1_forbidden_traces_count_residues_with_repeats_across_weights():
    # a format-1 trace entry counts, before each admission, the residues of each
    # exact weight w <= 2s summed over w, so a residue reached at two weights
    # counts twice; checked on every prefix of at most 6 exponents
    checked = 0
    for name in ("desk2-v1.json", "desk4-n10-v1.json"):
        payload = json.loads((DATA / name).read_text())["payload"]
        for factor in payload["factors"]:
            for k, entry in enumerate(factor["forbidden_trace"][:7]):
                oracle = enumerate_sums_by_weight(factor["chosen"][:k], factor["p"], payload["s"])
                assert entry == sum(map(len, oracle.values())), (name, factor["n"], k)
                checked += 1
    assert checked == 80


def test_choose_next_from_empty():
    strata = ForbiddenStrata.empty(17, 2)
    assert choose_next(strata, 4) == 1


def test_choose_next_after_one_element():
    strata = strata_extend(ForbiddenStrata.empty(17, 2), 1)
    # forbidden: {0, 1, 2, 15, 16}; 3 escapes and so does its double 6
    assert choose_next(strata, 16) == 3


def test_choose_next_probes_past_used_exponents():
    strata = strata_extend(ForbiddenStrata.empty(17, 2), 1)
    # 3 is the first admissible exponent, then 4 (8 is clear), 5 (10) and 6 (12)
    assert choose_next(strata, 16, {3}) == 4
    assert choose_next(strata, 16, {1, 3, 4, 5}) == 6
    assert choose_next(strata, 4, {3, 4}) is None


def test_choose_next_exhausted():
    strata = strata_extend(ForbiddenStrata.empty(17, 2), 1)
    assert choose_next(strata, 1) is None


def test_choose_next_random_mode_is_admissible_and_seeded():
    strata = strata_extend(ForbiddenStrata.empty(17, 2), 1)
    forbidden = residues(strata.forbidden)
    picks = set()
    for seed in range(10):
        g = choose_next(strata, 16, rng=random.Random(seed))
        assert g is not None
        assert g not in forbidden and (2 * g) % 17 not in forbidden
        picks.add(g)
        assert choose_next(strata, 16, rng=random.Random(seed)) == g
    assert len(picks) > 1


def test_build_two_elements():
    result = build_factor_set(3, 2, 2, 8, TABLE)
    assert result.feasible
    assert result.subset.exponents == (1, 3)
    assert result.chosen == (1, 3)
    # forbidden residues seen before each admission, replayed over chosen:
    # {0}, then {0, +-1, +-2}
    strata, trace = ForbiddenStrata.empty(result.p, 2), []
    for g in result.chosen:
        trace.append(residues(strata.forbidden))
        strata = strata_extend(strata, g)
    assert trace == [{0}, {0, 1, 2, 15, 16}]
    assert [len(forbidden) for forbidden in trace] == [1, 5]


def test_build_target_exceeding_pool_is_infeasible_with_partial():
    result = build_factor_set(3, 2, 9, 8, TABLE)
    assert not result.feasible
    assert 0 < len(result.subset.exponents) < 9
    assert len(result.chosen) == len(result.subset.exponents)
    ok, _ = verify_pn_bruteforce(result.subset, 2)
    assert ok


def test_build_n10_passes_bruteforce():
    result = build_factor_set(10, 2, 10, 1024, TABLE)
    assert result.feasible
    assert result.p == 2053
    ok, witness = verify_pn_bruteforce(result.subset, 2)
    assert ok and witness is None


def test_budget_bound_search_is_pinned():
    # the desk s=2 n=7 tree (p = 257, target 7) stops at exactly 5,000 nodes,
    # so a change in the order the search visits it shows up here first
    result = build_factor_set(7, 2, 7, 128, TABLE)
    assert (result.nodes_searched, result.search_exhausted) == (5000, False)
    assert result.chosen == (1, 3, 9, 23, 39, 67)
    # the desk s=2 targets 4..6 fit under the property count but not under
    # the strict count (57 > 37, 99 > 67, 153 > 131), so those factors walk
    family = build_family(2, (4, 7), "desk")
    assert [(r.n, r.nodes_searched, r.search_exhausted) for r in family.results] == [
        (4, 3, True),
        (5, 3, True),
        (6, 5, True),
        (7, 5000, False),
    ]
    assert [r.chosen for r in family.results] == [
        (1, 3, 9), (1, 3, 9), (1, 3, 9, 23, 39), (1, 3, 9, 23, 39, 67)
    ]
    # target 4 at p = 67 fits under both counts; with pool [1, 8] the search
    # visits its whole tree without a 4-set, keeping its first 3-set
    result = build_factor_set(5, 2, 4, 8, TABLE)
    assert (result.nodes_searched, result.search_exhausted) == (33, True)
    assert result.chosen == (5, 7, 8)


def test_desk4_search_records_are_pinned(desk4_family):
    # the desk s=4 orders 521 .. 8,209: the strict count rules out n=8's
    # target (633 > 521), so it walks the greedy path to a dead end in 5
    # nodes; every other factor takes its first candidate at each of its 6
    assert (builder.half_table_size(6, 4), builder.strict_table_size(6, 4)) == (473, 633)
    records = [(r.n, r.chosen, r.nodes_searched, r.search_exhausted) for r in desk4_family.results]
    assert records == [
        (8, (1, 3, 9, 27, 81), 5, True),
        (9, (1, 3, 9, 27, 81, 239), 6, True),
        (10, (1, 3, 9, 27, 81, 239), 6, True),
        (11, (1, 3, 9, 27, 81, 239), 6, True),
        (12, (1, 3, 9, 27, 81, 239), 6, True),
    ]


def test_search_memory_stays_near_its_levels():
    # n=16, p = 131,101: the deterministic search holds each open node's
    # levels, 5 integers of p bits.  It once wrote each node's top level out
    # as three p-character strings, which every open candidate generator kept
    # alive: 42.9 bytes per residue at the peak, against 9.4 when the search
    # probes the integer for its next exponent
    table = FactorTable.paper_default(16)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = build_factor_set(16, 2, 16, 2**16, table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.feasible
    assert peak < 16 * table.order(16), f"{peak / table.order(16):.1f} bytes per residue"


# a budget that refuses the 47th node, the exponent that would complete the
# set, keeps the 7-element prefix and marks the search cut short; desk s=2
# n=4's target fits under the property count (33 <= 37) but not under the
# strict count (57 > 37), so the builder and the oracle both walk it in 3
# nodes instead of searching 212
PINNED_SEARCHES = {
    (8, 2, 8, 256, 46, None): (46, False, (1, 3, 9, 23, 39, 67, 117)),
    (4, 2, 4, 16, 300, None): (3, True, (1, 3, 9)),
}


@settings(deadline=None)
@example(n=8, s=2, target=8, pool=256, budget=46, seed=None)
@example(n=4, s=2, target=4, pool=16, budget=300, seed=None)
@given(
    n=st.integers(1, 8),
    s=st.sampled_from([2, 4]),
    target=st.integers(2, 8),
    pool=st.integers(1, 520),
    budget=st.integers(1, 300),
    seed=st.none() | st.integers(0, 2**32),
)
def test_search_matches_the_all_strata_reference(n, s, target, pool, budget, seed):
    # p = 5 .. 521; the pool is folded into [1, p - 1]
    pool = 1 + (pool - 1) % (TABLE.order(n) - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builder, "DEFAULT_SEARCH_BUDGET", budget)
        rng = None if seed is None else random.Random(seed)
        result = build_factor_set(n, s, target, pool, TABLE, rng)
        rng = None if seed is None else random.Random(seed)
        expected = all_strata_search(n, s, target, pool, TABLE, rng)
    got = (result.nodes_searched, result.search_exhausted, result.chosen)
    assert got == expected
    assert PINNED_SEARCHES.get((n, s, target, pool, budget, seed), got) == got


@pytest.mark.parametrize(
    "s, chosen",
    [
        (2, [(1, 3), (1, 3, 9), (1, 3, 9), (1, 3, 9, 23, 39), (1, 3, 9, 23, 39, 67),
             (1, 3, 9, 23, 39, 67, 117)]),
        (4, [(1, 3), (1, 3, 9), (1, 3, 9), (1, 3, 9, 27), (1, 3, 9, 27, 81),
             (1, 3, 9, 27, 81)]),
    ],
)
def test_paper_targets_the_count_rules_out_walk_the_greedy_path(s, chosen):
    # every n^2 target has C > p, so each factor takes its smallest admissible
    # exponent until none is left: one node per admission, ending at a dead end
    family = build_family(s, (3, 8), "paper")
    for result in family.results:
        assert builder.half_table_size(result.target_size, s) > result.p
        assert (result.nodes_searched, result.search_exhausted) == (len(result.chosen), True)
        assert result.chosen == tuple(sorted(result.chosen))
    assert [r.chosen for r in family.results] == chosen


# sha256 of json.dumps([[n, nodes_searched, search_exhausted, list(chosen)], ...])
# over each family's factors, as the search wrote them before the count rule:
# the property count rules out none of the unseeded targets, and a seeded
# build walked already, so that rule left every record as it was.  The strict
# count rules out desk s=4's n=8 target, whose record went from a search cut
# at 5,000 nodes to a 5-node walk with the same exponents; no other changed
SEARCH_RECORD_SHA256 = {
    (2, "desk", None): "7107993283f7051e0c8debf619442e9dc61857dd8b637af757d36921c747c756",
    (4, "desk", None): "e340341b8fa4cdd16750b758e94ed77176a376f0c510296727f2a6464220769b",
    (2, "tiny", None): "f83e6b774634e11998687656751bf01ff7b880489f70e17ab9ef9459316e2dbd",
    (4, "tiny", None): "f83e6b774634e11998687656751bf01ff7b880489f70e17ab9ef9459316e2dbd",
    (2, "paper", 7): "5c08693c7c45fdb0b44d204818c73629763b627fb5cfed12b117f4c566204c67",
}


@pytest.mark.parametrize("s, profile, seed", list(SEARCH_RECORD_SHA256))
def test_searches_the_count_does_not_settle_are_unchanged(s, profile, seed):
    family = build_family(s, PROFILES[profile].n_range(s), profile, seed=seed)
    if seed is None:
        assert all(builder.half_table_size(r.target_size, s) <= r.p for r in family.results)
    records = [[r.n, r.nodes_searched, r.search_exhausted, list(r.chosen)] for r in family.results]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == SEARCH_RECORD_SHA256[s, profile, seed]


def test_build_pool_larger_than_order_rejected():
    with pytest.raises(ValueError):
        build_factor_set(1, 2, 2, 5, TABLE)


def test_backtracking_recovers_where_greedy_stalls():
    # at p = 521 with pool [1, 256] the plain greedy path stops at 7 elements;
    # the deterministic search must still reach 8
    result = build_factor_set(8, 2, 8, 256, TABLE)
    assert result.feasible
    assert result.subset.exponents == (1, 3, 9, 23, 39, 73, 125, 153)
    ok, _ = verify_pn_bruteforce(result.subset, 2)
    assert ok


def test_verify_pn_examples():
    assert verify_pn_bruteforce(FactorSubset(3, 17, (1, 5)), 2) == (True, None)
    ok, witness = verify_pn_bruteforce(FactorSubset(3, 17, (1, 2)), 2)
    assert not ok
    assert witness.entries == (2, -1)  # 2*1 - 2 = 0
    assert sum(map(abs, witness.entries)) == 3
    assert verify_pn_bruteforce(FactorSubset(1, 5, (1,)), 2) == (True, None)


ODD_PRIMES_BELOW_400 = [
    p for p in range(3, 400, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))
]
# the desk s=2 orders of factors 10 and 12
DESK_PRIMES = [2053, 8209]


@st.composite
def exponent_sets(draw):
    """An odd prime p, either below 400 (where violations are common) or a desk
    order, and 1 to 8 distinct exponents mod p, sorted."""
    p = draw(st.sampled_from(ODD_PRIMES_BELOW_400) | st.sampled_from(DESK_PRIMES))
    size = min(8, p - 1)
    exponents = draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=size, unique=True))
    return p, tuple(sorted(exponents))


def cube(n, values):
    """Every vector of length n with entries from ``values``, one per row."""
    grids = np.meshgrid(*[np.array(values, dtype=np.int64)] * n, indexing="ij")
    return np.stack([grid.ravel() for grid in grids], axis=1)


def first_vanishing_oracle(exponents, p, s):
    """The first nonzero vector in {0, +-1, +-2}^N of weight <= 2s whose sum
    vanishes mod p, or None.  Order: support size, then support indices, then
    values ranked 1, -1, 2, -2."""
    rank = {1: 0, -1: 1, 2: 2, -2: 3}

    def order(eps):
        support = tuple(i for i, e in enumerate(eps) if e)
        return len(support), support, tuple(rank[eps[i]] for i in support)

    vectors = cube(len(exponents), (-2, -1, 0, 1, 2))
    weight = np.abs(vectors).sum(axis=1)
    vanishing = (vectors @ np.array(exponents, dtype=np.int64)) % p == 0
    rows = vectors[(weight > 0) & (weight <= 2 * s) & vanishing]
    return min((tuple(int(e) for e in row) for row in rows), key=order, default=None)


@settings(deadline=None)
@given(exponent_sets(), st.sampled_from([2, 4, 6]))
def test_verify_pn_returns_the_first_vanishing_vector(exponent_set, s):
    # the cube oracle decides the verdict; the half table's witness is any
    # nonzero vector in {0, +-1, +-2}^N of weight <= 2s, first nonzero entry
    # positive, that vanishes mod p, not necessarily the oracle's first
    p, exponents = exponent_set
    first = first_vanishing_oracle(exponents, p, s)
    ok, witness = verify_pn_bruteforce(FactorSubset(1, p, exponents), s)
    assert ok == (first is None)
    if ok:
        assert witness is None
        return
    entries = witness.entries
    assert len(entries) == len(exponents) and set(entries) <= {-2, -1, 0, 1, 2}
    assert 0 < sum(abs(e) for e in entries) <= 2 * s
    assert next(e for e in entries if e) > 0
    assert sum(e * g for e, g in zip(entries, exponents)) % p == 0


@settings(deadline=None)
@given(exponent_sets(), st.sampled_from([2, 4, 6]))
def test_half_table_is_distinct_exactly_when_nothing_vanishes(exponent_set, s):
    # the signed sums of at most s exponents, the empty sum included, collide
    # exactly when some weight <= 2s vector vanishes
    p, exponents = exponent_set
    halves = cube(len(exponents), (-1, 0, 1))
    halves = halves[np.abs(halves).sum(axis=1) <= s]
    residues = (halves @ np.array(exponents, dtype=np.int64)) % p
    assert len(residues) == builder.half_table_size(len(exponents), s)
    distinct = len(np.unique(residues)) == len(residues)
    assert distinct == (first_vanishing_oracle(exponents, p, s) is None)
    assert (builder._vanishing_difference(exponents, p, s) is None) == distinct


# 2^61 - 1 and the least prime above 2^61: bitsets fit ``MAX_LEDGER_BITS`` there
# only while the exponents stay small, and never rotate
LARGE_PRIMES = (2**61 - 1, smallest_admissible_prime(60))


@st.composite
def half_table_edges(draw):
    """(p, s, exponents): up to 8 distinct exponents in any order.  At a small p
    the largest is often m with 2s * m = p - 1 or p + 1, the last width the
    plain shifts take and the first the rotations take (2s * m is even, so
    never p); every such p is +-1 mod 8, so both edges exist at s = 2 and
    s = 4.  At a prime near 2^61 the exponents stay below 2^16 or reach 2^61.
    Half the time one more exponent is the sum or difference of two others, so
    that the half table collides."""
    s = draw(st.sampled_from([2, 4]))
    p = draw(st.sampled_from((17, 23, 41, 71, 257, 521) + LARGE_PRIMES))
    if p in LARGE_PRIMES:
        top = draw(st.integers(1, 2**16) | st.integers(1, p - 1))
    else:
        edge = next(
            m for m in ((p - 1) // (2 * s), (p + 1) // (2 * s)) if 2 * s * m in (p - 1, p + 1)
        )
        top = draw(st.just(edge) | st.integers(1, p - 1))
    exponents = sorted(set(draw(st.lists(st.integers(1, top), max_size=6, unique=True))) | {top})
    if len(exponents) > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(exponents), min_size=2, max_size=2, unique=True))
        planted = draw(st.sampled_from(((a + b) % p, abs(a - b))))
        if planted and planted not in exponents:
            exponents.append(planted)
    return p, s, tuple(draw(st.permutations(exponents)))


def bitset_width(exponents, p, s):
    """The widest integer ``_sums_distinct`` builds: 2s * max + 1 bits while it
    shifts plainly, 2p once it rotates, a shift by up to p - 1 before the fold."""
    return 2 * p if 2 * s * max(exponents) >= p else 2 * s * max(exponents) + 1


@settings(deadline=None)
@example(case=(17, 2, (1, 2, 4)))  # 2s * max = p - 1; 4 - 2 = 2 meets 2 as integers
@example(case=(23, 2, (1, 3, 6)))  # 2s * max = p + 1: the bitsets rotate mod p
@example(case=(17, 2, (1, 3, 4)))  # 2s * max = p - 1 and distinct
@example(case=(17, 2, (1, 8)))  # s * max < p: 1 + 8 = 9 meets -8 only mod p
@example(case=(41, 2, (1, 7, 3)))  # 1 + 3 = 7 - 3: the two shifts of level 1 meet
@example(case=(137438953481, 2, (1, 34359738367)))  # p_36: the plain window is 2^37 bits
@given(half_table_edges())
def test_integer_half_table_agrees_with_the_fill(case):
    # the bitsets, shifting plainly while 2s * max < p and rotating mod p after,
    # decide exactly as the fill does wherever they fit the ledger limit; the
    # witness is the fill's first colliding pair whichever engine is chosen
    p, s, exponents = case
    with mock.patch.object(builder, "_sums_distinct", lambda exps, p, s: None):
        filled = builder._vanishing_difference(exponents, p, s)
    assert builder._vanishing_difference(exponents, p, s) == filled
    with mock.patch.object(builder, "_LIMBS_PER_ENTRY", math.inf):  # the bitsets at any cost
        forced = builder._sums_distinct(exponents, p, s)
    fits = bitset_width(exponents, p, s) <= builder.MAX_LEDGER_BITS
    assert forced == ((filled is None) if fits else None)


def test_the_half_table_engine_is_chosen_by_cost():
    # the desk s=2 n=16 factor: 32 shifts of 74 limbs against 513 fill entries, so
    # the bitsets decide; 1 and 2^19 at p_36: 4 shifts of 32,769 limbs against 9
    result = build_family(2, (16, 16)).results[0]
    assert builder._sums_distinct(result.subset.exponents, result.p, 2) is True
    assert builder._sums_distinct((1, 2**19), 137438953481, 2) is None
    assert builder._vanishing_difference((1, 2**19), 137438953481, 2) is None


@settings(deadline=None, max_examples=50)
@example(case=(137438953481, 2, (1, 34359738367)))
@example(case=(2**61 - 1, 2, (1, 2**58)))
@given(half_table_edges())
def test_the_chosen_half_table_engine_stays_within_the_ledger_limit(case):
    # a plain window of 2s * max bits reaches 2^62 at these primes; the engine
    # chosen allocates no more than MAX_LEDGER_BITS bits, the fill's entries included
    p, s, exponents = case
    tracemalloc.start()
    try:
        builder._vanishing_difference(exponents, p, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= builder.MAX_LEDGER_BITS // 8


@st.composite
def strictly_admitted(draw):
    """An odd prime p below 400, s in {2, 4}, and 1 to 9 exponents that the
    builder's rule admits one after another, each a uniform draw among the
    admissible residues, stopping early at a dead end."""
    p = draw(st.sampled_from(ODD_PRIMES_BELOW_400))
    s = draw(st.sampled_from([2, 4]))
    size = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    strata, chosen = ForbiddenStrata.empty(p, s), []
    while len(chosen) < size:
        g = choose_next(strata, p - 1, rng=rng)
        if g is None:
            break
        chosen.append(g)
        strata = strata_extend(strata, g)
    return p, s, tuple(chosen)


@settings(deadline=None)
@given(strictly_admitted())
def test_strictly_admitted_sets_keep_the_strict_table_distinct(case):
    # the half table, every u in {0, +-1}^N of weight <= s, and every u of
    # weight s + 1 with u_N != 0 (N the last exponent admitted) give distinct
    # sums mod p, so strict_table_size(N, s) <= p for every set the builder
    # reaches.  Admitting by the property itself breaks this
    p, s, chosen = case
    vectors = cube(len(chosen), (-1, 0, 1))
    weight = np.abs(vectors).sum(axis=1)
    vectors = vectors[(weight <= s) | ((weight == s + 1) & (vectors[:, -1] != 0))]
    assert len(vectors) == builder.strict_table_size(len(chosen), s) <= p
    residues = (vectors @ np.array(chosen, dtype=np.int64)) % p
    assert len(np.unique(residues)) == len(residues)


def test_no_search_reaches_a_target_the_strict_count_rules_out(monkeypatch):
    # with the walk test back on the property count alone and a budget of
    # 20,000 nodes, every target in the gap between the two counts at the odd
    # primes below 64 is searched over pool [1, p - 1]: all ten trees are
    # visited whole, and none holds a target-sized set
    strict = builder.strict_table_size
    monkeypatch.setattr(builder, "strict_table_size", builder.half_table_size)
    monkeypatch.setattr(builder, "DEFAULT_SEARCH_BUDGET", 20_000)
    searched = {}
    for p in (q for q in ODD_PRIMES_BELOW_400 if q < 64):
        for s in (2, 4):
            for target in range(1, p):
                if builder.half_table_size(target, s) <= p < strict(target, s):
                    result = build_factor_set(1, s, target, p - 1, FactorTable.explicit([p]))
                    assert not result.feasible and result.search_exhausted
                    searched[p, s, target] = result.nodes_searched
    assert searched == {
        (19, 2, 3): 126, (23, 2, 3): 198, (37, 2, 4): 1584, (41, 2, 4): 2640,
        (43, 2, 4): 3318, (47, 2, 4): 5014, (53, 2, 4): 8528, (53, 2, 5): 8528,
        (59, 2, 5): 13398, (61, 2, 5): 15360,
    }


def test_an_order_over_the_ledger_limit_is_refused_before_building(monkeypatch):
    # p_24 = 33,554,467 fits under 2^26 bits and p_25 = 67,108,879 does not;
    # a range that reaches n=25 is refused before its first factor is built
    table = FactorTable.paper_default(25)
    builder.check_ledger_order(table.order(24))
    refusal = "p-bit ledger at p=67108879 exceeds the 67108864-bit limit"
    with pytest.raises(BudgetExceeded, match=refusal):
        ForbiddenStrata.empty(table.order(25), 2)
    monkeypatch.setattr(builder, "build_factor_set", lambda *args: pytest.fail("built a factor"))
    with pytest.raises(BudgetExceeded, match=refusal):
        build_family(2, (8, 25))
    subset = FactorSubset(25, table.order(25), (1, 2))
    for ledger in (extract_quasi_independent, is_quasi_independent):
        with pytest.raises(BudgetExceeded, match=refusal):
            ledger(subset)


@st.composite
def counted_out_sets(draw):
    """An odd prime p below 400, s in {2, 4}, and N distinct exponents mod p
    with half_table_size(N, s) > p: N is the least such size or up to 3 more."""
    p = draw(st.sampled_from(ODD_PRIMES_BELOW_400))
    s = draw(st.sampled_from([2, 4]))
    least = next(n for n in range(1, p) if builder.half_table_size(n, s) > p)
    size = draw(st.integers(least, min(least + 3, p - 1)))
    exponents = draw(st.lists(st.integers(1, p - 1), min_size=size, max_size=size, unique=True))
    return p, s, tuple(sorted(exponents))


@settings(deadline=None)
@given(counted_out_sets())
def test_a_set_the_count_rules_out_has_a_witness(case):
    # more signed sums than residues: two collide, so some vector vanishes
    p, s, exponents = case
    ok, witness = verify_pn_bruteforce(FactorSubset(1, p, exponents), s)
    assert not ok
    assert sum(e * g for e, g in zip(witness.entries, exponents)) % p == 0


def test_verify_pn_budget_refusal():
    # the budget counts the half table: 1 + 15 * 2 + C(15, 2) * 4 signed sums
    subset = FactorSubset(10, 2053, tuple(range(1, 16)))
    with pytest.raises(BudgetExceeded, match="needs 451 signed sums, budget is 10"):
        verify_pn_bruteforce(subset, 2, budget=10)


def test_verify_pn_decides_a_clean_set_its_vectors_would_exceed():
    # 12 powers of 5 at s=4: 9,969 signed sums, though 3,039,568 vectors of
    # weight <= 8 exceed the default budget
    p = 244_140_683
    exponents = tuple(sorted(pow(5, j, p) for j in range(12)))
    assert epsilon_vector_count(len(exponents), 4) == 3_039_568
    assert verify_pn_bruteforce(FactorSubset(1, p, exponents), 4) == (True, None)


def test_epsilon_vector_count_matches_enumeration():
    for n, s in [(1, 2), (3, 2), (5, 2), (4, 4)]:
        oracle = sum(
            1
            for eps in product((-2, -1, 0, 1, 2), repeat=n)
            if 0 < sum(abs(e) for e in eps) <= 2 * s
        )
        assert epsilon_vector_count(n, s) == oracle


def test_family_desk_all_feasible(desk2_family):
    assert all(r.feasible for r in desk2_family.results)
    assert desk2_family.n_feasible == 8
    assert [r.n for r in desk2_family.results] == list(range(8, 17))
    assert len(desk2_family.union_words()) == sum(range(8, 17))


def test_family_every_built_set_passes_bruteforce(desk2_family):
    for result in desk2_family.results:
        if result.n <= 12:
            ok, _ = verify_pn_bruteforce(result.subset, desk2_family.s)
            assert ok


def test_family_paper_profile_records_infeasible():
    family = build_family(2, (3, 3), "paper")
    (result,) = family.results
    assert not result.feasible
    assert result.target_size == 9
    assert result.pool_bound == 8
    # C = 163 > p = 17 rules out 9 elements, so the build walks to a dead end
    assert (result.nodes_searched, result.search_exhausted) == (len(result.chosen), True)


def test_family_empty_range():
    with pytest.raises(ValueError, match="empty factor range"):
        build_family(2, (5, 4), "desk")


def test_profile_range_defaults_and_validation():
    desk = PROFILES["desk"]
    assert desk.n_range(2) == (8, 16)
    assert desk.n_range(4) == (8, 12)
    assert desk.n_range(2, 9, 11) == (9, 11)
    assert desk.n_range(4, n_max=10) == (8, 10)
    # the even-s rule runs before the empty-range refusal
    for s in (3, 0):
        with pytest.raises(ValueError, match="even integer"):
            build_family(s, (9, 8))


def test_family_tiny_profile_feasible():
    family = build_family(2, (4, 8), "tiny")
    assert all(r.feasible for r in family.results)
    for result in family.results:
        assert len(result.subset) == 3
        ok, _ = verify_pn_bruteforce(result.subset, 2)
        assert ok


def test_family_seeded_build_is_reproducible():
    a = build_family(2, (8, 9), "desk", seed=5)
    b = build_family(2, (8, 9), "desk", seed=5)
    assert [r.chosen for r in a.results] == [r.chosen for r in b.results]
    for result in a.results:
        ok, _ = verify_pn_bruteforce(result.subset, 2)
        assert ok
