"""Exact tuple counting and combinatorial witnesses.

Three independent engines over the group core:

* ``z_value`` — the exact supremum, over group elements x, of the number of
  pairwise-distinct s-tuples whose alternating product x_1^-1 x_2 x_3^-1 ...
  equals x: in closed form from each factor's half table where that applies,
  else by ``z_enumerate``, which keeps a count per product and nothing else;
* ``leinert_violation`` — the exact Leinert verdict for letters of one cyclic
  factor, decided from their exponents: a start-plain 2s-tuple multiplies to
  the letter of exponent x_1 - x_2 + x_3 - ... - x_2s, so no tuple is walked;
* quasi-independence testing and greedy maximal extraction via exact subset
  sums inside one cyclic factor.

The closed form reads a union of single letters whose every factor passes
the order-s half table of ``verify pn``.  A tuple's product then has one
letter per maximal run of entries from one factor, a signed sum of the run's
k <= s distinct exponents: the half table makes that sum nonzero and fixes
the run's plus-set and minus-set, so a product is reached by the product
over its runs of ceil(k/2)! * floor(k/2)! orderings.  From s = 3 a single run
is strictly the largest, so Z_s = ceil(s/2)! * floor(s/2)! once some factor
holds s elements; at s = 2 every product is reached once.  Where the closed
form does not apply, the tuples are enumerated.

The enumeration takes and returns ``Word`` values but loops over integer
letter codes: a_n^e is the int n << bits | e, where ``bits`` is the bit
length of the largest order, so every exponent fits below the factor.  Code
tuples sort like (factor, exp) pair tuples and so like canonical keys.  Each
element's codes and the codes of its reduced inverse are prepared once; a
depth-first walk then extends a reduced prefix by one element at a time with
``_join``, which touches only the junction, and keeps the indices used as an
integer bitmask.  Z_s splits each tuple in two, walks both parts and joins
each left part with the right parts of disjoint bitmask.  There a junction
of two letters of one factor merges in place, head + (merged,) + rest, and
only a junction that cancels walks the cascade with ``_join``.  Naive
enumeration splits at s - 1 and meet-in-the-middle at s/2, and nothing else
tells the two apart.  Only the witness is decoded back to a ``Word``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress, permutations
from typing import Iterable, Iterator, Optional, Sequence

from .builder import (
    DEFAULT_TUPLE_BUDGET,
    FactorSubset,
    _vanishing_difference,
    check_even_s,
    half_table_size,
)
from .errors import BudgetExceeded
# perfbench/tracing.py counts calls of multiply, alternating_product and canonical_key
# through this module, so the three names stay importable from it
from .words import (
    START_PLAIN,
    Pairs,
    Word,
    alternating_product,
    canonical_key,
    inverse_pairs,
    is_identity,
    multiply,
    reduce_pairs,
)

DEFAULT_SUBSET_BUDGET_BITS = 22

Codes = tuple[int, ...]  # letters a_factor^exp as the ints factor << bits | exp

STRATEGY_NAIVE = "naive"
STRATEGY_MITM = "meet-in-middle"

BASIS_CLOSED_FORM = "pn-closed-form"
BASIS_ENUMERATION = "enumeration"


def zs_paper_target(s: int) -> tuple[int, int]:
    """The pair (((s/2)!)^2, s!) that bounds the tuple count for even s."""
    check_even_s(s)
    half = math.factorial(s // 2)
    return half * half, math.factorial(s)


@dataclass(frozen=True)
class ZsCertificate:
    """Exact tuple-count supremum and its witness.

    ``value`` is the largest number of pairwise-distinct s-tuples sharing one
    start-inverse alternating product; ``witness`` is the least such product
    by canonical key (None when no s-tuple exists).  ``basis`` says how the
    value was found: ``pn-closed-form``, from the factors' half tables, with
    no tuple examined, or ``enumeration`` by ``strategy``.  ``strategy`` is the
    enumeration asked for, recorded under either basis.  ``tuples_examined``
    is 0 in closed form, N!/(N-s)! for naive enumeration, and for
    meet-in-the-middle the distinct left halves times the distinct right
    halves, each a (product, index set).
    """

    ground_size: int
    value: int
    witness: Optional[Word]
    strategy: str
    tuples_examined: int
    basis: str


def _check_ground_set(elements: Sequence[Word]) -> None:
    if len({w.pairs for w in elements}) != len(elements):
        raise ValueError("ground set elements must be distinct")
    if len({w.table for w in elements}) > 1:
        raise ValueError("ground set elements must share one factor table")


def _code_bits(orders: Sequence[int]) -> int:
    """Exponent bits of a letter code: every exponent of every factor fits below them."""
    return max(orders).bit_length()


def _encode(pairs: Pairs, bits: int) -> Codes:
    return tuple(factor << bits | exp for factor, exp in pairs)


def _decode(codes: Codes, bits: int) -> Pairs:
    low = (1 << bits) - 1
    return tuple((code >> bits, code & low) for code in codes)


def _join(orders: Sequence[int], bits: int, left: Codes, right: Codes) -> Codes:
    """Reduced product of two reduced code tuples, the code form of ``reduce_pairs(left + right)``.

    Only the junction can merge: the last letter of ``left`` meets the first
    of ``right``, and while they cancel the next pair meets in turn.
    """
    low = (1 << bits) - 1
    i = len(left)
    j = 0
    while i and j < len(right) and left[i - 1] >> bits == right[j] >> bits:
        factor = right[j] >> bits
        merged = ((left[i - 1] & low) + (right[j] & low)) % orders[factor - 1]
        if merged:
            return left[: i - 1] + (factor << bits | merged,) + right[j + 1 :]
        i -= 1
        j += 1
    return left[:i] + right[j:]


def _plain_and_inverse(
    orders: Sequence[int], bits: int, elements: Sequence[Word]
) -> list[tuple[Codes, Codes]]:
    """Per element, its letter codes and the codes of its reduced inverse."""
    return [
        (_encode(w.pairs, bits), _encode(reduce_pairs(orders, inverse_pairs(w.pairs)), bits))
        for w in elements
    ]


# one entry per element at one tuple position: (index bit, signed codes)
Level = list[tuple[int, Codes]]


def _levels(signed: Sequence[tuple[Codes, Codes]], s: int) -> list[Level]:
    """Entries for positions 0 .. s-1; an even position takes the inverse."""
    return [
        [(1 << i, pair[1 - position % 2]) for i, pair in enumerate(signed)]
        for position in range(s)
    ]


def _prefixes(
    orders: Sequence[int],
    bits: int,
    levels: Sequence[Level],
    pos: int = 0,
    prod: Codes = (),
    mask: int = 0,
) -> Iterator[tuple[Codes, int]]:
    """(reduced product, index bitmask) of every pairwise-distinct choice, one entry per level."""
    if pos == len(levels):
        yield prod, mask
        return
    for bit, piece in levels[pos]:
        if not mask & bit:
            prefix = _join(orders, bits, prod, piece)
            yield from _prefixes(orders, bits, levels, pos + 1, prefix, mask | bit)


def _z_join(
    orders: Sequence[int],
    bits: int,
    left: Iterable[tuple[tuple[Codes, int], int]],
    right: Sequence[tuple[Codes, int]],
) -> Counter[Codes]:
    """Reduced products of each left part with every right part of disjoint mask.

    ``left`` yields ((product, mask), multiplicity); ``right`` lists
    (product, mask), a part reached by c orderings standing in it c times.
    Each right part is split once into its first factor, first exponent and
    the letters after them.  A right part whose first factor differs from
    the left part's last letter only concatenates, and the identity part
    (first factor 0) always does.  A junction in one factor merges in place
    unless it cancels; only then does ``_join`` walk the cascade.
    """
    low = (1 << bits) - 1
    parts = [
        (mask, piece[0] >> bits, piece[0] & low, piece[1:], piece) if piece
        else (mask, 0, 0, piece, piece)
        for piece, mask in right
    ]
    counts: Counter[Codes] = Counter()
    for (prod, mask), multiplicity in left:
        factor = -1
        if prod:
            head, last = prod[:-1], prod[-1]
            factor, last_exp = last >> bits, last & low
            p = orders[factor - 1]
            base, cancel = last - last_exp, p - last_exp
        keys = [
            prod + piece if first != factor
            else head + (base + (last_exp + exp) % p,) + rest if exp != cancel
            else _join(orders, bits, prod, piece)
            for bit, first, exp, rest, piece in parts
            if not mask & bit
        ]
        counts.update(keys if multiplicity == 1 else keys * multiplicity)
    return counts


def _check_z_arguments(elements: Sequence[Word], s: int, strategy: str) -> None:
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    if strategy not in (STRATEGY_NAIVE, STRATEGY_MITM):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == STRATEGY_MITM and s % 2 != 0:
        raise ValueError("meet-in-the-middle split requires even s")
    _check_ground_set(elements)


def _z_closed_form(elements: Sequence[Word], s: int, budget: int) -> Optional[tuple[int, Pairs]]:
    """(Z_s, witness pairs) from each factor's order-s half table, or None
    where the closed form does not apply.

    It applies to at least s distinct single letters whose factors each pass
    the half table, with some factor holding s of them once s >= 3; the
    budget counts the tables' signed sums, as ``verify pn`` does.  From s = 3
    the maximal products are the single runs, a_F^(sum(plus) - sum(minus))
    with ceil(s/2) minus (inverted) positions, so the witness is the least
    residue over disjoint half-sets of the lowest factor F holding s letters.
    At s = 2 the products are a_F^(y - x) inside one factor and
    a_F^(p - x) b^y across two, F the factor of the inverted entry; the
    least key has the lowest factor present and the least first exponent,
    and pn keeps p - max(x) off every difference, so the two never tie.
    """
    if len(elements) < s or any(len(w.pairs) != 1 for w in elements):
        return None
    by_factor: dict[int, list[int]] = {}
    for w in elements:
        ((factor, exp),) = w.pairs
        by_factor.setdefault(factor, []).append(exp)
    factors = sorted(by_factor)
    full = [f for f in factors if len(by_factor[f]) >= s]
    if s > 2 and not full:
        return None
    if sum(half_table_size(len(by_factor[f]), s) for f in factors) > budget:
        return None
    table = elements[0].table
    for f in factors:
        if _vanishing_difference(tuple(by_factor[f]), table.order(f), s) is not None:
            return None
    if s > 2:
        first = full[0]
        xs, p = by_factor[first], table.order(first)
        inverted = (s + 1) // 2
        least = min(
            (sum(plus) - sum(minus)) % p
            for minus in combinations(xs, inverted)
            for plus in combinations([x for x in xs if x not in minus], s - inverted)
        )
        return math.factorial(inverted) * math.factorial(s - inverted), ((first, least),)
    first = factors[0]
    xs, p = by_factor[first], table.order(first)
    difference = min(((y - x) % p for x, y in permutations(xs, 2)), default=p)
    if len(factors) > 1 and p - max(xs) < difference:
        return 1, ((first, p - max(xs)), (factors[1], min(by_factor[factors[1]])))
    return 1, ((first, difference),)


def z_value(
    elements: Sequence[Word],
    s: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
    strategy: str = STRATEGY_NAIVE,
) -> ZsCertificate:
    """Exact sup over x of the number of pairwise-distinct s-tuples mapping to x.

    The tuple product uses the start-inverse convention.  The value comes in
    closed form from the factors' half tables where that applies (see
    ``_z_closed_form``) and otherwise from ``z_enumerate`` with ``strategy``,
    under its own budget; both give the same value and witness.
    """
    _check_z_arguments(elements, s, strategy)
    closed = _z_closed_form(elements, s, budget)
    if closed is None:
        return z_enumerate(elements, s, budget, strategy)
    value, witness = closed
    return ZsCertificate(
        len(elements), value, Word(elements[0].table, witness), strategy, 0, BASIS_CLOSED_FORM
    )


def z_enumerate(
    elements: Sequence[Word],
    s: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
    strategy: str = STRATEGY_NAIVE,
) -> ZsCertificate:
    """``z_value`` by enumeration alone, whatever the ground set.

    Naive enumeration joins the first s - 1 positions with the last;
    ``meet-in-middle`` groups equal halves and joins at s/2.  Both are exact
    and must agree.  The budget is checked before any part is walked.
    """
    _check_z_arguments(elements, s, strategy)
    n = len(elements)
    if n < s:
        return ZsCertificate(n, 0, None, strategy, 0, BASIS_ENUMERATION)
    naive = strategy == STRATEGY_NAIVE
    split = s - 1 if naive else s // 2
    needed = math.perm(n, s) if naive else math.perm(n, split) ** 2
    if needed > budget:
        work = (
            f"naive enumeration needs {needed} tuples" if naive
            else f"meet-in-the-middle join needs {needed} pairs"
        )
        raise BudgetExceeded(f"{work}, budget is {budget}")
    orders = elements[0].table.orders
    bits = _code_bits(orders)
    levels = _levels(_plain_and_inverse(orders, bits, elements), s)
    right = list(_prefixes(orders, bits, levels[split:]))
    if naive:
        # streamed one by one: grouping would hold all perm(n, s - 1) left parts at once
        left = ((part, 1) for part in _prefixes(orders, bits, levels[:split]))
        examined = needed
    else:
        halves = Counter(_prefixes(orders, bits, levels[:split]))
        left, examined = halves.items(), len(halves) * len(set(right))
    counts = _z_join(orders, bits, left, right)
    value = max(counts.values())
    # code tuples sort like pair tuples, so the least code key is the least canonical key
    witness = min(compress(counts, map(value.__eq__, counts.values())))
    return ZsCertificate(
        n, value, Word(elements[0].table, _decode(witness, bits)), strategy, examined,
        BASIS_ENUMERATION,
    )


@dataclass(frozen=True)
class LeinertWitness:
    """An adjacent-distinct 2s-tuple whose alternating product is the identity."""

    s: int
    elements: tuple[Word, ...]

    def __post_init__(self):
        if len(self.elements) != 2 * self.s:
            raise ValueError(f"witness needs {2 * self.s} entries, got {len(self.elements)}")
        for i in range(len(self.elements) - 1):
            if self.elements[i] == self.elements[i + 1]:
                raise ValueError(f"adjacent entries {i} and {i + 1} coincide")
        if not is_identity(alternating_product(self.elements, START_PLAIN)):
            raise ValueError("alternating product of the witness is not the identity")


def leinert_violation(
    elements: Sequence[Word],
    s: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Optional[LeinertWitness]:
    """An adjacent-distinct 2s-tuple of letters of one cyclic factor multiplying to e, or None.

    Start-plain, a tuple multiplies to the letter of exponent x_1 - x_2 + ... - x_2s
    mod p, so the exponents decide: s = 1 or one element never closes, and two
    elements close only alternating, when p | s.  At s = 2 the first tuple comes
    from a table of differences, which the budget counts before it is filled.  From
    s = 3 the first three elements close, each as often plain as inverted.  Any
    other witness is written out whole, so the budget counts its 2s entries first.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    _check_ground_set(elements)
    if any(len(w.pairs) != 1 for w in elements) or len({w.pairs[0][0] for w in elements}) > 1:
        raise ValueError("the Leinert check takes distinct single letters of one cyclic factor")
    n = len(elements)
    if s == 1 or n <= 1:
        return None
    xs = [w.pairs[0][1] for w in elements]
    p = elements[0].table.order(elements[0].pairs[0][0])
    if n == 2 and s % p:
        return None
    if s != 2 and 2 * s > budget:
        raise BudgetExceeded(f"witness has {2 * s} entries, budget is {budget}")
    if n == 2:
        found = (0, 1) * s
    elif s == 2:
        if n * (n - 1) > budget:
            raise BudgetExceeded(f"difference table has {n * (n - 1)} entries, budget is {budget}")
        # (i1, i2, i3, i4) closes exactly when (i1, i2) and (i4, i3) are distinct ordered
        # pairs of one difference; each difference lists (i3, i4) by ascending i3
        by_difference: dict[int, list[tuple[int, int]]] = {}
        for b, a in permutations(range(n), 2):
            by_difference.setdefault((xs[a] - xs[b]) % p, []).append((b, a))
        found = next(
            ((i1, i2, i3, i4) for i1, i2 in permutations(range(n), 2)
             for i3, i4 in by_difference[(xs[i1] - xs[i2]) % p] if i3 != i2),
            None,
        )
    elif s % 2:
        found = ((0, 1) * ((s - 1) // 2) + (2,)) * 2
    else:
        h = s // 2 - 1
        found = (0, 1) * h + (0, 2) + (1, 0) * h + (2, 0)
    return None if found is None else LeinertWitness(s, tuple(elements[i] for i in found))


def _subset_sums(exponents: Sequence[int], p: int) -> list[int]:
    """Subset sums mod p in bitmask order (bit i = exponents[i])."""
    sums = [0]
    for x in exponents:
        sums.extend([(t + x) % p for t in sums])
    return sums


def _mask_subset(exponents: Sequence[int], mask: int) -> tuple[int, ...]:
    return tuple(exponents[i] for i in range(len(exponents)) if mask >> i & 1)


def is_quasi_independent(
    subset: FactorSubset,
    budget_bits: int = DEFAULT_SUBSET_BUDGET_BITS,
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """True iff all 2^m subset sums are distinct mod p.

    On failure returns the first collision in bitmask scan order as a pair
    (later subset, earlier subset); only then are the sums scanned one by one.
    """
    m = len(subset.exponents)
    if m > budget_bits:
        raise BudgetExceeded(f"subset-sum table needs 2^{m} entries, budget is 2^{budget_bits}")
    sums = _subset_sums(subset.exponents, subset.order)
    if len(set(sums)) == len(sums):
        return True, None
    seen: dict[int, int] = {}
    for mask, value in enumerate(sums):
        if value in seen:
            break
        seen[value] = mask
    return False, (
        _mask_subset(subset.exponents, mask),
        _mask_subset(subset.exponents, seen[value]),
    )


@dataclass(frozen=True)
class QIWitness:
    """A greedily extracted quasi-independent subset and whether it is maximal."""

    parent: tuple[int, ...]
    subset: tuple[int, ...]
    maximal: bool


def extract_quasi_independent(
    subset: FactorSubset,
    budget_bits: int = DEFAULT_SUBSET_BUDGET_BITS,
) -> QIWitness:
    """Greedy maximal quasi-independent subset, swept in ascending exponent order.

    An element joins when all subset sums stay distinct.  A rejected element
    collides with a subset of the current selection and therefore with every
    superset, so one sweep is maximal; maximality is still re-verified
    element-by-element before the flag is set.  The greedy result always has
    size at least log_3 of the parent size.
    """
    if len(subset.exponents) < 1:
        raise ValueError("extraction needs a nonempty parent set")
    p = subset.order
    chosen: list[int] = []
    sums = [0]
    sums_set = {0}
    for x in subset.exponents:
        if len(chosen) >= budget_bits:
            raise BudgetExceeded(f"selection reached 2^{budget_bits} subset sums")
        # sums are distinct, so the shifted copy is distinct too; only the
        # overlap between old and shifted sums can break quasi-independence
        shifted = [(t + x) % p for t in sums]
        if sums_set.isdisjoint(shifted):
            chosen.append(x)
            sums.extend(shifted)
            sums_set.update(shifted)
    maximal = True
    for x in subset.exponents:
        if x in chosen:
            continue
        shifted = ((t + x) % p for t in sums)
        if all(v not in sums_set for v in shifted):
            maximal = False
            break
    return QIWitness(parent=subset.exponents, subset=tuple(chosen), maximal=maximal)
