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
  sums inside one cyclic factor, kept as one p-bit ledger.

The closed form reads a union of single letters whose every factor passes
the order-s half table of ``verify pn``.  A tuple's product then has one
letter per maximal run of entries from one factor, a signed sum of the run's
k <= s distinct exponents: the half table makes that sum nonzero and fixes
the run's plus-set and minus-set, so a product is reached by the product
over its runs of ceil(k/2)! * floor(k/2)! orderings.  From s = 3 a single run
is strictly the largest, so Z_s = ceil(s/2)! * floor(s/2)! once some factor
holds s elements; at s = 2 every product is reached once.  Where the closed
form does not apply, the tuples are enumerated.

The enumeration takes and returns ``Word`` values and walks their reduced
(factor, exp) pair tuples, which sort like canonical keys.  The elements'
pairs and the pairs of their reduced inverses are prepared once, as one
plain and one inverted list; a depth-first walk extends a reduced prefix by
one element at a time and keeps the indices used as an integer bitmask.
Z_s splits each tuple in two, walks both parts and joins each left part
with the right parts of disjoint bitmask.  Every product, in the walk and at
the split, is extended by one junction join, ``_join``: only the last letter
of the left operand and the first of the right can merge, and while they
cancel the next pair meets in turn.  Naive enumeration splits at s - 1 and
meet-in-the-middle at s/2, and nothing else tells the two apart.  The
witness is the least pair tuple among the maximal products.

The subset sums mod p of a quasi-independent selection are the set bits of a
p-bit integer.  The builder's unreduced sums of at most 2s terms stay in a
window narrower than p once p is large, but the subset sums of a few large
elements already pass p, so this ledger is reduced from the start.  Adding x
ORs in the ledger rotated by x, and x collides exactly when that rotation
meets the ledger, so no sum is listed; an order above the builder's
``MAX_LEDGER_BITS`` is refused before the ledger is built.  The subset
budget bounds only ``is_quasi_independent``'s witness table, the sums in
bitmask order up to the first colliding index, which is built only after a
collision, to name the first colliding pair.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, compress, permutations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .builder import (
    DEFAULT_TUPLE_BUDGET,
    FactorSubset,
    _vanishing_difference,
    check_even_s,
    check_ledger_order,
    half_table_size,
)
from .errors import BudgetExceeded, checked_record
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

STRATEGY_NAIVE = "naive"
STRATEGY_MITM = "meet-in-middle"

BASIS_CLOSED_FORM = "pn-closed-form"
BASIS_ENUMERATION = "enumeration"


def zs_paper_target(s: int) -> tuple[int, int]:
    """The pair (((s/2)!)^2, s!) that bounds the tuple count for even s."""
    check_even_s(s)
    half = math.factorial(s // 2)
    return half * half, math.factorial(s)


class ZsCertificate(NamedTuple):
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


def _join(orders: Sequence[int], left: Pairs, right: Pairs) -> Pairs:
    """Reduced product of two reduced pair tuples, ``reduce_pairs(orders, left + right)``.

    Only the junction can merge: the last letter of ``left`` meets the first
    of ``right``, and while they cancel the next pair meets in turn.
    """
    i = len(left)
    j = 0
    while i and j < len(right) and left[i - 1][0] == right[j][0]:
        factor = right[j][0]
        merged = (left[i - 1][1] + right[j][1]) % orders[factor - 1]
        if merged:
            return left[: i - 1] + ((factor, merged),) + right[j + 1 :]
        i -= 1
        j += 1
    return left[:i] + right[j:]


# one entry per element at one tuple position: (index bit, signed pairs)
Level = list[tuple[int, Pairs]]


def _levels(orders: Sequence[int], elements: Sequence[Word], s: int) -> list[Level]:
    """Entries for positions 0 .. s-1; an even position takes the reduced inverse.

    One plain and one inverted list are built, each shared by the positions
    of its parity.
    """
    plain = [(1 << i, w.pairs) for i, w in enumerate(elements)]
    inverted = [(bit, reduce_pairs(orders, inverse_pairs(pairs))) for bit, pairs in plain]
    return [plain if position % 2 else inverted for position in range(s)]


def _prefixes(
    orders: Sequence[int],
    levels: Sequence[Level],
    pos: int = 0,
    prod: Pairs = (),
    mask: int = 0,
) -> Iterator[tuple[Pairs, int]]:
    """(reduced product, index bitmask) of every pairwise-distinct choice, one entry per level."""
    if pos == len(levels):
        yield prod, mask
        return
    for bit, piece in levels[pos]:
        if not mask & bit:
            yield from _prefixes(orders, levels, pos + 1, _join(orders, prod, piece), mask | bit)


def _z_join(
    orders: Sequence[int],
    left: Iterable[tuple[tuple[Pairs, int], int]],
    right: Sequence[tuple[Pairs, int]],
) -> Counter[Pairs]:
    """Reduced products of each left part with every right part of disjoint mask.

    ``left`` yields ((product, mask), multiplicity); ``right`` lists
    (product, mask), a part reached by c orderings standing in it c times.
    """
    counts: Counter[Pairs] = Counter()
    for (prod, mask), multiplicity in left:
        keys = [_join(orders, prod, piece) for piece, bit in right if not mask & bit]
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


def _z_closed_form(
    elements: Sequence[Word], s: int, budget: int, pn: Optional[bool] = None
) -> Optional[tuple[int, Pairs]]:
    """(Z_s, witness pairs) from each factor's order-s half table, or None
    where the closed form does not apply.  ``pn`` says whether every factor's
    half table is distinct, where the caller has decided it already.

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
    if pn is None:
        for f in factors:
            if _vanishing_difference(tuple(by_factor[f]), table.order(f), s) is not None:
                return None
    elif not pn:
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
    pn: Optional[bool] = None,
) -> ZsCertificate:
    """Exact sup over x of the number of pairwise-distinct s-tuples mapping to x.

    The tuple product uses the start-inverse convention.  The value comes in
    closed form from the factors' half tables where that applies (see
    ``_z_closed_form``, which reads their verdict from ``pn`` if given) and
    otherwise from ``z_enumerate`` with ``strategy``, under its own budget;
    both give the same value and witness.
    """
    _check_z_arguments(elements, s, strategy)
    closed = _z_closed_form(elements, s, budget, pn)
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
    levels = _levels(orders, elements, s)
    right = list(_prefixes(orders, levels[split:]))
    if naive:
        # streamed one by one: grouping would hold all perm(n, s - 1) left parts at once
        left = ((part, 1) for part in _prefixes(orders, levels[:split]))
        examined = needed
    else:
        halves = Counter(_prefixes(orders, levels[:split]))
        left, examined = halves.items(), len(halves) * len(set(right))
    counts = _z_join(orders, left, right)
    value = max(counts.values())
    # pair tuples sort like canonical keys, so the least pair tuple has the least key
    witness = min(compress(counts, map(value.__eq__, counts.values())))
    return ZsCertificate(
        n, value, Word(elements[0].table, witness), strategy, examined, BASIS_ENUMERATION
    )


class LeinertWitness(checked_record("LeinertWitness", "s elements")):
    """An adjacent-distinct 2s-tuple whose alternating product is the identity."""

    __slots__ = ()

    def __new__(cls, s: int, elements: tuple[Word, ...]):
        if len(elements) != 2 * s:
            raise ValueError(f"witness needs {2 * s} entries, got {len(elements)}")
        for i in range(len(elements) - 1):
            if elements[i] == elements[i + 1]:
                raise ValueError(f"adjacent entries {i} and {i + 1} coincide")
        if not is_identity(alternating_product(elements, START_PLAIN)):
            raise ValueError("alternating product of the witness is not the identity")
        return tuple.__new__(cls, (s, elements))


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
        # pairs of one difference, so n(n - 1) distinct differences close nothing; else
        # some tuple closes, and each difference lists (i3, i4) by ascending i3
        if len({(xs[a] - xs[b]) % p for a, b in permutations(range(n), 2)}) == n * (n - 1):
            return None
        by_difference: dict[int, list[tuple[int, int]]] = {}
        for b, a in permutations(range(n), 2):
            by_difference.setdefault((xs[a] - xs[b]) % p, []).append((b, a))
        found = next(
            (i1, i2, i3, i4) for i1, i2 in permutations(range(n), 2)
            for i3, i4 in by_difference[(xs[i1] - xs[i2]) % p] if i3 != i2
        )
    elif s % 2:
        found = ((0, 1) * ((s - 1) // 2) + (2,)) * 2
    else:
        h = s // 2 - 1
        found = (0, 1) * h + (0, 2) + (1, 0) * h + (2, 0)
    return LeinertWitness(s, tuple(elements[i] for i in found))


def _subset_sums(exponents: Sequence[int], p: int) -> list[int]:
    """Subset sums mod p in bitmask order (bit i = exponents[i])."""
    sums = [0]
    for x in exponents:
        sums.extend([(t + x) % p for t in sums])
    return sums


def _mask_subset(exponents: Sequence[int], mask: int) -> tuple[int, ...]:
    return tuple(exponents[i] for i in range(len(exponents)) if mask >> i & 1)


def _collides(sums: int, x: int, p: int) -> bool:
    """Whether the ledger ``sums`` meets its rotation by x, 0 < x < p: whether
    some sum t has t + x (no wrap) or t + x - p (wrap) in the ledger too.

    The two halves are tested apart, each a shift and an AND, with no rotation
    built; the wrapped half is tested only when the plain half misses.
    """
    return bool((sums << x) & sums or (sums >> (p - x)) & sums)


def _rotate_in(sums: int, x: int, p: int, mask: int) -> int:
    """The ledger with x added: ``sums`` ORed with its rotation by x."""
    return sums | ((sums << x) & mask) | (sums >> (p - x))


def is_quasi_independent(
    subset: FactorSubset,
    budget_bits: int = DEFAULT_SUBSET_BUDGET_BITS,
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """True iff all 2^m subset sums are distinct mod p.

    The sums are kept as a p-bit ledger, one rotation per exponent.  On failure
    returns the first collision in bitmask scan order as a pair (later subset,
    earlier subset).  Only then is a witness table of subset sums built: the
    first colliding mask has the first colliding exponent i as its top bit, so
    the table stops there, at 2^(i+1) entries: all that the budget bounds.
    """
    exponents = subset.exponents
    p = subset.order
    check_ledger_order(p)
    mask = (1 << p) - 1
    sums = 1
    for i, x in enumerate(exponents):
        if _collides(sums, x, p):
            break
        sums = _rotate_in(sums, x, p, mask)
    else:
        return True, None
    if i + 1 > budget_bits:
        raise BudgetExceeded(f"subset-sum table needs 2^{i + 1} entries, budget is 2^{budget_bits}")
    seen: dict[int, int] = {}
    for later, value in enumerate(_subset_sums(exponents[: i + 1], p)):
        if value in seen:
            break
        seen[value] = later
    return False, (_mask_subset(exponents, later), _mask_subset(exponents, seen[value]))


class QIWitness(NamedTuple):
    """A greedily extracted quasi-independent subset and whether it is maximal."""

    subset: tuple[int, ...]
    maximal: bool


def extract_quasi_independent(subset: FactorSubset) -> QIWitness:
    """Greedy maximal quasi-independent subset, swept in ascending exponent order.

    An element joins when its rotation of the selection's p-bit ledger of
    subset sums misses the ledger, so all sums stay distinct.  A rejected
    element collides with a subset of the current selection and therefore with
    every superset, so one sweep is maximal; maximality is still re-verified
    element-by-element against the final ledger before the flag is set.  The
    greedy result always has size at least log_3 of the parent size.  No sum is
    listed, so no subset budget applies.
    """
    if len(subset.exponents) < 1:
        raise ValueError("extraction needs a nonempty parent set")
    p = subset.order
    check_ledger_order(p)
    mask = (1 << p) - 1
    chosen: list[int] = []
    sums = 1
    for x in subset.exponents:
        if not _collides(sums, x, p):
            chosen.append(x)
            sums = _rotate_in(sums, x, p, mask)
    selected = set(chosen)
    maximal = all(_collides(sums, x, p) for x in subset.exponents if x not in selected)
    return QIWitness(subset=tuple(chosen), maximal=maximal)
