"""Exact tuple counting and combinatorial witnesses.

Three independent engines over the group core:

* ``z_value`` — the exact supremum, over group elements x, of the number of
  pairwise-distinct s-tuples whose alternating product x_1^-1 x_2 x_3^-1 ...
  equals x, by full enumeration or a meet-in-the-middle split; both keep a
  count per product and nothing else;
* ``leinert_violation`` — exhaustive search for adjacent-distinct 2s-tuples
  whose start-plain alternating product is the identity;
* quasi-independence testing and greedy maximal extraction via exact subset
  sums inside one cyclic factor.

The Z_s and Leinert engines take and return ``Word`` values and loop over
their (factor, exp) pair tuples.  Each element's pairs and the reduced pairs
of its inverse are prepared once; a depth-first walk then extends a reduced
prefix by one element at a time with ``words.join_pairs``, which touches only
the junction.  Z_s keeps the indices used as an integer bitmask and counts
the last position in bulk, one key list per prefix; meet-in-the-middle walks
each half the same way and joins the halves whose bitmasks are disjoint.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .builder import DEFAULT_TUPLE_BUDGET, FactorSubset, check_even_s
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
    join_pairs,
    multiply,
    reduce_pairs,
)

DEFAULT_SUBSET_BUDGET_BITS = 22

STRATEGY_NAIVE = "naive"
STRATEGY_MITM = "meet-in-middle"


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
    by canonical key (None when no s-tuple exists).  ``tuples_examined``
    counts naive tuples or meet-in-the-middle half-pairs.
    """

    s: int
    ground_size: int
    value: int
    witness: Optional[Word]
    strategy: str
    tuples_examined: int


def _check_ground_set(elements: Sequence[Word]) -> None:
    if len({w.pairs for w in elements}) != len(elements):
        raise ValueError("ground set elements must be distinct")
    if len({w.table for w in elements}) > 1:
        raise ValueError("ground set elements must share one factor table")


def _plain_and_inverse(
    orders: Sequence[int], elements: Sequence[Word]
) -> list[tuple[Pairs, Pairs]]:
    """Per element, its (factor, exp) pairs and the reduced pairs of its inverse."""
    return [(w.pairs, reduce_pairs(orders, inverse_pairs(w.pairs))) for w in elements]


# one entry per element at one tuple position: (index bit, first factor or 0, signed pairs)
Level = list[tuple[int, int, Pairs]]


def _levels(signed: Sequence[tuple[Pairs, Pairs]], start: int, count: int) -> list[Level]:
    """Entries for positions start .. start+count-1; an even position takes the inverse."""
    levels = []
    for position in range(start, start + count):
        pieces = [pair[1 - position % 2] for pair in signed]
        levels.append(
            [(1 << i, piece[0][0] if piece else 0, piece) for i, piece in enumerate(pieces)]
        )
    return levels


def _prefixes(
    orders: Sequence[int], levels: Sequence[Level], pos: int = 0, prod: Pairs = (), mask: int = 0
) -> Iterator[tuple[Pairs, int]]:
    """(reduced product, index bitmask) of every pairwise-distinct choice, one entry per level."""
    if pos == len(levels):
        yield prod, mask
        return
    for bit, _, piece in levels[pos]:
        if not mask & bit:
            prefix = join_pairs(orders, prod, piece)
            yield from _prefixes(orders, levels, pos + 1, prefix, mask | bit)


def _junction_keys(orders: Sequence[int], prod: Pairs, mask: int, level: Level) -> list[Pairs]:
    """Reduced products of ``prod`` with every entry of ``level`` outside ``mask``.

    A piece whose first factor differs from the prefix's last letter only
    concatenates; the identity piece (first factor 0) always does.
    """
    last = prod[-1][0] if prod else -1
    return [
        prod + piece if first != last else join_pairs(orders, prod, piece)
        for bit, first, piece in level
        if not mask & bit
    ]


def _z_result(
    elements: Sequence[Word],
    s: int,
    counts: dict[Pairs, int],
    strategy: str,
    examined: int,
) -> ZsCertificate:
    """The maximal count and its least-key witness; the keys are already reduced."""
    n = len(elements)
    if not counts:
        return ZsCertificate(s, n, 0, None, strategy, examined)
    value = max(counts.values())
    witness_key = min(k for k, c in counts.items() if c == value)
    return ZsCertificate(s, n, value, Word(elements[0].table, witness_key), strategy, examined)


def _z_naive(elements: Sequence[Word], s: int, budget: int) -> ZsCertificate:
    n = len(elements)
    total = math.perm(n, s)
    if total > budget:
        raise BudgetExceeded(f"naive enumeration needs {total} tuples, budget is {budget}")
    orders = elements[0].table.orders
    *levels, last = _levels(_plain_and_inverse(orders, elements), 0, s)
    counts: Counter[Pairs] = Counter()
    for prod, mask in _prefixes(orders, levels):
        counts.update(_junction_keys(orders, prod, mask, last))
    return _z_result(elements, s, counts, STRATEGY_NAIVE, total)


def _z_meet_in_middle(elements: Sequence[Word], s: int, budget: int) -> ZsCertificate:
    n = len(elements)
    h = s // 2
    half_total = math.perm(n, h)
    if half_total * half_total > budget:
        raise BudgetExceeded(
            f"meet-in-the-middle join needs {half_total * half_total} pairs, "
            f"budget is {budget}"
        )
    orders = elements[0].table.orders
    signed = _plain_and_inverse(orders, elements)
    left = Counter(_prefixes(orders, _levels(signed, 0, h)))
    right = list(_prefixes(orders, _levels(signed, h, h)))
    # the right halves join as one level; a half reached by c orderings stands in it c times
    level = [(mask, prod[0][0] if prod else 0, prod) for prod, mask in right]
    counts: Counter[Pairs] = Counter()
    for (lprod, lmask), lcount in left.items():
        counts.update(_junction_keys(orders, lprod, lmask, level) * lcount)
    return _z_result(elements, s, counts, STRATEGY_MITM, len(left) * len(set(right)))


def z_value(
    elements: Sequence[Word],
    s: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
    strategy: str = STRATEGY_NAIVE,
) -> ZsCertificate:
    """Exact sup over x of the number of pairwise-distinct s-tuples mapping to x.

    The tuple product uses the start-inverse convention.  Both strategies are
    exact and must agree; ``meet-in-middle`` splits tuples at s/2, groups the
    half-products by reduced form, and joins disjoint halves.
    """
    if s < 2:
        raise ValueError(f"s must be >= 2, got {s}")
    if strategy not in (STRATEGY_NAIVE, STRATEGY_MITM):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == STRATEGY_MITM and s % 2 != 0:
        raise ValueError("meet-in-the-middle split requires even s")
    _check_ground_set(elements)
    if len(elements) < s:
        return ZsCertificate(s, len(elements), 0, None, strategy, 0)
    engine = _z_naive if strategy == STRATEGY_NAIVE else _z_meet_in_middle
    return engine(elements, s, budget)


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
    """Lexicographically first adjacent-distinct 2s-tuple multiplying to e, or None.

    None means the whole tuple space was searched; a budget refusal is raised
    before any truncated search, so "none" is always exhaustive.  The search
    runs depth-first in index order over the first 2s - 1 entries.  Start-plain
    inverts the last entry, so the tuple closes exactly when the last entry is
    the reduced product of the prefix: the elements are distinct, so one lookup
    finds the only candidate, which is refused when it equals the entry before.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    _check_ground_set(elements)
    m = len(elements)
    length = 2 * s
    space = m * (m - 1) ** (length - 1)
    if space > budget:
        raise BudgetExceeded(f"tuple space has {space} entries, budget is {budget}")
    if space == 0:
        return None
    orders = elements[0].table.orders
    signed = _plain_and_inverse(orders, elements)
    closing = {w.pairs: i for i, w in enumerate(elements)}

    def dfs(pos: int, prev: Optional[int], prod: Pairs, chosen: tuple[int, ...]):
        if pos == length - 1:
            last = closing.get(prod)
            return None if last is None or last == prev else chosen + (last,)
        inverted = pos % 2  # start-plain: even positions plain, odd positions inverted
        for i in range(m):
            if i == prev:
                continue
            found = dfs(pos + 1, i, join_pairs(orders, prod, signed[i][inverted]), chosen + (i,))
            if found is not None:
                return found
        return None

    found = dfs(0, None, (), ())
    if found is None:
        return None
    return LeinertWitness(s, tuple(elements[i] for i in found))


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
    (later subset, earlier subset).
    """
    m = len(subset.exponents)
    if m > budget_bits:
        raise BudgetExceeded(f"subset-sum table needs 2^{m} entries, budget is 2^{budget_bits}")
    p = subset.order
    seen: dict[int, int] = {}
    sums = _subset_sums(subset.exponents, p)
    for mask, value in enumerate(sums):
        if value in seen:
            return False, (
                _mask_subset(subset.exponents, mask),
                _mask_subset(subset.exponents, seen[value]),
            )
        seen[value] = mask
    return True, None


@dataclass(frozen=True)
class QIWitness:
    """A greedily extracted quasi-independent subset with its sum-table digest."""

    order: int
    parent: tuple[int, ...]
    subset: tuple[int, ...]
    table_digest: str
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
    digest = hashlib.sha256(b"".join(v.to_bytes(8, "big") for v in sums)).hexdigest()
    return QIWitness(
        order=p,
        parent=subset.exponents,
        subset=tuple(chosen),
        table_digest=digest,
        maximal=maximal,
    )
