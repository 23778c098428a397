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
their (factor, exp) pair tuples, reduced by ``words.reduce_pairs`` and
inverted by ``words.inverse_pairs``.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

from .builder import FactorSubset, check_even_s
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

DEFAULT_TUPLE_BUDGET = 2_000_000
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


def _signed_pairs(elements: Sequence[Word]) -> list[tuple[Pairs, Pairs]]:
    """Per element, its (factor, exp) pairs and those of its inverse (unreduced)."""
    return [(w.pairs, inverse_pairs(w.pairs)) for w in elements]


def _product(
    orders: Sequence[int], signed: Sequence[tuple[Pairs, Pairs]], indices: tuple[int, ...], offset: int
) -> Pairs:
    """Reduced product of the selected elements with start-inverse signs from ``offset``."""
    raw: list[tuple[int, int]] = []
    for position, i in enumerate(indices, offset):
        # position even (0-based) -> inverse, matching x_1^-1 x_2 x_3^-1 ...
        raw.extend(signed[i][1 - position % 2])
    return reduce_pairs(orders, raw)


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
    signed = _signed_pairs(elements)
    counts = Counter(_product(orders, signed, t, 0) for t in permutations(range(n), s))
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
    signed = _signed_pairs(elements)

    def group_halves(offset: int) -> Counter[tuple[Pairs, frozenset[int]]]:
        return Counter(
            (_product(orders, signed, t, offset), frozenset(t)) for t in permutations(range(n), h)
        )

    left = group_halves(0)
    right = group_halves(h)
    counts: dict[Pairs, int] = defaultdict(int)
    for (lpairs, lset), lcount in left.items():
        for (rpairs, rset), rcount in right.items():
            if lset.isdisjoint(rset):
                counts[reduce_pairs(orders, lpairs + rpairs)] += lcount * rcount
    return _z_result(elements, s, counts, STRATEGY_MITM, len(left) * len(right))


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
    runs depth-first in index order with prefix pruning: a partial product too
    long to cancel within the remaining positions is abandoned.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    _check_ground_set(elements)
    m = len(elements)
    length = 2 * s
    if m == 0:
        return None
    space = m * (m - 1) ** (length - 1) if m > 1 else 0
    if space > budget:
        raise BudgetExceeded(f"tuple space has {space} entries, budget is {budget}")
    if space == 0:
        return None
    max_len = max(len(w) for w in elements)
    orders = elements[0].table.orders
    signed = _signed_pairs(elements)

    def dfs(pos: int, prev: Optional[int], prod: Pairs, chosen: tuple[int, ...]):
        if pos == length:
            return None if prod else chosen
        remaining = length - pos
        if len(prod) > remaining * max_len:
            return None
        inverted = pos % 2  # start-plain: even positions plain, odd positions inverted
        for i in range(m):
            if i == prev:
                continue
            found = dfs(pos + 1, i, reduce_pairs(orders, prod + signed[i][inverted]), chosen + (i,))
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
            raise BudgetExceeded(
                f"selection reached 2^{budget_bits} subset sums", partial=tuple(chosen)
            )
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
