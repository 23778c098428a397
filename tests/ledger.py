"""Decoding of the builder's ledger once folded mod p (``ForbiddenStrata.bits``
and ``forbidden``), the levels an enumeration by exact weight gives, and the
search that extends the ledger at every node, for the tests that compare the
builder with them."""

from __future__ import annotations

import random
from typing import Optional

from freelac import FactorTable, builder


def residues(bits: int) -> set[int]:
    """The residues r whose bit r is set in ``bits``."""
    return {r for r, digit in enumerate(reversed(bin(bits)[2:])) if digit == "1"}


def levels_of(by_weight: dict[int, set[int]]) -> list[set[int]]:
    """Level w, the union of the exact-weight sets of weight at most w, for each
    weight in ``by_weight``."""
    levels, reached = [], set()
    for w in sorted(by_weight):
        reached = reached | by_weight[w]
        levels.append(reached)
    return levels


def all_strata_search(
    n: int,
    s: int,
    target_size: int,
    pool_bound: int,
    table: FactorTable,
    rng: Optional[random.Random] = None,
) -> tuple[int, bool, tuple[int, ...]]:
    """``build_factor_set``'s search with every admitted exponent extending the
    levels, a node one exponent short of the target included, where the
    builder reads that node's top level alone.  Returns (nodes,
    exhausted, chosen).

    The budget and the walk test are read from ``builder.DEFAULT_SEARCH_BUDGET``
    and ``builder.strict_table_size`` at call time, so a test that patches
    either patches this search too.
    """
    p = table.order(n)
    best_chosen: tuple[int, ...] = ()
    nodes = 0
    exhausted = True
    walk = rng is not None or builder.strict_table_size(target_size, s) > p

    def dfs(strata, chosen, start):
        nonlocal best_chosen, nodes, exhausted
        if len(chosen) > len(best_chosen):
            best_chosen = chosen
        if len(chosen) == target_size:
            return True
        if rng is None:
            candidates = builder._admissible(strata.forbidden, p, start, pool_bound + 1)
        else:
            pick = builder.choose_next(strata, pool_bound, rng=rng)
            candidates = [] if pick is None else [pick]
        for g in candidates:
            if nodes >= builder.DEFAULT_SEARCH_BUDGET:
                exhausted = False
                return False
            nodes += 1
            next_start = g + 1 if rng is None else 1
            if dfs(builder.strata_extend(strata, g), chosen + (g,), next_start):
                return True
            if walk or not exhausted:
                return False
        return False

    dfs(builder.ForbiddenStrata.empty(p, s), (), 1)
    return nodes, exhausted, best_chosen
