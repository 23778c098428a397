"""Construction of factor sets with the weight-bounded avoidance property.

A set {g_1, ..., g_N} of exponents inside one cyclic factor of odd prime
order p has the avoidance property for an even parameter s when no nontrivial
combination sum(eps_j * g_j) with eps_j in {0, +-1, +-2} and sum|eps_j| <= 2s
vanishes mod p.  The builder realizes the forbidden products incrementally as
weight-stratified residue sets, so each new exponent g is admitted exactly
when neither g nor 2g lies in any stratum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import BudgetExceeded
from .primes import FactorTable, is_prime
from .words import Word, letter_word

DEFAULT_PN_BUDGET = 10_000_000


@dataclass(frozen=True)
class FactorSubset:
    """A finite subset of one cyclic factor, stored as exponent residues."""

    factor: int
    order: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.order % 2 == 0 or not is_prime(self.order):
            raise ValueError(f"order {self.order} is not an odd prime")
        prev = 0
        for e in self.exponents:
            if not 1 <= e <= self.order - 1:
                raise ValueError(f"exponent {e} outside [1, {self.order - 1}]")
            if e <= prev:
                raise ValueError("exponents must be sorted and distinct")
            prev = e

    def __len__(self) -> int:
        return len(self.exponents)

    def words(self, table: FactorTable) -> list[Word]:
        if table.order(self.factor) != self.order:
            raise ValueError(
                f"table order {table.order(self.factor)} for factor {self.factor} "
                f"does not match subset order {self.order}"
            )
        return [letter_word(table, self.factor, e) for e in self.exponents]


@dataclass(frozen=True)
class EpsilonVector:
    """Coefficients in {0, +-1, +-2} against a fixed exponent list."""

    entries: tuple[int, ...]

    def __post_init__(self):
        for e in self.entries:
            if e not in (-2, -1, 0, 1, 2):
                raise ValueError(f"entry {e} outside {{0, +-1, +-2}}")

    @property
    def weight(self) -> int:
        return sum(abs(e) for e in self.entries)


@dataclass(frozen=True)
class ForbiddenStrata:
    """Weight-stratified forbidden residues for the current chosen exponents.

    strata[w] is exactly the set of residues sum(eps_j * g_j) mod p over
    vectors of weight w; stratum 0 is {0} and every stratum is closed under
    negation mod p.
    """

    p: int
    s: int
    strata: tuple[frozenset[int], ...]

    @classmethod
    def empty(cls, p: int, s: int) -> "ForbiddenStrata":
        if s < 2 or s % 2 != 0:
            raise ValueError(f"parameter s must be an even integer >= 2, got {s}")
        return cls(p, s, (frozenset({0}),) + tuple(frozenset() for _ in range(2 * s)))

    @property
    def count(self) -> int:
        return sum(len(stratum) for stratum in self.strata)

    def union(self) -> set[int]:
        out: set[int] = set()
        for stratum in self.strata:
            out |= stratum
        return out


def strata_extend(f: ForbiddenStrata, g: int) -> ForbiddenStrata:
    """Strata after appending exponent g to the chosen set."""
    if not 1 <= g <= f.p - 1:
        raise ValueError(f"exponent {g} outside [1, {f.p - 1}]")
    p = f.p
    shifts = (g % p, (2 * g) % p)
    new: list[frozenset[int]] = []
    for w in range(len(f.strata)):
        stratum = set(f.strata[w])
        for d, shift in enumerate(shifts, start=1):
            if w - d >= 0:
                for r in f.strata[w - d]:
                    stratum.add((r + shift) % p)
                    stratum.add((r - shift) % p)
        new.append(frozenset(stratum))
    return ForbiddenStrata(p, f.s, tuple(new))


def _admissible(forbidden: set[int], p: int, start: int, stop: int) -> Iterator[int]:
    """Exponents g in [start, stop), ascending, with g and 2g mod p outside ``forbidden``."""
    for g in range(start, stop):
        if g not in forbidden and (2 * g) % p not in forbidden:
            yield g


def choose_next(
    f: ForbiddenStrata,
    pool_bound: int,
    used: frozenset[int] | set[int] = frozenset(),
    rng: Optional[random.Random] = None,
) -> Optional[int]:
    """Smallest unused pool exponent g with g and 2g both outside all strata.

    With ``rng`` set, picks uniformly among all admissible candidates instead.
    Returns None when the pool is exhausted.
    """
    candidates = (
        g for g in _admissible(f.union(), f.p, 1, min(pool_bound, f.p - 1) + 1) if g not in used
    )
    if rng is None:
        return next(candidates, None)
    admissible = list(candidates)
    return rng.choice(admissible) if admissible else None


@dataclass(frozen=True)
class PNCertificate:
    """Machine-checkable record of one factor-set construction."""

    n: int
    p: int
    s: int
    chosen: tuple[int, ...]
    pool_bound: int
    target_size: int
    forbidden_trace: tuple[int, ...]

    def __post_init__(self):
        for g in self.chosen:
            if not 1 <= g <= self.pool_bound:
                raise ValueError(f"chosen exponent {g} outside pool [1, {self.pool_bound}]")
        if len(self.forbidden_trace) != len(self.chosen):
            raise ValueError("forbidden-count trace must have one entry per chosen exponent")

    @property
    def achieved_size(self) -> int:
        return len(self.chosen)


@dataclass(frozen=True)
class BuildResult:
    """Outcome of building one factor set; infeasible runs keep their partial work."""

    feasible: bool
    subset: FactorSubset
    certificate: PNCertificate
    nodes_searched: int = 0
    search_exhausted: bool = True


DEFAULT_SEARCH_BUDGET = 5_000


def build_factor_set(
    n: int,
    s: int,
    target_size: int,
    pool_bound: int,
    table: FactorTable,
    rng: Optional[random.Random] = None,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> BuildResult:
    """Choose up to ``target_size`` exponents from [1, pool_bound] by avoidance.

    Deterministic mode runs a smallest-first depth-first search in ascending
    exponent order, backtracking when a branch exhausts the pool; it follows
    the plain greedy path whenever greedy succeeds, and otherwise still finds
    a valid set if one is reachable within ``search_budget`` admission steps
    (plain greedy can strand itself: at p=521 with pool [1, 256] it stalls at
    7 of 8 elements although an 8-element set exists).  With ``rng`` set the
    same search keeps one uniform draw among each node's admissible pool
    exponents and never backtracks: a random greedy walk, reproducible from
    the seed.  A chosen exponent lies in stratum 1, so it is never drawn twice.

    Every step avoids all residues reachable as weight <= 2s combinations of
    the prefix, for the candidate and for its double, so every prefix of the
    result has the avoidance property.  Infeasible outcomes keep the deepest
    prefix reached.
    """
    p = table.order(n)
    if pool_bound > p - 1:
        raise ValueError(f"pool bound {pool_bound} exceeds p - 1 = {p - 1}")
    best_chosen, best_trace = (), ()
    nodes = 0
    exhausted = True

    def dfs(strata: ForbiddenStrata, chosen: tuple[int, ...], trace: tuple[int, ...], start: int) -> bool:
        nonlocal best_chosen, best_trace, nodes, exhausted
        if len(chosen) > len(best_chosen):
            best_chosen, best_trace = chosen, trace
        if len(chosen) == target_size:
            return True
        candidates: Iterable[int] = _admissible(strata.union(), p, start, pool_bound + 1)
        if rng is not None:
            pool = list(candidates)
            candidates = [rng.choice(pool)] if pool else []
        for g in candidates:
            if nodes >= search_budget:
                exhausted = False
                return False
            nodes += 1
            next_start = g + 1 if rng is None else 1
            if dfs(strata_extend(strata, g), chosen + (g,), trace + (strata.count,), next_start):
                return True
            if not exhausted:
                return False
        return False

    dfs(ForbiddenStrata.empty(p, s), (), (), 1)

    certificate = PNCertificate(
        n=n,
        p=p,
        s=s,
        chosen=best_chosen,
        pool_bound=pool_bound,
        target_size=target_size,
        forbidden_trace=best_trace,
    )
    subset = FactorSubset(factor=n, order=p, exponents=tuple(sorted(best_chosen)))
    return BuildResult(
        len(best_chosen) == target_size, subset, certificate, nodes, exhausted
    )


class CountBound(NamedTuple):
    """Enumerated vector count next to the cruder closed-form bound."""

    enumerated: int
    paper: int


def paper_count_bound(n_elements: int, s: int) -> CountBound:
    """Upper bounds on the residues one avoidance condition can forbid.

    ``enumerated`` counts all vectors with at most 2s nonzero entries from
    {+-1, +-2}: sum over k of C(N, k) * 4^k.  ``paper`` is the cruder
    C(N, 2s) * 5^(2s), degenerate (zero) when N < 2s.
    """
    enumerated = sum(math.comb(n_elements, k) * 4**k for k in range(0, 2 * s + 1))
    return CountBound(enumerated, math.comb(n_elements, 2 * s) * 5 ** (2 * s))


def epsilon_vector_count(n_elements: int, s: int) -> int:
    """Exact number of nonzero vectors over {0, +-1, +-2}^N with weight <= 2s."""
    total = 0
    for k in range(1, min(2 * s, n_elements) + 1):
        # j entries of magnitude 2, k - j of magnitude 1: weight k + j
        patterns = sum(math.comb(k, j) for j in range(0, min(k, 2 * s - k) + 1))
        total += math.comb(n_elements, k) * patterns * 2**k
    return total


def verify_pn_bruteforce(
    subset: FactorSubset,
    s: int,
    budget: int = DEFAULT_PN_BUDGET,
) -> tuple[bool, Optional[EpsilonVector]]:
    """Exhaustively check the avoidance property over all weight <= 2s vectors.

    Returns (True, None) or (False, first violating vector) in the fixed
    enumeration order: support sets by size then lexicographically, values per
    support in (1, -1, 2, -2) product order.  Refuses when the enumeration
    would exceed ``budget``.
    """
    if s < 2 or s % 2 != 0:
        raise ValueError(f"parameter s must be an even integer >= 2, got {s}")
    n_elements = len(subset.exponents)
    count = epsilon_vector_count(n_elements, s)
    if count > budget:
        raise BudgetExceeded(
            f"avoidance check needs {count} vectors, budget is {budget}"
        )
    p = subset.order
    exps = subset.exponents
    max_weight = 2 * s
    for k in range(1, min(max_weight, n_elements) + 1):
        for support in combinations(range(n_elements), k):
            support_exps = tuple(exps[i] for i in support)
            for values in product((1, -1, 2, -2), repeat=k):
                if k + sum(1 for v in values if abs(v) == 2) > max_weight:
                    continue
                if sum(v * g for v, g in zip(values, support_exps)) % p == 0:
                    entries = [0] * n_elements
                    for i, v in zip(support, values):
                        entries[i] = v
                    return False, EpsilonVector(tuple(entries))
    return True, None


@dataclass(frozen=True)
class BuildProfile:
    """Size and pool rules parameterizing a family build."""

    name: str
    target_size: Callable[[int, int], int]  # (n, s) -> elements wanted in factor n
    default_range: Callable[[int], tuple[int, int]]  # s -> (n_min, n_max)

    def pool_bound(self, n: int) -> int:
        return 2**n


PROFILES = {
    profile.name: profile
    for profile in (
        BuildProfile("paper", lambda n, s: n * n, lambda s: (3, 8)),
        BuildProfile(
            "desk", lambda n, s: n if s == 2 else 6, lambda s: (8, 16) if s == 2 else (8, 12)
        ),
        BuildProfile("tiny", lambda n, s: 3, lambda s: (4, 8)),
    )
}


@dataclass(frozen=True)
class LacunaryFamily:
    """The per-factor sets built for one parameter s, with their certificates."""

    s: int
    table: FactorTable
    profile: str
    seed: Optional[int]
    results: tuple[BuildResult, ...]

    @property
    def n_feasible(self) -> Optional[int]:
        """First factor index at which the target size was met."""
        for result in self.results:
            if result.feasible:
                return result.certificate.n
        return None

    def result_for(self, n: int) -> BuildResult:
        for result in self.results:
            if result.certificate.n == n:
                return result
        raise KeyError(f"factor {n} not present in family")

    def union_words(self) -> list[Word]:
        """All stored elements across factors, as words; partial sets included."""
        out: list[Word] = []
        for result in self.results:
            out.extend(result.subset.words(self.table))
        return out


def build_family(
    s: int,
    n_range: tuple[int, int],
    profile: BuildProfile | str = "desk",
    seed: Optional[int] = None,
    table: Optional[FactorTable] = None,
) -> LacunaryFamily:
    """Build each factor set in the range independently; failures are recorded,
    never fatal."""
    if isinstance(profile, str):
        profile = PROFILES[profile]
    n_min, n_max = n_range
    if n_min > n_max:
        results: tuple[BuildResult, ...] = ()
        return LacunaryFamily(s, table or FactorTable.paper_default(1), profile.name, seed, results)
    if table is None:
        table = FactorTable.paper_default(n_max)
    rng = random.Random(seed) if seed is not None else None
    built = []
    for n in range(n_min, n_max + 1):
        built.append(
            build_factor_set(
                n, s, profile.target_size(n, s), profile.pool_bound(n), table, rng
            )
        )
    return LacunaryFamily(s, table, profile.name, seed, tuple(built))
