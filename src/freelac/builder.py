"""Construction of factor sets with the weight-bounded avoidance property.

A set {g_1, ..., g_N} of exponents inside one cyclic factor of odd prime
order p has the avoidance property for an even parameter s when no nontrivial
combination sum(eps_j * g_j) with eps_j in {0, +-1, +-2} and sum|eps_j| <= 2s
vanishes mod p.  The builder keeps the residues the combinations reach level
by level, level w holding those of weight at most w, so each new exponent g
is admitted exactly when neither g nor 2g lies in the top level 2s.

The ledger keeps each level as one integer of unreduced sums: bit t + offset
is set when the integer sum t = sum(eps_j * g_j) is reached, where offset =
2s * max(chosen) bounds every |t|.  Admitting g ORs in the lower levels
shifted by +-g and +-2g, with no rotation, no mask and no loop over residues;
a larger exponent first moves every level up to its larger offset.  The
levels are folded mod p only where two sums can meet mod p: when read as
residues (``ForbiddenStrata.bits``), and once the window [-offset, offset]
is as wide as p: from then on they are kept folded, bit r for residue r,
each shift a rotation mod p, so no level grows wider than p bits.  While
the window is narrower, each residue has at most two aliases in it, so the search finds its next exponent by probing the top
level for its lowest clear sum at or above the last exponent tried and
bit-testing the other aliases of it and of its double, with a few
whole-integer operations and no per-residue work (``_first_admissible``).
At desk s=2, n=16 the window is 9,449 bits against p = 131,101.  Only a
seeded draw, which needs every candidate, writes the folded top level out as
binary digits.  A search node one exponent short of the target is decided
from the top level it would have (``forbidden_after``) without building its
levels, and counts as one node, so the node count equals the full search's.

``verify_pn_bruteforce`` decides the half table with the same two shifts on
bitsets where they cost less than its dict fill and fit ``MAX_LEDGER_BITS``,
and otherwise fills the table, as it does to name a collision.

The builder is stricter than the property.  Admitting g keeps the property
when g lies outside level 2s - 1 and 2g outside level 2s - 2; the builder
asks both to lie outside level 2s.  Every set it builds has the property,
so any bound on the sets with the property bounds the builder too, though
not the other way round.  One such bound is a count: an N-set with the
property has sum_{k<=s} C(N, k) * 2^k distinct signed sums of at most s terms
(see ``verify_pn_bruteforce``), so none exists in Z_p once that count exceeds
p.  The builder's own rule keeps 2^(s+1) * C(N-1, s) more sums distinct, those
of s + 1 terms that use the last exponent admitted (``strict_table_size``),
so it reaches no N-set once that larger count exceeds p, and it then walks
instead of searching.  At desk s=4, n=8 (p = 521, target 6) the property
count is 473 and the strict count 633: no 6-set is strictly admitted, while
whether a 6-set with the property exists in Z_521 stays open.  Admitting by
the property itself (g outside level 2s - 1, 2g outside level 2s - 2) voids
the strict count, and the walk test must then go back to the property count.

A fold, a seeded draw and a folded level hold p bits, so orders above
``MAX_LEDGER_BITS`` are refused before any ledger is built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator, Optional

from .errors import BudgetExceeded, LimitExceeded
from .primes import FactorTable, is_prime
from .words import Word, letter_word

DEFAULT_TUPLE_BUDGET = 2_000_000
# The largest order whose ledgers are built.  No flag changes it: it admits
# n <= 24.  A deterministic desk search at large p keeps windows far narrower
# than p (the desk s=2 n=24 build peaks at about 17 MB), but a seeded draw
# writes the top level out as p digits and a window as wide as p keeps its
# levels folded at p bits each (the seeded s=2 n=24 build peaks at about
# 1.2 GB), and each factor past n = 24 doubles them.
MAX_LEDGER_BITS = 1 << 26
# One entry of the half-table fill costs as much as about this many 64-bit limbs
# of a bitset shift: 30-40 at N = 4..24, s = 2 and 4, CPython 3.11, 2-core Xeon.
_LIMBS_PER_ENTRY = 32


def check_even_s(s: int) -> None:
    """Reject a parameter s that is not an even integer >= 2."""
    if not isinstance(s, int) or s < 2 or s % 2 != 0:
        raise ValueError(f"s must be an even integer >= 2, got {s!r}")


def check_ledger_order(p: int) -> None:
    """Refuse, before building a ledger, an order over ``MAX_LEDGER_BITS``."""
    if p > MAX_LEDGER_BITS:
        raise LimitExceeded(f"p-bit ledger at p={p} exceeds the {MAX_LEDGER_BITS}-bit limit")


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


@dataclass(frozen=True)
class ForbiddenStrata:
    """The sums the chosen exponents reach, level by level.

    Level w is the set of integer sums sum(eps_j * g_j) over vectors of
    weight at most w: level 0 is {0}, each level holds the one below it, and
    every level is closed under negation.  ``sums[w]`` stores level w as one
    integer whose bit t + ``offset`` is set when sum t lies in it, with
    ``offset`` = 2s * max(chosen) >= |t|, so adding an exponent shifts whole
    levels at once and the avoidance scan reads the top one.  Once 2s *
    max(chosen) reaches p/2 the levels are kept folded instead, bit r set
    when residue r is reached, with ``offset`` = p, since r - p is r mod p.
    ``bits`` and ``forbidden`` give the levels mod p either way.
    """

    p: int
    s: int
    offset: int
    sums: tuple[int, ...]

    @classmethod
    def empty(cls, p: int, s: int) -> "ForbiddenStrata":
        check_even_s(s)
        check_ledger_order(p)
        return cls(p, s, 0, (1,) * (2 * s + 1))

    @property
    def bits(self) -> tuple[int, ...]:
        """Every level folded mod p, as p-bit integers."""
        return tuple(_fold(x, self.offset, self.p) for x in self.sums)

    @property
    def forbidden(self) -> int:
        """The top level folded mod p: every residue of weight at most 2s."""
        return _fold(self.sums[-1], self.offset, self.p)


def _fold(sums: int, offset: int, p: int) -> int:
    """The residues mod p of the sums whose bit t + ``offset`` is set in
    ``sums``, as a p-bit integer: shifted so that bit t + offset moves to a
    position congruent to t, the integer is ORed together p bits at a time."""
    sums <<= -offset % p
    mask = (1 << p) - 1
    folded = 0
    while sums:
        folded |= sums & mask
        sums >>= p
    return folded


def _window(sums: int, offset: int, p: int) -> tuple[int, int]:
    """A level and its offset as ``_first_admissible`` reads them: the sums
    while the window [-offset, offset] is narrower than p, else the residues
    that ``strata_extend`` keeps folded at bit r, read at offset 0.  Either
    way every residue has at most two aliases in the window, r and r - p."""
    return sums, offset if 2 * offset < p else 0


def _folded(levels: tuple[int, ...], offset: int, p: int) -> tuple[int, ...]:
    """Levels as the residues mod p they reach, bit r for residue r: folded,
    or as they are when the window is already as wide as p."""
    return levels if 2 * offset >= p else tuple(_fold(x, offset, p) for x in levels)


def strata_extend(f: ForbiddenStrata, g: int) -> ForbiddenStrata:
    """Levels after appending exponent g to the chosen set.

    Level w gains level w-1 shifted by +-g and level w-2 shifted by +-2g.
    While the window of the new offset 2s * M, M = max(chosen + g), is
    narrower than p, every level first moves up to that offset, and a shift
    down drops no sum: a sum t of level w - k (k = 1, 2) is at least
    -(w - k) * M, so it lies at bit t + 2s * M >= k * M >= k * g.  Once the
    window is as wide as p, the levels are folded and kept as p-bit residues
    at offset p, a shift by -g being one by p - g and the bits above p
    folding back, so no level outgrows p bits.
    """
    if not 1 <= g <= f.p - 1:
        raise ValueError(f"exponent {g} outside [1, {f.p - 1}]")
    p = f.p
    offset = max(f.offset, 2 * f.s * g)
    new = []
    if 2 * offset < p:
        lift = offset - f.offset
        old = [x << lift for x in f.sums]
        g2 = 2 * g
        for w, x in enumerate(old):
            if w >= 1:
                one = old[w - 1]
                x |= (one << g) | (one >> g)
            if w >= 2:
                two = old[w - 2]
                x |= (two << g2) | (two >> g2)
            new.append(x)
    else:
        old, offset = _folded(f.sums, f.offset, p), p
        mask, d = (1 << p) - 1, 2 * g % p
        for w, x in enumerate(old):
            if w >= 1:
                one = old[w - 1]
                x |= (one << g) | (one << (p - g))
            if w >= 2:
                two = old[w - 2]
                x |= (two << d) | (two << (p - d))
            new.append(x & mask | x >> p)
    return ForbiddenStrata(p, f.s, offset, tuple(new))


def forbidden_after(f: ForbiddenStrata) -> Callable[[int], tuple[int, int]]:
    """The map g -> (top, offset) of ``strata_extend(f, g)``, for
    1 <= g <= p - 1, without building the levels: the top level gains level
    2s - 1 shifted by +-g and level 2s - 2 shifted by +-2g, each first moved
    up to the larger offset that a larger g brings, or rotated mod p once
    that offset's window is as wide as p."""
    s, p, offset = f.s, f.p, f.offset
    levels = f.sums[-1], f.sums[-2], f.sums[-3]
    folded: Optional[tuple[int, ...]] = None
    mask = (1 << p) - 1

    def after(g: int) -> tuple[int, int]:
        nonlocal folded
        wide = max(offset, 2 * s * g)
        if 2 * wide < p:
            lift = wide - offset
            top, one, two = (x << lift for x in levels)
            g2 = 2 * g
            return top | (one << g) | (one >> g) | (two << g2) | (two >> g2), wide
        if folded is None:
            folded = _folded(levels, offset, p)
        top, one, two = folded
        d = 2 * g % p
        x = top | (one << g) | (one << (p - g)) | (two << d) | (two << (p - d))
        return x & mask | x >> p, p

    return after


def _first_admissible(
    forbidden: int, p: int, start: int, stop: int, offset: int = 0
) -> Optional[int]:
    """The least g in [start, stop) such that neither g nor 2g mod p is
    reached mod p by the sums t that ``forbidden`` holds at bit t + ``offset``,
    or None; with offset 0 this reads a p-bit integer of residues.  The
    window [-offset, offset] must be narrower than p (``_window``).

    Then a residue r in [1, p - 1] is reached exactly when sum r or sum
    r - p is set, and no other alias r + kp fits in the window.  With y =
    forbidden >> (start + offset), ``(y + 1) ^ y`` sets the bits of y up to
    and including its lowest clear one, so its bit length less one is the
    offset from ``start`` of the first sum left clear, found without a window
    mask.  A candidate g with sum g - p set, or with d = 2g mod p and sum d or
    d - p set, sends the probe on from the next exponent.  A probe costs a few
    operations on the whole integer and writes nothing out per residue.
    """
    while start < stop:
        y = forbidden >> (start + offset)
        g = start + ((y + 1) ^ y).bit_length() - 1
        if g >= stop:
            return None
        low = g - p + offset  # the bit of sum g - p
        twice = 2 * g % p + offset  # the bit of sum d; sum d - p's is p below
        if not (
            forbidden >> twice & 1
            or (low >= 0 and forbidden >> low & 1)
            or (twice >= p and forbidden >> (twice - p) & 1)
        ):
            return g
        start = g + 1
    return None


def _admissible(forbidden: int, p: int, start: int, stop: int) -> Iterator[int]:
    """Exponents g in [start, stop), ascending, whose bits g and 2g mod p are
    clear in the p-bit integer ``forbidden``: the full list a seeded draw
    chooses from.

    The integer is written out once as p binary digits, and once more with
    the digits reordered so that position g holds digit 2g mod p (the even
    residues 2g for g < p/2, then the odd residues 2g - p).  ``str.find``
    skips each run of forbidden residues, and inside a free run the doubling
    test is a lazy C-level ``compress``.  Listing every candidate this way is
    cheaper than probing for each one, which costs whole-integer operations
    per candidate; a search that takes candidates one at a time probes
    instead (``_first_admissible``).
    """
    digits = format(forbidden, f"0{p}b")[::-1]  # digits[r] is bit r
    twice = digits[0::2] + digits[1::2]  # twice[g] is digits[2g mod p]
    g = digits.find("0", start, stop)
    while g >= 0:
        end = digits.find("1", g, stop)
        if end < 0:
            end = stop
        yield from compress(range(g, end), map("0".__eq__, twice[g:end]))
        g = digits.find("0", end, stop)


def choose_next(
    f: ForbiddenStrata,
    pool_bound: int,
    used: frozenset[int] | set[int] = frozenset(),
    rng: Optional[random.Random] = None,
) -> Optional[int]:
    """Smallest unused pool exponent g with g and 2g both outside the top level.

    With ``rng`` set, picks uniformly among all admissible candidates instead.
    Returns None when the pool is exhausted.
    """
    stop = min(pool_bound, f.p - 1) + 1
    if rng is None:
        top, offset = _window(f.sums[-1], f.offset, f.p)
        g = _first_admissible(top, f.p, 1, stop, offset)
        while g in used:
            g = _first_admissible(top, f.p, g + 1, stop, offset)
        return g
    return _draw(f.forbidden, f.p, stop, rng, used)


def _draw(
    forbidden: int,
    p: int,
    stop: int,
    rng: random.Random,
    used: frozenset[int] | set[int] = frozenset(),
) -> Optional[int]:
    """One uniform draw among the exponents in [1, stop) outside ``used``
    whose bits g and 2g mod p are clear in the p-bit integer ``forbidden``,
    or None.  The list drawn from is freed on return, so a walk does not keep
    one per node on its stack."""
    admissible = [g for g in _admissible(forbidden, p, 1, stop) if g not in used]
    return rng.choice(admissible) if admissible else None


@dataclass(frozen=True)
class BuildResult:
    """One built factor set, with how it was chosen and how far the search went.

    ``subset`` holds the kept exponents sorted; ``chosen`` holds the same
    exponents in admission order.  Infeasible runs keep the deepest prefix
    reached, so ``feasible`` compares the kept size with ``target_size``.  The
    factor index and order come from ``subset``.

    ``nodes_searched`` counts admission steps and ``search_exhausted`` says the
    search stopped before its node budget: a deterministic search then visited
    its whole tree, a walk (seeded, or on a target the strict count rules
    out, such as 6 at desk s=4, n=8) reached a dead end.  A family read back
    from a format-1 file, which stored neither, has both as None.
    """

    subset: FactorSubset
    chosen: tuple[int, ...]
    pool_bound: int
    target_size: int
    nodes_searched: Optional[int] = None
    search_exhausted: Optional[bool] = None

    def __post_init__(self):
        if tuple(sorted(self.chosen)) != self.subset.exponents:
            raise ValueError(f"chosen exponents {list(self.chosen)} are not the subset's exponents")
        for g in self.chosen:
            if not 1 <= g <= self.pool_bound:
                raise ValueError(f"chosen exponent {g} outside pool [1, {self.pool_bound}]")

    @property
    def n(self) -> int:
        return self.subset.factor

    @property
    def p(self) -> int:
        return self.subset.order

    @property
    def feasible(self) -> bool:
        """Whether the stored set reaches the target size."""
        return len(self.subset) == self.target_size


# Admission steps per deterministic search.  No flag changes it, so a factor's
# search record depends only on (n, s, target, pool).
DEFAULT_SEARCH_BUDGET = 5_000


def build_factor_set(
    n: int,
    s: int,
    target_size: int,
    pool_bound: int,
    table: FactorTable,
    rng: Optional[random.Random] = None,
) -> BuildResult:
    """Choose up to ``target_size`` exponents from [1, pool_bound] by avoidance.

    Deterministic mode runs a smallest-first depth-first search in ascending
    exponent order, backtracking when a branch exhausts the pool; it follows
    the plain greedy path whenever greedy succeeds, and otherwise still finds
    a valid set if one is reachable within ``DEFAULT_SEARCH_BUDGET`` admission
    steps (plain greedy can strand itself: at p=521 with pool [1, 256] it
    stalls at 7 of 8 elements although an 8-element set exists).  With
    ``rng`` set the same search keeps one uniform draw among each node's
    admissible pool exponents and never backtracks: a random greedy walk,
    reproducible from the seed.  A chosen exponent lies in level 1, so it is
    never drawn twice.
    When ``strict_table_size(target_size, s) > p`` the builder's rule admits
    no target-sized set, so deterministic mode walks too, taking each node's
    smallest admissible exponent: the plain greedy path, ending at a dead end.

    Every step avoids all residues reachable as weight <= 2s combinations of
    the prefix, for the candidate and for its double, so every prefix of the
    result has the avoidance property.  Infeasible outcomes keep the deepest
    prefix reached.

    A child holding ``target_size - 1`` exponents only asks whether an
    admissible exponent follows its last one, so it is decided from its top
    level alone (``forbidden_after``); it counts as one node, as does the
    exponent that completes it, so the node count equals the full search's.
    """
    p = table.order(n)
    if pool_bound > p - 1:
        raise ValueError(f"pool bound {pool_bound} exceeds p - 1 = {p - 1}")
    best_chosen = ()
    nodes = 0
    exhausted = True
    walk = rng is not None or strict_table_size(target_size, s) > p

    def candidates(forbidden: int, offset: int, chosen: tuple[int, ...]) -> Iterator[int]:
        """A node's exponents to try, read from its top level as ``_window``
        gives it: every admissible one above the last chosen exponent, each
        probed for from the one after the last yielded, or with ``rng`` set
        one uniform draw among all admissible pool exponents."""
        if rng is None:
            g = _first_admissible(
                forbidden, p, chosen[-1] + 1 if chosen else 1, pool_bound + 1, offset
            )
            while g is not None:
                yield g
                g = _first_admissible(forbidden, p, g + 1, pool_bound + 1, offset)
        else:
            g = _draw(_fold(forbidden, offset, p), p, pool_bound + 1, rng)
            if g is not None:
                yield g

    def step() -> bool:
        """Count one admission step; once the budget is spent, mark the
        search cut short instead."""
        nonlocal nodes, exhausted
        if nodes >= DEFAULT_SEARCH_BUDGET:
            exhausted = False
            return False
        nodes += 1
        return True

    def dfs(strata: ForbiddenStrata, chosen: tuple[int, ...]) -> bool:
        nonlocal best_chosen
        if len(chosen) > len(best_chosen):
            best_chosen = chosen
        if len(chosen) == target_size:
            return True
        # a child one exponent short of the target is settled by its first
        # candidate, so it reads its top level and never builds its levels
        after = forbidden_after(strata) if len(chosen) == target_size - 2 else None
        for g in candidates(*_window(strata.sums[-1], strata.offset, p), chosen):
            if not step():
                return False
            child = chosen + (g,)
            if after is None:
                if dfs(strata_extend(strata, g), child):
                    return True
            else:
                if len(child) > len(best_chosen):
                    best_chosen = child
                forbidden, offset = _window(*after(g), p)
                if rng is None:  # one probe, without a generator per last-level node
                    last = _first_admissible(forbidden, p, g + 1, pool_bound + 1, offset)
                else:
                    last = next(candidates(forbidden, offset, child), None)
                if last is not None and step():
                    best_chosen = child + (last,)
                    return True
            if walk or not exhausted:
                return False
        return False

    dfs(ForbiddenStrata.empty(p, s), ())
    subset = FactorSubset(factor=n, order=p, exponents=tuple(sorted(best_chosen)))
    return BuildResult(subset, best_chosen, pool_bound, target_size, nodes, exhausted)


def half_table_size(n_elements: int, s: int) -> int:
    """Signed sums of at most s of N exponents, the empty sum included:
    sum_{k<=s} C(N, k) * 2^k.  An N-set with the avoidance property keeps
    them all distinct mod p, so none exists once this exceeds p."""
    return sum(math.comb(n_elements, k) * 2**k for k in range(s + 1))


def strict_table_size(n_elements: int, s: int) -> int:
    """The half table plus the signed sums of exactly s + 1 of N exponents
    that use the last one: ``half_table_size(N, s) + 2^(s+1) * C(N-1, s)``.
    N exponents admitted one by one under the builder's rule keep them all
    distinct mod p, so the builder reaches no N-set once this exceeds p.

    Take two such coefficient vectors u != w and the last index j where they
    differ.  Then (u - w)_j is +-1 or +-2 and u - w weighs at most 2s before
    j: both of weight <= s; one of weight s + 1 against one of weight <= s,
    the last coordinate cancelling, doubling or met by a zero; or both of
    weight s + 1, the last coordinate cancelling or doubling.  So u - w
    vanishing would put g_j or 2 g_j in level 2s of the exponents admitted
    before it, which the rule forbids.  The property alone asks only that
    g_j stay outside level 2s - 1 and 2 g_j outside level 2s - 2, so this
    count bounds the builder's rule, not the property.
    """
    return half_table_size(n_elements, s) + 2 ** (s + 1) * math.comb(max(n_elements - 1, 0), s)


def epsilon_vector_count(n_elements: int, s: int) -> int:
    """Exact number of nonzero vectors over {0, +-1, +-2}^N with weight <= 2s."""
    total = 0
    for k in range(1, min(2 * s, n_elements) + 1):
        # j entries of magnitude 2, k - j of magnitude 1: weight k + j
        patterns = sum(math.comb(k, j) for j in range(0, min(k, 2 * s - k) + 1))
        total += math.comb(n_elements, k) * patterns * 2**k
    return total


def _sums_distinct(exps: tuple[int, ...], p: int, s: int) -> Optional[bool]:
    """Whether the signed sums of at most s of ``exps`` are distinct mod p, or
    None where the s * N shifts of w-bit integers below cost more limbs than
    ``_LIMBS_PER_ENTRY`` per fill entry, or w exceeds ``MAX_LEDGER_BITS``.

    The half table is one integer per number of terms k, filled in the order of
    ``_vanishing_difference``: adding g shifts level k - 1 by +-g into level k,
    descending k.  While 2s * max(exps) < p, sum t sits at bit t + s * max(exps)
    (w = 2s * max(exps) + 1): two sums differ by less than p, so they meet mod p
    exactly when they are equal.  Once that window reaches p, residue r sits at
    bit r and each shift is a rotation mod p (w = 2p before the fold).  Either
    shift is one-to-one, so the new sums repeat a sum exactly when they meet
    each other or the table; the pass stops there.
    """
    offset = s * max(exps)
    wide = 2 * offset >= p
    width = 2 * p if wide else 2 * offset + 1
    if width > MAX_LEDGER_BITS or (
        s * len(exps) * -(-width // 64) > _LIMBS_PER_ENTRY * half_table_size(len(exps), s)
    ):
        return None
    table = 1 if wide else 1 << offset
    mask = (1 << p) - 1 if wide else 0
    levels = [table] + [0] * s
    for g in exps:
        for k in range(s, 0, -1):
            lower = levels[k - 1]
            if wide:
                plus, minus = lower << g, lower << (p - g)
                plus, minus = plus & mask | plus >> p, minus & mask | minus >> p
            else:
                plus, minus = lower << g, lower >> g
            new = plus | minus
            if plus & minus or new & table:
                return False
            levels[k] |= new
            table |= new
    return True


def _vanishing_difference(exps: tuple[int, ...], p: int, s: int) -> Optional[EpsilonVector]:
    """The difference of the first two signed sums of at most s exponents that
    collide mod p, or None when all of them are distinct.

    The half table holds sum(sigma_j * g_j) over every support S with |S| <= s
    and every sign vector sigma in {+-1}^S, the empty sum 0 included: that is
    sum_{k<=s} C(N, k) * 2^k residues.  ``levels[k]`` lists the sums of k signed
    terms over the exponents taken so far; descending k extends each level from
    the previous one before that one grows.  Until the first collision a residue
    names one sum, so ``last`` maps it to that sum's last term (j, sign), None
    for the empty sum, and the rest of the sum sits at the residue minus that
    term.  The first sum whose residue is already in the table gives u - w,
    signed so that its first nonzero entry is positive.

    Where bitsets are the cheaper engine and fit ``MAX_LEDGER_BITS``,
    ``_sums_distinct`` decides, and this fill runs only to name a collision.
    """
    if exps and _sums_distinct(exps, p, s):
        return None
    last: dict[int, Optional[tuple[int, int]]] = {0: None}
    levels: list[list[int]] = [[0]] + [[] for _ in range(s)]

    def signs(residue: int) -> list[int]:
        entries = [0] * len(exps)
        while last[residue] is not None:
            j, sign = last[residue]
            entries[j] = sign
            residue = (residue - sign * exps[j]) % p
        return entries

    for j, g in enumerate(exps):
        steps = ((g, (j, 1)), (p - g, (j, -1)))
        for k in range(s, 0, -1):
            for r in levels[k - 1]:
                for t, term in steps:
                    residue = (r + t) % p
                    if residue in last:
                        u = signs(r)
                        u[j] = term[1]
                        diff = [a - b for a, b in zip(u, signs(residue))]
                        lead = next(e for e in diff if e)
                        return EpsilonVector(tuple(e if lead > 0 else -e for e in diff))
                    last[residue] = term
                    levels[k].append(residue)
    return None


def verify_pn_bruteforce(
    subset: FactorSubset,
    s: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[bool, Optional[EpsilonVector]]:
    """Exactly check the avoidance property over all weight <= 2s vectors.

    A vanishing vector eps exists exactly when two signed sums of at most s
    exponents collide: two such sign vectors u != w give eps = u - w, and any
    eps splits into two halves of weight <= s, each +-2 entry as +-1 in one
    half and -+1 in the other, the +-1 entries shared out between them.  So
    the check fills that half table once and stops at its first collision.

    Returns (True, None), or (False, u - w) for the first colliding pair in
    fill order: a nonzero vector in {0, +-1, +-2}^N of weight <= 2s whose first
    nonzero entry is positive.  Refuses, before filling, when the table's
    sum_{k<=s} C(N, k) * 2^k signed sums would exceed ``budget``.
    """
    check_even_s(s)
    count = half_table_size(len(subset.exponents), s)
    if count > budget:
        raise BudgetExceeded(f"avoidance check needs {count} signed sums, budget is {budget}")
    witness = _vanishing_difference(subset.exponents, subset.order, s)
    return witness is None, witness


@dataclass(frozen=True)
class BuildProfile:
    """Size and pool rules parameterizing a family build."""

    name: str
    target_size: Callable[[int, int], int]  # (n, s) -> elements wanted in factor n
    default_range: Callable[[int], tuple[int, int]]  # s -> (n_min, n_max)

    def pool_bound(self, n: int) -> int:
        return 2**n

    def n_range(
        self, s: int, n_min: Optional[int] = None, n_max: Optional[int] = None
    ) -> tuple[int, int]:
        """The factor range to build: the default range for s, either end overridden."""
        lo, hi = self.default_range(s)
        return (lo if n_min is None else n_min, hi if n_max is None else n_max)


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
    """The per-factor sets built for one parameter s, one build record each."""

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
                return result.n
        return None

    def union_words(self) -> list[Word]:
        """All stored elements across factors, as words; partial sets included."""
        out: list[Word] = []
        for result in self.results:
            out.extend(result.subset.words(self.table))
        return out


def build_family(
    s: int,
    n_range: tuple[int, int],
    profile: str = "desk",
    seed: Optional[int] = None,
) -> LacunaryFamily:
    """Build each factor set in the range independently; failures are recorded,
    never fatal.  An empty range is refused: a family holds at least one factor."""
    check_even_s(s)
    rules = PROFILES[profile]
    n_min, n_max = n_range
    if n_min > n_max:
        raise ValueError(f"empty factor range: n_min={n_min} exceeds n_max={n_max}")
    table = FactorTable.paper_default(n_max)
    for n in range(n_min, n_max + 1):  # refuse before the first factor is built
        check_ledger_order(table.order(n))
    rng = random.Random(seed) if seed is not None else None
    built = tuple(
        build_factor_set(n, s, rules.target_size(n, s), rules.pool_bound(n), table, rng)
        for n in range(n_min, n_max + 1)
    )
    return LacunaryFamily(s, table, profile, seed, built)
