#!/usr/bin/env python3
"""Exact tuple counting, Leinert-condition searches, quasi-independence.

Three exhaustive engines certify the combinatorial claims at desk scale: the
alternating-tuple count Z_s stays below ((s/2)!)^2 on built families, sets
with arithmetic progressions violate the Leinert condition while built sets
do not, and every set yields a maximal quasi-independent subset of size at
least log_3 of its cardinality.
"""

import math

from freelac import (
    FactorSubset,
    build_family,
    extract_quasi_independent,
    leinert_violation,
    letter_word,
    z_value,
    zs_paper_target,
)


def main():
    family = build_family(2, (8, 16), "desk")
    table = family.table

    print("=" * 64)
    print("  alternating-tuple counts over the union of built sets")
    print("=" * 64)
    union = family.union_words()
    bound, factorial_bound = zs_paper_target(2)
    cert = z_value(union, 2)
    print(f"s=2: {len(union)} elements, {cert.tuples_examined} ordered pairs")
    print(f"Z_2 = {cert.value} <= {bound} (and <= s! = {factorial_bound})")

    family4 = build_family(4, (9, 12), "desk")
    union4 = family4.union_words()
    naive = z_value(union4[:12], 4, strategy="naive")
    mitm = z_value(union4[:12], 4, strategy="meet-in-middle")
    print(f"s=4 subsample: naive {naive.value} vs meet-in-middle {mitm.value} "
          f"({naive.tuples_examined} tuples vs {mitm.tuples_examined} join pairs)")
    full = z_value(union4, 4, strategy="meet-in-middle")
    print(f"s=4 full union ({len(union4)} elements): Z_4 = {full.value} <= "
          f"{zs_paper_target(4)[0]} -- the bound is tight: swapping the two")
    print("inverted and the two plain positions inside one factor preserves the product")

    print()
    print("=" * 64)
    print("  Leinert condition: adjacent-distinct tuples multiplying to e")
    print("=" * 64)
    progression = [letter_word(table, 3, e) for e in (1, 2, 3, 4)]
    witness = leinert_violation(progression, 2)
    exps = [w.pairs[0][1] for w in witness.elements]
    print(f"{{a, a^2, a^3, a^4}} in Z_17: first violation {exps} "
          f"({exps[0]} - {exps[1]} + {exps[2]} - {exps[3]} = 0)")
    for result in family.results[:3]:
        words = result.subset.words(table)
        hit = leinert_violation(words, 2)
        print(f"built E_{result.n}: exhaustive search over 2s=4 tuples "
              f"-> {'violation!' if hit else 'none (avoidance excludes weight<=4 relations)'}")

    print()
    print("=" * 64)
    print("  quasi-independent extraction (all subset sums distinct)")
    print("=" * 64)
    print(f"{'set':>28} {'extracted':>24} {'>= ceil(log3 N)':>16}")
    examples = [
        FactorSubset(1, 1009, tuple(range(1, 10))),
        FactorSubset(1, 10007, tuple(range(1, 82))),
    ]
    for result in family.results[:2]:
        examples.append(result.subset)
    for subset in examples:
        witness = extract_quasi_independent(subset)
        size = len(subset.exponents)
        floor_bound = math.ceil(math.log(size, 3)) if size > 1 else 0
        label = f"|set|={size} mod {subset.order}"
        shown = ",".join(map(str, witness.subset[:6]))
        if len(witness.subset) > 6:
            shown += ",..."
        print(f"{label:>28} {'{' + shown + '}':>24} "
              f"{len(witness.subset):>7} >= {floor_bound:<6}")
    print("each extraction is maximal: every leftover element collides")


if __name__ == "__main__":
    main()
