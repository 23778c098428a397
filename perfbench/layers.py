"""Layer runs on fixed inputs: one rate per layer, independent of any workload.

The inputs are written out here rather than built, so they stay fixed even if
the builder changes.  Each layer is called back to back until MIN_SECONDS
have passed (at least once), untraced, and reports work done per second.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from freelac.builder import (
    FactorSubset,
    ForbiddenStrata,
    choose_next,
    epsilon_vector_count,
    strata_extend,
    verify_pn_bruteforce,
)
from freelac.counting import (
    STRATEGY_MITM,
    STRATEGY_NAIVE,
    extract_quasi_independent,
    leinert_violation,
    z_value,
)
from freelac.primes import FactorTable, smallest_admissible_prime
from freelac.spectral import fejer_kernel, transform
from freelac.words import canonical_key, letter_word, reduce_raw

MIN_SECONDS = 0.3

# The desk s=2 factor n=16 (p=131101) and the desk s=4 union (n=8..12).
DESK2_N16 = (1, 3, 9, 23, 39, 67, 117, 169, 241, 351, 451, 539, 667, 815, 959, 1181)
DESK4_UNION = {8: (1, 3, 9, 27, 81)} | {n: (1, 3, 9, 27, 81, 239) for n in range(9, 13)}

# name -> unit; every rate is work per second of the layer call alone.
FIXED_METRICS = {
    "fixed.reduce_raw_per_s": "1/s",
    "fixed.strata_extend_per_s": "1/s",
    "fixed.choose_next_per_s": "1/s",
    "fixed.verify_pn_vectors_per_s": "1/s",
    "fixed.z_naive_tuples_per_s": "1/s",
    "fixed.z_mitm_tuples_per_s": "1/s",
    "fixed.leinert_per_s": "1/s",
    "fixed.subset_sums_per_s": "1/s",
    "fixed.transform_terms_per_s": "1/s",
}


def _rate(call: Callable[[], int]) -> float:
    """Work per second; ``call`` returns the work units one call did."""
    work = 0
    start = time.perf_counter()
    while True:
        work += call()
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SECONDS:
            return work / elapsed


def run_layers() -> tuple[dict[str, float], list[str]]:
    """Rates per layer, and the mismatches between the two z_value strategies."""
    table = FactorTable.paper_default(12)
    p16 = smallest_admissible_prime(16)

    rng = random.Random(0)  # fixed, not the workload seed
    raw = [
        [(rng.randint(8, 12), rng.randint(-300, 300)) for _ in range(8)] for _ in range(500)
    ]

    def reduce_all() -> int:
        for pairs in raw:
            reduce_raw(table, pairs)
        return len(raw)

    p12 = table.order(12)
    chain = DESK2_N16[:12]  # the desk s=2 n=12 factor

    def extend_chain() -> int:
        strata = ForbiddenStrata.empty(p12, 2)
        for g in chain:
            strata = strata_extend(strata, g)
        return len(chain)

    prefix = ForbiddenStrata.empty(p12, 2)
    for g in chain[:-1]:
        prefix = strata_extend(prefix, g)
    used = frozenset(chain[:-1])

    def scan() -> int:
        choose_next(prefix, 2**12, used)
        return 1

    pn_subset = FactorSubset(factor=16, order=p16, exponents=DESK2_N16)
    pn_vectors = epsilon_vector_count(len(DESK2_N16), 2)

    def pn() -> int:
        verify_pn_bruteforce(pn_subset, 2)
        return pn_vectors

    union = [letter_word(table, n, e) for n, exps in DESK4_UNION.items() for e in exps]
    ground = union[:20]
    z_certs = {}

    def z(strategy: str) -> Callable[[], int]:
        def call() -> int:
            cert = z_value(ground, 4, strategy=strategy)
            z_certs[strategy] = cert
            return cert.tuples_examined

        return call

    leinert_table = FactorTable.paper_default(16)
    leinert_words = [letter_word(leinert_table, 16, e) for e in DESK2_N16]

    def leinert() -> int:
        leinert_violation(leinert_words, 2)
        return 1

    # powers of two are quasi-independent; 3, 5 and 6 collide and are rejected
    p19 = smallest_admissible_prime(19)
    qi_subset = FactorSubset(factor=19, order=p19, exponents=tuple(sorted({1 << i for i in range(18)} | {3, 5, 6})))

    def subset_sums() -> int:
        witness = extract_quasi_independent(qi_subset)
        return 1 << len(witness.subset)

    kernel = fejer_kernel(512, 2053)

    def spectrum() -> int:
        transform(kernel)
        return kernel.p * len(kernel.values)

    rates = {
        "fixed.reduce_raw_per_s": _rate(reduce_all),
        "fixed.strata_extend_per_s": _rate(extend_chain),
        "fixed.choose_next_per_s": _rate(scan),
        "fixed.verify_pn_vectors_per_s": _rate(pn),
        "fixed.z_naive_tuples_per_s": _rate(z(STRATEGY_NAIVE)),
        "fixed.z_mitm_tuples_per_s": _rate(z(STRATEGY_MITM)),
        "fixed.leinert_per_s": _rate(leinert),
        "fixed.subset_sums_per_s": _rate(subset_sums),
        "fixed.transform_terms_per_s": _rate(spectrum),
    }
    naive, mitm = z_certs[STRATEGY_NAIVE], z_certs[STRATEGY_MITM]
    mismatches = []
    if naive.value != mitm.value or canonical_key(naive.witness) != canonical_key(mitm.witness):
        mismatches.append(
            f"z_value strategies disagree on the fixed ground set: naive {naive.value}, "
            f"meet-in-the-middle {mitm.value}"
        )
    return rates, mismatches
