"""Prime rule and factor table checks against a trial-division oracle."""

from __future__ import annotations

from math import isqrt

import pytest

from freelac import FactorTable, is_prime, smallest_admissible_prime


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_examples():
    assert smallest_admissible_prime(1) == 5
    assert smallest_admissible_prime(3) == 17
    assert smallest_admissible_prime(8) == 521


def test_first_eight_orders():
    assert [smallest_admissible_prime(n) for n in range(1, 9)] == [
        5, 11, 17, 37, 67, 131, 257, 521,
    ]


def test_rule_properties_against_oracle():
    previous = 0
    for n in range(1, 21):
        p = smallest_admissible_prime(n)
        assert p > 2 ** (n + 1)
        assert p % 2 == 1
        assert trial_division_is_prime(p)
        assert p != previous
        # least such prime: everything between the threshold and p is composite
        for candidate in range(2 ** (n + 1) + 1, p):
            assert not trial_division_is_prime(candidate) or candidate % 2 == 0
        previous = p


def test_miller_rabin_agrees_with_trial_division():
    for n in range(2, 3000):
        assert is_prime(n) == trial_division_is_prime(n)


# psi_k (OEIS A014233): the least odd composite that passes Miller-Rabin with
# each of the first k primes as base
PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int, base: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("k", range(1, 13))
def test_each_pseudoprime_bound_is_composite(k):
    # psi_k passes the first k bases, so the base prefix taken for it must be longer
    psi = PSI[k - 1]
    assert all(strong_probable_prime(psi, base) for base in BASES[:k])
    assert not is_prime(psi)


def test_no_base_set_is_claimed_from_psi_13():
    # psi_13 passes all thirteen bases, and no proven base set reaches it
    psi = PSI[12]
    assert all(strong_probable_prime(psi, base) for base in BASES)
    assert is_prime(psi - 2) == all(strong_probable_prime(psi - 2, base) for base in BASES)
    with pytest.raises(ValueError, match="no proven Miller-Rabin base set"):
        is_prime(psi)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        smallest_admissible_prime(0)


def test_width_overflow_reported():
    with pytest.raises(OverflowError):
        smallest_admissible_prime(63)


def test_table_default():
    table = FactorTable.paper_default(8)
    assert table.orders == (5, 11, 17, 37, 67, 131, 257, 521)
    assert table.order(3) == 17
    assert len(table) == 8


def test_table_rejects_bad_orders():
    with pytest.raises(ValueError):
        FactorTable((5, 9))  # 9 composite
    with pytest.raises(ValueError):
        FactorTable((5, 11, 5))  # duplicate
    with pytest.raises(ValueError):
        FactorTable((3, 11))  # 3 <= 2^2 breaks the default rule
    # explicit rule allows orders that ignore the growth condition
    table = FactorTable.explicit((101, 1009, 10007))
    assert table.order(2) == 1009


def test_table_index_bounds():
    table = FactorTable.paper_default(3)
    with pytest.raises(ValueError):
        table.order(0)
    with pytest.raises(ValueError):
        table.order(4)
