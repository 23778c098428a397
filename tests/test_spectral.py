"""Spectral norms, kernel inequalities, and the certified bound chains."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelac import spectral
from freelac.cli import kernel_order
from freelac import (
    BudgetExceeded,
    CyclicFunction,
    FactorSubset,
    density_lower_bound,
    extract_quasi_independent,
    fejer_coefficient,
    fejer_kernel,
    holder_check,
    kernel_norm_check,
    leinert_lower_bound,
    sidon_qi_check,
    is_prime,
    transform,
    weak_sidon_witness,
)

TOL = 1e-9


def dft_oracle(f: CyclicFunction, k: int) -> complex:
    """Independent single-coefficient DFT, straight from the definition; j*k is
    reduced mod p in integers, so the phase loses no precision to its size."""
    return sum(v * cmath.exp(-2j * cmath.pi * ((j * k) % f.p) / f.p) for j, v in f.values)


def random_sparse(rng: random.Random, p: int) -> CyclicFunction:
    support = rng.sample(range(p), rng.randrange(1, min(8, p)))
    return CyclicFunction.from_values(
        p, {j: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for j in support}
    )


def test_point_mass_transform():
    report = transform(CyclicFunction.indicator(11, [0]))
    assert np.allclose(report.spectrum, np.ones(11))
    assert abs(report.norm_a - 1.0) < TOL
    assert abs(report.norm_vn - 1.0) < TOL


def test_pair_indicator_in_z3():
    report = transform(CyclicFunction.indicator(3, [1, 2]))
    assert abs(report.spectrum[0] - 2.0) < TOL
    assert abs(report.norm_vn - 2.0) < TOL
    assert abs(report.norm_a - 4.0 / 3.0) < TOL


EPS = 2.0**-52
FFT_PRIMES = [p for p in range(2, 4000) if is_prime(p)] + [8209]


def fft_error_bound(p: int, l1: float) -> float:
    """The error allowed at one coefficient between ``transform`` and ``dft_oracle``
    for a function whose values have sum |v_j| = l1.

    Higham (2002), ch. 24: in a radix-2 FFT of length m each input reaches each
    output along one path of log2(m) butterflies, and each butterfly, with
    twiddles accurate to mu, adds relative error at most eta = mu + gamma_4 (sqrt
    2 + mu), about (1 + 4 sqrt 2) u with u = eps / 2.  A large prime length
    goes through Bluestein's algorithm, three transforms of a length m < 4p, so
    the bound charges 3 (log2 p + 2) butterflies per input.  The oracle adds,
    per term, a phase 2 pi r / p below 2 pi with three roundings, one exp and
    one complex product, and eleven additions: under 35 u per unit of l1.
    Carried to numpy's prime-length code this is a model, not a proof; random
    inputs stay below a tenth of it.
    """
    u = EPS / 2
    return (3 * (math.log2(p) + 2) * (1 + 4 * math.sqrt(2)) + 35) * u * l1


@st.composite
def sparse_functions(draw):
    """A prime p < 4,000 or 8,209 and 1..12 support points with values in [-2, 2]^2.

    A nonzero real or imaginary part is at least 2^-100 in size, so no step of
    the transform underflows, as the error model assumes.
    """
    p = draw(st.sampled_from(FFT_PRIMES))
    support = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(12, p), unique=True))
    part = st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 2.0**-100)
    values = [draw(st.builds(complex, part, part)) for _ in support]
    return CyclicFunction.from_values(p, dict(zip(support, values)))


@settings(deadline=None)
@given(sparse_functions())
def test_transform_matches_definition_oracle(f):
    # every coefficient, within the bound stated from the float format
    spectrum = transform(f).spectrum.tolist()
    bound = fft_error_bound(f.p, sum(abs(v) for _, v in f.values))
    worst = max(abs(spectrum[k] - dft_oracle(f, k)) for k in range(f.p))
    assert worst <= bound


@pytest.mark.parametrize("n", [1, 2, 3, 8, 300])
def test_norms_equal_a_libm_reference_exactly(n):
    # numpy's vectorized abs and power may differ from libm in the last bit,
    # depending on the SIMD kernels the host CPU gets; the norms use libm alone
    p = kernel_order(n)
    report = transform(fejer_kernel(n, p))
    magnitudes = [math.hypot(z.real, z.imag) for z in report.spectrum.tolist()]
    assert report.norm_a == math.fsum(magnitudes) / p
    assert report.norm_vn == max(magnitudes)
    for q in (3.0, 4.0, 6.0, 10.0, 2.0 * n):
        q_prime = q / (q - 1.0)
        powers = [math.pow(m, q_prime) for m in magnitudes]
        assert report.norm_lq(q_prime) == math.pow(math.fsum(powers) / p, 1.0 / q_prime)


def test_parseval_on_random_sparse_functions():
    rng = random.Random(53)
    for _ in range(40):
        p = rng.choice([5, 17, 67, 521])
        f = random_sparse(rng, p)
        values_l2 = math.sqrt(sum(abs(v) ** 2 for _, v in f.values))
        assert abs(transform(f).norm_lq(2.0) - values_l2) < TOL


def test_norm_lq_matches_definition_oracle():
    rng = random.Random(61)
    for _ in range(10):
        p = rng.choice([5, 17, 67])
        f = random_sparse(rng, p)
        report = transform(f)
        magnitudes = [abs(dft_oracle(f, k)) for k in range(p)]
        for q in (1.25, 1.5, 2.0, 3.0, 7.5):
            expected = (sum(m**q for m in magnitudes) / p) ** (1.0 / q)
            assert math.isclose(report.norm_lq(q), expected, rel_tol=1e-9)


def test_norm_orderings():
    rng = random.Random(59)
    for _ in range(20):
        f = random_sparse(rng, 67)
        report = transform(f)
        max_value = max(abs(v) for _, v in f.values)
        assert report.norm_vn <= 67 * max_value + TOL
        assert report.norm_a <= report.norm_vn + TOL  # mean below max
        # normalized q-norms increase with q
        assert report.norm_lq(2.0) <= report.norm_lq(3.0) + TOL
        assert report.norm_lq(3.0) <= report.norm_lq(4.0) + TOL
        assert report.norm_lq(4.0) <= report.norm_lq(10.0) + TOL


def test_spectral_budget():
    # 1,048,583 is the least prime above the 2^20 spectral budget
    with pytest.raises(BudgetExceeded):
        transform(CyclicFunction.indicator(1_048_583, [0]))


def test_cyclic_function_requires_prime_order():
    with pytest.raises(ValueError):
        CyclicFunction.from_values(12, {1: 1.0})


def test_from_values_merges_congruent_keys():
    assert CyclicFunction.from_values(5, {0: 1, 5: 2}).values == ((0, 3 + 0j),)
    assert CyclicFunction.from_values(5, {0: 1, 5: -1}).values == ()


def test_fejer_values_small_case():
    kernel = fejer_kernel(1, 11)
    values = dict(kernel.values)
    assert values[0] == 1.0
    assert values[1] == 0.5
    assert values[10] == 0.5
    assert 2 not in values and 9 not in values  # width-2n edge is zero


def first_prime_above(x: int) -> int:
    from freelac import is_prime

    p = x + 1 if x % 2 == 0 else x + 2
    while not is_prime(p):
        p += 2
    return p


def test_fejer_norms_and_positivity():
    for n in range(1, 9):
        p = first_prime_above(4 * n)
        kernel = fejer_kernel(n, p)
        report = transform(kernel)
        assert abs(report.norm_a - 1.0) < TOL
        assert abs(report.norm_vn - 2.0 * n) < TOL
        assert float(np.min(report.spectrum.real)) >= -TOL
        assert float(np.max(np.abs(report.spectrum.imag))) <= 1e-8
    # the int quotients are the floats of the exact coefficients, bit for bit
    for n in [*range(1, 9), 2048]:
        p = first_prime_above(4 * n)
        exact = {j % p: float(fejer_coefficient(n, j)) for j in range(1 - 2 * n, 2 * n)}
        assert dict(fejer_kernel(n, p).values) == exact


def test_fejer_floor_exact_rational():
    for n in range(1, 9):
        for j in range(1, n + 1):
            assert fejer_coefficient(n, j) >= Fraction(1, 2)
        assert fejer_coefficient(n, 2 * n) == 0
        assert fejer_coefficient(n, n) == Fraction(1, 2)


def test_fejer_rejects_small_order():
    with pytest.raises(ValueError):
        fejer_kernel(3, 11)
    with pytest.raises(ValueError, match="kernel scale must be >= 1, got 0"):
        fejer_kernel(0, 11)


def test_kernel_norm_check_example():
    check = kernel_norm_check(2, transform(fejer_kernel(2, 37)), 4)
    assert check.passed
    assert check.norm_lq_prime <= check.interpolation_bound + TOL
    assert check.interpolation_bound <= (4 * 2 + 1) ** 0.25 + TOL


def test_kernel_norm_check_q2_and_large_q():
    # q = q' = 2 reduces to the Cauchy-Schwarz style bound
    assert kernel_norm_check(1, transform(fejer_kernel(1, 11)), 2).passed
    # large q: the q' norm approaches the algebra norm (1 here)
    report = transform(fejer_kernel(1, 11))
    check = kernel_norm_check(1, report, 100)
    assert check.passed
    assert abs(check.norm_lq_prime - report.norm_a) < 0.05


def test_holder_point_masses_equality():
    f = CyclicFunction.indicator(11, [3])
    check = holder_check(f, f, 4)
    assert check.holds
    assert abs(check.pairing - 1.0) < TOL
    assert abs(abs(check.pairing) - check.bound) < TOL


def test_holder_on_random_pairs():
    rng = random.Random(61)
    for _ in range(100):
        p = rng.choice([17, 67, 101])
        f = random_sparse(rng, p)
        g = random_sparse(rng, p)
        q = rng.choice([3.0, 4.0, 6.0])
        check = holder_check(f, g, q)
        assert check.holds
        assert check.plancherel_gap < 1e-8


@pytest.mark.parametrize("q", [math.inf, math.nan, 1.0])
def test_holder_rejects_q_not_finite_above_one(q):
    f = CyclicFunction.indicator(11, [0])
    g = CyclicFunction.indicator(11, [3])
    with pytest.raises(ValueError, match="finite and exceed 1"):
        holder_check(f, g, q)


def test_holder_requires_shared_order():
    with pytest.raises(ValueError):
        holder_check(CyclicFunction.indicator(11, [0]), CyclicFunction.indicator(13, [0]), 4)


def test_density_lower_bound():
    subset = FactorSubset(3, 17, (1, 2, 3, 5))
    assert density_lower_bound(subset, 3, 4.0) == pytest.approx(
        math.sqrt(3 / (2 * 13 ** (2 / 4.0)))
    )
    assert density_lower_bound(FactorSubset(3, 17, (9, 11)), 3, 4.0) == 0.0
    with pytest.raises(ValueError):
        density_lower_bound(subset, 0, 4.0)


def test_weak_sidon_witness_examples():
    assert weak_sidon_witness(0).n == 1
    witness = weak_sidon_witness(1)
    assert witness.n == 41
    assert witness.lhs == 1681
    assert witness.rhs == Fraction(1640)
    assert witness.holds
    witness = weak_sidon_witness(2)
    assert witness.n == 161
    assert witness.holds
    # rational constants stay exact through string input
    witness = weak_sidon_witness("1.5")
    assert witness.n == 91  # 40 * 2.25 = 90
    assert witness.holds
    with pytest.raises(ValueError):
        weak_sidon_witness(-1)


def test_sidon_qi_check_examples():
    assert sidon_qi_check(FactorSubset(1, 17, (1,))).holds
    check = sidon_qi_check(FactorSubset(1, 101, (1, 2, 4, 8)))
    assert check.holds
    assert check.slack > 0


def test_sidon_qi_check_rejects_non_qi():
    with pytest.raises(ValueError):
        sidon_qi_check(FactorSubset(1, 17, (1, 2, 3)))


def test_sidon_chain_on_random_qi_sets():
    rng = random.Random(67)
    constant = 6.0 * math.sqrt(6.0)
    for _ in range(30):
        p = rng.choice([101, 1009, 10007])
        pool = rng.sample(range(1, p), min(p - 1, 60))
        witness = extract_quasi_independent(FactorSubset(1, p, tuple(sorted(pool))))
        size_cap = min(len(witness.subset), 12)
        subset = FactorSubset(1, p, witness.subset[:size_cap])
        check = sidon_qi_check(subset)
        assert check.holds
        lower = leinert_lower_bound(subset)
        assert lower >= math.sqrt(len(subset.exponents)) / constant - TOL


def test_leinert_lower_bound_examples():
    assert leinert_lower_bound(FactorSubset(1, 17, (1,))) == pytest.approx(1.0)
    value = leinert_lower_bound(FactorSubset(1, 101, (1, 2, 4, 8)))
    assert value > math.sqrt(4) / (6 * math.sqrt(6))
    with pytest.raises(ValueError):
        leinert_lower_bound(FactorSubset(1, 17, ()))


ODD_PRIMES_TO_10007 = [p for p in range(3, 10_008) if is_prime(p)]


@st.composite
def indicators(draw):
    """A prime p <= 10,007 and a set F of 2..40 residues mod p."""
    p = draw(st.sampled_from(ODD_PRIMES_TO_10007))
    residues = draw(st.sets(st.integers(0, p - 1), min_size=2, max_size=min(40, p)))
    return p, residues


@settings(deadline=None)
@given(indicators())
def test_indicator_operator_norm_is_its_size(indicator):
    # the closed form ||1_F||_VN = |F| that sidon_qi_check and leinert_lower_bound read
    p, residues = indicator
    norm_vn = transform(CyclicFunction.indicator(p, residues)).norm_vn
    assert math.isclose(norm_vn, len(residues), rel_tol=1e-12)


def test_closed_forms_make_no_transform(monkeypatch):
    def refuse(f):
        raise AssertionError("transform called")

    monkeypatch.setattr(spectral, "transform", refuse)
    subset = FactorSubset(1, 10007, (1, 3, 9, 27, 81))
    assert sidon_qi_check(subset).norm_vn == 5.0
    assert leinert_lower_bound(subset) == math.sqrt(5)


def test_singleton_leinert_bound_is_exactly_one():
    assert leinert_lower_bound(FactorSubset(1, 17, (1,))) == 1.0
