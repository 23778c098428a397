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
    transforms,
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
def sparse_functions(draw, orders=st.sampled_from(FFT_PRIMES)):
    """A prime p < 4,000 or 8,209 (or one drawn from ``orders``) and 1..12
    support points with values in [-2, 2]^2.

    A nonzero real or imaginary part is at least 2^-100 in size, so no step of
    the transform underflows, as the error model assumes.
    """
    p = draw(orders)
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


def reference_transform(f: CyclicFunction) -> tuple:
    """The spectrum and magnitudes of ``f``, one coefficient at a time: the
    dense array filled index by index, one FFT, ``math.hypot`` per coefficient."""
    dense = np.zeros(f.p, dtype=np.complex128)
    for j, v in f.values:
        dense[j] = v
    spectrum = np.fft.fft(dense)
    return spectrum, [math.hypot(z.real, z.imag) for z in spectrum.tolist()]


def reference_norm_lq(magnitudes: list, q: float) -> float:
    powers = [math.pow(m, q) for m in magnitudes]
    return math.pow(math.fsum(powers) / len(magnitudes), 1.0 / q)


def from_values_kernel(n: int, p: int) -> CyclicFunction:
    """The triangular kernel as a residue map merged, reduced and sorted by ``from_values``."""
    width = 2 * n
    return CyclicFunction.from_values(
        p, {j % p: (width - abs(j)) / width for j in range(1 - width, width)}
    )


@pytest.mark.parametrize("n", [1, 2, 3, 8, 300, 2048])
def test_norms_equal_a_libm_reference_exactly(n):
    # numpy's vectorized abs and power may differ in the last bit from the math
    # module, depending on the SIMD kernels the host CPU gets; the norms use
    # math.hypot and math.fsum (CPython's C code) and math.pow (libm) alone
    p = kernel_order(n)
    kernel = fejer_kernel(n, p)
    assert kernel == from_values_kernel(n, p)
    assert [type(v) for _, v in kernel.values] == [complex] * (4 * n - 1)
    report = transform(kernel)
    _, magnitudes = reference_transform(kernel)
    assert report.magnitudes == tuple(magnitudes)
    assert report.norm_a == math.fsum(magnitudes) / p
    assert report.norm_vn == max(magnitudes)
    for q in (3.0, 4.0, 6.0, 10.0, 2.0 * n):
        q_prime = q / (q - 1.0)
        assert report.norm_lq(q_prime) == reference_norm_lq(magnitudes, q_prime)


@settings(deadline=None)
@given(sparse_functions())
def test_transform_equals_a_per_coefficient_reference_exactly(f):
    report = transform(f)
    spectrum, magnitudes = reference_transform(f)
    assert report.spectrum.tolist() == spectrum.tolist()
    assert report.magnitudes == tuple(magnitudes)
    assert report.norm_a == math.fsum(magnitudes) / f.p
    assert report.norm_vn == max(magnitudes)
    for q in (1.25, 2.0, 3.0, 7.5):
        assert report.norm_lq(q) == reference_norm_lq(magnitudes, q)


@st.composite
def sparse_function_pairs(draw):
    """Two ``sparse_functions`` of one order."""
    f = draw(sparse_functions())
    return f, draw(sparse_functions(st.just(f.p)))


@settings(deadline=None)
@given(sparse_function_pairs())
def test_transforms_rows_equal_single_transforms_exactly(pair):
    # one FFT call over both rows gives each row the coefficients of a call on it alone
    reports = transforms(pair)
    assert len(reports) == 2
    for report, f in zip(reports, pair):
        single = transform(f)
        assert report.p == f.p
        assert report.spectrum.tolist() == single.spectrum.tolist()
        assert report.magnitudes == single.magnitudes
        assert report.norm_a == single.norm_a
        assert report.norm_vn == single.norm_vn
        for q in (1.25, 2.0, 3.0, 7.5):
            assert report.norm_lq(q) == single.norm_lq(q)


def test_transforms_takes_one_order_and_at_least_one_function():
    with pytest.raises(ValueError, match="orders differ"):
        transforms((CyclicFunction.indicator(11, [0]), CyclicFunction.indicator(13, [0])))
    with pytest.raises(ValueError):
        transforms(())
    with pytest.raises(BudgetExceeded):
        transforms((CyclicFunction.indicator(1048583, [0]),) * 2)


def test_holder_check_makes_one_fft_call(monkeypatch):
    import numpy

    calls = []
    fft = numpy.fft.fft

    def counting(a, *args, **kwargs):
        calls.append(numpy.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(numpy.fft, "fft", counting)
    f = CyclicFunction.indicator(8209, range(0, 8209, 8))
    g = CyclicFunction.indicator(8209, range(1, 8209, 9))
    assert holder_check(f, g, 4.0).holds
    assert calls == [(2, 8209)]


def test_transforms_calls_fft_as_numpy_1_24_accepts(monkeypatch):
    # the package supports numpy >= 1.24, whose fft takes no ``out``
    import numpy

    fft = numpy.fft.fft

    def fft_1_24(a, n=None, axis=-1, norm=None):
        return fft(a, n, axis, norm)

    monkeypatch.setattr(numpy.fft, "fft", fft_1_24)
    f = CyclicFunction.indicator(8209, range(0, 8209, 8))
    g = CyclicFunction.indicator(8209, range(1, 8209, 9))
    assert transform(f).norm_vn == pytest.approx(len(f.values))
    assert holder_check(f, g, 4.0).holds


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32), st.sampled_from([1.5, 3.0, 4.0, 6.0, 10.0]))
def test_holder_check_equals_a_per_coefficient_reference_exactly(seed, q):
    # the benchmark's pairs: indicators of 1,024 residues mod 8,209
    rng = random.Random(seed)
    f, g = (CyclicFunction.indicator(8209, rng.sample(range(8209), 1024)) for _ in range(2))
    check = holder_check(f, g, q)
    spectrum_f, magnitudes_f = reference_transform(f)
    spectrum_g, magnitudes_g = reference_transform(g)
    g_values = dict(g.values)
    assert check.pairing == sum(v * g_values.get(j, 0j).conjugate() for j, v in f.values)
    assert check.pairing_spectral == complex(np.mean(spectrum_f * np.conj(spectrum_g)))
    bound = reference_norm_lq(magnitudes_f, q / (q - 1.0)) * reference_norm_lq(magnitudes_g, q)
    assert check.bound == bound


def scaled_norm_lq(magnitudes: list, q: float) -> float:
    """M ((1/p) sum (m / M)^q)^(1/q) with M the largest magnitude."""
    top = max(magnitudes)
    return top * reference_norm_lq([m / top for m in magnitudes], q)


def test_norm_lq_factors_out_the_peak_where_the_direct_sum_overflows():
    # |K_hat(0)| = 2n = 128, and 128^1001 is past the float range
    report = transform(fejer_kernel(64, kernel_order(64)))
    with pytest.raises(OverflowError):
        reference_norm_lq(list(report.magnitudes), 1001.0)
    value = report.norm_lq(1001.0)
    assert value == scaled_norm_lq(list(report.magnitudes), 1001.0)
    assert report.norm_lq(10.0) < value <= report.norm_vn
    # the kernel's check at q = 1.001 (q' = 1001), which the command line runs
    check = kernel_norm_check(64, report, 1.001)
    assert check.passed
    assert check.norm_lq_prime == report.norm_lq(check.q_prime)


def test_holder_check_at_a_large_dual_index():
    # each spectrum peaks at |F| = 1,024 and 1024^1001 is past the float range:
    # q = 1.001 overflows f's direct sum (q' = 1001), q = 1001 overflows g's
    rng = random.Random(71)
    f, g = (CyclicFunction.indicator(8209, rng.sample(range(8209), 1024)) for _ in range(2))
    magnitudes_f, magnitudes_g = reference_transform(f)[1], reference_transform(g)[1]
    with pytest.raises(OverflowError):
        reference_norm_lq(magnitudes_g, 1001.0)
    check = holder_check(f, g, 1.001)
    assert check.holds
    assert check.bound == scaled_norm_lq(magnitudes_f, check.q_prime) * reference_norm_lq(
        magnitudes_g, 1.001
    )
    check = holder_check(f, g, 1001.0)
    assert check.holds
    assert check.bound == reference_norm_lq(magnitudes_f, check.q_prime) * scaled_norm_lq(
        magnitudes_g, 1001.0
    )


def test_norm_lq_overflow_with_an_infinite_peak_still_raises():
    # f_hat(0) = 2e308 rounds to inf, so no finite peak can be factored out
    with np.errstate(over="ignore"):
        report = transform(CyclicFunction.from_values(5, {0: 1e308, 1: 1e308}))
    assert math.isinf(report.norm_vn)
    with pytest.raises(OverflowError):
        report.norm_lq(2.0)


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
