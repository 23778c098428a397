"""DFT-based norms on single cyclic factors and the kernel inequality chain.

Conventions: spectrum f_hat(k) = sum_j f(j) exp(-2 pi i j k / p); the algebra
norm carries the 1/p factor (mean of |f_hat|), the operator norm is the max,
and the normalized q-norms are ((1/p) sum |f_hat|^q)^(1/q).  A point mass at 0
then has algebra norm = operator norm = 1.

Each function is transformed once, by numpy's FFT: its SpectrumReport keeps
the spectrum and its magnitudes, and every check reads that report, computing
a norm from it on demand.  Functions of one order may share one FFT call with
their dense arrays as the rows of one array (``transforms``).  A Hölder pair
does, so its two prime-length transforms take one FFT call; each row's
coefficients equal those of a call on that row alone, bit for bit.  The norms
use the ``math`` module alone: ``math.hypot`` and ``math.fsum`` are CPython's
own C code and ``math.pow`` calls the C library's ``pow``, so their digits do
not depend on which SIMD kernels numpy dispatches on the host CPU (numpy's
``abs`` and ``power`` do).  Each loop over the p coefficients is driven by
``map``, not by a Python generator.  numpy is imported inside ``transforms``
and ``holder_check``, so importing the module, or the CLI, loads none.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import truediv
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .builder import FactorSubset
from .counting import is_quasi_independent
from .errors import LimitExceeded, checked_record
from .primes import is_prime

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SPECTRAL_BUDGET = 1 << 20

# Sidon constant of a quasi-independent set inside an abelian group.
SIDON_QI_CONSTANT = 6.0 * math.sqrt(6.0)


class CyclicFunction(checked_record("CyclicFunction", "p values")):
    """Sparse complex-valued function on Z_p, keyed by exponent residue."""

    __slots__ = ()

    def __new__(cls, p: int, values: tuple[tuple[int, complex], ...]):
        if not is_prime(p):
            raise ValueError(f"order {p} is not prime")
        prev = -1
        for j, _ in values:
            if not 0 <= j < p:
                raise ValueError(f"residue {j} outside [0, {p - 1}]")
            if j <= prev:
                raise ValueError("support residues must be sorted and distinct")
            prev = j
        return tuple.__new__(cls, (p, values))

    @classmethod
    def from_values(cls, p: int, mapping: Mapping[int, complex]) -> "CyclicFunction":
        merged: dict[int, complex] = {}
        for j, v in mapping.items():
            merged[j % p] = merged.get(j % p, 0j) + complex(v)
        return cls(p, tuple(sorted((j, v) for j, v in merged.items() if v != 0)))

    @classmethod
    def indicator(cls, p: int, residues: Iterable[int]) -> "CyclicFunction":
        return cls.from_values(p, {j: 1.0 for j in residues})


class SpectrumReport:
    """Full spectrum of a cyclic function with its normalized norms.

    ``magnitudes`` holds |f_hat(k)| as ``math.hypot`` of each coefficient.
    The algebra and operator norms are computed on first read.  Its fields
    are read-only, and reports compare by identity: a numpy spectrum cannot
    be compared by value.
    """

    def __init__(self, p: int, spectrum: "np.ndarray", magnitudes: tuple[float, ...]):
        vars(self).update(p=p, spectrum=spectrum, magnitudes=magnitudes)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a SpectrumReport is read-only; cannot set {name!r}")

    @cached_property
    def norm_a(self) -> float:
        """Algebra norm (1/p) sum |f_hat|."""
        return math.fsum(self.magnitudes) / self.p

    @cached_property
    def norm_vn(self) -> float:
        """Operator norm max |f_hat|."""
        return max(self.magnitudes)

    def norm_lq(self, q: float) -> float:
        """Normalized q-norm ((1/p) sum |f_hat|^q)^(1/q) of the stored spectrum.

        Where some |f_hat|^q, or their sum, exceeds the float range, the norm
        is M ((1/p) sum (|f_hat| / M)^q)^(1/q) with M = ||f||_VN; every other
        input takes the direct sum, whose digits this form would not repeat.
        """
        q = float(q)
        try:
            total = math.fsum(map(math.pow, self.magnitudes, repeat(q)))
        except OverflowError:
            top = self.norm_vn
            if math.isinf(top):  # the scaled terms would read inf / inf
                raise
            scaled_magnitudes = map(truediv, self.magnitudes, repeat(top))
            scaled = math.fsum(map(math.pow, scaled_magnitudes, repeat(q)))
            return top * math.pow(scaled / self.p, 1.0 / q)
        return math.pow(total / self.p, 1.0 / q)


def check_spectral_budget(p: int) -> None:
    """Refuse an order above ``DEFAULT_SPECTRAL_BUDGET``."""
    if p > DEFAULT_SPECTRAL_BUDGET:
        raise LimitExceeded(f"order {p} exceeds the spectral budget {DEFAULT_SPECTRAL_BUDGET}")


def transforms(fs: Sequence[CyclicFunction]) -> list[SpectrumReport]:
    """The spectra of functions of one order, by one FFT call over their rows.

    The dense length-p arrays fill the rows of one (k, p) array, and one
    ``np.fft.fft(..., axis=1)`` call transforms them.  numpy 1.x builds the
    plan, at a prime order a Bluestein chirp, once per call, so the rows share
    it; numpy 2.x keeps its plans and runs two or more rows through
    pocketfft's vector path, two at a time, with a work buffer for both.  Each
    row's coefficients are the ones a call on that row alone gives, bit for
    bit.  Refuses an order above ``DEFAULT_SPECTRAL_BUDGET``, which also
    bounds each row's memory.
    """
    import numpy as np

    if not fs:
        raise ValueError("transforms needs at least one function")
    p = fs[0].p
    for f in fs:
        if f.p != p:
            raise ValueError(f"orders differ: {p} vs {f.p}")
    check_spectral_budget(p)
    dense = np.zeros((len(fs), p), dtype=np.complex128)
    for row, f in zip(dense, fs):
        for j, v in f.values:
            row[j] = v
    reports = []
    for spectrum in np.fft.fft(dense, axis=1):
        magnitudes = tuple(map(math.hypot, spectrum.real.tolist(), spectrum.imag.tolist()))
        reports.append(SpectrumReport(p, spectrum, magnitudes))
    return reports


def transform(f: CyclicFunction) -> SpectrumReport:
    """The spectrum of ``f`` by one FFT of its dense length-p array, O(p log p).

    numpy's sign convention is the module's, f_hat(k) = sum_j f(j) exp(-2 pi i
    j k / p).  Transform a function once and read every norm from the returned
    report; q-norms are computed on demand by ``SpectrumReport.norm_lq``.
    This is the one-row case of ``transforms``.
    """
    (report,) = transforms((f,))
    return report


def fejer_coefficient(n: int, j: int) -> Fraction:
    """Exact triangular coefficient max(1 - |j| / (2n), 0) at offset j."""
    if n < 1:
        raise ValueError(f"kernel scale must be >= 1, got {n}")
    return max(Fraction(0), 1 - Fraction(abs(j), 2 * n))


def fejer_kernel(n: int, p: int) -> CyclicFunction:
    """Triangular kernel of width 2n on Z_p: nonnegative spectrum, peak sum 2n.

    Requires p > 4n so the support [-2n, 2n] embeds without wraparound.  The
    coefficients are >= 1/2 on offsets 1..n exactly (see fejer_coefficient).
    Each value is the int quotient (2n - |j|) / (2n): true division of ints
    rounds correctly, as ``float`` of the exact Fraction does, so the floats
    are the same without building a Fraction per offset.  As p > 4n, offsets
    0..2n-1 keep their residues and -(2n-1)..-1 wrap to p-2n+1..p-1, so the
    values are listed in residue order without a merge or a sort.
    """
    if n < 1:
        raise ValueError(f"kernel scale must be >= 1, got {n}")
    if p <= 4 * n:
        raise ValueError(f"order {p} must exceed 4n = {4 * n}")
    width = 2 * n
    coefficients = [complex((width - d) / width) for d in range(width)]
    values = [*enumerate(coefficients)]
    values += [(p - d, coefficients[d]) for d in range(width - 1, 0, -1)]
    return CyclicFunction(p, tuple(values))


def dual_index(q: float) -> float:
    """The dual index q / (q - 1) of a finite q > 1; ValueError for any other q."""
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError(f"q must be finite and exceed 1, got {q}")
    return q / (q - 1.0)


class KernelNormCheck(NamedTuple):
    """Interpolation and peak bounds for a triangular kernel instance."""

    q: float
    q_prime: float
    norm_lq_prime: float
    interpolation_bound: float
    kernel_bound: float
    interpolation_holds: bool
    kernel_bound_holds: bool

    @property
    def passed(self) -> bool:
        return self.interpolation_holds and self.kernel_bound_holds


def kernel_norm_check(n: int, report: SpectrumReport, q: float) -> KernelNormCheck:
    """Check ||K||_{q'} <= ||K||_A^{1/q'} ||K||_VN^{1/q} <= (4n+1)^{1/q}.

    ``report`` is the kernel's spectrum, ``transform(fejer_kernel(n, p))``.
    """
    q = float(q)
    q_prime = dual_index(q)
    norm_lq_prime = report.norm_lq(q_prime)
    interpolation_bound = report.norm_a ** (1.0 / q_prime) * report.norm_vn ** (1.0 / q)
    kernel_bound = (4 * n + 1) ** (1.0 / q)
    return KernelNormCheck(
        q=q,
        q_prime=q_prime,
        norm_lq_prime=norm_lq_prime,
        interpolation_bound=interpolation_bound,
        kernel_bound=kernel_bound,
        interpolation_holds=norm_lq_prime <= interpolation_bound + DEFAULT_TOLERANCE,
        kernel_bound_holds=interpolation_bound <= kernel_bound + DEFAULT_TOLERANCE,
    )


class HolderCheck(NamedTuple):
    """Pairing of two cyclic functions against the product of dual norms."""

    q: float
    q_prime: float
    pairing: complex
    pairing_spectral: complex
    plancherel_gap: float
    bound: float
    holds: bool


def holder_check(f: CyclicFunction, g: CyclicFunction, q: float) -> HolderCheck:
    """Check |<f, g>| <= ||f||_{q'} ||g||_q with the pairing sum_j f(j) conj(g(j)).

    The pairing is computed in the spectral form (1/p) sum_k f_hat conj(g_hat)
    and cross-checked against the direct sum (Plancherel identity).  f and g
    are transformed together, by one FFT call.
    """
    import numpy as np

    q = float(q)
    q_prime = dual_index(q)
    rf, rg = transforms((f, g))  # refuses f and g of different orders
    spectral = complex(np.mean(rf.spectrum * np.conj(rg.spectrum)))
    g_values = dict(g.values)
    direct = sum(v * g_values.get(j, 0j).conjugate() for j, v in f.values)
    bound = rf.norm_lq(q_prime) * rg.norm_lq(q)
    return HolderCheck(
        q=q,
        q_prime=q_prime,
        pairing=direct,
        pairing_spectral=spectral,
        plancherel_gap=abs(spectral - direct),
        bound=bound,
        holds=abs(direct) <= bound + DEFAULT_TOLERANCE,
    )


def density_lower_bound(subset: FactorSubset, window: int, q: float) -> float:
    """Lower bound on the Lambda(q) constant forced by density in a window.

    With M elements among exponents 1..window, any Lambda(q) constant A obeys
    M <= 2 (4 window + 1)^{2/q} A^2, so A >= sqrt(M / (2 (4 window + 1)^{2/q})).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    m_count = sum(1 for e in subset.exponents if 1 <= e <= window)
    if m_count == 0:
        return 0.0
    return math.sqrt(m_count / (2.0 * (4 * window + 1) ** (2.0 / q)))


class WeakSidonWitness(NamedTuple):
    """Integer witness against a hypothetical weak-Sidon constant C.

    At scale n the hypothetical bound forces n^2 <= 40 C^2 n; the witness is
    the least n breaking it, with the inequality checked in exact rational
    arithmetic.
    """

    c: Fraction
    n: int
    lhs: int
    rhs: Fraction
    holds: bool


def weak_sidon_witness(c: Union[int, float, str, Fraction]) -> WeakSidonWitness:
    """Least integer n with n^2 > 40 C^2 n, verified exactly."""
    c_exact = Fraction(c)
    if c_exact < 0:
        raise ValueError(f"constant must be >= 0, got {c_exact}")
    threshold = 40 * c_exact * c_exact
    n = math.floor(threshold) + 1
    lhs = n * n
    rhs = threshold * n
    return WeakSidonWitness(c=c_exact, n=n, lhs=lhs, rhs=rhs, holds=Fraction(lhs) > rhs)


class SidonQICheck(NamedTuple):
    """|F| against the quasi-independent Sidon bound 6 sqrt(6) ||1_F||_VN."""

    size: int
    norm_vn: float
    bound: float
    slack: float
    holds: bool


def sidon_qi_check(subset: FactorSubset) -> SidonQICheck:
    """Check |F| <= 6 sqrt(6) ||1_F||_VN for a quasi-independent F.

    ||1_F||_VN = |F| exactly: the spectrum's k = 0 term is |F|, and by the
    triangle inequality no term exceeds it.  So ``holds`` is true for every
    quasi-independent set, and the check certifies only that F is
    quasi-independent.  Raises ValueError when it is not.
    """
    ok, collision = is_quasi_independent(subset)
    if not ok:
        raise ValueError(f"set is not quasi-independent: {collision[0]} vs {collision[1]}")
    size = len(subset.exponents)
    bound = SIDON_QI_CONSTANT * size
    return SidonQICheck(
        size=size,
        norm_vn=float(size),
        bound=bound,
        slack=bound - size,
        holds=size <= bound + DEFAULT_TOLERANCE,
    )


def leinert_lower_bound(subset: FactorSubset) -> float:
    """Certified lower bound ||1_F||_VN / sqrt(|F|) on any superset's Leinert constant.

    Operator norms computed inside the cyclic factor coincide with those in
    the ambient free product, so the ratio bounds the constant from below.
    As ||1_F||_VN = |F| (see ``sidon_qi_check``), the ratio is sqrt(|F|).
    """
    m = len(subset.exponents)
    if m == 0:
        raise ValueError("lower bound needs a nonempty set")
    return math.sqrt(m)
