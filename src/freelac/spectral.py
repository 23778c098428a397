"""DFT-based norms on single cyclic factors and the kernel inequality chain.

Conventions: spectrum f_hat(k) = sum_j f(j) exp(-2 pi i j k / p); the algebra
norm carries the 1/p factor (mean of |f_hat|), the operator norm is the max,
and the normalized q-norms are ((1/p) sum |f_hat|^q)^(1/q).  A point mass at 0
then has algebra norm = operator norm = 1.

Each function is transformed once, by numpy's FFT: its SpectrumReport keeps
the spectrum and its magnitudes, and every check reads that report, computing
a q-norm from it on demand.  The norms use libm alone (``math.hypot``,
``math.pow``, ``math.fsum``), so their digits do not depend on which SIMD
kernels numpy dispatches on the host CPU.  numpy is imported inside the two
functions that take an FFT, so importing the module, or the CLI, loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .builder import FactorSubset
from .counting import is_quasi_independent
from .errors import BudgetExceeded
from .primes import is_prime

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SPECTRAL_BUDGET = 1 << 20

# Sidon constant of a quasi-independent set inside an abelian group.
SIDON_QI_CONSTANT = 6.0 * math.sqrt(6.0)


@dataclass(frozen=True)
class CyclicFunction:
    """Sparse complex-valued function on Z_p, keyed by exponent residue."""

    p: int
    values: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"order {self.p} is not prime")
        prev = -1
        for j, _ in self.values:
            if not 0 <= j < self.p:
                raise ValueError(f"residue {j} outside [0, {self.p - 1}]")
            if j <= prev:
                raise ValueError("support residues must be sorted and distinct")
            prev = j

    @classmethod
    def from_values(cls, p: int, mapping: Mapping[int, complex]) -> "CyclicFunction":
        merged: dict[int, complex] = {}
        for j, v in mapping.items():
            merged[j % p] = merged.get(j % p, 0j) + complex(v)
        return cls(p, tuple(sorted((j, v) for j, v in merged.items() if v != 0)))

    @classmethod
    def indicator(cls, p: int, residues: Iterable[int]) -> "CyclicFunction":
        return cls.from_values(p, {j: 1.0 for j in residues})


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Full spectrum of a cyclic function with its normalized norms.

    ``magnitudes`` holds |f_hat(k)| as ``math.hypot`` of each coefficient.
    """

    p: int
    spectrum: "np.ndarray"
    magnitudes: tuple[float, ...]
    norm_a: float
    norm_vn: float

    def norm_lq(self, q: float) -> float:
        """Normalized q-norm ((1/p) sum |f_hat|^q)^(1/q) of the stored spectrum."""
        q = float(q)
        total = math.fsum(math.pow(m, q) for m in self.magnitudes)
        return math.pow(total / self.p, 1.0 / q)


def check_spectral_budget(p: int) -> None:
    """Refuse an order above ``DEFAULT_SPECTRAL_BUDGET``."""
    if p > DEFAULT_SPECTRAL_BUDGET:
        raise BudgetExceeded(f"order {p} exceeds the spectral budget {DEFAULT_SPECTRAL_BUDGET}")


def transform(f: CyclicFunction) -> SpectrumReport:
    """The spectrum of ``f`` by one FFT of its dense length-p array, O(p log p).

    numpy's sign convention is the module's, f_hat(k) = sum_j f(j) exp(-2 pi i
    j k / p).  Transform a function once and read every norm from the returned
    report; q-norms are computed on demand by ``SpectrumReport.norm_lq``.
    Refuses an order above ``DEFAULT_SPECTRAL_BUDGET``, which also bounds the
    dense array's memory.
    """
    import numpy as np

    p = f.p
    check_spectral_budget(p)
    dense = np.zeros(p, dtype=np.complex128)
    for j, v in f.values:
        dense[j] = v
    spectrum = np.fft.fft(dense)
    mag = tuple(math.hypot(z.real, z.imag) for z in spectrum.tolist())
    return SpectrumReport(p, spectrum, mag, norm_a=math.fsum(mag) / p, norm_vn=max(mag))


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
    are the same without building a Fraction per offset.
    """
    if n < 1:
        raise ValueError(f"kernel scale must be >= 1, got {n}")
    if p <= 4 * n:
        raise ValueError(f"order {p} must exceed 4n = {4 * n}")
    width = 2 * n
    values = {j % p: (width - abs(j)) / width for j in range(1 - width, width)}
    return CyclicFunction.from_values(p, values)


def _dual_index(q: float) -> float:
    if not (math.isfinite(q) and q > 1.0):
        raise ValueError(f"q must be finite and exceed 1, got {q}")
    return q / (q - 1.0)


@dataclass(frozen=True)
class KernelNormCheck:
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
    q_prime = _dual_index(q)
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


@dataclass(frozen=True)
class HolderCheck:
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
    and cross-checked against the direct sum (Plancherel identity).
    """
    import numpy as np

    if f.p != g.p:
        raise ValueError(f"orders differ: {f.p} vs {g.p}")
    q = float(q)
    q_prime = _dual_index(q)
    rf = transform(f)
    rg = transform(g)
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


@dataclass(frozen=True)
class WeakSidonWitness:
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


@dataclass(frozen=True)
class SidonQICheck:
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
