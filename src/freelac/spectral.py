"""DFT-based norms on single cyclic factors and the kernel inequality chain.

Conventions: spectrum f_hat(k) = sum_j f(j) exp(-2 pi i j k / p); the algebra
norm carries the 1/p factor (mean of |f_hat|), the operator norm is the max,
and the normalized q-norms are ((1/p) sum |f_hat|^q)^(1/q).  A point mass at 0
then has algebra norm = operator norm = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .builder import FactorSubset
from .counting import DEFAULT_SUBSET_BUDGET_BITS, is_quasi_independent
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
        items = sorted((j % p, complex(v)) for j, v in mapping.items() if v != 0)
        merged: dict[int, complex] = {}
        for j, v in items:
            merged[j] = merged.get(j, 0j) + v
        return cls(p, tuple(sorted((j, v) for j, v in merged.items() if v != 0)))

    @classmethod
    def point_mass(cls, p: int, j: int) -> "CyclicFunction":
        return cls.from_values(p, {j: 1.0})

    @classmethod
    def indicator(cls, p: int, residues: Iterable[int]) -> "CyclicFunction":
        return cls.from_values(p, {j: 1.0 for j in residues})

    @classmethod
    def from_subset(cls, subset: FactorSubset) -> "CyclicFunction":
        return cls.indicator(subset.order, subset.exponents)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Full spectrum of a cyclic function with its normalized norms."""

    p: int
    spectrum: np.ndarray
    norm_a: float
    norm_vn: float
    norm_l2: float
    norm_lq: dict[float, float]
    values_l2: float


def transform(
    f: CyclicFunction,
    q_list: Sequence[float] = (),
    budget: int = DEFAULT_SPECTRAL_BUDGET,
) -> SpectrumReport:
    """Exact-definition DFT, evaluated directly in O(p * support).

    Root-of-unity arguments are reduced mod p in exact integer arithmetic
    before exponentiation, so phases never lose precision to large j*k.
    """
    p = f.p
    if p > budget:
        raise BudgetExceeded(f"order {p} exceeds the spectral budget {budget}")
    roots = np.exp(-2j * np.pi * np.arange(p) / p)
    k = np.arange(p, dtype=np.int64)
    spectrum = np.zeros(p, dtype=np.complex128)
    for j, v in f.values:
        spectrum += v * roots[(j * k) % p]
    mag = np.abs(spectrum)
    norm_lq = {float(q): float(np.mean(mag ** float(q)) ** (1.0 / float(q))) for q in q_list}
    values_l2 = math.sqrt(sum(abs(v) ** 2 for _, v in f.values))
    return SpectrumReport(
        p=p,
        spectrum=spectrum,
        norm_a=float(np.mean(mag)),
        norm_vn=float(np.max(mag)),
        norm_l2=float(np.sqrt(np.mean(mag**2))),
        norm_lq=norm_lq,
        values_l2=values_l2,
    )


def fejer_coefficient(n: int, j: int) -> Fraction:
    """Exact triangular coefficient max(1 - |j| / (2n), 0) at offset j."""
    if n < 1:
        raise ValueError(f"kernel scale must be >= 1, got {n}")
    return max(Fraction(0), 1 - Fraction(abs(j), 2 * n))


def fejer_kernel(n: int, p: int) -> CyclicFunction:
    """Triangular kernel of width 2n on Z_p: nonnegative spectrum, peak sum 2n.

    Requires p > 4n so the support [-2n, 2n] embeds without wraparound.  The
    coefficients are >= 1/2 on offsets 1..n exactly (see fejer_coefficient).
    """
    if p <= 4 * n:
        raise ValueError(f"order {p} must exceed 4n = {4 * n}")
    values = {}
    for j in range(-(2 * n) + 1, 2 * n):
        values[j % p] = float(fejer_coefficient(n, j))
    return CyclicFunction.from_values(p, values)


def _dual_index(q: float) -> float:
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    return q / (q - 1.0)


@dataclass(frozen=True)
class KernelNormCheck:
    """Interpolation and peak bounds for a triangular kernel instance."""

    n: int
    p: int
    q: float
    q_prime: float
    norm_a: float
    norm_vn: float
    norm_lq_prime: float
    interpolation_bound: float
    kernel_bound: float
    interpolation_holds: bool
    kernel_bound_holds: bool

    @property
    def passed(self) -> bool:
        return self.interpolation_holds and self.kernel_bound_holds


def kernel_norm_check(
    n: int,
    p: int,
    q: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> KernelNormCheck:
    """Check ||K||_{q'} <= ||K||_A^{1/q'} ||K||_VN^{1/q} <= (4n+1)^{1/q}."""
    q = float(q)
    q_prime = _dual_index(q)
    report = transform(fejer_kernel(n, p), q_list=(q_prime,))
    norm_lq_prime = report.norm_lq[q_prime]
    interpolation_bound = report.norm_a ** (1.0 / q_prime) * report.norm_vn ** (1.0 / q)
    kernel_bound = (4 * n + 1) ** (1.0 / q)
    return KernelNormCheck(
        n=n,
        p=p,
        q=q,
        q_prime=q_prime,
        norm_a=report.norm_a,
        norm_vn=report.norm_vn,
        norm_lq_prime=norm_lq_prime,
        interpolation_bound=interpolation_bound,
        kernel_bound=kernel_bound,
        interpolation_holds=norm_lq_prime <= interpolation_bound + tolerance,
        kernel_bound_holds=interpolation_bound <= kernel_bound + tolerance,
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


def holder_check(
    f: CyclicFunction,
    g: CyclicFunction,
    q: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> HolderCheck:
    """Check |<f, g>| <= ||f||_{q'} ||g||_q with the pairing sum_j f(j) conj(g(j)).

    The pairing is computed in the spectral form (1/p) sum_k f_hat conj(g_hat)
    and cross-checked against the direct sum (Plancherel identity).
    """
    if f.p != g.p:
        raise ValueError(f"orders differ: {f.p} vs {g.p}")
    q = float(q)
    q_prime = _dual_index(q)
    rf = transform(f, q_list=(q_prime,))
    rg = transform(g, q_list=(q,))
    spectral = complex(np.mean(rf.spectrum * np.conj(rg.spectrum)))
    g_values = dict(g.values)
    direct = sum(v * g_values.get(j, 0j).conjugate() for j, v in f.values)
    bound = rf.norm_lq[q_prime] * rg.norm_lq[q]
    return HolderCheck(
        q=q,
        q_prime=q_prime,
        pairing=direct,
        pairing_spectral=spectral,
        plancherel_gap=abs(spectral - direct),
        bound=bound,
        holds=abs(direct) <= bound + tolerance,
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


def sidon_qi_check(
    subset: FactorSubset,
    tolerance: float = DEFAULT_TOLERANCE,
    budget_bits: int = DEFAULT_SUBSET_BUDGET_BITS,
) -> SidonQICheck:
    """Check |F| <= 6 sqrt(6) ||1_F||_VN for a quasi-independent F.

    This is theorem-backed: a failure indicates an implementation bug, not a
    counterexample.  Raises ValueError when F is not quasi-independent.
    """
    ok, collision = is_quasi_independent(subset, budget_bits)
    if not ok:
        raise ValueError(f"set is not quasi-independent: {collision[0]} vs {collision[1]}")
    report = transform(CyclicFunction.from_subset(subset))
    size = len(subset.exponents)
    bound = SIDON_QI_CONSTANT * report.norm_vn
    return SidonQICheck(
        size=size,
        norm_vn=report.norm_vn,
        bound=bound,
        slack=bound - size,
        holds=size <= bound + tolerance,
    )


def leinert_lower_bound(subset: FactorSubset) -> float:
    """Certified lower bound ||1_F||_VN / sqrt(|F|) on any superset's Leinert constant.

    Operator norms computed inside the cyclic factor coincide with those in
    the ambient free product, so the ratio bounds the constant from below.
    """
    if len(subset.exponents) == 0:
        raise ValueError("lower bound needs a nonempty set")
    report = transform(CyclicFunction.from_subset(subset))
    return report.norm_vn / math.sqrt(len(subset.exponents))
