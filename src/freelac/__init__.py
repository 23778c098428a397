"""Lacunary sets in free products of cyclic groups, with exact verification.

The library builds families of exponent sets inside the cyclic factors of a
free product by greedy avoidance, then certifies their combinatorial and
spectral behaviour at desk scale: exhaustive avoidance checks, exact
alternating-tuple counts, Leinert-condition searches, quasi-independent
extraction, and DFT norm inequalities.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .builder import (
    BuildProfile,
    BuildResult,
    EpsilonVector,
    FactorSubset,
    ForbiddenStrata,
    LacunaryFamily,
    PROFILES,
    build_factor_set,
    build_family,
    choose_next,
    epsilon_vector_count,
    half_table_size,
    strata_extend,
    strict_table_size,
    verify_pn_bruteforce,
)
from .certificates import (
    CertificateFile,
    CertificateFormatError,
    family_from_payload,
    family_to_payload,
    parse,
    read_certificate,
    serialize,
    write_certificate,
)
from .counting import (
    LeinertWitness,
    QIWitness,
    ZsCertificate,
    extract_quasi_independent,
    is_quasi_independent,
    leinert_violation,
    z_enumerate,
    z_value,
    zs_paper_target,
)
from .errors import BudgetExceeded
from .primes import FactorTable, is_prime, smallest_admissible_prime
from .spectral import (
    CyclicFunction,
    HolderCheck,
    KernelNormCheck,
    SidonQICheck,
    SpectrumReport,
    WeakSidonWitness,
    density_lower_bound,
    fejer_coefficient,
    fejer_kernel,
    holder_check,
    kernel_norm_check,
    leinert_lower_bound,
    sidon_qi_check,
    transform,
    transforms,
    weak_sidon_witness,
)
from .words import (
    START_INVERSE,
    START_PLAIN,
    Word,
    alternating_product,
    canonical_key,
    is_identity,
    letter_word,
    multiply,
    reduce_raw,
)
