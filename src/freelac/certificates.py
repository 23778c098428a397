"""Versioned, byte-stable JSON certificates.

Files are UTF-8 JSON with sorted keys and a fixed separator style, so
serialize -> parse -> serialize is byte-identical.  Floating-point values are
always carried as 17-significant-digit decimal strings (never JSON numbers),
which round-trip float64 exactly and keep the byte layout stable across
platforms.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Optional

from .builder import (
    BuildResult,
    FactorSubset,
    LacunaryFamily,
    PNCertificate,
    PROFILES,
)
from .counting import DEFAULT_SUBSET_BUDGET_BITS, DEFAULT_TUPLE_BUDGET
from .primes import EXPLICIT_PRIME_RULE, PAPER_PRIME_RULE, FactorTable
from .spectral import DEFAULT_SPECTRAL_BUDGET, DEFAULT_TOLERANCE

FORMAT_VERSION = 1
KINDS = ("family", "pn", "zs", "leinert", "qi", "spectrum", "report")

TOOL_NAME = "freelac"


class CertificateFormatError(ValueError):
    """A certificate file is malformed or has an unsupported version."""


def fmt_float(x: float) -> str:
    """Canonical 17-significant-digit decimal string for a float."""
    return format(float(x), ".17g")


def parse_float(s: str) -> float:
    return float(s)


def fmt_complex(z: complex) -> list[str]:
    return [fmt_float(z.real), fmt_float(z.imag)]


def _reject_raw_floats(node: Any, path: str = "$") -> None:
    if isinstance(node, float):
        raise CertificateFormatError(
            f"raw float at {path}; floats must be 17-digit decimal strings"
        )
    if isinstance(node, dict):
        for k, v in node.items():
            _reject_raw_floats(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _reject_raw_floats(v, f"{path}[{i}]")


@dataclass(frozen=True)
class CertificateFile:
    """One versioned certificate: kind, payload, and provenance."""

    kind: str
    payload: dict
    provenance: dict
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CertificateFormatError(f"unknown certificate kind {self.kind!r}")


def make_provenance(
    version: str,
    parameters: dict,
    seed: Optional[int] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """Provenance block; the timestamp stays None unless explicitly requested,
    keeping identical runs byte-identical."""
    return {
        "parameters": parameters,
        "seed": seed,
        "timestamp": timestamp,
        "tool": f"{TOOL_NAME} {version}",
    }


def serialize(cert: CertificateFile) -> str:
    doc = {
        "format_version": cert.format_version,
        "kind": cert.kind,
        "payload": cert.payload,
        "provenance": cert.provenance,
    }
    _reject_raw_floats(doc)
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n"


def parse(text: str) -> CertificateFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CertificateFormatError(
            f"unsupported format_version {version!r}; expected {FORMAT_VERSION}"
        )
    for key in ("kind", "payload", "provenance"):
        if key not in doc:
            raise CertificateFormatError(f"missing required key {key!r}")
    return CertificateFile(
        kind=doc["kind"],
        payload=doc["payload"],
        provenance=doc["provenance"],
        format_version=version,
    )


def write_certificate(path: str, cert: CertificateFile) -> None:
    """Atomic write: serialize to a temp file in the target directory, then rename."""
    text = serialize(cert)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".cert-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_certificate(path: str) -> CertificateFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a build/verify run, echoed into certificate provenance."""

    s: int = 2
    n_min: Optional[int] = None
    n_max: Optional[int] = None
    profile: str = "desk"
    seed: Optional[int] = None
    tuple_budget: int = DEFAULT_TUPLE_BUDGET
    subset_budget_bits: int = DEFAULT_SUBSET_BUDGET_BITS
    spectral_budget: int = DEFAULT_SPECTRAL_BUDGET
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.s < 2 or self.s % 2 != 0:
            raise ValueError(f"s must be an even integer >= 2, got {self.s}")
        for name in ("tuple_budget", "subset_budget_bits", "spectral_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def resolved_range(self) -> tuple[int, int]:
        lo, hi = PROFILES[self.profile].default_range(self.s)
        return (
            self.n_min if self.n_min is not None else lo,
            self.n_max if self.n_max is not None else hi,
        )

    def provenance_parameters(self) -> dict:
        n_min, n_max = self.resolved_range()
        return {
            "n_max": n_max,
            "n_min": n_min,
            "profile": self.profile,
            "s": self.s,
            "spectral_budget": self.spectral_budget,
            "subset_budget_bits": self.subset_budget_bits,
            "tolerance": fmt_float(self.tolerance),
            "tuple_budget": self.tuple_budget,
        }


def family_to_payload(family: LacunaryFamily) -> dict:
    factors = []
    for result in family.results:
        cert = result.certificate
        factors.append(
            {
                "chosen": list(cert.chosen),
                "exponents": list(result.subset.exponents),
                "feasible": result.feasible,
                "forbidden_trace": list(cert.forbidden_trace),
                "n": cert.n,
                "p": cert.p,
                "pool_bound": cert.pool_bound,
                "target_size": cert.target_size,
            }
        )
    return {
        "factors": factors,
        "n_feasible": family.n_feasible,
        "orders": list(family.table.orders),
        "prime_rule": family.table.rule,
        "profile": family.profile,
        "s": family.s,
        "seed": family.seed,
    }


def family_from_payload(payload: dict) -> LacunaryFamily:
    """Rebuild the family view of a payload; cached fields may be absent.

    ``chosen`` and ``forbidden_trace`` are construction caches: when deleted
    from a file the family still parses (chosen falls back to the sorted
    exponents with a zero trace) and every verification verdict is unchanged,
    since verifiers recompute from the exponents alone.
    """
    try:
        rule = payload["prime_rule"]
        orders = tuple(int(p) for p in payload["orders"])
        s = int(payload["s"])
        profile = payload["profile"]
        seed = payload["seed"]
        raw_factors = payload["factors"]
    except (KeyError, TypeError) as exc:
        raise CertificateFormatError(f"family payload missing field: {exc}") from exc
    if rule == PAPER_PRIME_RULE:
        table = FactorTable(orders)
    elif rule == EXPLICIT_PRIME_RULE:
        table = FactorTable.explicit(orders)
    else:
        raise CertificateFormatError(f"unknown prime rule {rule!r}")

    results = []
    for raw in raw_factors:
        try:
            n = int(raw["n"])
            p = int(raw["p"])
            pool_bound = int(raw["pool_bound"])
            target_size = int(raw["target_size"])
            feasible = bool(raw["feasible"])
            exponents = tuple(int(e) for e in raw["exponents"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateFormatError(f"malformed factor record: {exc}") from exc
        if table.order(n) != p:
            raise CertificateFormatError(
                f"factor {n}: stored order {p} contradicts the table order {table.order(n)}"
            )
        chosen = tuple(int(g) for g in raw.get("chosen", exponents))
        trace = tuple(int(t) for t in raw.get("forbidden_trace", (0,) * len(chosen)))
        try:
            subset = FactorSubset(factor=n, order=p, exponents=exponents)
            certificate = PNCertificate(
                n=n,
                p=p,
                s=s,
                chosen=chosen,
                pool_bound=pool_bound,
                target_size=target_size,
                forbidden_trace=trace,
            )
        except ValueError as exc:
            raise CertificateFormatError(f"factor {n}: {exc}") from exc
        results.append(BuildResult(feasible, subset, certificate))
    return LacunaryFamily(s, table, profile, seed, tuple(results))
