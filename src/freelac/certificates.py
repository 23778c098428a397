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
from typing import Any

from .builder import PROFILES, BuildResult, FactorSubset, LacunaryFamily, check_even_s
from .primes import EXPLICIT_PRIME_RULE, PAPER_PRIME_RULE, FactorTable

FORMAT_VERSION = 11
READABLE_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
KINDS = ("family", "pn", "zs", "leinert", "qi", "spectrum", "report")

TOOL_NAME = "freelac"


class CertificateFormatError(ValueError):
    """A certificate file is malformed or has an unsupported version."""


def fmt_float(x: float) -> str:
    """Canonical 17-significant-digit decimal string for a float."""
    return format(float(x), ".17g")


def fmt_complex(z: complex) -> list[str]:
    return [fmt_float(z.real), fmt_float(z.imag)]


def _reject_raw_floats(doc: Any) -> None:
    """Refuse a float anywhere in the dicts and lists of ``doc``.  The scan
    builds no path; only a float it finds sends ``_name_raw_float`` to name it."""
    containers = [doc]
    for node in containers:  # the list grows as the walk goes
        for value in node.values() if isinstance(node, dict) else node:
            if isinstance(value, (dict, list)):
                containers.append(value)
            elif isinstance(value, float):
                _name_raw_float(doc)


def _name_raw_float(node: Any, path: str = "$") -> None:
    if isinstance(node, float):
        raise CertificateFormatError(
            f"raw float at {path}; floats must be 17-digit decimal strings"
        )
    if isinstance(node, dict):
        for k, v in node.items():
            _name_raw_float(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _name_raw_float(v, f"{path}[{i}]")


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


def make_provenance(version: str, parameters: dict) -> dict:
    """Provenance block: the parameters a run read and the tool that ran it.  It
    records no wall-clock time, so identical runs write identical bytes."""
    return {"parameters": parameters, "tool": f"{TOOL_NAME} {version}"}


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
    if type(version) is not int or version not in READABLE_VERSIONS:
        *first, last = READABLE_VERSIONS
        raise CertificateFormatError(
            f"unsupported format_version {version!r}; "
            f"expected the integer {', '.join(map(str, first))} or {last}"
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


def family_to_payload(family: LacunaryFamily) -> dict:
    """The payload of a built family, search record included; formats 2 to 11 share it."""
    factors = []
    for result in family.results:
        factors.append(
            {
                "chosen": list(result.chosen),
                "exponents": list(result.subset.exponents),
                "feasible": result.feasible,
                "n": result.n,
                "nodes_searched": result.nodes_searched,
                "p": result.p,
                "pool_bound": result.pool_bound,
                "search_exhausted": result.search_exhausted,
                "target_size": result.target_size,
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


def _field(record: Any, key: str, where: str, kind: type, nullable: bool = False) -> Any:
    """``record[key]`` if it is a JSON value of exactly type ``kind``, or null when
    ``nullable``: ``1.0``, ``"1"`` and ``true`` are no integers, ``1`` is no flag."""
    if not isinstance(record, dict) or key not in record:
        raise CertificateFormatError(f"{where}: missing field {key!r}")
    value = record[key]
    if type(value) is not kind and not (nullable and value is None):
        raise CertificateFormatError(f"{where}: {key} must be {kind.__name__}, got {value!r}")
    return value


def _integers(record: Any, key: str, where: str) -> tuple[int, ...]:
    values = tuple(_field(record, key, where, list))
    for value in values:
        if type(value) is not int:
            raise CertificateFormatError(f"{where}: {key} must hold integers, got {value!r}")
    return values


def family_from_payload(payload: dict, format_version: int = FORMAT_VERSION) -> LacunaryFamily:
    """Rebuild the family of a payload written in ``format_version``.

    Integers must be JSON integers and flags JSON booleans; nothing is coerced.
    Factors must ascend strictly in ``n``, as ``build`` writes them.  ``chosen``
    may be deleted (it falls back to the sorted exponents; verifiers read the
    exponents alone), but a stored one must be the exponents in admission
    order.  A ``feasible`` flag or ``n_feasible`` that disagrees with the
    exponents and targets is a format error, as are an ``s`` that is not an
    even integer >= 2, a payload with no factors and a factor with no exponents
    (``build`` always admits exponent 1).  The profile fixes each factor's
    ``target_size`` and ``pool_bound``, so an unknown profile, or a stored value
    that differs from the profile's, is a format error too.  Format 1 stored no
    search record, so its results have ``nodes_searched`` and
    ``search_exhausted`` None, and its ``forbidden_trace`` is not read; a later
    file stores both, or both as null when re-saved from a format-1 family.
    """
    where = "family payload"
    rule = _field(payload, "prime_rule", where, str)
    orders = _integers(payload, "orders", where)
    s = _field(payload, "s", where, int)
    profile = _field(payload, "profile", where, str)
    rules = PROFILES.get(profile)
    if rules is None:
        raise CertificateFormatError(f"{where}: unknown build profile {profile!r}")
    seed = _field(payload, "seed", where, int, nullable=True)
    raw_factors = _field(payload, "factors", where, list)
    n_feasible = _field(payload, "n_feasible", where, int, nullable=True)
    try:
        check_even_s(s)
    except ValueError as exc:
        raise CertificateFormatError(f"family payload: {exc}") from exc
    if not raw_factors:
        raise CertificateFormatError("family payload holds no factors")
    if rule == PAPER_PRIME_RULE:
        table = FactorTable(orders)
    elif rule == EXPLICIT_PRIME_RULE:
        table = FactorTable.explicit(orders)
    else:
        raise CertificateFormatError(f"unknown prime rule {rule!r}")

    results = []
    for raw in raw_factors:
        n = _field(raw, "n", "factor record", int)
        where = f"factor {n}"
        if results and n <= results[-1].n:
            raise CertificateFormatError(f"{where} follows factor {results[-1].n}; n must ascend")
        p = _field(raw, "p", where, int)
        pool_bound = _field(raw, "pool_bound", where, int)
        target_size = _field(raw, "target_size", where, int)
        feasible = _field(raw, "feasible", where, bool)
        exponents = _integers(raw, "exponents", where)
        chosen = _integers(raw, "chosen", where) if "chosen" in raw else exponents
        nodes = exhausted = None
        if format_version >= 2:
            nodes = _field(raw, "nodes_searched", where, int, nullable=True)
            exhausted = _field(raw, "search_exhausted", where, bool, nullable=True)
            if (nodes is None) != (exhausted is None):
                raise CertificateFormatError(f"{where}: search record is half null")
        if not exponents:
            raise CertificateFormatError(f"{where} holds no exponents")
        derived = (rules.target_size(n, s), rules.pool_bound(n))
        if (target_size, pool_bound) != derived:
            raise CertificateFormatError(
                f"{where}: stored target_size {target_size} and pool_bound {pool_bound} "
                f"contradict the {profile} profile's {derived[0]} and {derived[1]}"
            )
        if table.order(n) != p:
            raise CertificateFormatError(
                f"{where}: stored order {p} contradicts the table order {table.order(n)}"
            )
        try:
            subset = FactorSubset(factor=n, order=p, exponents=exponents)
            result = BuildResult(subset, chosen, pool_bound, target_size, nodes, exhausted)
        except ValueError as exc:
            raise CertificateFormatError(f"{where}: {exc}") from exc
        if feasible != result.feasible:
            raise CertificateFormatError(
                f"{where}: stored feasible={feasible} contradicts its {len(subset)} of "
                f"{target_size} target exponents"
            )
        results.append(result)
    family = LacunaryFamily(s, table, profile, seed, tuple(results))
    if n_feasible != family.n_feasible:
        raise CertificateFormatError(
            f"stored n_feasible={n_feasible} contradicts the first feasible factor "
            f"{family.n_feasible}"
        )
    return family
