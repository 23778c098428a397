"""Certificate serialization: byte stability, round trips, atomic writes."""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from freelac import (
    CertificateFile,
    CertificateFormatError,
    build_family,
    family_from_payload,
    family_to_payload,
    parse,
    read_certificate,
    serialize,
    write_certificate,
)
from freelac.certificates import fmt_float, make_provenance

DATA = Path(__file__).parent / "data"


def sample_cert(kind="family", payload=None) -> CertificateFile:
    return CertificateFile(
        kind=kind,
        payload=payload or {"x": 1, "names": ["b", "a"], "flag": True, "none": None},
        provenance=make_provenance("0.1.0", {"s": 2}),
    )


def test_fmt_float_round_trips_exactly():
    for x in (0.0, 1.0, 1 / 3, 2.0**-52, 1e300, -1.2345678901234567e-8, 6 * 6**0.5):
        assert float(fmt_float(x)) == x


def test_serialize_parse_round_trip():
    cert = sample_cert()
    text = serialize(cert)
    again = parse(text)
    assert again == cert
    assert serialize(again) == text


def test_serialized_keys_are_sorted():
    text = serialize(sample_cert())
    doc = json.loads(text)
    assert list(doc.keys()) == sorted(doc.keys())
    assert text.endswith("\n")


def test_raw_floats_rejected():
    cert = sample_cert(payload={"bad": 0.5})
    with pytest.raises(CertificateFormatError):
        serialize(cert)
    # the first float in document order is named by its path, a float subclass too
    for x in (0.25, np.float64(0.25)):
        for later in ([], [2.0]):
            payload = {"rows": [{"x": 1}, {"x": "0.5"}, {"x": x}], "z": later}
            with pytest.raises(CertificateFormatError) as refused:
                serialize(sample_cert(payload=payload))
            assert str(refused.value) == (
                "raw float at $.payload.rows[2].x; floats must be 17-digit decimal strings"
            )


def test_unknown_kind_rejected():
    with pytest.raises(CertificateFormatError):
        CertificateFile(kind="mystery", payload={}, provenance={})


def test_parse_rejects_bad_documents():
    with pytest.raises(CertificateFormatError):
        parse("not json at all")
    with pytest.raises(CertificateFormatError):
        parse('["a", "list"]')
    with pytest.raises(CertificateFormatError):
        parse('{"format_version": 99, "kind": "family", "payload": {}, "provenance": {}}')
    with pytest.raises(CertificateFormatError):
        parse('{"format_version": 1, "kind": "family", "payload": {}}')


# the name predates format 3: the readable versions are now the integers 1 to 11
@pytest.mark.parametrize("version", ["true", "1.0", "2.0", "12", "0", '"1"', "null"])
def test_parse_takes_only_the_integer_version_1_or_2(version):
    doc = '{"format_version": %s, "kind": "family", "payload": {}, "provenance": {}}'
    for readable in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
        assert parse(doc % readable).format_version == readable
    message = "format_version .*; expected the integer 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 or 11$"
    with pytest.raises(CertificateFormatError, match=message):
        parse(doc % version)


def test_write_and_read_atomic(tmp_path):
    cert = sample_cert()
    path = tmp_path / "cert.json"
    write_certificate(str(path), cert)
    assert read_certificate(str(path)) == cert
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".cert-")]
    assert leftovers == []


def test_family_payload_round_trip():
    family = build_family(2, (8, 10), "desk")
    payload = family_to_payload(family)
    # the file keeps every field of each result, the search record included
    assert family_from_payload(payload) == family
    assert family_to_payload(family_from_payload(payload)) == payload


def test_loaded_family_does_not_claim_an_exhausted_search():
    # the desk s=2 n=7 factor stops on its node budget, and the family file
    # records that
    family = build_family(2, (7, 7), "desk")
    (built,) = family.results
    assert (built.nodes_searched, built.search_exhausted) == (5000, False)
    payload = family_to_payload(family)
    (loaded,) = family_from_payload(payload).results
    assert loaded == built and not loaded.feasible
    # format 1 stored no search record, so the same factor read as format 1 has none
    (unrecorded,) = family_from_payload(payload, format_version=1).results
    assert unrecorded == replace(built, nodes_searched=None, search_exhausted=None)


@pytest.mark.parametrize("name", ["desk2-v1.json", "desk4-n10-v1.json"])
def test_format_1_family_round_trips(name):
    # re-saved, a format-1 family keeps its unrecorded search as two nulls
    cert = read_certificate(str(DATA / name))
    family = family_from_payload(cert.payload, cert.format_version)
    assert family_from_payload(family_to_payload(family)) == family


@pytest.mark.parametrize("field", ["nodes_searched", "search_exhausted"])
def test_half_null_search_record_is_format_error(field):
    payload = family_to_payload(build_family(2, (8, 8), "desk"))
    payload["factors"][0][field] = None
    with pytest.raises(CertificateFormatError, match="factor 8: search record is half null"):
        family_from_payload(payload)


def test_family_payload_survives_cache_deletion():
    family = build_family(2, (8, 9), "desk")
    payload = family_to_payload(family)
    for factor in payload["factors"]:
        del factor["chosen"]
    again = family_from_payload(payload)
    assert [r.subset for r in again.results] == [r.subset for r in family.results]


def test_family_payload_rejects_order_mismatch():
    family = build_family(2, (8, 9), "desk")
    payload = family_to_payload(family)
    payload["factors"][0]["p"] = 523
    with pytest.raises(CertificateFormatError):
        family_from_payload(payload)


def test_family_payload_rejects_malformed_exponents():
    family = build_family(2, (8, 9), "desk")
    payload = family_to_payload(family)
    payload["factors"][0]["exponents"] = [5, 5]
    with pytest.raises(CertificateFormatError):
        family_from_payload(payload)

