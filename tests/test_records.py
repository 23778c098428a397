"""Records: immutable named tuples, and the checks of the ones that validate."""

from __future__ import annotations

import re

import pytest

from freelac import (
    BuildResult,
    CertificateFile,
    CertificateFormatError,
    CyclicFunction,
    EpsilonVector,
    FactorSubset,
    FactorTable,
    LeinertWitness,
    Word,
    letter_word,
    transform,
)

TABLE = FactorTable((5, 11))
SUBSET = FactorSubset(1, 5, (1, 2))
# x1 - x2 + x3 - x4 = 1 - 2 + 3 - 2 = 0, adjacent entries distinct
CLOSING = tuple(letter_word(TABLE, 1, e) for e in (1, 2, 3, 2))

# each record: a good instance's fields in order, one field made bad, and the
# error that the bad field raises
CHECKED = [
    (FactorTable, {"orders": (5, 11), "rule": TABLE.rule}, "orders", (5, 9),
     ValueError, "factor 2: order 9 is not an odd prime"),
    (Word, {"table": TABLE, "pairs": ((1, 2), (2, 7))}, "pairs", ((1, 2), (1, 3)),
     ValueError, "word not reduced: adjacent letters in factor 1"),
    (FactorSubset, {"factor": 1, "order": 5, "exponents": (1, 2)}, "exponents", (2, 1),
     ValueError, "exponents must be sorted and distinct"),
    (EpsilonVector, {"entries": (1, -2, 0)}, "entries", (1, 3),
     ValueError, "entry 3 outside {0, +-1, +-2}"),
    (BuildResult,
     {"subset": SUBSET, "chosen": (2, 1), "pool_bound": 4, "target_size": 2,
      "nodes_searched": 3, "search_exhausted": True},
     "pool_bound", 1, ValueError, "chosen exponent 2 outside pool [1, 1]"),
    (CertificateFile, {"kind": "pn", "payload": {}, "provenance": {}, "format_version": 11},
     "kind", "nope", CertificateFormatError, "unknown certificate kind 'nope'"),
    (LeinertWitness, {"s": 2, "elements": CLOSING}, "elements", CLOSING[:3] + CLOSING[2:3],
     ValueError, "adjacent entries 2 and 3 coincide"),
    (CyclicFunction, {"p": 5, "values": ((0, 1 + 0j), (2, 0.5j))}, "values",
     ((2, 0.5j), (0, 1 + 0j)), ValueError, "support residues must be sorted and distinct"),
]


@pytest.mark.parametrize(
    "record, good, field, bad_value, error, message",
    CHECKED,
    ids=[case[0].__name__ for case in CHECKED],
)
def test_a_checked_record_checks_every_way_it_is_built(
    record, good, field, bad_value, error, message
):
    assert list(good) == list(record._fields)
    made = record(**good)
    assert made == tuple(good.values()) and record(*good.values()) == made
    assert repr(made) == f"{record.__name__}({', '.join(f'{k}={v!r}' for k, v in good.items())})"
    bad = {**good, field: bad_value}
    match = re.escape(message)
    with pytest.raises(error, match=match):
        record(*bad.values())
    with pytest.raises(error, match=match):
        record(**bad)
    with pytest.raises(error, match=match):
        made._replace(**{field: bad_value})
    with pytest.raises(error, match=match):
        record._make(bad.values())
    # fields are read-only, and a record takes no other attribute
    with pytest.raises(AttributeError):
        setattr(made, field, bad_value)
    with pytest.raises(AttributeError):
        made.note = None
    assert made == tuple(good.values())


def test_a_spectrum_report_is_read_only_and_compares_by_identity():
    f = CyclicFunction.indicator(5, (1, 2))
    report, again = transform(f), transform(f)
    assert report == report and report != again
    assert report.norm_vn == 2.0 and vars(report)["norm_vn"] == 2.0  # computed once, then kept
    with pytest.raises(AttributeError):
        report.p = 7
    assert report.p == 5
