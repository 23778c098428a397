"""Command surface: outputs, exit codes, determinism, tamper detection."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freelac import builder, cli, spectral
from freelac.certificates import (
    CertificateFile,
    family_from_payload,
    family_to_payload,
    read_certificate,
    write_certificate,
)
from freelac.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_OK,
    EXIT_VIOLATION,
    kernel_order,
    main,
)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# sha256 of the desk s=2 certificates; changing their bytes needs a
# format_version bump
DESK2_CERT_SHA256 = {
    "family": "6486c0be42028f0d2f2a2ff0bd24de1c1b6f27bdee9e6055c8f73df59d76f261",
    "pn": "5dab604f1856b17a9ef9d108cc6911cb771a5326299a3c1f4bd85525713985e3",
    "zs": "9e87b1d1de7a419c799ecc6cd9269268946a61e2504810a1c84722d4b49a6bc4",
    "leinert": "8767a3a43436b8da8c46867e4d707c32aabc182114be95f3d02433452c2346cc",
    "qi": "61a951574fe7bc4916bc86d8629913573c5e1d4660e1fffc862af45ae5161d9f",
    "report": "167a7e6acb2696ea1adcf4e05a4a11992ba1cd32a198e5d2173ea59887f88d2d",
}

# Desk s=2 has Z_2 = 1, so every count there ties at 1; Z_4 = 4 on desk s=4
# --n-max 10 is where the least witness among several maxima is chosen.
DESK4_N10_CERT_SHA256 = {
    "family": "43538f38ec54af60f070573236a889357498ad9d88d0631b966acc6301d0bb07",
    "zs": "b219a475765f38647bd338ed62ffdfb052e262bb98985fba6c840421650307e6",
    "zs-mitm": "077cf2daf0b5b1fa9b6ba87be44d2c3c40a9906b25c8ee6f69690d1785afefac",
    "leinert": "b0afcaf4a73d431b7ce5a117b8d7416cc2608450620b6a98a269ee4e3304cb73",
    "report": "28bfd0033ffc05f20e25ddb0faab74bf55fcecc28dfbc5717b72ebad070c6aa5",
}
# the family of build --s 2 --profile paper --seed 7, which pins the rng draws
SEEDED_PAPER2_FAMILY_SHA256 = "28355b3891be548336c717ed630191a9eb0abba00ac4876aca7e4b8d887a30a6"
# the families of build --s 2|4 --profile paper: the half-table count rules
# out every n^2 target, so these bytes pin the greedy walk each factor takes
PAPER_FAMILY_SHA256 = {
    "2": "0a3c50e0c59f21036a777c7c17a9803959a85cd3a953a194c3b4eb9c4ddd0d69",
    "4": "ec28d9c31dd2c91970aaaa0332e2c4d0135c3aad1812e7c2bbc7171f47c6b5c7",
}
# format-1 families committed under tests/data: build --s 2, and build --s 4 --n-max 10
DATA = Path(__file__).parent / "data"
V1_FAMILY_SHA256 = {
    "desk2-v1.json": "ca698569ef0cda21c06db74ec2416660deebc86eba84dececbc5e8edb061fcce",
    "desk4-n10-v1.json": "11ce337590d717b79ad6b5cf1eead317d5afd8ccd8c63a1ab1bb65f5316d8363",
}
FAMILY_COMMANDS = pytest.mark.parametrize(
    "command",
    [["verify", "pn"], ["verify", "zs"], ["verify", "leinert"], ["verify", "qi"], ["report"]],
    ids=" ".join,
)
# verify leinert --exponents 1,2,3,4 --order 17 --s 2 (integers only)
ADHOC_LEINERT_CERT_SHA256 = "d9646e40a6da120e3a8fe9e52dff747fff6a84192209a36b99288b2920ed7670"


def build_desk_family(tmp_path, name="family.json"):
    out = tmp_path / name
    assert main(["build", "--s", "2", "--profile", "desk", "--out", str(out)]) == EXIT_OK
    return out


def test_primes_output(capsys):
    assert main(["primes", "8"]) == EXIT_OK
    lines = [line.split() for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [int(row[2]) for row in lines] == [5, 11, 17, 37, 67, 131, 257, 521]
    assert [int(row[1]) for row in lines] == [2 ** (n + 1) for n in range(1, 9)]


def test_primes_empty(capsys):
    assert main(["primes", "0"]) == EXIT_OK
    assert len(capsys.readouterr().out.strip().splitlines()) == 1  # header only


def test_primes_overflow_reported(capsys):
    assert main(["primes", "70"]) == EXIT_IO
    assert "64 bits" in capsys.readouterr().err


def test_build_then_verify_all_kinds(tmp_path):
    family = build_desk_family(tmp_path)
    assert main(["verify", "pn", str(family)]) == EXIT_OK
    assert main(["verify", "zs", str(family)]) == EXIT_OK
    assert main(["verify", "leinert", str(family)]) == EXIT_OK
    assert main(["verify", "qi", str(family)]) == EXIT_OK


def test_build_is_byte_identical(tmp_path):
    a = build_desk_family(tmp_path, "a.json")
    b = build_desk_family(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_build_partial_exit_code(tmp_path):
    out = tmp_path / "paper.json"
    code = main(
        ["build", "--s", "2", "--profile", "paper", "--n-min", "3", "--n-max", "3",
         "--out", str(out)]
    )
    assert code == EXIT_VIOLATION
    doc = read_json(out)
    factor = doc["payload"]["factors"][0]
    assert not factor["feasible"]
    assert factor["target_size"] == 9 and factor["pool_bound"] == 8


def test_build_s4_desk_records_partial_n8(tmp_path):
    # the search of the order-521 factor stops on its node budget at 5 of 6
    # exponents below 2^8 (a sixth is neither found nor ruled out); the build
    # keeps the 5-element partial and reports partial success
    out = tmp_path / "fam4.json"
    code = main(["build", "--s", "4", "--profile", "desk", "--out", str(out)])
    assert code == EXIT_VIOLATION
    factors = {f["n"]: f for f in read_json(out)["payload"]["factors"]}
    assert not factors[8]["feasible"]
    assert len(factors[8]["exponents"]) == 5
    assert all(factors[n]["feasible"] for n in (9, 10, 11, 12))
    # verification runs against whatever was stored, partial factors included
    assert main(["verify", "pn", str(out)]) == EXIT_OK


@pytest.mark.parametrize(
    "build, label",
    [
        (["--s", "4", "--profile", "desk", "--n-min", "8", "--n-max", "8"],
         "INFEASIBLE (search budget: 5000 nodes)"),
        (["--s", "2", "--profile", "desk", "--n-min", "4", "--n-max", "4"],
         "INFEASIBLE (exhausted)"),
        (["--s", "4", "--n-min", "8", "--n-max", "8", "--seed", "3"],
         "INFEASIBLE (seeded walk: dead end)"),
        (["--s", "2", "--profile", "paper", "--n-min", "3", "--n-max", "3"],
         "INFEASIBLE (count: C=163 > p=17)"),
    ],
)
def test_build_says_why_a_factor_is_infeasible(tmp_path, capsys, build, label):
    out = tmp_path / "fam.json"
    assert main(["build", *build, "--out", str(out)]) == EXIT_VIOLATION
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("n=")]
    assert line.endswith(label)
    # the family file keeps the search record, so report gives the same reason
    report = tmp_path / "report.json"
    assert main(["report", str(out), "--out", str(report)]) == EXIT_OK
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  n=")]
    assert line.endswith(label.replace("INFEASIBLE", "infeasible"))
    (row,) = read_json(report)["payload"]["sections"]["construction"]["rows"]
    assert f"INFEASIBLE ({row['status']})" == label


def test_paper_family_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for s, expected in PAPER_FAMILY_SHA256.items():
        build = ["build", "--s", s, "--profile", "paper", "--out", f"paper{s}.json"]
        assert main(build) == EXIT_VIOLATION  # no factor reaches its n^2 target
        assert hashlib.sha256((tmp_path / f"paper{s}.json").read_bytes()).hexdigest() == expected


def test_paper_build_settles_every_factor_by_the_count(monkeypatch, tmp_path, capsys):
    # each n^2 target at s=4 has C > p, so no factor is searched: every factor
    # walks the greedy path once, one strata extension per admitted exponent
    calls = []
    extend = builder.strata_extend

    def counted(strata, g):
        calls.append(g)
        return extend(strata, g)

    monkeypatch.setattr(builder, "strata_extend", counted)
    out = tmp_path / "paper4.json"
    assert main(["build", "--s", "4", "--profile", "paper", "--out", str(out)]) == EXIT_VIOLATION
    factors = read_json(out)["payload"]["factors"]
    assert len(calls) <= sum(len(f["exponents"]) for f in factors)
    labels = [line for line in capsys.readouterr().out.splitlines() if "(count: C=" in line]
    assert len(labels) == len(factors) == 6
    assert labels[3].endswith("INFEASIBLE (count: C=1002193 > p=131)")


def test_cli_import_loads_no_numpy():
    # numpy is imported where an FFT is taken, not by the command line
    code = "import sys, freelac.cli; sys.exit('numpy loaded' if 'numpy' in sys.modules else 0)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_tampered_family_fails_pn_with_witness(tmp_path):
    family = build_desk_family(tmp_path)
    doc = read_json(family)
    factor = doc["payload"]["factors"][0]
    # replace the second exponent with twice the first: a weight-3 relation
    factor["exponents"][1] = 2 * factor["exponents"][0]
    factor["chosen"] = factor["exponents"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    out = tmp_path / "pn.json"
    assert main(["verify", "pn", str(tampered), "--out", str(out)]) == EXIT_VIOLATION
    claims = read_json(out)["payload"]["claims"]
    bad = [c for c in claims if not c["holds"]]
    assert bad and bad[0]["violating_epsilon"] == [2, -1, 0, 0, 0, 0, 0, 0]


def test_tampered_feasible_flag_is_format_error(tmp_path, capsys):
    # (build, its exit code, the edit, a fragment of the error)
    cases = [
        (["--s", "2", "--profile", "paper", "--n-min", "3", "--n-max", "3"], EXIT_VIOLATION,
         lambda payload: payload["factors"][0].update(feasible=True), "factor 3"),  # 2 of 9
        (["--s", "2", "--profile", "tiny"], EXIT_OK,
         lambda payload: payload.update(n_feasible=99), "n_feasible=99"),
    ]
    for build, build_exit, tamper, message in cases:
        family = tmp_path / "family.json"
        assert main(["build", *build, "--out", str(family)]) == build_exit
        doc = read_json(family)
        tamper(doc["payload"])
        family.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        capsys.readouterr()
        assert main(["report", str(family)]) == EXIT_IO
        assert main(["verify", "pn", str(family)]) == EXIT_IO
        assert message in capsys.readouterr().err


def _tampered_tiny_family(tmp_path, tamper):
    """A tiny s=2 family file (first factor n=4, exponents [1, 3, 9]) edited by ``tamper``."""
    family = tmp_path / "family.json"
    assert main(["build", "--s", "2", "--profile", "tiny", "--out", str(family)]) == EXIT_OK
    doc = read_json(family)
    assert _first_factor(doc)["exponents"] == [1, 3, 9]
    tamper(doc)
    family.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return family


def _first_factor(doc):
    return doc["payload"]["factors"][0]


def _refused(tmp_path, capsys, command, family, message):
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main([*command, str(family), "--out", str(out)]) == EXIT_IO
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("s", [1, 3])
@FAMILY_COMMANDS
def test_family_with_odd_s_is_format_error(tmp_path, capsys, command, s):
    # a family file's s is read back as an even integer >= 2 before any check runs
    family = _tampered_tiny_family(tmp_path, lambda doc: doc["payload"].update(s=s))
    _refused(tmp_path, capsys, command, family, f"s must be an even integer >= 2, got {s}")


@FAMILY_COMMANDS
def test_family_with_foreign_chosen_is_format_error(tmp_path, capsys, command):
    # a stored chosen must be its factor's exponents in admission order
    family = _tampered_tiny_family(tmp_path, lambda doc: _first_factor(doc).update(chosen=[7, 8]))
    _refused(tmp_path, capsys, command, family, "factor 4: chosen exponents [7, 8]")


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda doc: _first_factor(doc).update(exponents=[1, 3.5, 9], chosen=[1, 3.5, 9]),
         "factor 4: exponents must hold integers, got 3.5"),
        (lambda doc: _first_factor(doc).update(n="4"), "factor record: n must be int, got '4'"),
        (lambda doc: _first_factor(doc).update(feasible=1),
         "factor 4: feasible must be bool, got 1"),
        (lambda doc: doc["payload"]["orders"].__setitem__(3, 37.0),
         "family payload: orders must hold integers, got 37.0"),
        (lambda doc: doc.update(format_version=True), "unsupported format_version True"),
        (lambda doc: doc.update(format_version=1.0), "unsupported format_version 1.0"),
        (lambda doc: doc["payload"]["factors"].insert(0, _first_factor(doc)),
         "factor 4 follows factor 4; n must ascend"),
        (lambda doc: doc["payload"]["factors"].reverse(),
         "factor 7 follows factor 8; n must ascend"),
    ],
    ids=["exponent-3.5", "n-string", "feasible-1", "order-37.0", "version-true", "version-1.0",
         "factor-repeated", "factors-reversed"],
)
@FAMILY_COMMANDS
def test_family_file_is_read_strictly(tmp_path, capsys, command, tamper, message):
    # integers are JSON integers, flags JSON booleans, and factors ascend in n,
    # as build writes them; the refusal names the field or the factor
    _refused(tmp_path, capsys, command, _tampered_tiny_family(tmp_path, tamper), message)


@pytest.mark.parametrize(
    "name, build, leinert_exit, unrecorded",
    [
        ("desk2-v1.json", ["--s", "2"], EXIT_OK, []),
        ("desk4-n10-v1.json", ["--s", "4", "--n-max", "10"], EXIT_VIOLATION, [8]),
    ],
)
def test_format_1_family_reads_as_before(
    tmp_path, monkeypatch, capsys, name, build, leinert_exit, unrecorded
):
    # a family written in format 1 verifies as the same family built today in
    # format 2; only its search record is missing
    monkeypatch.chdir(tmp_path)
    v1 = DATA / name
    assert hashlib.sha256(v1.read_bytes()).hexdigest() == V1_FAMILY_SHA256[name]
    built = main(["build", *build, "--out", "v2.json"])
    assert built == (EXIT_VIOLATION if unrecorded else EXIT_OK)
    for kind in ("pn", "zs", "leinert", "qi"):
        expected = leinert_exit if kind == "leinert" else EXIT_OK
        assert main(["verify", kind, str(v1), "--out", f"{kind}-v1.json"]) == expected
        assert main(["verify", kind, "v2.json", "--out", f"{kind}-v2.json"]) == expected
        assert read_json(f"{kind}-v1.json")["payload"] == read_json(f"{kind}-v2.json")["payload"]
    capsys.readouterr()
    assert main(["report", str(v1), "--out", "report.json"]) == EXIT_OK
    rows = read_json("report.json")["payload"]["sections"]["construction"]["rows"]
    assert [r["n"] for r in rows if r["status"] == "search not recorded"] == unrecorded
    assert all(r["status"] == "ok" for r in rows if r["n"] not in unrecorded)
    printed = capsys.readouterr().out.count("infeasible (search not recorded)")
    assert printed == len(unrecorded)


def test_resaved_format_1_family_reports_search_not_recorded(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    v1 = read_certificate(str(DATA / "desk4-n10-v1.json"))
    family = family_from_payload(v1.payload, v1.format_version)
    write_certificate("resaved.json", CertificateFile("family", family_to_payload(family), {}))
    assert read_json("resaved.json")["format_version"] == 8
    assert main(["report", "resaved.json", "--out", "report.json"]) == EXIT_OK
    rows = read_json("report.json")["payload"]["sections"]["construction"]["rows"]
    assert [r["n"] for r in rows if r["status"] == "search not recorded"] == [8]


@pytest.fixture(scope="module")
def desk4_n10_doc(tmp_path_factory):
    """The family document of build --s 4 --n-max 10; n=8 keeps 5 of its 6 elements."""
    out = tmp_path_factory.mktemp("desk4") / "family.json"
    assert main(["build", "--s", "4", "--n-max", "10", "--out", str(out)]) == EXIT_VIOLATION
    return read_json(out)


def _claim_n8_target_5(payload):
    payload["factors"][0].update(target_size=5, feasible=True)
    payload.update(n_feasible=8)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_claim_n8_target_5,
         "factor 8: stored target_size 5 and pool_bound 256 contradict the desk profile's 6 and "
         "256"),
        (lambda payload: payload.update(profile="nonsense"),
         "family payload: unknown build profile 'nonsense'"),
        (lambda payload: payload["factors"][0].update(pool_bound=512),
         "factor 8: stored target_size 6 and pool_bound 512 contradict"),
    ],
    ids=["target-5", "profile-nonsense", "pool-512"],
)
@FAMILY_COMMANDS
def test_family_must_match_its_profile(tmp_path, capsys, desk4_n10_doc, command, tamper, message):
    # the profile derives each factor's target and pool from n and s
    doc = json.loads(json.dumps(desk4_n10_doc))
    tamper(doc["payload"])
    family = tmp_path / "family.json"
    family.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    _refused(tmp_path, capsys, command, family, message)


def test_verify_ignores_cached_fields(tmp_path):
    family = build_desk_family(tmp_path)
    doc = read_json(family)
    for factor in doc["payload"]["factors"]:
        del factor["chosen"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    assert main(["verify", "pn", str(stripped)]) == EXIT_OK
    assert main(["verify", "qi", str(stripped)]) == EXIT_OK


def test_verify_leinert_adhoc_violation(tmp_path):
    out = tmp_path / "witness.json"
    code = main(
        ["verify", "leinert", "--exponents", "1,2,3,4", "--order", "17", "--s", "2",
         "--out", str(out)]
    )
    assert code == EXIT_VIOLATION
    witness = read_json(out)["payload"]["witness"]
    assert [letters[0][1] for letters in witness] == [1, 2, 3, 2]


def test_adhoc_leinert_certificate_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "leinert.json"
    adhoc = ["verify", "leinert", "--exponents", "1,2,3,4", "--order", "17", "--s", "2"]
    assert main(adhoc + ["--out", str(out)]) == EXIT_VIOLATION
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ADHOC_LEINERT_CERT_SHA256


def test_adhoc_leinert_certificates_record_each_order(tmp_path, capsys):
    adhoc = ["verify", "leinert", "--exponents", "1,3,9,27,81", "--order"]
    certificates = {}
    for p in (521, 1031):
        out = tmp_path / f"leinert{p}.json"
        assert main(adhoc + [str(p), "--out", str(out)]) == EXIT_OK
        assert [entry["p"] for entry in read_json(out)["payload"]["searched"]] == [p]
        certificates[p] = out.read_bytes()
    assert certificates[521] != certificates[1031]


def test_verify_leinert_decides_where_the_tuple_space_is_out_of_reach(tmp_path, capsys):
    # 6 * 5^15 = 183,105,468,750 tuples of length 16: three letters close by cancellation
    out = tmp_path / "leinert.json"
    adhoc = ["verify", "leinert", "--exponents", "1,3,9,27,81,243", "--order", "1031", "--s", "8"]
    assert main(adhoc + ["--out", str(out)]) == EXIT_VIOLATION
    witness = read_json(out)["payload"]["witness"]
    assert [letters[0][1] for letters in witness] == [1, 3, 1, 3, 1, 3, 1, 9, 3, 1, 3, 1, 3, 1, 9, 1]


def test_adhoc_leinert_budget_counts_the_witness_entries(tmp_path, capsys):
    # at s=4 the witness holds 2s = 8 entries, counted before it is written out
    out = tmp_path / "leinert.json"
    adhoc = ["verify", "leinert", "--exponents", "1,2,3", "--order", "17", "--s", "4"]
    assert main(adhoc + ["--budget-tuples", "7", "--out", str(out)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("budget refusal: witness has 8 entries, budget is 7")
    assert err.rstrip().endswith("(raise it with --budget-tuples)")
    assert not out.exists()
    assert main(adhoc + ["--budget-tuples", "8", "--out", str(out)]) == EXIT_VIOLATION
    assert len(read_json(out)["payload"]["witness"]) == 8


def test_verify_budget_refusal(tmp_path):
    family = build_desk_family(tmp_path)
    assert main(["verify", "zs", str(family), "--budget-tuples", "10"]) == EXIT_BUDGET


def test_zs_counts_naively_up_to_the_budget(tmp_path, monkeypatch, capsys):
    # the 24-element s=4 union of n = 9..12 passes pn, so Z_4 comes in closed
    # form from four half tables of 473 signed sums; with n=9's second exponent
    # doubled that factor fails pn, and the count enumerates 255,024 naive
    # tuples under a budget of 260,000, in verify zs and in report alike
    monkeypatch.chdir(tmp_path)
    build = ["build", "--s", "4", "--n-min", "9", "--n-max", "12", "--out", "family.json"]
    assert main(build) == EXIT_OK
    budget = ["--budget-tuples", "260000"]
    assert main(["verify", "zs", "family.json", *budget, "--out", "closed.json"]) == EXIT_OK
    closed = read_json("closed.json")["payload"]
    assert (closed["basis"], closed["strategy"], closed["tuples_examined"]) == (
        "pn-closed-form", "naive", 0
    )
    assert "(pn-closed-form); " in capsys.readouterr().out
    doc = read_json("family.json")
    factor = doc["payload"]["factors"][0]
    factor["exponents"][1] = 2 * factor["exponents"][0]
    factor["chosen"] = factor["exponents"]
    Path("failing.json").write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    assert main(["verify", "pn", "failing.json"]) == EXIT_VIOLATION
    assert main(["verify", "zs", "failing.json", *budget, "--out", "zs.json"]) == EXIT_OK
    assert main(["report", "failing.json", *budget, "--out", "report.json"]) == EXIT_OK
    zs = read_json("zs.json")["payload"]
    assert (zs["ground_size"], zs["basis"], zs["strategy"], zs["tuples_examined"]) == (
        24, "enumeration", "naive", 255_024
    )
    section = read_json("report.json")["payload"]["sections"]["zs"]
    assert all(section[key] == zs[key] for key in ("basis", "strategy", "value", "witness_key"))
    out = capsys.readouterr().out
    assert "(enumeration: naive, 255024 tuples examined); " in out
    assert "[verified, enumeration: naive, 255024 tuples examined]" in out
    budget = ["--budget-tuples", "255023"]
    assert main(["verify", "zs", "failing.json", *budget]) == EXIT_BUDGET
    assert "255024 tuples, budget is 255023" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, budget",
    [
        (["verify", "pn"], "--budget-tuples", "10"),
        (["verify", "zs"], "--budget-tuples", "10"),
        (["verify", "leinert"], "--budget-tuples", "10"),
        (["verify", "qi"], "--budget-subsets", "1"),
        (["report"], "--budget-subsets", "1"),
        (["report"], "--budget-tuples", "10"),
    ],
    ids=["pn", "zs", "leinert", "qi", "report", "report-zs"],
)
def test_budget_refusal_names_its_flag(tmp_path, capsys, command, flag, budget):
    family = build_desk_family(tmp_path)
    capsys.readouterr()
    assert main([*command, str(family), flag, budget]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("budget refusal: ") and err.rstrip().endswith(f"(raise it with {flag})")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [
        (["verify", "pn"], "--budget-tuples"),
        (["verify", "zs"], "--budget-tuples"),
        (["verify", "leinert"], "--budget-tuples"),
        (["verify", "qi"], "--budget-subsets"),
        (["report"], "--budget-subsets"),
        (["report"], "--budget-tuples"),
    ],
    ids=["pn", "zs", "leinert", "qi", "report", "report-zs"],
)
def test_budget_below_1_is_usage_error(tmp_path, monkeypatch, capsys, command, flag, value):
    # a budget counts work units, so one below 1 is refused as a usage error,
    # not run into a budget refusal, and nothing is written
    monkeypatch.chdir(tmp_path)
    build = ["build", "--s", "2", "--n-min", "8", "--n-max", "8", "--out", "small.json"]
    assert main(build) == EXIT_OK
    capsys.readouterr()
    assert main([*command, "small.json", flag, value, "--out", "cert.json"]) == EXIT_IO
    assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
    assert main([*command, "small.json", flag, "ten", "--out", "cert.json"]) == EXIT_IO
    assert f"argument {flag}: invalid int value: 'ten'" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["small.json"]


def test_verify_missing_family_is_usage_error():
    assert main(["verify", "pn"]) == EXIT_IO


def test_verify_garbage_file_is_format_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "pn", str(bad)]) == EXIT_IO


def test_verify_wrong_kind_file(tmp_path):
    family = build_desk_family(tmp_path)
    out = tmp_path / "zs.json"
    assert main(["verify", "zs", str(family), "--out", str(out)]) == EXIT_OK
    assert main(["verify", "pn", str(out)]) == EXIT_IO  # zs certificate, not a family


def test_verify_certificates_round_trip(tmp_path):
    family = build_desk_family(tmp_path)
    for kind in ("pn", "zs", "leinert", "qi"):
        out = tmp_path / f"{kind}.json"
        assert main(["verify", kind, str(family), "--out", str(out)]) == EXIT_OK
        from freelac import parse, serialize

        text = out.read_text()
        assert serialize(parse(text)) == text


def test_norms_command(tmp_path, capsys):
    out = tmp_path / "norms.json"
    assert main(["norms", "--n-max", "3", "--out", str(out)]) == EXIT_OK
    kernels = read_json(out)["payload"]["kernels"]
    assert [k["n"] for k in kernels] == [1, 2, 3]
    for kernel in kernels:
        assert kernel["floor_half_holds"]
        for check in kernel["checks"]:
            assert check["interpolation_holds"] and check["kernel_bound_holds"]


def test_norms_accepts_a_q_near_one(tmp_path, capsys):
    # q = 1.001 has dual index 1001, and 128^1001 (the scale-64 kernel's peak) overflows
    out = tmp_path / "norms.json"
    assert main(["norms", "--scale", "64", "--q", "1.001", "--out", str(out)]) == EXIT_OK
    (kernel,) = read_json(out)["payload"]["kernels"]
    check = next(c for c in kernel["checks"] if float(c["q"]) == 1.001)
    assert check["interpolation_holds"] and check["kernel_bound_holds"]
    assert 1.0 < float(check["norm_lq_prime"]) <= float(kernel["norm_vn"]) == 128.0


def test_norms_transforms_each_kernel_once(monkeypatch, capsys):
    calls = {"transform": 0, "fejer_kernel": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(spectral, name))
        monkeypatch.setattr(spectral, name, wrapped)
        monkeypatch.setattr(cli, name, wrapped)
    assert main(["norms", "--n-max", "3"]) == EXIT_OK
    assert calls == {"transform": 3, "fejer_kernel": 3}


def test_norms_refuses_an_order_over_budget_before_building_the_kernel(
    tmp_path, monkeypatch, capsys
):
    # kernel_order(262144) = 1,048,583 exceeds the spectral budget 2^20
    calls = []
    kernel = spectral.fejer_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cli, "fejer_kernel", counting)
    out = tmp_path / "norms.json"
    assert main(["norms", "--scale", "262144", "--out", str(out)]) == EXIT_BUDGET
    assert calls == []
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "budget refusal: order 1048583 exceeds the spectral budget 1048576\n"


def test_norms_refuses_a_scale_over_budget_before_looking_up_its_order(tmp_path, capsys):
    # the order exceeds 4 * scale = 2^64, past the budget and past every factor index
    out = tmp_path / "norms.json"
    assert main(["norms", "--scale", "4611686018427387904", "--out", str(out)]) == EXIT_BUDGET
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == (
        "budget refusal: scale 4611686018427387904 needs an order above "
        "18446744073709551616, over the spectral budget 1048576\n"
    )


def test_norms_single_scale_includes_spectrum(tmp_path):
    out = tmp_path / "one.json"
    assert main(["norms", "--scale", "2", "--out", str(out)]) == EXIT_OK
    (kernel,) = read_json(out)["payload"]["kernels"]
    assert kernel["n"] == 2 and kernel["p"] == 11
    spectrum = kernel["spectrum"]
    assert len(spectrum) == 11
    # peak at frequency zero equals the coefficient sum 2n
    assert float(spectrum[0][0]) == 4.0
    assert all(abs(float(im)) < 1e-8 for _, im in spectrum)


def test_kernel_order_rule():
    assert kernel_order(1) == 5
    assert kernel_order(2) == 11
    assert kernel_order(4) == 17
    assert kernel_order(8) == 37


def test_report_full_family(tmp_path, capsys):
    family = build_desk_family(tmp_path)
    out = tmp_path / "report.json"
    assert main(["report", str(family), "--out", str(out)]) == EXIT_OK
    sections = read_json(out)["payload"]["sections"]
    assert sections["zs"]["status"] == "verified"
    assert sections["zs"]["value"] == 1
    assert sections["weak_sidon"]["rows"][0]["n"] == 41
    assert sections["conclusions"]["status"] == "asserted-by-theory"
    bounds = [float(r["leinert_lower_bound"]) for r in sections["qi"]["rows"]]
    assert bounds == sorted(bounds)  # nondecreasing along the family


def test_desk2_certificate_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    # provenance records the family path as given, so use relative names
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--s", "2", "--out", "family.json"]) == EXIT_OK
    for kind in ("pn", "zs", "leinert", "qi"):
        assert main(["verify", kind, "family.json", "--out", f"{kind}.json"]) == EXIT_OK
    assert main(["report", "family.json", "--out", "report.json"]) == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
        for name in DESK2_CERT_SHA256
    }
    assert digests == DESK2_CERT_SHA256


def test_desk4_and_seeded_certificate_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    build = ["build", "--s", "4", "--n-max", "10", "--out", "family.json"]
    assert main(build) == EXIT_VIOLATION  # n=8 stops at 5 of 6 elements
    assert main(["verify", "zs", "family.json", "--out", "zs.json"]) == EXIT_OK
    mitm = ["verify", "zs", "family.json", "--strategy", "meet-in-middle", "--out", "zs-mitm.json"]
    assert main(mitm) == EXIT_OK
    assert main(["verify", "leinert", "family.json", "--out", "leinert.json"]) == EXIT_VIOLATION
    assert main(["report", "family.json", "--out", "report.json"]) == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
        for name in DESK4_N10_CERT_SHA256
    }
    assert digests == DESK4_N10_CERT_SHA256
    seeded = ["build", "--s", "2", "--profile", "paper", "--seed", "7", "--out", "seeded.json"]
    assert main(seeded) == EXIT_VIOLATION
    digest = hashlib.sha256((tmp_path / "seeded.json").read_bytes()).hexdigest()
    assert digest == SEEDED_PAPER2_FAMILY_SHA256


def test_report_agrees_with_verify(tmp_path, capsys):
    family = build_desk_family(tmp_path)
    zs_out, qi_out, report_out = (tmp_path / f"{name}.json" for name in ("zs", "qi", "report"))
    assert main(["verify", "zs", str(family), "--out", str(zs_out)]) == EXIT_OK
    assert main(["verify", "qi", str(family), "--out", str(qi_out)]) == EXIT_OK
    assert main(["report", str(family), "--out", str(report_out)]) == EXIT_OK
    sections = read_json(report_out)["payload"]["sections"]
    zs = read_json(zs_out)["payload"]
    shared = sections["zs"].keys() & zs.keys()
    assert shared == {
        "basis", "bound_factorial", "bound_half_square", "holds", "strategy", "tuples_examined",
        "value", "witness_key",
    }
    assert all(sections["zs"][key] == zs[key] for key in shared)
    qi_rows = read_json(qi_out)["payload"]["factors"]
    assert [r["n"] for r in sections["qi"]["rows"]] == [r["n"] for r in qi_rows]
    for row, verified in zip(sections["qi"]["rows"], qi_rows):
        for key in ("floor_bound", "maximal", "parent_size"):
            assert row[key] == verified[key]
        assert row["extracted_size"] == len(verified["extracted"])


def test_report_empty_family(tmp_path, capsys):
    # an empty range builds nothing, and a family file without factors, or with a
    # factor without exponents, is refused
    empty = tmp_path / "empty.json"
    assert main(["build", "--s", "2", "--n-min", "9", "--n-max", "8", "--out", str(empty)]) == EXIT_IO
    assert "empty factor range" in capsys.readouterr().err
    assert not empty.exists()
    built = read_json(build_desk_family(tmp_path))

    def no_factors(payload):
        payload.update(factors=[], n_feasible=None)

    def no_exponents(payload):
        for factor in payload["factors"]:
            factor.update(chosen=[], exponents=[], feasible=False)
        payload.update(n_feasible=None)

    first_n = built["payload"]["factors"][0]["n"]
    out = tmp_path / "out.json"
    for tamper, message in ((no_factors, "family payload holds no factors"),
                            (no_exponents, f"factor {first_n} holds no exponents")):
        doc = json.loads(json.dumps(built))
        tamper(doc["payload"])
        empty.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        for command in (["verify", "pn"], ["verify", "zs"], ["verify", "leinert"],
                        ["verify", "qi"], ["report"]):
            capsys.readouterr()
            assert main([*command, str(empty), "--out", str(out)]) == EXIT_IO
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_witness_weak_sidon(capsys, tmp_path):
    out = tmp_path / "ws.json"
    assert main(["witness-weak-sidon", "0", "1", "2", "--out", str(out)]) == EXIT_OK
    rows = read_json(out)["payload"]["weak_sidon"]
    assert [r["n"] for r in rows] == [1, 41, 161]
    assert all(r["holds"] for r in rows)


def test_build_provenance_has_no_raw_floats(tmp_path):
    out = tmp_path / "family.json"
    build = ["build", "--s", "2", "--n-max", "9", "--out", str(out)]
    assert main(build) == EXIT_OK  # writing rejects raw floats, so this alone checks it
    # provenance holds what build read and the tool, no budget it does not read
    assert read_json(out)["provenance"] == {
        "parameters": {"n_max": 9, "n_min": 8, "profile": "desk", "s": 2},
        "tool": "freelac 0.1.0",
    }


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["verify", "nonsense", "x.json"]) == EXIT_IO
    assert main(["build", "--profile", "unknown"]) == EXIT_IO
    # a family file carries its own s: only verify leinert reads --s, for ad-hoc sets
    family = build_desk_family(tmp_path)
    for kind in ("pn", "zs", "qi"):
        capsys.readouterr()
        assert main(["verify", kind, str(family), "--s", "4"]) == EXIT_IO
        assert "unrecognized arguments: --s" in capsys.readouterr().err
    assert main(["verify", "leinert", str(family), "--s", "4"]) == EXIT_IO
    assert "a family file carries its own s" in capsys.readouterr().err
    # verify leinert checks a family file or an ad-hoc set, never both, and writes nothing
    out = tmp_path / "leinert.json"
    both = ["verify", "leinert", str(family), "--exponents", "1,2,3,4", "--order", "17"]
    for argv in (both, ["verify", "leinert"]):
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == EXIT_IO
        assert "exactly one input" in capsys.readouterr().err
        assert not out.exists()
    # kernel scales start at 1, and one scale excludes a range of them
    assert main(["norms", "--scale", "0"]) == EXIT_IO
    assert main(["norms", "--n-max", "0"]) == EXIT_IO
    assert main(["norms", "--scale", "1", "--n-max", "3"]) == EXIT_IO
    # a q that is not finite and above 1 has no dual index, and nothing is written
    for q in ("inf", "nan"):
        out = tmp_path / f"norms-{q}.json"
        capsys.readouterr()
        assert main(["norms", "--q", q, "--out", str(out)]) == EXIT_IO
        assert "q must be finite and exceed 1" in capsys.readouterr().err
        assert not out.exists()
    # shared flags reach only the commands that declare them
    assert main(["primes", "4", "--out", "p.json"]) == EXIT_IO
    assert main(["build", "--budget-tuples", "10"]) == EXIT_IO
    assert main(["norms", "--budget-subsets", "1"]) == EXIT_IO
    # odd s is refused even when the range is empty, and no file is written
    out = tmp_path / "odd.json"
    assert main(["build", "--s", "3", "--n-min", "9", "--n-max", "8", "--out", str(out)]) == EXIT_IO
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "pn", "{family}", "--strategy", "naive"],
        ["verify", "pn", "{family}", "--budget-subsets", "1"],
        ["verify", "zs", "{family}", "--budget-subsets", "1"],
        ["verify", "leinert", "{family}", "--strategy", "naive"],
        ["verify", "leinert", "{family}", "--budget-subsets", "1"],
        ["verify", "qi", "{family}", "--strategy", "naive"],
        ["verify", "qi", "{family}", "--budget-tuples", "10"],
        ["verify", "zs", "{family}", "--strat", "naive"],
        ["verify", "zs", "{family}", "--strategy", "auto"],
        ["build", "--prof", "tiny"],
        ["build", "--stamp"],
        ["report", "{family}", "--st"],
        ["norms", "--tolerance", "1"],
    ],
    ids=lambda argv: " ".join(a for a in argv if a != "{family}"),
)
def test_flag_is_accepted_only_where_read(tmp_path, monkeypatch, capsys, argv):
    # a flag its command does not read, a prefix of a flag's name, or a value
    # the flag does not take, is a usage error and writes no file
    monkeypatch.chdir(tmp_path)
    family = tmp_path / "small.json"
    build = ["build", "--s", "2", "--n-min", "8", "--n-max", "8", "--out", str(family)]
    assert main(build) == EXIT_OK
    capsys.readouterr()
    assert main([str(family) if a == "{family}" else a for a in argv]) == EXIT_IO
    flag = next(a for a in argv if a.startswith("--"))
    err = capsys.readouterr().err
    if "auto" in argv:  # --strategy takes naive or meet-in-middle
        assert "argument --strategy: invalid choice: 'auto'" in err
    else:
        assert f"unrecognized arguments: {flag}" in err
    assert [path.name for path in tmp_path.iterdir()] == ["small.json"]
