"""Command surface: outputs, exit codes, determinism, tamper detection."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from freelac import builder, cli, counting, spectral
from freelac.certificates import (
    FORMAT_VERSION,
    CertificateFile,
    family_from_payload,
    family_to_payload,
    make_provenance,
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
from freelac.primes import PAPER_PRIME_RULE, smallest_admissible_prime
from golden import GOLDEN, GROUPS, mismatches, write_group


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


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


def assert_golden(directory, *groups):
    """Write each group's certificates afresh under ``directory`` and compare
    them byte for byte with its golden files, naming the JSON paths that differ."""
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(GROUPS)
    for group in groups:
        write_group(group, directory / group)
        problems = mismatches(group, directory / group)
        assert not problems, "\n".join(problems)


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
    # the builder's rule admits no 6-set at order 521 (strict count 633 > 521),
    # so that factor walks to 5 of 6 exponents below 2^8 (whether a 6-set with
    # the property exists stays open); the build keeps the 5-element partial
    # and reports partial success
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
        (["--s", "2", "--profile", "desk", "--n-min", "7", "--n-max", "7"],
         "INFEASIBLE (search budget: 5000 nodes)"),
        (["--s", "2", "--profile", "tiny", "--n-min", "5", "--n-max", "5"],
         "INFEASIBLE (exhausted)"),
        (["--s", "2", "--n-min", "8", "--n-max", "8", "--seed", "5"],
         "INFEASIBLE (seeded walk: dead end)"),
        (["--s", "2", "--profile", "paper", "--n-min", "3", "--n-max", "3"],
         "INFEASIBLE (count: C=163 > p=17)"),
        (["--s", "4", "--profile", "desk", "--n-min", "8", "--n-max", "8"],
         "INFEASIBLE (strict count: C=633 > p=521)"),
    ],
)
def test_build_says_why_a_factor_is_infeasible(tmp_path, capsys, monkeypatch, build, label):
    # no profile leaves a target that both counts allow to a search that
    # exhausts its tree, so the tiny profile asks for 4 exponents here: at n=5
    # (p = 67, pool [1, 32]) the search visits all 2,807 nodes without a 4-set
    tiny = builder.PROFILES["tiny"]._replace(target_size=lambda n, s: 4)
    monkeypatch.setitem(builder.PROFILES, "tiny", tiny)
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


def test_paper_family_bytes_are_pinned(tmp_path):
    # no factor reaches its n^2 target, so each build exits 2
    assert_golden(tmp_path, "paper")


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


def run_fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_cli_import_loads_no_numpy():
    # numpy is imported where an FFT is taken, not by the command line; the
    # records are named tuples, so neither dataclasses nor its inspect is loaded
    run_fresh_python(
        "import sys, freelac.cli\n"
        "loaded = [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules]\n"
        "sys.exit(f'{loaded} loaded' if loaded else 0)\n"
    )


def test_cli_import_builds_no_parser():
    # the parser is built by the first main call, so importing the command line pays nothing
    run_fresh_python(
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import freelac.cli\n"
        "sys.exit(f'{len(built)} parsers built on import' if built else 0)\n"
    )


def test_main_builds_the_parser_once(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert main(["primes", "4"]) == EXIT_OK
    first = len(built)
    assert first == 13  # the top level, 2 shared flag sets, 10 commands and verify kinds
    assert main(["primes", "4"]) == EXIT_OK
    assert len(built) == first
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [["--help"], ["verify", "-h"], ["verify", "pn", "--help"]])
def test_help_returns_exit_ok(capsys, argv):
    # help is printed to stdout and returned as exit 0, the same text on every call
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    first = capsys.readouterr()
    assert main(argv) == EXIT_OK
    second = capsys.readouterr()
    assert first.out.startswith("usage: freelac") and first.err == ""
    assert second == first


def test_shared_parser_carries_no_state_between_calls(tmp_path, monkeypatch, capsys):
    # every call parses into a fresh namespace: a flag or value given to one
    # call is not read by the next
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--s", "2", "--profile", "desk", "--seed", "5"]) == EXIT_VIOLATION
    assert main(["build", "--s", "2", "--profile", "desk"]) == EXIT_OK
    desk2 = GOLDEN / "desk2"
    assert Path("family.json").read_bytes() == (desk2 / "family.json").read_bytes()
    adhoc = ["verify", "leinert", "--exponents", "1,2,3", "--order", "17", "--s", "4"]
    assert main(adhoc) == EXIT_VIOLATION
    # a leaked --s would make this a usage error: a family file carries its own s
    assert main(["verify", "leinert", "family.json", "--out", "leinert.json"]) == EXIT_OK
    assert main(["verify", "pn", "family.json", "--budget-tuples", "0"]) == EXIT_IO
    assert main(["verify", "pn", "family.json", "--out", "pn.json"]) == EXIT_OK
    for kind in ("leinert", "pn"):
        assert Path(f"{kind}.json").read_bytes() == (desk2 / f"{kind}.json").read_bytes()


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
        # n=8 stored no search record, but the strict count (633 > 521) labels it
        ("desk4-n10-v1.json", ["--s", "4", "--n-max", "10"], EXIT_VIOLATION, []),
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
    factors = read_json("v2.json")["payload"]["factors"]
    assert built == (EXIT_OK if all(f["feasible"] for f in factors) else EXIT_VIOLATION)
    for kind in ("pn", "zs", "leinert", "qi"):
        expected = leinert_exit if kind == "leinert" else EXIT_OK
        assert main(["verify", kind, str(v1), "--out", f"{kind}-v1.json"]) == expected
        assert main(["verify", kind, "v2.json", "--out", f"{kind}-v2.json"]) == expected
        assert read_json(f"{kind}-v1.json")["payload"] == read_json(f"{kind}-v2.json")["payload"]
    assert main(["report", "v2.json", "--out", "report-v2.json"]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", str(v1), "--out", "report.json"]) == EXIT_OK
    rows = read_json("report.json")["payload"]["sections"]["construction"]["rows"]
    assert [r["n"] for r in rows if r["status"] == "search not recorded"] == unrecorded
    # every other row reads as the rebuilt family's: met, or ruled out by a count
    rebuilt = read_json("report-v2.json")["payload"]["sections"]["construction"]["rows"]
    assert [r for r in rows if r["n"] not in unrecorded] == [
        r for r in rebuilt if r["n"] not in unrecorded
    ]
    printed = capsys.readouterr().out.count("infeasible (search not recorded)")
    assert printed == len(unrecorded)


def test_resaved_format_1_family_reports_search_not_recorded(tmp_path, monkeypatch, capsys):
    # the format-1 desk s=4 family with n=9's last exponent dropped: 5 of 6 at
    # p = 1031, a target neither count settles (473 and 633 are below 1031),
    # so only a search record could say why it was missed
    monkeypatch.chdir(tmp_path)
    v1 = read_certificate(str(DATA / "desk4-n10-v1.json"))
    factor = v1.payload["factors"][1]
    assert (factor["n"], factor["exponents"][-1]) == (9, 239)
    factor["exponents"] = factor["chosen"] = factor["exponents"][:-1]
    factor["feasible"] = False
    v1.payload["n_feasible"] = 10
    family = family_from_payload(v1.payload, v1.format_version)
    write_certificate("resaved.json", CertificateFile("family", family_to_payload(family), {}))
    assert read_json("resaved.json")["format_version"] == FORMAT_VERSION
    assert main(["report", "resaved.json", "--out", "report.json"]) == EXIT_OK
    rows = read_json("report.json")["payload"]["sections"]["construction"]["rows"]
    assert [r["n"] for r in rows if r["status"] == "search not recorded"] == [9]
    assert rows[0]["status"] == "strict count: C=633 > p=521"
    printed = capsys.readouterr().out
    assert "n=  9 p=    1031 |E_n|=  5/6   infeasible (search not recorded)" in printed


def test_build_refuses_a_ledger_over_the_limit_before_building(tmp_path, capsys):
    # order p_40 = 2,199,023,255,579 would need p-bit integers: refused with
    # exit 3 and no family written; no flag raises the limit
    out = tmp_path / "family.json"
    code = main(["build", "--s", "2", "--n-min", "40", "--n-max", "40", "--out", str(out)])
    assert code == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget refusal: p-bit ledger at p=2199023255579 exceeds the 67108864-bit limit\n"
    )
    assert not out.exists()


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


def test_adhoc_leinert_certificate_bytes_are_pinned(tmp_path):
    assert_golden(tmp_path, "adhoc")


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
    # tuples under a budget of 260,000, in verify zs and in report alike; the
    # report names the pn witness and exits 2, though Z_4 holds
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
    assert main(["report", "failing.json", *budget, "--out", "report.json"]) == EXIT_VIOLATION
    zs = read_json("zs.json")["payload"]
    assert (zs["ground_size"], zs["basis"], zs["strategy"], zs["tuples_examined"]) == (
        24, "enumeration", "naive", 255_024
    )
    sections = read_json("report.json")["payload"]["sections"]
    assert sections["zs"] == {**zs, "status": "verified"}
    assert sections["zs"]["holds"] and not sections["pn"]["holds"]
    (failing,) = [claim for claim in sections["pn"]["claims"] if not claim["holds"]]
    assert (failing["n"], failing["violating_epsilon"]) == (9, [2, -1, 0, 0, 0, 0])
    lines = capsys.readouterr().out.splitlines()
    # verify pn and verify zs print the lines that the report prints indented
    pn_line = "pn n=9: VIOLATED by epsilon=[2, -1, 0, 0, 0, 0]"
    (zs_line,) = [line for line in lines if line.startswith("zs: ")]
    assert "(enumeration: naive, 255024 tuples examined); " in zs_line
    for line in (pn_line, zs_line):
        assert line in lines and f"  {line}" in lines
    budget = ["--budget-tuples", "255023"]
    assert main(["verify", "zs", "failing.json", *budget]) == EXIT_BUDGET
    assert "255024 tuples, budget is 255023" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, budget",
    [
        (["verify", "pn"], "--budget-tuples", "10"),
        (["verify", "zs"], "--budget-tuples", "10"),
        (["verify", "leinert"], "--budget-tuples", "10"),
        (["report"], "--budget-tuples", "10"),
    ],
    ids=["pn", "zs", "leinert", "report-zs"],
)
def test_budget_refusal_names_its_flag(tmp_path, capsys, command, flag, budget):
    family = build_desk_family(tmp_path)
    capsys.readouterr()
    assert main([*command, str(family), flag, budget]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.startswith("budget refusal: ") and err.rstrip().endswith(f"(raise it with {flag})")


def write_n36_family(path):
    """A hand-written desk s=2 family with one factor, n = 36 (p = 137,438,953,481),
    holding 1 and 2^35 - 1: a plain half-table window of 4 * (2^35 - 1) bits,
    narrower than p, and a fill of 9 signed sums."""
    orders = [smallest_admissible_prime(n) for n in range(1, 37)]
    factor = {
        "chosen": [1, 2**35 - 1], "exponents": [1, 2**35 - 1], "feasible": False, "n": 36,
        "nodes_searched": None, "p": orders[-1], "pool_bound": 2**36,
        "search_exhausted": None, "target_size": 36,
    }
    payload = {
        "factors": [factor], "n_feasible": None, "orders": orders,
        "prime_rule": PAPER_PRIME_RULE, "profile": "desk", "s": 2, "seed": None,
    }
    write_certificate(str(path), CertificateFile("family", payload, make_provenance("0", {})))


def test_a_large_order_is_filled_and_its_ledger_refusal_names_no_flag(tmp_path, capsys):
    # the bitsets would need 2^37 bits, over the ledger limit, so the fill decides;
    # report stops at QI's p-bit ledger, a fixed limit that no flag raises
    family = tmp_path / "n36.json"
    write_n36_family(family)
    assert main(["verify", "pn", str(family)]) == EXIT_OK
    assert main(["verify", "zs", str(family)]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "pn n=36: ok" and printed[1].startswith("zs: Z_2 = 1 over 2 elements")
    assert main(["report", str(family)]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget refusal: p-bit ledger at p=137438953481 exceeds the 67108864-bit limit\n"
    )


def test_report_decides_each_half_table_once(tmp_path):
    # report hands each factor's pn verdict to its zs claim; verify zs decides its own
    family = build_desk_family(tmp_path)
    orders = list(read_json(family)["payload"]["orders"][7:])
    decide = mock.Mock(wraps=builder._vanishing_difference)
    with mock.patch.object(builder, "_vanishing_difference", decide), \
            mock.patch.object(counting, "_vanishing_difference", decide):
        for command in (["report"], ["verify", "zs"]):
            decide.reset_mock()
            assert main([*command, str(family)]) == EXIT_OK
            assert [call.args[1] for call in decide.call_args_list] == orders


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [
        (["verify", "pn"], "--budget-tuples"),
        (["verify", "zs"], "--budget-tuples"),
        (["verify", "leinert"], "--budget-tuples"),
        (["report"], "--budget-tuples"),
    ],
    ids=["pn", "zs", "leinert", "report-zs"],
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


@pytest.mark.parametrize(
    "argv", [["--scale", "131072"], ["--scale", "4"], ["--n-max", "3"]], ids=["2^17", "4", "1..3"]
)
@pytest.mark.parametrize("q_grid", ["1", "0.5", "3,inf", "nan,4", "3,4,1"])
def test_norms_refuses_a_bad_q_before_building_any_kernel(
    tmp_path, monkeypatch, capsys, argv, q_grid
):
    # a q that is not finite and above 1 has no dual index: exit 4 whatever the scale,
    # before any kernel's 4n - 1 coefficients are built or transformed
    calls = []
    kernel = spectral.fejer_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cli, "fejer_kernel", counting)
    out = tmp_path / "norms.json"
    assert main(["norms", *argv, "--q", q_grid, "--out", str(out)]) == EXIT_IO
    assert calls == []
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid input: q must be finite and exceed 1, got ")


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


def test_desk2_certificate_bytes_are_pinned(tmp_path):
    assert_golden(tmp_path, "desk2")


def test_desk4_and_seeded_certificate_bytes_are_pinned(tmp_path):
    assert_golden(tmp_path, "desk4-n10", "seeded")


def test_enumeration_certificate_bytes_are_pinned(tmp_path):
    # every other golden zs is in closed form; this family fails pn, so both
    # strategies enumerate and the least of several maximal products is chosen
    assert_golden(tmp_path, "enumeration")


def test_report_agrees_with_verify(tmp_path, capsys):
    # the report's pn and zs sections are the verify payloads with a status, its
    # qi rows are verify qi's, and its weak_sidon rows are witness-weak-sidon 1 2 4's
    family = build_desk_family(tmp_path)
    payloads = {}
    for kind in ("pn", "zs", "qi"):
        out = tmp_path / f"{kind}.json"
        assert main(["verify", kind, str(family), "--out", str(out)]) == EXIT_OK
        payloads[kind] = read_json(out)["payload"]
    ws_out, report_out = tmp_path / "ws.json", tmp_path / "report.json"
    assert main(["witness-weak-sidon", "1", "2", "4", "--out", str(ws_out)]) == EXIT_OK
    assert main(["report", str(family), "--out", str(report_out)]) == EXIT_OK
    sections = read_json(report_out)["payload"]["sections"]
    for kind in ("pn", "zs"):
        assert sections[kind] == {**payloads[kind], "status": "verified"}
    assert sections["qi"]["rows"] == payloads["qi"]["factors"]
    for row in sections["qi"]["rows"]:
        assert row["extracted_size"] == len(row["extracted"])
    assert sections["weak_sidon"]["rows"] == read_json(ws_out)["payload"]["rows"]


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
    rows = read_json(out)["payload"]["rows"]
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
        ["verify", "qi", "{family}", "--budget-subsets", "1"],
        ["verify", "zs", "{family}", "--strat", "naive"],
        ["verify", "zs", "{family}", "--strategy", "auto"],
        ["build", "--prof", "tiny"],
        ["build", "--stamp"],
        ["report", "{family}", "--st"],
        ["report", "{family}", "--budget-subsets", "1"],
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
