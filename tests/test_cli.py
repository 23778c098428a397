"""Command surface: outputs, exit codes, determinism, tamper detection."""

from __future__ import annotations

import hashlib
import json

import pytest

from freelac import cli, spectral
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
    "family": "ca698569ef0cda21c06db74ec2416660deebc86eba84dececbc5e8edb061fcce",
    "pn": "29dcc3df8480b46fbe25506fc87b9aace8895778bb687b29652f5aa6cb5139f3",
    "zs": "48cce58eb273ff33d45cf6559caf89da8d6855ef1e2c5233a66539c3a5c9cb5a",
    "leinert": "0f70bd8f4f2d753991ec996e5c37213d8d1e74396f9b62fbdf6a50295642d9f9",
    "qi": "c568514ffbed58496fbadf79d39fa3e3bcb570cc6f5896766615e401061d7a9a",
    "report": "d9fdeb1bab7a53e05eaafc9068ad0e201f68d349997ff668d39c83ec923d135b",
}

# Desk s=2 has Z_2 = 1, so every count there ties at 1; Z_4 = 4 on desk s=4
# --n-max 10 is where the least witness among several maxima is chosen.
DESK4_N10_CERT_SHA256 = {
    "family": "11ce337590d717b79ad6b5cf1eead317d5afd8ccd8c63a1ab1bb65f5316d8363",
    "zs": "6336eabec0eec6203fe368cb0306e827f6ac6214524f5c5d0168687e1d36d58c",
    "zs-mitm": "07b85ad814807bd8124557f144a5b8125ca795475f1a3589ae3ec1aa6e353043",
    "leinert": "e8b5e10b8296376120cda5d331c6b478654959fc2e5be92b78a4d7a472fce99b",
    "report": "cdf8c35bc1ec5df33a7eec0e2edeb58fa61157fbcb4dc66918766fa75eae5488",
}
# the family of build --s 2 --profile paper --seed 7, which pins the rng draws
SEEDED_PAPER2_FAMILY_SHA256 = "c63d903fec20ee7b3e9b89a632567d61703d55f4c4e91e82c659ffa481aba516"
# the families of build --s 2|4 --profile paper: their factors n >= 6 stop on
# the 5,000-node search budget, so these bytes pin the order the search visits
PAPER_FAMILY_SHA256 = {
    "2": "b0fb6cb3c5ece6aa1ae873fed93192cfd60f1c5f7859f1eb9a6f3deeb0d2e1dd",
    "4": "5aff592251ca65151bb3d5d441fa0d0135b640b2346fe22c459d013bc011a9f2",
}
# verify leinert --exponents 1,2,3,4 --order 17 --s 2 (integers only)
ADHOC_LEINERT_CERT_SHA256 = "0073f2f52ad851e9da3ff2bb33f2a74090d8a6b55454fcf431a966b51982e1aa"


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
        (["--s", "2", "--profile", "paper", "--n-min", "3", "--n-max", "3"],
         "INFEASIBLE (exhausted)"),
        (["--s", "4", "--n-min", "8", "--n-max", "8", "--seed", "3"],
         "INFEASIBLE (seeded walk: dead end)"),
    ],
)
def test_build_says_why_a_factor_is_infeasible(tmp_path, capsys, build, label):
    out = tmp_path / "fam.json"
    assert main(["build", *build, "--out", str(out)]) == EXIT_VIOLATION
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("n=")]
    assert line.endswith(label)


def test_paper_family_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for s, expected in PAPER_FAMILY_SHA256.items():
        build = ["build", "--s", s, "--profile", "paper", "--out", f"paper{s}.json"]
        assert main(build) == EXIT_VIOLATION  # no factor reaches its n^2 target
        assert hashlib.sha256((tmp_path / f"paper{s}.json").read_bytes()).hexdigest() == expected


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


def test_verify_ignores_cached_fields(tmp_path):
    family = build_desk_family(tmp_path)
    doc = read_json(family)
    for factor in doc["payload"]["factors"]:
        del factor["chosen"]
        del factor["forbidden_trace"]
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


def test_verify_budget_refusal(tmp_path):
    family = build_desk_family(tmp_path)
    assert main(["verify", "zs", str(family), "--budget-tuples", "10"]) == EXIT_BUDGET


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
    assert shared == {"bound_factorial", "bound_half_square", "holds", "strategy", "value"}
    assert all(sections["zs"][key] == zs[key] for key in shared)
    qi_rows = read_json(qi_out)["payload"]["factors"]
    assert [r["n"] for r in sections["qi"]["rows"]] == [r["n"] for r in qi_rows]
    for row, verified in zip(sections["qi"]["rows"], qi_rows):
        for key in ("floor_bound", "maximal", "parent_size"):
            assert row[key] == verified[key]
        assert row["extracted_size"] == len(verified["extracted"])


def test_report_empty_family(tmp_path, capsys):
    out = tmp_path / "empty.json"
    main(["build", "--s", "2", "--n-min", "9", "--n-max", "8", "--out", str(out)])
    report = tmp_path / "report.json"
    assert main(["report", str(out), "--out", str(report)]) == EXIT_OK
    sections = read_json(report)["payload"]["sections"]
    assert sections["zs"]["status"] == "unverified (empty family)"
    assert sections["qi"]["status"] == "unverified (empty family)"


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
    assert read_json(out)["provenance"]["parameters"] == {
        "n_max": 9,
        "n_min": 8,
        "profile": "desk",
        "s": 2,
        "spectral_budget": 1_048_576,
        "subset_budget_bits": 22,
        "tolerance": "1.0000000000000001e-09",
        "tuple_budget": 2_000_000,
    }


def test_stamp_flag_breaks_byte_identity_only_when_used(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["build", "--s", "2", "--n-min", "8", "--n-max", "9", "--out", str(a)])
    main(["build", "--s", "2", "--n-min", "8", "--n-max", "9", "--out", str(b), "--stamp"])
    assert read_json(a)["provenance"]["timestamp"] is None
    assert read_json(b)["provenance"]["timestamp"] is not None


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["verify", "nonsense", "x.json"]) == EXIT_IO
    assert main(["build", "--profile", "unknown"]) == EXIT_IO
    # a family file carries its own s, so --s is refused for every kind
    family = build_desk_family(tmp_path)
    for kind in ("pn", "zs", "leinert", "qi"):
        capsys.readouterr()
        assert main(["verify", kind, str(family), "--s", "4"]) == EXIT_IO
        assert "a family file carries its own s" in capsys.readouterr().err
    # shared flags reach only the commands that declare them
    assert main(["primes", "4", "--out", "p.json"]) == EXIT_IO
    assert main(["build", "--budget-tuples", "10"]) == EXIT_IO
    assert main(["norms", "--budget-subsets", "1"]) == EXIT_IO
    # odd s is refused even when the range is empty, and no file is written
    out = tmp_path / "odd.json"
    assert main(["build", "--s", "3", "--n-min", "9", "--n-max", "8", "--out", str(out)]) == EXIT_IO
    assert not out.exists()
