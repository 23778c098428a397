"""The benchmark's workloads: steps, expected verdicts, and why each exists.

A step is one user-facing command (``freelac.cli.main(argv)``) or one
library call.  Only ``call`` is timed; ``check`` then compares the exit code
and the verdict fields of the certificate the step wrote against the
expectations stored here, and returns every mismatch.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from freelac import cli, spectral
from freelac.builder import FactorSubset
from freelac.counting import STRATEGY_MITM, STRATEGY_NAIVE
from freelac.spectral import CyclicFunction


@dataclass(frozen=True)
class Step:
    label: str
    metric: str  # the per-command time this step counts towards
    call: Callable[[Path], object]  # timed; gets the work directory
    check: Callable[[Path, object], list[str]]  # untimed; returns mismatches
    certificate: Optional[str] = None  # file the step writes, for its sha256


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    uses_seed: bool
    steps: Callable[[int], list[Step]]
    pace: str  # the hostpace loop whose kind of work dominates: "python" or "numpy"


def _payload(work: Path, name: str) -> dict:
    return json.loads((work / name).read_text(encoding="utf-8"))["payload"]


def command(
    metric: str,
    argv: list[str],
    out: str,
    exit_code: int,
    verdicts: Callable[[dict], list[str]] = lambda payload: [],
) -> Step:
    """A CLI step writing ``out``; ``verdicts`` checks the certificate payload."""

    def call(work: Path) -> int:
        args = [str(work / a) if a.endswith(".json") else a for a in argv]
        return cli.main(args + ["--out", str(work / out)])

    def check(work: Path, code) -> list[str]:
        if code != exit_code:
            return [f"exit code {code}, expected {exit_code}"]
        return verdicts(_payload(work, out))

    return Step(" ".join(argv), metric, call, check, out)


def _expect(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def _family(factors: int, feasible: Callable[[dict], bool]) -> Callable[[dict], list[str]]:
    def verdicts(payload: dict) -> list[str]:
        rows = payload["factors"]
        wrong = [r["n"] for r in rows if r["feasible"] != feasible(r)]
        return _expect(len(rows) == factors, f"{len(rows)} factors, expected {factors}") + _expect(
            not wrong, f"unexpected feasibility at n={wrong}"
        )

    return verdicts


def _pn_holds(payload: dict) -> list[str]:
    failed = [c["n"] for c in payload["claims"] if not c["holds"]]
    return _expect(payload["holds"] and not failed, f"pn violated at n={failed}")


def _zs(value: int, strategy: str) -> Callable[[dict], list[str]]:
    def verdicts(payload: dict) -> list[str]:
        return _expect(
            payload["holds"] and payload["value"] == value and payload["strategy"] == strategy,
            f"Z_s = {payload['value']} by {payload['strategy']} (holds={payload['holds']}), "
            f"expected {value} by {strategy}",
        )

    return verdicts


def _leinert(holds: bool) -> Callable[[dict], list[str]]:
    def verdicts(payload: dict) -> list[str]:
        has_witness = payload["witness"] is not None
        return _expect(
            payload["holds"] == holds and has_witness != holds,
            f"leinert holds={payload['holds']} witness={has_witness}, expected holds={holds}",
        )

    return verdicts


def _qi(payload: dict) -> list[str]:
    bad = [
        r["n"]
        for r in payload["factors"]
        if not (r["maximal"] and len(r["extracted"]) >= r["floor_bound"])
    ]
    return _expect(payload["holds"] and not bad, f"QI floor or maximality fails at n={bad}")


def _report(zs_value: int, strategy: str) -> Callable[[dict], list[str]]:
    def verdicts(payload: dict) -> list[str]:
        sections = payload["sections"]
        zs = sections["zs"]
        bad = [
            r["n"]
            for r in sections["qi"]["rows"]
            if not (r["maximal"] and r["extracted_size"] >= r["floor_bound"])
        ]
        return _expect(
            zs.get("holds") is True and zs.get("value") == zs_value
            and zs.get("strategy") == strategy,
            f"report zs section {zs}, expected value {zs_value} by {strategy}",
        ) + _expect(not bad, f"report QI floor or maximality fails at n={bad}")

    return verdicts


def desk_steps(build: list[str], factors: int, build_exit: int, feasible, zs_value: int,
               zs_flags: list[str], zs_strategy: str, leinert_exit: int,
               report_strategy: str) -> list[Step]:
    return [
        command("build_s", ["build", *build], "family.json", build_exit, _family(factors, feasible)),
        command("verify_pn_s", ["verify", "pn", "family.json"], "pn.json", 0, _pn_holds),
        command("verify_zs_s", ["verify", "zs", "family.json", *zs_flags], "zs.json", 0,
                _zs(zs_value, zs_strategy)),
        command("verify_leinert_s", ["verify", "leinert", "family.json"], "leinert.json",
                leinert_exit, _leinert(leinert_exit == 0)),
        command("verify_qi_s", ["verify", "qi", "family.json"], "qi.json", 0, _qi),
        command("report_s", ["report", "family.json"], "report.json", 0,
                _report(zs_value, report_strategy)),
    ]


def desk2(seed: int) -> list[Step]:
    # 108 elements at s=2: the automatic choice is naive (11,556 tuples)
    return desk_steps(["--s", "2", "--profile", "desk"], factors=9, build_exit=0,
                      feasible=lambda r: True, zs_value=1, zs_flags=[],
                      zs_strategy=STRATEGY_NAIVE, leinert_exit=0,
                      report_strategy=STRATEGY_NAIVE)


def desk4(seed: int) -> list[Step]:
    # n=8..10 keeps a pass near 5 s, so that a run makes several passes; the
    # full n=8..12 chain spends 9.5 s in each z_value.  The n=8 factor stops
    # at 5 of 6 on the build's node budget, so build exits 2; the Leinert
    # search finds a violation, so it exits 2 as well.  On the 17 elements,
    # verify zs is told to meet in the middle (73,984 half-pairs) and report
    # picks naive (57,120 tuples): both must give Z_4 = 4.
    return desk_steps(["--s", "4", "--profile", "desk", "--n-max", "10"], factors=3,
                      build_exit=2, feasible=lambda r: r["n"] != 8, zs_value=4,
                      zs_flags=["--strategy", STRATEGY_MITM], zs_strategy=STRATEGY_MITM,
                      leinert_exit=2, report_strategy=STRATEGY_NAIVE)


def search(seed: int) -> list[Step]:
    steps = []
    for s in (2, 4):
        family = f"paper{s}.json"
        steps += [
            command("build_s", ["build", "--s", str(s), "--profile", "paper"], family,
                    2, _family(6, lambda r: False)),
            command("verify_pn_s", ["verify", "pn", family], f"pn{s}.json", 0, _pn_holds),
        ]
    return steps


SIDON_ORDER = 131101
SIDON_SETS = 16
HOLDER_ORDER = 8209
HOLDER_PAIRS = 4
HOLDER_SUPPORT = 1024  # fixed, so the seed changes the sets but not the work


def quasi_independent_set(rng: random.Random, p: int, size: int) -> tuple[int, ...]:
    """A random quasi-independent set: a dilated superincreasing sequence.

    Each element exceeds the sum of the ones before it by less than
    ``slack``, so the total stays below slack * 2^size <= p and all subset
    sums are distinct integers in [0, p); multiplying by a unit mod p keeps
    them distinct.
    """
    slack = p // (1 << size)
    total, base = 0, []
    for _ in range(size):
        x = total + 1 + rng.randrange(slack)
        base.append(x)
        total += x
    unit = rng.randrange(1, p)
    return tuple(sorted(x * unit % p for x in base))


def library(label: str, fn: Callable[[], object], holds: Callable[[object], bool]) -> Step:
    def call(work: Path):
        return fn()

    def check(work: Path, result) -> list[str]:
        return _expect(holds(result), f"does not hold: {result}")

    return Step(label, "api_checks_s", call, check)


def spectral_steps(seed: int) -> list[Step]:
    rng = random.Random(seed)
    steps = [
        command("norms_s", ["norms", "--scale", "2048"], "norms.json", 0, _norms),
    ]
    for i in range(SIDON_SETS):
        subset = FactorSubset(1, SIDON_ORDER, quasi_independent_set(rng, SIDON_ORDER, 12))
        steps.append(
            library(f"sidon_qi_check #{i}", lambda subset=subset: spectral.sidon_qi_check(subset),
                    lambda r: r.holds)
        )
    for i in range(HOLDER_PAIRS):
        f, g = (
            CyclicFunction.indicator(HOLDER_ORDER, rng.sample(range(HOLDER_ORDER), HOLDER_SUPPORT))
            for _ in range(2)
        )
        q = rng.choice((3.0, 4.0, 6.0))
        steps.append(
            library(f"holder_check #{i}", lambda f=f, g=g, q=q: spectral.holder_check(f, g, q),
                    lambda r: r.holds)
        )
    return steps


def _norms(payload: dict) -> list[str]:
    bad = [
        (k["n"], c["q"])
        for k in payload["kernels"]
        for c in k["checks"]
        if not (c["interpolation_holds"] and c["kernel_bound_holds"])
    ]
    floor = all(k["floor_half_holds"] for k in payload["kernels"])
    return _expect(not bad and floor, f"kernel checks fail at {bad}, floor={floor}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk2",
            "The everyday s=2 desk pipeline (build, verify pn/zs/leinert/qi, report); "
            "time goes to the builder avoidance brute force and the Leinert DFS.",
            False,
            desk2,
            "python",
        ),
        Workload(
            "desk4",
            "The s=4 desk pipeline on n=8..10: verify zs meets in the middle and report "
            "counts naively, so words and counting do most of the work.",
            False,
            desk4,
            "python",
        ),
        Workload(
            "search",
            "Paper-profile builds at s=2 and s=4 plus verify pn: all builder DFS, which "
            "stops on its node budget; counting is barely touched.",
            False,
            search,
            "python",
        ),
        Workload(
            "spectral",
            "norms --scale 2048 plus seeded sidon_qi_check and holder_check calls; the "
            "spectral layer is under 2% of every other workload.",
            True,
            spectral_steps,
            "numpy",
        ),
    )
}
