"""Smoke test of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostpace  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == {
        **tracing.PASS_METRICS,
        "trace.pipeline_s": "s",
        "trace.overhead_s": "s",
        **layers.FIXED_METRICS,
    }


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_metric(trace, section):
    proc = run("--workload", "desk2", "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "desk2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_counts_a_wrong_exit_code(tmp_path):
    step = workloads.command("build_s", ["build", "--s", "2", "--profile", "tiny"], "f.json", 2)
    assert step.check(tmp_path, step.call(tmp_path)) == ["exit code 0, expected 2"]


def test_gate_counts_a_wrong_zs_strategy():
    payload = {"holds": True, "value": 4, "strategy": "naive"}
    assert workloads._zs(4, "naive")(payload) == []
    assert len(workloads._zs(4, "meet-in-middle")(payload)) == 1


def test_host_pace_scales_by_the_mean_loop_time():
    pace = hostpace.HostPace({"python"})
    nominal = hostpace.NOMINAL_S["python"]
    pace.samples["python"] = [2 * nominal, 3 * nominal]
    assert pace.scale(5.0, "python") == pytest.approx(2.0)


def test_tracer_restores_every_original():
    from freelac import cli, counting, spectral, words

    before = (cli.main, counting.multiply, words.reduce_raw, spectral.transform)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert counting.multiply is not before[1]
    tracer.uninstall()
    assert (cli.main, counting.multiply, words.reduce_raw, spectral.transform) == before


@pytest.mark.parametrize("seed", range(5))
def test_seeded_sets_are_quasi_independent(seed):
    import random

    from freelac.builder import FactorSubset
    from freelac.counting import is_quasi_independent

    exps = workloads.quasi_independent_set(random.Random(seed), workloads.SIDON_ORDER, 12)
    assert len(set(exps)) == 12
    assert is_quasi_independent(FactorSubset(1, workloads.SIDON_ORDER, exps))[0]
