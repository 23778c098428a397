"""freelac benchmark: timed or traced runs of one named workload.

Run from the repository root:

    python3 perfbench/run.py --workload desk2 --seed 1 --seconds 25 --trace 0

One client runs the workload's steps back to back (a closed loop, no extra
threads), pass after pass: at least three passes, then more while the next
is expected to finish inside ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics, scaled to a nominal host pace (hostpace.py); ``--trace 1``
reports the per-layer ones (see README.md).  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, per-step
times and certificate digests go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_PER_PASS = 2


class Tally:
    """Operations attempted and failed, with the reasons and certificate digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.certificates: dict[str, str] = {}

    def record(self, label: str, mismatches: list[str]) -> None:
        self.attempted += 1
        if mismatches:
            self.failures.append(f"{label}: {'; '.join(mismatches)}")


def run_step(step, work: Path, tally: Tally) -> float:
    """Call one step, check its result into ``tally``; return the call's wall time."""
    certificate = work / step.certificate if step.certificate else None
    if certificate:
        certificate.unlink(missing_ok=True)  # a check must never read an earlier pass's file
    output = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            result = step.call(work)
    except Exception:  # a step that raises is a failed operation, not a crash
        elapsed = time.perf_counter() - t0
        tally.record(step.label, [traceback.format_exc(limit=3).strip()])
        return elapsed
    elapsed = time.perf_counter() - t0
    try:
        mismatches = step.check(work, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed output
        mismatches = [f"unreadable result: {exc!r}"]
    if mismatches and output.getvalue():
        mismatches.append("output: " + output.getvalue().strip()[-400:])
    tally.record(step.label, mismatches)
    if certificate and certificate.is_file() and step.label not in tally.certificates:
        tally.certificates[step.label] = hashlib.sha256(certificate.read_bytes()).hexdigest()
    return elapsed


def run_pass(steps, work: Path, tally: Tally, after_step=lambda seconds: None) -> list[float]:
    """One closed-loop pass over ``steps``: the wall time of each step's call.

    ``after_step`` gets each step's time once the step is checked.
    """
    times = []
    for step in steps:
        times.append(run_step(step, work, tally))
        after_step(times[-1])
    return times


def repeat(one_pass, seconds: float, at_least: int) -> list[list[float]]:
    """At least ``at_least`` passes, then more while one of the mean length ends inside ``seconds``."""
    passes: list[list[float]] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= at_least and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pass_median(passes: list[list[float]]) -> float:
    """Median over passes of the pass wall time (the sum of its timed calls)."""
    return statistics.median(sum(p) for p in passes)


def setup_samples(count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters importing freelac.cli (numpy included)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import freelac.cli"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def environment(seed: int, uses_seed: bool) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
        )
        git_sha = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except OSError:
        git_sha = "unavailable"
    source = hashlib.sha256()
    for path in sorted((SRC / "freelac").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "seed_used": uses_seed,
    }


def per_command(steps, times: list[float]) -> dict[str, float]:
    """Step times summed by the command metric each step counts towards."""
    sums: dict[str, float] = defaultdict(float)
    for step, t in zip(steps, times):
        sums[step.metric] += t
    return dict(sums)


def timed(steps, work: Path, seconds: float, tally: Tally, pace_kind: str) -> tuple[dict, dict]:
    """Passes for ``seconds``, each after SETUP_PER_PASS fresh-interpreter imports.

    The imports are spread over the run so that they meet the same host pace
    as the passes; one unmeasured import first writes the bytecode caches.
    The pace loops of hostpace.py run between steps.  ``pipeline_s`` is the
    mean pass time, scaled by the loop of the workload's ``pace_kind``;
    ``setup_s`` is the median import, scaled by the Python loop.
    """
    import hostpace

    setup_samples(1)
    pace = hostpace.HostPace({pace_kind, "python"})
    pace.sample()
    setup: list[float] = []

    def one_pass(i: int) -> list[float]:
        setup.extend(setup_samples(SETUP_PER_PASS))
        return run_pass(steps, work, tally, pace.after_step)

    passes = repeat(one_pass, seconds, MIN_PASSES)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    step_medians = [statistics.median(column) for column in zip(*passes)]
    pass_mean = statistics.mean(sum(p) for p in passes)
    setup_median = statistics.median(setup)
    metrics = {
        "setup_s": (pace.scale(setup_median, "python"), "s"),
        "pipeline_s": (pace.scale(pass_mean, pace_kind), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    details = {
        "steps": [step.label for step in steps],
        "passes": passes,
        "setup_samples_s": setup,
        "command_median_s": per_command(steps, step_medians),
        "pace_kind": pace_kind,
        "pace_samples_s": pace.samples,
        "slowdown": {kind: pace.slowdown(kind) for kind in pace.samples},
        "wall": {"pipeline_s": pass_mean, "setup_s": setup_median},
    }
    return metrics, details


def traced(steps, work: Path, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced and traced passes alternate, so both meet the same machine noise."""
    import layers
    import tracing

    tracer = tracing.Tracer()

    def one_pass(i: int) -> list[float]:
        if i % 2 == 0:
            return run_pass(steps, work, tally)
        tracer.begin_run(f"pass{i}")
        tracing.install(tracer)
        try:
            return run_pass(steps, work, tally)
        finally:
            tracer.uninstall()

    passes = repeat(one_pass, seconds, 2 * MIN_PASSES)
    untraced, traced_passes = passes[0::2], passes[1::2]
    per_pass = [tracing.pass_metrics(tracer, f"pass{i}") for i in range(1, len(passes), 2)]
    rates, mismatches = layers.run_layers()
    tally.record("fixed-input z_value: naive and meet-in-the-middle agree", mismatches)

    metrics = {
        name: (value, tracing.PASS_METRICS[name])
        for name, value in tracing.median_metrics(per_pass).items()
    }
    traced_s = pass_median(traced_passes)
    metrics["trace.pipeline_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - pass_median(untraced), "s")
    metrics.update({name: (value, layers.FIXED_METRICS[name]) for name, value in rates.items()})
    details = {
        "steps": [step.label for step in steps],
        "untraced_passes": untraced,
        "traced_passes": traced_passes,
        **tracer.to_json(),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freelac" / "__init__.py").is_file():
        print(f"error: freelac sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment(args.seed, workload.uses_seed)
    steps = workload.steps(args.seed)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            metrics, details = traced(steps, work, args.seconds, tally)
        else:
            metrics, details = timed(steps, work, args.seconds, tally, workload.pace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, value in env.items():
        print(f"env {key}: {value}")
    if not workload.uses_seed:
        print("env note: this workload's inputs are fixed; the seed is recorded, not used")
    if "passes" in details:
        count = len(details["passes"])
        for name, value in details["command_median_s"].items():
            print(f"step {name} = {value:.6f} s (median of {count} passes)")
        print(f"passes {count}, setup samples {len(details['setup_samples_s'])}")
        for name, value in details["wall"].items():
            print(f"wall {name} = {value:.6f} s (unscaled)")
        for kind, value in details["slowdown"].items():
            count = len(details["pace_samples_s"][kind])
            print(f"host slowdown {kind} = {value:.4f} (mean of {count} loop samples)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    for label, digest in tally.certificates.items():
        print(f"certificate sha256 {digest}  {label}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    failed = len(tally.failures)
    print(f"ops attempted {tally.attempted}, failed {failed}")

    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "why": workload.why,
                "seconds": args.seconds,
                "environment": env,
                "certificates_sha256": tally.certificates,
                "failures": tally.failures,
                **result,
                **details,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    print(f"record written: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
