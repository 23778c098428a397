"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Run from the repository root:

    python3 perfbench/spread.py --workloads desk2,spectral --seeds 1-10

Runs ``run.py --trace 0`` once per workload and seed, one run at a time,
and prints for every end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json.  A spread above a third of the
bound is flagged; ``setup_s`` has no spread requirement but is listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append(values)
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.4f}" for k, v in values.items()),
                  flush=True)
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {workload:9s} {name:12s} median={median:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={spread:.4f} bound={bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
