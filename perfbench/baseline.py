"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10

For every workload, runs `run.py --trace 0` once per seed, one run at a
time, for BENCHMARK.json's run_seconds, and prints one markdown row per
metric: median, first and third quartile
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median,
and the number of runs; plus the report.json SHA-256 digests seen,
which should be one per workload whatever the seed.  The raw results
are appended as JSON lines to perfbench_runs.jsonl in the current
directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

LOG = "perfbench_runs.jsonl"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    seconds = str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])

    print("| workload | metric | median | Q1 | Q3 | spread | runs | failed |")
    print("|---|---|---|---|---|---|---|---|")
    for name in WORKLOADS:
        results = []
        for seed in seeds(args.seeds):
            out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                  "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                                 capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            res = json.loads(lines[-1])
            res["sha256"] = sorted({ln.split()[-1] for ln in lines if "report.json sha256" in ln})
            results.append(res)
            with open(LOG, "a") as log:
                log.write(json.dumps({"workload": name, "seed": seed, **res}) + "\n")
        failed = sum(r["failed"] for r in results)
        shas = set().union(*(r["sha256"] for r in results))
        print(f"| {name} | report.json sha256 over all seeds | {' '.join(sorted(shas))} "
              f"| | | | {len(results)} | {failed} |")
        for metric, first in results[0]["metrics"].items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {name} | {metric} ({first['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {spread:.3f} | {len(vals)} | {failed} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
