"""Benchmark of `circlelab run` on generated configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a circlelab checkout; the program is imported from
its `src` directory.  The parent process writes the workload's config
(workloads.py), then starts one child process (child.py) at a time, each
a fresh interpreter.  The seed becomes the children's PYTHONHASHSEED: the
configs keep fixed seeds (workloads.py says why), and report bytes must
not depend on the hash seed either.  Runs repeat while the next one is
expected to end less than half a run past `--seconds` after the first
(at least one run), so the run count is the one whose total is nearest
to `--seconds`: a workload whose run takes just over half of it gets two
samples, not one.

* `--trace 0` measures the end-to-end metrics: SETUP_SAMPLES
  set-up-only children, then untraced runs.  setup_s is the median
  set-up wall time over every child; run_s, cpu_s and peak_rss_mb are
  medians over the runs.
* `--trace 1` alternates untraced and traced runs and reports the
  per-layer metrics of tracing.py, medians over the traced runs, plus
  the tracing overhead: median traced run_s over median untraced
  run_s, minus 1.

Every child is one attempt.  A run fails when its process or `circlelab
run` exits nonzero, `verify_report` rejects its report, an accuracy
figure is outside its limit (workloads.LIMITS), or its report.json
differs in SHA-256 from the first run's: all runs of one invocation,
traced or not, must write the same bytes.  Failures are counted, never
fatal.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import LIMITS, WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
# one thread per BLAS call, so a run's threads are its workers and no more
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Bench:
    """One workload at one seed, in a scratch directory of the checkout."""

    def __init__(self, root: Path, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config, indent=2, sort_keys=True))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=str(seed % 2**32),
                        **THREAD_ENV)
        self.children = 0
        self.failures: list[str] = []
        self.ref_sha = None

    def spawn(self, mode: str) -> dict | None:
        """Run one child; returns its measurements, or None if it failed."""
        self.children += 1
        tag = f"{mode}-{self.children}"
        out = self.work / tag
        out.mkdir()
        result = out / "result.json"
        argv = [sys.executable, str(HERE / "child.py"), str(self.config), str(out),
                str(self.workload.workers), mode, str(result)]
        with open(out / "log.txt", "w") as log:
            t0 = time.monotonic()
            try:
                code = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                      cwd=self.work, timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        reason = f"child exit {code}" if code != 0 or not result.is_file() else None
        rec = {}
        if reason is None:
            rec = json.loads(result.read_text())
            rec["setup_wall_s"] = rec["ready"] - t0
            if mode in ("plain", "traced"):
                reason = self._check(out, rec)
        if reason is not None:
            self.failures.append(f"{tag}: {reason}")
            tail = (out / "log.txt").read_text().splitlines()[-5:]
            print(f"FAIL {tag}: {reason}", *tail, sep="\n  ", file=sys.stderr)
        if mode == "traced" and reason is None:
            rec["layers"] = layer_metrics(json.loads((out / "trace.json").read_text()))
        shutil.rmtree(out)
        return None if reason is not None else rec

    def _check(self, out: Path, rec: dict) -> str | None:
        if rec["rc"] != 0:
            return f"circlelab run exit {rec['rc']}"
        if not rec["verified"]:
            return "verify_report failed"
        data = (out / "report.json").read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        self.ref_sha = self.ref_sha or sha
        if sha != self.ref_sha:
            return f"report.json sha256 {sha[:12]} differs from {self.ref_sha[:12]}"
        rec["accuracy"] = self.workload.accuracy(json.loads(data)["results"])
        for name, value in rec["accuracy"].items():
            if not value <= LIMITS[name]:
                return f"{name} = {value:.4g} above its limit {LIMITS[name]}"
        return None

    def measure(self, seconds: float, trace: bool) -> dict:
        setups, plain, traced = [], [], []
        if not trace:
            setups += [r for r in (self.spawn("setup") for _ in range(SETUP_SAMPLES)) if r]
        start = time.monotonic()
        cycle = ["plain", "traced"] if trace else ["plain"]
        durations = []
        while True:
            t0 = time.monotonic()
            for mode in cycle:
                rec = self.spawn(mode)
                if rec is not None:
                    setups.append(rec)
                    (traced if mode == "traced" else plain).append(rec)
            durations.append(time.monotonic() - t0)
            if time.monotonic() + statistics.median(durations) / 2 > start + seconds:
                break
        return self._metrics(setups, plain, traced, trace)

    def _metrics(self, setups, plain, traced, trace) -> dict:
        def median(recs, key):
            vals = [r[key] for r in recs]
            return statistics.median(vals) if vals else None

        if not trace:
            values = {"setup_s": median(setups, "setup_wall_s"), "run_s": median(plain, "run_s"),
                      "cpu_s": median(plain, "cpu_s"), "peak_rss_mb": median(plain, "peak_rss_mb")}
            samples = {"setup_s": len(setups)} | {k: len(plain) for k in END_TO_END if k != "setup_s"}
            units = END_TO_END
        else:
            values = {}
            for name in LAYER_METRICS:
                vals = [r["layers"][name] for r in traced if name in r["layers"]]
                values[name] = statistics.median(vals) if vals else 0.0
            ok = [r for r in plain + traced if "accuracy" in r]
            for name, value in (ok[0]["accuracy"].items() if ok else ()):
                values[name] = value
            if traced and plain:
                values["trace.overhead_frac"] = (median(traced, "run_s")
                                                 / median(plain, "run_s") - 1.0)
            samples = {name: len(traced) for name in LAYER_METRICS}
            units = LAYER_METRICS
        print(f"{self.workload.name:14s} report.json sha256 {self.ref_sha}")
        print(f"{self.workload.name:14s} {'fail_frac':30s} {len(self.failures) / self.children:>14.6g} "
              f"{'fraction':8s} ({len(self.failures)} of {self.children} children failed)")
        for name, value in values.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{self.workload.name:14s} {name:30s} {shown:>14s} {units[name]:8s} "
                  f"(median of {samples[name]})")
        return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "circlelab" / "__init__.py").is_file():
        print(f"error: no circlelab sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = root / ".perfbench_work"
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        work = scratch / f"{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            bench = Bench(root, WORKLOADS[name], args.seed, work)
            got = bench.measure(args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += bench.children
        failed += len(bench.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    try:
        scratch.rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
