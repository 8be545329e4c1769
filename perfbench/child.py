"""One benchmark run of `circlelab run`, in its own process.

    python3 child.py <config.json> <out_dir> <workers> <mode> <result.json>

mode is `setup` (import and validate only), `plain` (run untraced) or
`traced` (run under the span wrappers of tracing.py and write the spans
next to the result).  The parent puts circlelab's `src` on PYTHONPATH.

Set-up ends when circlelab is imported and the config is loaded and
validated: the scenario is known and mu builds from the generators.  The
result records that moment on the system-wide monotonic clock, so the
parent can subtract its own spawn time from it.  The run is
`cli.run_experiment` on the config file, timed by wall clock and by
process CPU (user + system, all threads); `verify_report` then re-checks
the written report outside the timed interval.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def main(argv) -> int:
    config_path, out_dir, workers, mode, result_path = argv
    from circlelab.cli import load_config, run_experiment
    from circlelab.configs import ConfigError, build_step_distribution
    from circlelab.experiments import SCENARIOS
    from circlelab.reports import verify_report

    cfg = load_config(config_path)
    if cfg.get("scenario") not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.get('scenario')!r}")
    build_step_distribution(cfg)
    result = {"ready": time.monotonic()}
    from tracing import ROOT, Tracer, peak_rss_mb

    if mode != "setup":
        tracer = None
        if mode == "traced":
            tracer = Tracer(run_id=Path(out_dir).name)
            tracer.install()
        cpu0, t0 = os.times(), time.monotonic()
        if tracer is None:
            rc = run_experiment(config_path, None, int(workers), out_dir)
        else:
            rc = tracer.call(ROOT, run_experiment, (config_path, None, int(workers), out_dir), {})
        t1, cpu1 = time.monotonic(), os.times()
        if tracer is not None:
            tracer.uninstall()
            Path(out_dir, "trace.json").write_text(json.dumps(tracer.spans))
        report = Path(out_dir, "report.json")
        verified = report.is_file() and verify_report(report)[0]
        result.update(rc=rc, verified=bool(verified), run_s=t1 - t0,
                      cpu_s=(cpu1.user + cpu1.system) - (cpu0.user + cpu0.system))
    result["peak_rss_mb"] = peak_rss_mb()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
