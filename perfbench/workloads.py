"""The benchmark's workloads: one generated `circlelab run` config each.

Every config is written out in full here rather than read from
circlelab's bundled examples, so the benchmark's inputs do not move when
the program's examples do.

Each config keeps the seed of the bundled example it comes from.  The
scenarios end in statistical checks with fixed sigma tolerances, which
fail on some seeds without any change to the program.  Measured here:
lifted failed `quotient_entropy_invariant` (a 2-sigma test) on config
seed 13 of 0..15; the suite's Lyapunov z-scores reached 2.3 against a
limit of 3.  near-identity's checks depend on its size: over config seeds
0..20 (windows of consecutive search seeds), 2048 samples x 8 search
seeds failed `pairs_found_all_m` or `c1_median_decreasing` (median_c1[20]
/ median_c1[5] <= 0.5) on 12 of 21 windows, 8192 x 4 on 4 of 21, and
6144 x 4 on none, its largest ratio 0.49 (BASELINE.md).  A benchmark
run must fail only when the program changed, so the config seed is
fixed, and the benchmark seed varies the interpreter's hash seed instead
(run.py), which must leave report.json unchanged.

Sizes are cut from the bundled examples where one run would not fit the
benchmark's run length: near-identity searches 6144 samples with 4
search seeds (bundled `dense`: 16384 and 11, about 65 s), and the suite
runs 2000-step Lyapunov walks of 100 trajectories (the scenario's
defaults: 10 000 steps of 100), 1000-step walks for
the distortion scenario's Lyapunov estimate, 20 000 Monte Carlo samples
and 12 distortion walks.  entropy and lifted are the bundled `sanov` and
`lifted-2` configs unchanged.

Each workload names the layer it is chosen to stress (`why`) and the
input property it must keep for that reason (`keeps`).  A later change
to a workload that breaks its `keeps` line makes it stress something
else, so the workload should be renamed instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

FREE_PAIR = {
    "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
    "mu": {"atoms": [["a", 0.25], ["a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]],
           "symmetric": True},
}

# h(F_2, uniform on the four generators) = (1/2) log 3 (Kaimanovich-Vershik)
H_FREE_2 = 0.5 * math.log(3.0)

# Acceptance limits of the accuracy figures: criterion 1 of the test
# suite for h_err, the `c1_median_decreasing` invariant for c1_ratio.
LIMITS = {"measure.h_err": 0.02, "nearid.c1_ratio": 0.5}


def h_err(results: dict) -> dict:
    return {"measure.h_err": abs(results["entropy_gap"]["h_asymptotic"] - H_FREE_2)}


def c1_ratio(results: dict) -> dict:
    """median_c1 at m_max over median_c1 at m_min."""
    c1 = {int(m): v for m, v in results["median_c1"].items()}
    return {"nearid.c1_ratio": c1[max(c1)] / c1[min(c1)]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str            # one line; BENCHMARK.json carries the same text
    keeps: str          # the input property the workload is chosen for
    config: dict        # the generated config, written to the child as JSON
    workers: int
    # report results -> accuracy figures, each gated by LIMITS
    accuracy: Callable[[dict], dict] = field(default=lambda results: {})


WORKLOADS = {w.name: w for w in [
    Workload(
        name="entropy",
        why="exact convolution to n=14 and its 2.5 GB peak dominate; walk kernels barely run",
        keeps="n_max 14 on the free pair (support 7.17 M at n=14), one worker",
        config={"scenario": "entropy-gap", "seed": 7, "grid_size": 8192, "samples": 100_000,
              "n_max": 14, "delta_cells": 8, **FREE_PAIR},
        workers=1,
        accuracy=h_err,
    ),
    Workload(
        name="near-identity",
        why="batched Mobius prefix scan and interval_mass of the pair search; no convolution; one worker",
        keeps="a pure Mobius family with a rotation (non-discrete), m_min 5 .. m_max 20, one worker; "
              "6144 samples per search seed, where its checks held on 21 of 21 seed windows",
        config={"scenario": "near-identity", "seed": 11, "grid_size": 2048, "samples": 6_144,
              "eta": 0.02, "m_min": 5, "m_max": 20, "length_factor": 2.0,
              "search_seeds": 4, "l_generator": "l",
              "generators": {
                  "l": {"matrix": [[0.9219544457292887, 0.0], [0.0, 1.0846522890932808]]},
                  "r": {"rotation": 0.41421356237309515},
              },
              "mu": {"atoms": [["l", 0.3], ["l^-1", 0.3], ["r", 0.2], ["r^-1", 0.2]],
                     "symmetric": True}},
        workers=1,
        accuracy=c1_ratio,
    ),
    Workload(
        name="suite",
        why="every scenario at 2 workers: Lyapunov, MC stationary, distortion walks, ODE; GIL-bound pmap",
        keeps="the full-theorem-suite scenario with more than one worker",
        config={"scenario": "full-theorem-suite", "seed": 7, "n_max": 10, "method": "both",
              "mc_samples": 20_000, "mc_steps": 300,
              "n_seeds": 4, "n_steps": 2_000, "trajectories": 100, "lyapunov_steps": 1_000,
              "n_walks": 12, "horizon_real": 200, "horizon_complex": 100,
              "probe_horizon": 50, "probe_trials": 10, **FREE_PAIR},
        workers=2,
    ),
    Workload(
        name="lifted",
        why="non-Mobius lifted family: word-path Dirac probe and finite-quotient code; bypasses Mobius kernels",
        keeps="a LiftedMap family (lift degree 2 of the free pair), so maps takes the word path",
        config={"scenario": "boundary", "seed": 5, "grid_size": 4096, "samples": 50_000, "q_max": 4,
              "epsilon": 1e-3, "word_length_cap": 30, **FREE_PAIR, "lift": {"degree": 2}},
        workers=1,
    ),
]}
