"""Spans around circlelab's layer calls, recorded from outside the program.

The benchmark's traced child installs wrappers on the names through which
`circlelab.experiments` reaches each estimator (it imports them by name,
so the module attribute it looks up is the one to replace), plus the
nested `circlelab.measure.convolve_exact` and
`circlelab.schwarzian.solve_and_reconstruct`.  Each wrapper records one
span: name, start, end, parent span, run id, process CPU and peak RSS
at both ends, and counters taken only from the call's arguments and
return value.  Spans stay in memory until the run ends.

`layer_metrics` turns a span list into the per-layer metrics named in
`LAYER_METRICS`; `self_times` does the self-time arithmetic (a span's
duration minus the part of it covered by the union of its children).
This module imports nothing from circlelab at import time, so the parent
process and the tests can use the arithmetic without the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import threading
import time

# (module, attribute, span name).  A span name's prefix up to the first
# dot is its layer: the circlelab module that does the work.
TARGETS = [
    ("circlelab.experiments", "build_step_distribution", "configs.build"),
    ("circlelab.configs", "build_projected_base", "configs.build"),
    ("circlelab.experiments", "estimate_stationary_measure", "measure.stationary"),
    ("circlelab.experiments", "lyapunov_exponent", "measure.lyapunov"),
    ("circlelab.experiments", "boundary_entropy", "measure.boundary_entropy"),
    ("circlelab.experiments", "asymptotic_entropy", "measure.sbm"),
    ("circlelab.experiments", "dirac_convergence_probe", "measure.dirac"),
    ("circlelab.experiments", "convolve_exact", "convolve.exact"),
    ("circlelab.measure", "convolve_exact", "convolve.exact"),
    ("circlelab.experiments", "search_near_identity_pairs", "nearid.search"),
    ("circlelab.experiments", "endgame_estimates", "nearid.endgame"),
    ("circlelab.experiments", "walk_constants", "distortion.constants"),
    ("circlelab.experiments", "verify_real_distortion", "distortion.real"),
    ("circlelab.experiments", "verify_complex_distortion", "distortion.complex"),
    ("circlelab.experiments", "interval_mass_decay", "distortion.decay"),
    ("circlelab.experiments", "semiconjugation_map", "boundary.structure"),
    ("circlelab.experiments", "proximality_test", "boundary.structure"),
    ("circlelab.experiments", "minimal_set_classify", "boundary.structure"),
    ("circlelab.experiments", "finite_quotient_detect", "boundary.quotient"),
    ("circlelab.experiments", "quotient_boundary_entropy", "boundary.quotient"),
    ("circlelab.experiments", "solve_and_reconstruct", "schwarzian.ode"),
    ("circlelab.schwarzian", "solve_and_reconstruct", "schwarzian.ode"),
    ("circlelab.experiments", "c3_convergence_check", "schwarzian.c3"),
    ("circlelab.cli", "write_report", "reports.write"),
    ("circlelab.experiments", "write_csv", "reports.write"),
    ("circlelab.experiments", "write_walk_csv", "reports.write"),
    ("circlelab.experiments", "write_convolution_csv", "reports.write"),
]
PMAP_TARGET = ("circlelab.experiments", "pmap")
ROOT = "experiments.run"

# Per-layer metrics reported by a traced run, with their units.  A layer
# that does not run on a workload reports 0 for each of its metrics.
LAYER_METRICS = {
    "configs.build_s": "s",
    "configs.build_calls": "count",
    "measure.transfer_s": "s",
    "measure.transfer_iterations": "count",
    "measure.mc_s": "s",
    "measure.mc_steps_per_s": "1/s",
    "measure.lyapunov_s": "s",
    "measure.lyapunov_steps_per_s": "1/s",
    "measure.boundary_entropy_s": "s",
    "measure.gap_fraction": "fraction",
    "measure.sbm_s": "s",
    "measure.dirac_s": "s",
    "measure.pushforwards_per_s": "1/s",
    "measure.h_err": "nats",
    "convolve.s": "s",
    "convolve.calls": "count",
    "convolve.elements_per_s": "1/s",
    "convolve.support_max": "count",
    "convolve.rss_growth_mb": "MB",
    "nearid.search_s": "s",
    "nearid.prefix_steps_per_s": "1/s",
    "nearid.pairs": "count",
    "nearid.misses": "count",
    "nearid.hit_ratio": "fraction",
    "nearid.endgame_s": "s",
    "nearid.c1_ratio": "ratio",
    "distortion.constants_s": "s",
    "distortion.real_s": "s",
    "distortion.complex_s": "s",
    "distortion.decay_s": "s",
    "distortion.steps_per_s": "1/s",
    "distortion.violations": "count",
    "boundary.structure_s": "s",
    "boundary.quotient_s": "s",
    "schwarzian.ode_s": "s",
    "schwarzian.rk4_steps_per_s": "1/s",
    "schwarzian.c3_s": "s",
    "parallel.wall_s": "s",
    "parallel.busy_s": "s",
    "parallel.cpu_wall_ratio": "ratio",
    "reports.write_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB.

    Not `ru_maxrss`: at exec, Linux folds the high-water mark of the
    address space the child leaves, which is the parent's or a copy of
    it, into the child's ru_maxrss, so that is never below the parent's
    resident size at the spawn.  VmHWM belongs to the address space the
    program runs in.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


# ---------------------------------------------------------------------------
# counters: (bound arguments, return value) -> dict of numbers
# ---------------------------------------------------------------------------


def _count_stationary(a, r):
    return {"transfer": int(r.info.method == "transfer_iteration"),
            "iterations": r.info.iterations, "samples": r.info.samples}


def _count_lyapunov(a, r):
    return {"steps": r.n_steps * r.trajectories}


def _count_boundary_entropy(a, r):
    return {"gap_fraction": r.gap_fraction}


def _count_dirac(a, r):
    return {"pushforwards": r.trials * (len(r.ns) - 1)}


def _count_convolve(a, r):
    atoms = len(a["mu"])
    return {"elements": int(sum(r.support_sizes[:-1])) * atoms,
            "support_max": int(max(r.support_sizes))}


def _count_search(a, r):
    reports, misses = r
    lf = a["length_factor"]
    return {"prefix_steps": a["samples"] * sum(math.ceil(lf * m) for m in a["m_range"]),
            "pairs": len(reports), "misses": len(misses)}


def _count_horizon(a, r):
    steps = len(a["walk"].steps)
    return {"steps": steps if a["horizon"] is None else min(a["horizon"], steps)}


def _count_verify(a, r):
    return {"steps": a["N"], "violations": len(r.violations)}


def _count_decay(a, r):
    return {"steps": a["N"]}


def _count_ode(a, r):
    # one solve plus the Richardson solve at half the step
    return {"rk4_steps": 3 * (len(r.ys) - 1)}


COUNTERS = {
    "measure.stationary": _count_stationary,
    "measure.lyapunov": _count_lyapunov,
    "measure.boundary_entropy": _count_boundary_entropy,
    "measure.dirac": _count_dirac,
    "convolve.exact": _count_convolve,
    "nearid.search": _count_search,
    "distortion.constants": _count_horizon,
    "distortion.real": _count_verify,
    "distortion.complex": _count_verify,
    "distortion.decay": _count_decay,
    "schwarzian.ode": _count_ode,
}


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; `install` wraps the TARGETS in place."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs, counter=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; returns fn's own result."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        span = {"id": sid, "name": name, "run": self.run_id,
                "parent": parent if parent is not None else (stack[-1] if stack else None),
                "start": time.monotonic(), "cpu0": _cpu(), "rss0": peak_rss_mb()}
        stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        else:
            if counter is not None:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result
        finally:
            stack.pop()
            span.update(end=time.monotonic(), cpu1=_cpu(), rss1=peak_rss_mb())
            with self._lock:
                self.spans.append(span)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper

    def wrap_pmap(self, pmap):
        """pmap wrapper: each item is parented to the pmap span explicitly,
        because the thread pool does not carry the caller's span stack."""

        @functools.wraps(pmap)
        def wrapper(fn, items, workers=1):
            def run(fn, items, workers):
                sid = self._stack()[-1]

                def item(x):
                    return self.call("parallel.item", fn, (x,), {}, parent=sid)

                return pmap(item, items, workers)

            return self.call("parallel.pmap", run, (fn, items, workers), {})

        return wrapper

    def _replace(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def install(self):
        for module_name, attr, name in TARGETS:
            self._replace(module_name, attr, functools.partial(self.wrap, name))
        self._replace(*PMAP_TARGET, self.wrap_pmap)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# self time and the layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time its children cover.

    Children may overlap (pmap items on several threads), so the covered
    time is the union of their intervals, not their sum.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced run's spans (no accuracy or
    overhead entries: those need the report and the untraced run)."""
    own = self_times(spans)

    def pick(name, **where):
        return [s for s in spans if s["name"] == name
                and all(s.get("counts", {}).get(k) == v for k, v in where.items())]

    def self_s(*names, **where):
        return sum(own[s["id"]] for n in names for s in pick(n, **where))

    def total(count, *names, **where):
        return sum(s.get("counts", {}).get(count, 0) for n in names for s in pick(n, **where))

    m = {}
    m["configs.build_s"] = self_s("configs.build")
    m["configs.build_calls"] = len(pick("configs.build"))
    m["measure.transfer_s"] = self_s("measure.stationary", transfer=1)
    m["measure.transfer_iterations"] = total("iterations", "measure.stationary", transfer=1)
    m["measure.mc_s"] = self_s("measure.stationary", transfer=0)
    m["measure.mc_steps_per_s"] = _rate(
        sum(s["counts"]["samples"] * s["counts"]["iterations"]
            for s in pick("measure.stationary", transfer=0)), m["measure.mc_s"])
    m["measure.lyapunov_s"] = self_s("measure.lyapunov")
    m["measure.lyapunov_steps_per_s"] = _rate(total("steps", "measure.lyapunov"),
                                              m["measure.lyapunov_s"])
    m["measure.boundary_entropy_s"] = self_s("measure.boundary_entropy")
    m["measure.gap_fraction"] = max(
        [s["counts"]["gap_fraction"] for s in pick("measure.boundary_entropy")], default=0.0)
    m["measure.sbm_s"] = self_s("measure.sbm")
    m["measure.dirac_s"] = self_s("measure.dirac")
    m["measure.pushforwards_per_s"] = _rate(total("pushforwards", "measure.dirac"),
                                            m["measure.dirac_s"])
    conv = pick("convolve.exact")
    m["convolve.s"] = self_s("convolve.exact")
    m["convolve.calls"] = len(conv)
    m["convolve.elements_per_s"] = _rate(total("elements", "convolve.exact"), m["convolve.s"])
    m["convolve.support_max"] = max([s["counts"]["support_max"] for s in conv], default=0)
    m["convolve.rss_growth_mb"] = sum(s["rss1"] - s["rss0"] for s in conv)
    m["nearid.search_s"] = self_s("nearid.search")
    m["nearid.prefix_steps_per_s"] = _rate(total("prefix_steps", "nearid.search"),
                                           m["nearid.search_s"])
    m["nearid.pairs"] = total("pairs", "nearid.search")
    m["nearid.misses"] = total("misses", "nearid.search")
    tried = m["nearid.pairs"] + m["nearid.misses"]
    m["nearid.hit_ratio"] = m["nearid.pairs"] / tried if tried else 0.0
    m["nearid.endgame_s"] = self_s("nearid.endgame")
    walk_layers = ("distortion.constants", "distortion.real", "distortion.complex",
                   "distortion.decay")
    for name in walk_layers:
        m[name + "_s"] = self_s(name)
    m["distortion.steps_per_s"] = _rate(total("steps", *walk_layers), self_s(*walk_layers))
    m["distortion.violations"] = total("violations", "distortion.real", "distortion.complex")
    m["boundary.structure_s"] = self_s("boundary.structure")
    m["boundary.quotient_s"] = self_s("boundary.quotient")
    m["schwarzian.ode_s"] = self_s("schwarzian.ode")
    m["schwarzian.rk4_steps_per_s"] = _rate(total("rk4_steps", "schwarzian.ode"),
                                            m["schwarzian.ode_s"])
    m["schwarzian.c3_s"] = self_s("schwarzian.c3")
    pmaps = pick("parallel.pmap")
    m["parallel.wall_s"] = sum(s["end"] - s["start"] for s in pmaps)
    m["parallel.busy_s"] = sum(s["end"] - s["start"] for s in pick("parallel.item"))
    m["parallel.cpu_wall_ratio"] = _rate(sum(s["cpu1"] - s["cpu0"] for s in pmaps),
                                         m["parallel.wall_s"])
    m["reports.write_s"] = self_s("reports.write")
    m["experiments.self_s"] = self_s(ROOT)
    return m
