"""Tests of the benchmark's own code: self-time arithmetic, wrapper
transparency and the names it publishes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
from pathlib import Path

import pytest

from run import END_TO_END
from tracing import LAYER_METRICS, ROOT, TARGETS, Tracer, layer_metrics, self_times
from workloads import FREE_PAIR, LIMITS, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def span(sid, name, start, end, parent=None, **counts):
    return {"id": sid, "name": name, "run": "t", "parent": parent, "start": start, "end": end,
            "cpu0": 0.0, "cpu1": 0.0, "rss0": 0.0, "rss1": 0.0, "counts": counts}


def test_self_time_nested_and_overlapping():
    spans = [
        span(1, ROOT, 0.0, 10.0),
        span(2, "measure.sbm", 1.0, 5.0, 1),
        span(3, "convolve.exact", 1.5, 4.0, 2, elements=100, support_max=7),
        span(4, "parallel.pmap", 6.0, 9.0, 1),
        # two pool threads: items overlap, so the pmap's covered time is
        # their union [6, 9], not their sum
        span(5, "parallel.item", 6.0, 8.0, 4),
        span(6, "parallel.item", 6.5, 9.0, 4),
        span(7, "distortion.real", 7.0, 7.5, 6, steps=10, violations=0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 10.0 - 4.0 - 3.0, 2: 4.0 - 2.5, 3: 2.5, 4: 0.0,
                                 5: 2.0, 6: 2.0, 7: 0.5})
    m = layer_metrics(spans)
    assert m["measure.sbm_s"] == pytest.approx(1.5)
    assert m["convolve.s"] == pytest.approx(2.5)
    assert m["convolve.elements_per_s"] == pytest.approx(40.0)
    assert m["parallel.wall_s"] == pytest.approx(3.0)
    assert m["parallel.busy_s"] == pytest.approx(4.5)
    assert m["distortion.steps_per_s"] == pytest.approx(20.0)
    assert m["experiments.self_s"] == pytest.approx(3.0)


def test_children_outside_parent_are_clipped():
    spans = [span(1, ROOT, 0.0, 2.0), span(2, "reports.write", 1.5, 3.0, 1)]
    assert self_times(spans)[1] == pytest.approx(1.5)


def test_wrapper_returns_same_object_and_records_span():
    tracer = Tracer("t")
    sentinel = object()
    wrapped = tracer.wrap("configs.build", lambda: sentinel)
    assert wrapped() is sentinel
    (s,) = tracer.spans
    assert s["name"] == "configs.build" and s["parent"] is None and s["end"] >= s["start"]


def test_wrapper_propagates_exceptions():
    tracer = Tracer("t")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("configs.build", boom)()
    assert tracer.spans[0]["error"] == "KeyError"


def test_install_then_uninstall_restores_every_name():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}
    with Tracer("t"):
        assert all(getattr(importlib.import_module(m), a) is not before[(m, a)]
                   for m, a, _ in TARGETS)
    assert all(getattr(importlib.import_module(m), a) is before[(m, a)] for m, a, _ in TARGETS)


def test_tracing_leaves_report_bytes_alone(tmp_path):
    from circlelab.cli import run_experiment

    # a tiny lyapunov run at 2 workers: pmap items on a thread pool
    cfg = {"scenario": "lyapunov", "seed": 3, "grid_size": 256, "n_seeds": 2, "n_steps": 40,
           "trajectories": 8, "integral_samples": 2000, **FREE_PAIR}
    run_experiment(cfg, None, 2, tmp_path / "plain")
    with Tracer("t") as tracer:
        tracer.call(ROOT, run_experiment, (cfg, None, 2, tmp_path / "traced"), {})
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert plain == (tmp_path / "traced" / "report.json").read_bytes()
    items = [s for s in tracer.spans if s["name"] == "parallel.item"]
    pmap_id = next(s["id"] for s in tracer.spans if s["name"] == "parallel.pmap")
    assert len(items) == 2 and all(s["parent"] == pmap_id for s in items)
    lyap = [s for s in tracer.spans if s["name"] == "measure.lyapunov"]
    assert {s["parent"] for s in lyap} == {s["id"] for s in items}
    assert layer_metrics(tracer.spans)["measure.lyapunov_steps_per_s"] > 0


def test_names_follow_the_benchmark_rules():
    names = (list(WORKLOADS) + list(LAYER_METRICS) + list(END_TO_END)
             + [w["name"] for w in BENCHMARK["workloads"]])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert set(LIMITS) <= set(LAYER_METRICS)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS
