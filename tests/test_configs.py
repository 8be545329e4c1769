"""The config schema: `configs.SCHEMA`, `parse_config` and README's table."""

import json
import re
from pathlib import Path

import pytest

from circlelab.cli import main, run_experiment
from circlelab.configs import COMMON, KEYS, SCHEMA, SUITE, SUITE_PARTS, parse_config
from circlelab.experiments import SCENARIOS

README = Path(__file__).resolve().parent.parent / "README.md"

FREE_PAIR = {
    "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
    "mu": {"atoms": [["a", 0.25], ["a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]],
           "symmetric": True},
}
ENTROPY = {"scenario": "entropy-gap", "seed": 7, "n_max": 8, **FREE_PAIR}


@pytest.mark.parametrize("key, change", [
    ("n_maxx", {"n_maxx": 9}),
    ("n_walks", {"n_walks": 8}),                                  # a distortion key
    ("eta", {"scenario": SUITE, "eta": 0.02}),                    # read by no part
    ("mu.symetric", {"mu": {**FREE_PAIR["mu"], "symetric": True}}),
    ("grid_size", {"grid_size": "big"}),
    ("grid_size", {"grid_size": 300.9}),
    ("n_max", {"n_max": True}),
    ("quantized", {"quantized": "false"}),
    ("seed", {"seed": "x"}),
    ("grid_size", {"grid_size": 255}),
    ("delta_cells", {"delta_cells": 1}),
    ("q_max", {"scenario": "boundary", "q_max": 0}),     # checked before the n_max boundary does not read
    ("epsilon", {"scenario": "boundary", "epsilon": 0.0}),
    ("n_max", {"n_max": -1}),
    ("n_max", {"n_max": 0}),
    ("samples", {"samples": 1}),
    ("samples", {"scenario": SUITE, "samples": 1}),
    ("m_min", {"scenario": "near-identity", "m_min": 9, "m_max": 8}),   # before n_max too
    # walk sizes: each of these ran to exit 0, 1 or 2 before it had a lower limit
    ("mc_steps", {"scenario": "stationary", "method": "monte_carlo", "mc_steps": -1}),
    ("mc_samples", {"scenario": "stationary", "method": "monte_carlo", "mc_samples": 0}),
    ("probe_trials", {"scenario": "boundary", "probe_trials": 0}),
    ("n_seeds", {"scenario": "lyapunov", "n_seeds": 0}),
    ("n_walks", {"scenario": "distortion", "n_walks": 0}),
    ("horizon_complex", {"scenario": "distortion", "horizon_complex": 80, "horizon_real": 50}),
    ("n_steps", {"scenario": "lyapunov", "n_steps": 0}),
    ("trajectories", {"scenario": "lyapunov", "trajectories": 0}),
    ("integral_samples", {"scenario": "lyapunov", "integral_samples": 1}),
    ("lyapunov_steps", {"scenario": "distortion", "lyapunov_steps": 0}),
    ("horizon_real", {"scenario": SUITE, "horizon_real": 0, "horizon_complex": 0}),
    ("horizon_complex", {"scenario": "distortion", "horizon_complex": 0}),
    ("search_seeds", {"scenario": "near-identity", "search_seeds": 0}),
    ("probe_horizon", {"scenario": "boundary", "probe_horizon": 0}),
    # before any estimate: tau 1.5 ran the Lyapunov and boundary estimates,
    # then raised; kappa -0.5 ran to exit 2 on the distortion invariants
    ("tau", {"scenario": "distortion", "tau": 1.5}),
    ("tau", {"scenario": "distortion", "tau": 0.0}),
    ("tau", {"scenario": SUITE, "tau": -0.5}),
    ("kappa", {"scenario": "distortion", "kappa": -0.5}),
    ("kappa", {"scenario": "distortion", "kappa": 0}),
], ids=["misspelled", "other-scenario", "suite", "nested", "string-int", "fractional-int",
        "bool-int", "string-bool", "seed", "grid_size-range", "delta_cells-range", "q_max-range",
        "epsilon-range", "n_max-negative", "n_max-zero", "samples-range", "suite-samples-range",
        "m_min-above-m_max", "mc_steps-negative", "mc_samples-zero", "probe_trials-zero",
        "n_seeds-zero", "n_walks-zero", "horizon_complex-above-horizon_real", "n_steps-zero",
        "trajectories-zero", "integral_samples-range", "lyapunov_steps-zero",
        "suite-horizon_real-zero", "horizon_complex-zero", "search_seeds-zero",
        "probe_horizon-zero", "tau-above-1", "tau-zero", "suite-tau-negative", "kappa-negative",
        "kappa-zero"])
def test_bad_key_exits_3_and_names_it(tmp_path, capsys, key, change):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({**ENTROPY, **change}))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bundled_configs_and_benchmark_workloads_parse():
    import sys

    from circlelab.configs import BUILTIN_CONFIGS

    sys.path.insert(0, str(README.parent / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(README.parent / "perfbench"))
    for cfg in [*BUILTIN_CONFIGS.values(), *(w.config for w in WORKLOADS.values())]:
        parse_config(cfg)


def test_integral_floats_and_integers_give_the_same_results(tmp_path):
    cfg = {"scenario": "distortion", "seed": 7, "grid_size": 1024, "samples": 5_000,
           "lyapunov_steps": 300, "horizon_real": 30, "horizon_complex": 15, **FREE_PAIR}
    results = []
    for name, typed in (("a", {"kappa": 1, "n_walks": 8.0}), ("b", {"kappa": 1.0, "n_walks": 8})):
        assert run_experiment({**cfg, **typed}, out_dir=tmp_path / name) == 0
        results.append(json.loads((tmp_path / name / "report.json").read_text())["results"])
    assert results[0] == results[1]
    assert results[0]["walks"] == 8


def test_values_are_typed_with_their_scenario_defaults():
    values = parse_config({**ENTROPY, "grid_size": 1024.0})
    assert values["grid_size"] == 1024 and type(values["grid_size"]) is int
    assert (values["n_max"], values["samples"], values["quantized"], values["seed"]) == (8, 100_000, False, 7)
    suite = parse_config({"scenario": SUITE, "tol": 1})
    assert suite["seed"] == 0
    assert set(suite) - set(KEYS) == set(SUITE_PARTS)
    assert suite["stationary"]["tol"] == 1.0 and type(suite["stationary"]["tol"]) is float
    assert suite["entropy-gap"]["samples"] == 100_000
    assert suite["boundary"]["samples"] == suite["distortion"]["samples"] == 50_000
    near = parse_config({"scenario": "near-identity"})
    assert (near["grid_size"], near["samples"], near["limit_arcs"][0]) == (2048, 16_384, (0.1024, 0.1476))
    assert parse_config({"scenario": "distortion"})["h_hint"] is None


def test_every_scenario_has_a_row():
    assert set(SCENARIOS) == {*SCHEMA, SUITE}
    assert set(SUITE_PARTS) <= set(SCHEMA)
    for table in SCHEMA.values():
        assert set(COMMON) <= set(table) <= set(KEYS)


def _nested_keys(key, kind):
    if not isinstance(kind, dict):
        return [key]
    return [key] + [k for sub, sub_kind in kind.items()
                    for k in _nested_keys(f"{key}.{'<name>' if sub == '*' else sub}", sub_kind)]


def _readme_table() -> dict:
    """README's schema block: section -> {key: default text}."""
    text = README.read_text()
    block = re.search(r"### Config schema.*?```text\n(.*?)```", text, re.S).group(1)
    table = {}
    for line in block.splitlines():
        if line.startswith("  "):
            key, default = line.split()[:2]
            table[section][key] = default
        else:
            section = line.strip()
            table[section] = {}
    return table


def test_readme_schema_block_is_the_table():
    readme = _readme_table()
    common = ["scenario"] + [k for key in COMMON for k in _nested_keys(key, KEYS[key][0])]
    assert list(readme) == ["common", *SCHEMA]
    assert sorted(readme["common"]) == sorted(common)
    for key in COMMON:
        assert readme["common"][key] == ("-" if KEYS[key][1] is None else json.dumps(KEYS[key][1]))
    for scenario, table in SCHEMA.items():
        own = {key: spec for key, spec in table.items() if key not in COMMON}
        assert sorted(readme[scenario]) == sorted(own), scenario
        for key, (_, default) in own.items():
            shown = "-" if default is None else json.dumps(default, separators=(",", ":"))
            assert readme[scenario][key] == shown, (scenario, key)
