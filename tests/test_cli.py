import json
from pathlib import Path

import numpy as np
import pytest

from circlelab.cli import main, run_experiment
from circlelab.configs import BUILTIN_CONFIGS, ConfigError, build_step_distribution, builtin_config
from circlelab.reports import canonical_json, config_hash, verify_report


def test_examples_catalog(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if l.strip()]) >= 4
    for name in ("sanov", "schottky", "dense", "rotations", "lifted-2"):
        assert name in out


def test_examples_show(capsys):
    assert main(["examples", "--show", "sanov"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["scenario"] == "entropy-gap"


def test_lifted2_declares_qmax():
    assert builtin_config("lifted-2")["q_max"] >= 2


def test_all_builtin_configs_build():
    for name in BUILTIN_CONFIGS:
        mu = build_step_distribution(builtin_config(name))
        assert len(mu) >= 1


def test_unknown_scenario_exit3(tmp_path):
    cfg = {"scenario": "nonsense", "generators": {"r": {"rotation": 0.1}},
           "mu": {"atoms": [["r", 1.0]]}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3


def test_missing_weights_key_exit3(tmp_path, capsys):
    cfg = {"scenario": "stationary", "generators": {"r": {"rotation": 0.1}}, "mu": {}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "atoms" in err


def test_malformed_json_line_anchored(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text('{\n "scenario": "stationary",\n "oops"\n}')
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    import re
    assert re.search(r"c\.json:\d+:\d+:", err)  # line:column anchoring


def test_rotations_scenario_roundtrip(tmp_path):
    cfg = builtin_config("rotations")
    cfg["mc_samples"] = 50_000
    code = run_experiment(cfg, out_dir=tmp_path / "out")
    assert code == 0
    report = tmp_path / "out" / "report.json"
    ok, msgs = verify_report(report)
    assert ok, msgs
    data = json.loads(report.read_text())
    assert data["config_hash"] == config_hash(data["config"])
    assert (tmp_path / "out" / "nu_cdf.csv").exists()


def test_verify_catches_tamper(tmp_path):
    cfg = builtin_config("rotations")
    cfg["mc_samples"] = 50_000
    run_experiment(cfg, out_dir=tmp_path / "out")
    report = tmp_path / "out" / "report.json"
    data = json.loads(report.read_text())
    data["config"]["seed"] = 12345
    report.write_text(json.dumps(data))
    ok, msgs = verify_report(report)
    assert not ok
    assert any("hash" in m for m in msgs)


SMALL_DISTORTION = {
    "scenario": "distortion",
    "seed": 4,
    "grid_size": 2048,
    "samples": 10_000,
    "n_walks": 8,
    "horizon_real": 40,
    "horizon_complex": 20,
    "kappa": 0.5,
    "lyapunov_steps": 500,
    "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
    "mu": {"atoms": [["a", 0.25], ["a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]],
           "symmetric": True},
}


def test_worker_count_does_not_change_bytes(tmp_path):
    # runs are serial and --workers is ignored; the bytes must not
    # depend on the value passed
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert run_experiment(dict(SMALL_DISTORTION), workers=1, out_dir=out1) == 0
    assert run_experiment(dict(SMALL_DISTORTION), workers=8, out_dir=out8) == 0
    for name in ("report.json", "constants.csv"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes()


def test_collapsed_decay_fails_the_decay_invariant(tmp_path, monkeypatch):
    import circlelab.experiments as experiments

    scan = experiments.interval_mass_decay

    def collapsed(*args, **kwargs):
        rep = scan(*args, **kwargs)
        rep.log_values[-1] = np.log(2.0016e-286)
        return rep

    monkeypatch.setattr(experiments, "interval_mass_decay", collapsed)
    assert run_experiment(dict(SMALL_DISTORTION), out_dir=tmp_path) == 2
    invs = json.loads((tmp_path / "report.json").read_text())["invariants"]
    decay = next(i for i in invs if i["name"] == "mass_decay_positive")
    assert not decay["ok"] and decay["detail"]["positive"] == 0
    assert decay["detail"]["min_log_c1"] == np.log(2.0016e-286) < decay["detail"]["log_c1_floor"]


@pytest.mark.parametrize("name", ["rotations", "schottky", "lifted-2", "lifted-3", "sanov", "dense"])
def test_bundled_configs_pass_their_scenarios(tmp_path, name):
    assert run_experiment(builtin_config(name), out_dir=tmp_path / name) == 0


def test_full_theorem_suite_scenario(tmp_path, monkeypatch):
    import circlelab.experiments as experiments

    methods = []
    estimate = experiments.estimate_stationary_measure

    def recording(mu, method="transfer_iteration", grid_size=8192, **kw):
        methods.append((method, grid_size))
        return estimate(mu, method, grid_size, **kw)

    monkeypatch.setattr(experiments, "estimate_stationary_measure", recording)
    cfg = {
        "scenario": "full-theorem-suite", "seed": 7, "grid_size": 1024,
        "samples": 10_000, "n_max": 8, "method": "both",
        "mc_samples": 20_000, "mc_steps": 150, "n_walks": 4,
        "horizon_real": 40, "horizon_complex": 20, "lyapunov_steps": 500,
        "trajectories": 16, "integral_samples": 10_000, "n_steps": 1000,
        "q_max": 2, "epsilon": 0.01, "word_length_cap": 20,
        "probe_horizon": 15, "probe_trials": 2,
        "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
        "mu": {"atoms": [["a", 0.25], ["a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]],
               "symmetric": True},
    }
    assert run_experiment(cfg, out_dir=tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    for part in ("stationary", "lyapunov", "entropy-gap", "boundary", "distortion", "schwarzian"):
        assert part in data["results"]
    assert (tmp_path / "out" / "convolution.csv").exists()
    assert (tmp_path / "out" / "walk_0.csv").exists()
    # five parts read the transfer-iteration nu on the same grid: one estimate
    assert sorted(methods) == [("monte_carlo", 1024), ("transfer_iteration", 1024)]


def test_a_shared_transfer_measure_is_checked_against_each_tol():
    from circlelab.experiments import _transfer_measure
    from circlelab.measure import StationarityError

    mu = build_step_distribution(builtin_config("sanov"))
    measures = {}
    nu = _transfer_measure(measures, mu, 256)
    assert _transfer_measure(measures, mu, 256, tol=1.0) is nu
    with pytest.raises(StationarityError, match="exceeds tol 0.0e"):
        _transfer_measure(measures, mu, 256, tol=0.0)
    assert _transfer_measure(measures, mu, 512) is not nu


def test_same_seed_same_bytes(tmp_path):
    cfg = builtin_config("rotations")
    cfg["mc_samples"] = 30_000
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(dict(cfg), out_dir=a)
    run_experiment(dict(cfg), out_dir=b)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "nu_cdf.csv").read_bytes() == (b / "nu_cdf.csv").read_bytes()


FREE_PAIR = {
    "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
    "mu": {"atoms": [["a", 0.25], ["a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]],
           "symmetric": True},
}


def test_distortion_integer_h_hint_is_used(tmp_path):
    cfg = {"scenario": "distortion", "seed": 7, "grid_size": 1024, "samples": 5_000,
           "lyapunov_steps": 300, "n_walks": 2, "horizon_real": 30, "horizon_complex": 15,
           "h_hint": 1, **FREE_PAIR}
    assert run_experiment(cfg, out_dir=tmp_path / "out") == 0
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    h_nu = results["boundary_entropy"]["value"]
    assert results["epsilon"] == (1.0 - h_nu) / 2.0


@pytest.mark.parametrize("value", ["0.5", True, None])
def test_distortion_non_numeric_h_hint_exit3(tmp_path, capsys, value):
    cfg = {"scenario": "distortion", "h_hint": value, **FREE_PAIR}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
    assert "h_hint" in capsys.readouterr().err


def test_boundary_without_grid_size_uses_the_measure_grid(tmp_path, monkeypatch):
    from circlelab import experiments

    measures = []
    estimate = experiments.estimate_stationary_measure

    def recording(*args, **kwargs):
        measures.append(estimate(*args, **kwargs))
        return measures[-1]

    monkeypatch.setattr(experiments, "estimate_stationary_measure", recording)
    cfg = builtin_config("lifted-2")
    del cfg["grid_size"]
    cfg.update(samples=5_000, probe_horizon=3, probe_trials=1)
    assert run_experiment(cfg, out_dir=tmp_path / "out") == 0
    # nu and the projected base measure are both built on the default grid
    assert [nu.N for nu in measures] == [8192, 8192]
    invs = json.loads((tmp_path / "out" / "report.json").read_text())["invariants"]
    bound = next(i for i in invs if i["name"] == "equivariance_defect")["detail"]["bound"]
    assert bound == 5.0 / 8192 + 2.0 * measures[0].max_cell_mass


def _run_exit_code(tmp_path, cfg):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    return main(["run", str(p), "--out", str(tmp_path / "out")])


def test_distortion_with_a_conjugator_exit3(tmp_path, capsys):
    cfg = {"scenario": "distortion", **FREE_PAIR,
           "generators": {"a": {"matrix": [[1, 2], [0, 1]], "conjugator": [[0.01, 0.0]]},
                          "b": {"matrix": [[1, 0], [2, 1]]}}}
    assert _run_exit_code(tmp_path, cfg) == 3
    assert "generators.a.conjugator" in capsys.readouterr().err


def test_near_identity_on_a_lifted_family_exit3(tmp_path, capsys):
    cfg = {"scenario": "near-identity", "l_generator": "a", "lift": {"degree": 2}, **FREE_PAIR}
    assert _run_exit_code(tmp_path, cfg) == 3
    assert "lift" in capsys.readouterr().err


@pytest.mark.parametrize("row", [["rotation:0.1"], ["rotation:0.1", "heavy"], ["rotation:x", 1.0]])
def test_malformed_extra_atoms_row_is_a_config_error(tmp_path, capsys, row):
    from circlelab.configs import build_projected_base

    cfg = builtin_config("lifted-3")
    cfg["extra_atoms"] = [["rotation:0.2", 1.0], row]
    for build in (build_step_distribution, build_projected_base):
        with pytest.raises(ConfigError, match="extra_atoms"):
            build(cfg)
    assert _run_exit_code(tmp_path, cfg) == 3
    assert "extra_atoms" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, key, value", [
    ("stationary", "method", "montecarlo"),
    ("lyapunov", "method", "transfer_iter"),
    ("boundary", "method", "MC"),
    ("near-identity", "expectation", "discret"),
])
def test_unknown_method_or_expectation_exit3(tmp_path, capsys, scenario, key, value):
    cfg = {**builtin_config("dense"), "scenario": scenario, key: value, "grid_size": 256,
           "samples": 2_000, "n_steps": 50, "trajectories": 4, "integral_samples": 1_000,
           "m_min": 5, "m_max": 5, "search_seeds": 1, "probe_horizon": 2, "probe_trials": 1}
    assert _run_exit_code(tmp_path, cfg) == 3
    assert f"'{key}'" in capsys.readouterr().err


def test_shared_measure_reads_mc_samples(tmp_path, monkeypatch):
    from circlelab import experiments

    measures = []
    estimate = experiments.estimate_stationary_measure

    def recording(*args, **kwargs):
        measures.append(estimate(*args, **kwargs))
        return measures[-1]

    monkeypatch.setattr(experiments, "estimate_stationary_measure", recording)
    cfg = builtin_config("schottky")
    cfg.update(mc_samples=3_000, samples=7_000, mc_steps=20, word_length_cap=10,
               probe_horizon=2, probe_trials=1)
    run_experiment(cfg, out_dir=tmp_path / "out")
    # `samples` counts estimator samples; the Monte Carlo nu takes `mc_samples`
    assert [(nu.info.method, nu.info.samples) for nu in measures] == [("monte_carlo", 3_000)]


@pytest.mark.parametrize("key, value", [
    ("l_generator", "q"),                # not a generator
    ("l_word", "l.q^-1"),                # a word with an unknown generator
    ("l_generator", "c"),                # a conjugated generator
    ("l_generator", "r"),                # a rotation, not hyperbolic
    ("l_generator", 3),                  # not a word
])
def test_near_identity_bad_l_is_a_config_error(tmp_path, capsys, key, value):
    cfg = builtin_config("dense")
    del cfg["l_generator"]
    cfg["generators"]["c"] = {"matrix": [[2, 0], [0, 0.5]], "conjugator": [[0.01, 0.0]]}
    cfg.update({key: value, "grid_size": 256, "m_min": 5, "m_max": 5, "search_seeds": 1,
                "samples": 256})
    assert _run_exit_code(tmp_path, cfg) == 3
    assert key in capsys.readouterr().err


def test_near_identity_l_word_resolves_to_the_generator_product():
    from circlelab.configs import build_generators, build_l_generator

    cfg = builtin_config("dense")
    l_gen = build_generators(cfg)["l"]
    assert np.array_equal(build_l_generator(cfg).matrix, l_gen.matrix)
    del cfg["l_generator"]
    cfg["l_word"] = "l.l"
    assert np.allclose(build_l_generator(cfg).matrix, l_gen.matrix @ l_gen.matrix, atol=1e-15)
