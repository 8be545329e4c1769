"""Bundled example configurations and config parsing.

A config is a JSON object with the keys

    scenario    one of: stationary, lyapunov, entropy-gap, boundary,
                distortion, near-identity, schwarzian, full-theorem-suite
    seed        master seed (overridable on the command line)
    generators  name -> {"matrix": [[a,b],[c,d]], "conjugator": [[cos,sin],...]?}
    mu          {"atoms": [[word, weight], ...], "symmetric": bool}
                where word is dot-separated generator names, each
                optionally suffixed ^-1 (e.g. "a.b^-1")
    lift        optional {"degree": k}: lift the family to the k-fold cover
    grid_size, samples, and per-scenario parameters

The bundled examples cover the standard situations: a discrete free
integer pair ("sanov"), a strongly contracting hyperbolic Schottky pair
with a Cantor limit set ("schottky"), a non-discrete weak-hyperbolic
plus irrational-rotation group ("dense"), an isometric control
("rotations"), and finite covers of the free pair ("lifted-2",
"lifted-3").
"""

from __future__ import annotations

from .maps import LiftedMap, MobiusMap, Word, make_generator, rotation
from .walk import StepDistribution, make_step_distribution

ROOT2M1 = 0.41421356237309515    # sqrt(2) - 1, the rotation number used by "dense"


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing key '{key}' in {where}")
    return cfg[key]


def build_generators(cfg: dict) -> dict:
    gens = {}
    spec = _require(cfg, "generators")
    if not isinstance(spec, dict) or not spec:
        raise ConfigError("'generators' must be a non-empty object")
    for name, g in spec.items():
        if "rotation" in g:
            gens[name] = rotation(float(g["rotation"]))
            continue
        matrix = _require(g, "matrix", f"generators.{name}")
        try:
            gens[name] = make_generator(matrix, g.get("conjugator"))
        except ValueError as exc:
            raise ConfigError(f"generators.{name}: {exc}") from exc
    return gens


def _parse_word(token: str, gens: dict, where: str = "atom"):
    maps = []
    for part in token.split("."):
        inv = part.endswith("^-1")
        name = part[:-3] if inv else part
        if name not in gens:
            raise ConfigError(f"unknown generator '{name}' in {where} word '{token}'")
        g = gens[name]
        maps.append(g.inverse() if inv else g)
    return maps[0] if len(maps) == 1 else Word(tuple(maps))


def build_l_generator(cfg: dict) -> MobiusMap:
    """The hyperbolic Mobius l of a near-identity config: `l_generator`
    names a generator (a one-token word), `l_word` is any word."""
    key = "l_generator" if "l_generator" in cfg else "l_word"
    if key not in cfg:
        raise ConfigError("missing key 'l_generator' (or 'l_word') in near-identity config")
    token = cfg[key]
    if not isinstance(token, str):
        raise ConfigError(f"'{key}' must be a word of generator names, got {token!r}")
    l_gen = _parse_word(token, build_generators(cfg), f"'{key}'")
    l_gen = l_gen.as_mobius() if isinstance(l_gen, Word) else l_gen
    if not isinstance(l_gen, MobiusMap) or l_gen.classify() != "hyperbolic":
        raise ConfigError(f"{key}: l must be a hyperbolic pure Mobius map, got {token!r}")
    return l_gen


def _weighted_rows(spec, key: str):
    """The checked [word, weight] rows of the config list `key`."""
    if not isinstance(spec, list):
        raise ConfigError(f"'{key}' must be a list of [word, weight] rows")
    for row in spec:
        if not (isinstance(row, (list, tuple)) and len(row) == 2 and isinstance(row[0], str)):
            raise ConfigError(f"each {key} entry must be [word, weight], got {row!r}")
        try:
            weight = float(row[1])
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: weight of '{row[0]}' must be a number, got {row[1]!r}") from None
        yield row[0], weight


def _rotation_angle(word: str) -> float:
    try:
        return float(word[len("rotation:"):])
    except ValueError:
        raise ConfigError(f"extra_atoms: bad rotation angle in '{word}'") from None


def _mu_atoms(cfg: dict, gens: dict):
    """Atoms, weights and words of the mu.atoms rows."""
    rows = list(_weighted_rows(_require(_require(cfg, "mu"), "atoms", "mu"), "mu.atoms"))
    return [_parse_word(w, gens) for w, _ in rows], [p for _, p in rows], [w for w, _ in rows]


def build_step_distribution(cfg: dict) -> StepDistribution:
    gens = build_generators(cfg)
    atoms, probs, names = _mu_atoms(cfg, gens)
    lift = cfg.get("lift")
    if lift:
        k = int(_require(lift, "degree", "lift"))
        lifted = []
        for a, name in zip(atoms, names):
            if name.endswith("^-1"):
                # keep the support inverse-closed on the cover: pair each
                # lifted generator with its actual inverse sheet
                base_name = name[:-3]
                if base_name not in names:
                    raise ConfigError(f"lifted atom '{name}' needs '{base_name}' in the support")
                lifted.append(LiftedMap(atoms[names.index(base_name)], k, 0).inverse())
            else:
                lifted.append(LiftedMap(a, k, 0))
        atoms = lifted
    for word, weight in _weighted_rows(cfg.get("extra_atoms", []), "extra_atoms"):
        if word.startswith("rotation:"):
            atoms.append(rotation(_rotation_angle(word)))
        else:
            atoms.append(_parse_word(word, gens))
        probs.append(weight)
        names.append(word)
    try:
        return make_step_distribution(atoms, probs,
                                      symmetric=bool(cfg["mu"].get("symmetric", False)),
                                      names=names)
    except ValueError as exc:
        raise ConfigError(f"mu: {exc}") from exc


# ---------------------------------------------------------------------------
# bundled examples
# ---------------------------------------------------------------------------

BUILTIN_CONFIGS = {
    "sanov": {
        "description": "discrete free integer pair (entropy-gap reproduction)",
        "scenario": "entropy-gap",
        "seed": 7,
        "grid_size": 8192,
        "samples": 100_000,
        "n_max": 14,
        "delta_cells": 8,
        "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
        "mu": {"atoms": [["a", 0.25], ["a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]],
               "symmetric": True},
    },
    "schottky": {
        "description": "hyperbolic Schottky pair with a Cantor limit set (boundary structure)",
        "scenario": "boundary",
        "seed": 9,
        "grid_size": 4096,
        "mc_samples": 200_000,
        "method": "monte_carlo",
        "mc_steps": 150,
        "epsilon": 1e-4,
        "word_length_cap": 40,
        "q_max": 4,
        "generators": {
            "s": {"matrix": [[0.2, 0.0], [0.0, 5.0]]},
            "t": {"matrix": [[2.6, 2.4], [2.4, 2.6]]},
        },
        "mu": {"atoms": [["s", 0.25], ["s^-1", 0.25], ["t", 0.25], ["t^-1", 0.25]],
               "symmetric": True},
    },
    "dense": {
        "description": "weak hyperbolic plus irrational rotation (near-identity search)",
        "scenario": "near-identity",
        "seed": 11,
        "grid_size": 2048,
        "samples": 16_384,
        "eta": 0.02,
        "m_min": 5,
        "m_max": 20,
        "length_factor": 2.0,
        "search_seeds": 11,
        "l_generator": "l",
        "generators": {
            "l": {"matrix": [[0.9219544457292887, 0.0], [0.0, 1.0846522890932808]]},
            "r": {"rotation": ROOT2M1},
        },
        "mu": {"atoms": [["l", 0.3], ["l^-1", 0.3], ["r", 0.2], ["r^-1", 0.2]],
               "symmetric": True},
    },
    "rotations": {
        "description": "isometric control group (Lebesgue stationary measure)",
        "scenario": "stationary",
        "seed": 3,
        "grid_size": 8192,
        "method": "both",
        "mc_samples": 300_000,
        "mc_steps": 65_536,
        "tol": 1e-3,
        "generators": {"r": {"rotation": 0.6180339887498949}},
        "mu": {"atoms": [["r", 0.5], ["r^-1", 0.5]], "symmetric": True},
    },
    "lifted-2": {
        "description": "double cover of the free pair (finite quotient degree 2)",
        "scenario": "boundary",
        "seed": 5,
        "grid_size": 4096,
        "samples": 50_000,
        "q_max": 4,
        "epsilon": 1e-3,
        "word_length_cap": 30,
        "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
        "mu": {"atoms": [["a", 0.25], ["a^-1", 0.25], ["b", 0.25], ["b^-1", 0.25]],
               "symmetric": True},
        "lift": {"degree": 2},
    },
    "lifted-3": {
        "description": "triple cover plus 1/3 rotation (finite quotient degree 3)",
        "scenario": "boundary",
        "seed": 5,
        "grid_size": 4096,
        "samples": 50_000,
        "q_max": 5,
        "epsilon": 1e-3,
        "word_length_cap": 30,
        "generators": {"a": {"matrix": [[1, 2], [0, 1]]}, "b": {"matrix": [[1, 0], [2, 1]]}},
        "mu": {"atoms": [["a", 1.0], ["a^-1", 1.0], ["b", 1.0], ["b^-1", 1.0]],
               "symmetric": True},
        "lift": {"degree": 3},
        "extra_atoms": [["rotation:0.3333333333333333", 1.0],
                        ["rotation:-0.3333333333333333", 1.0]],
    },
}


def build_projected_base(cfg: dict) -> StepDistribution:
    """The quotient projection of a lifted config's walk.

    Lifted atoms project to the base maps they lift; an extra rotation
    atom by theta on the k-cover projects to rotation by k*theta (deck
    rotations project to the identity).  Weights are unchanged, so this
    is the walk the quotient action actually performs.
    """
    lift = _require(cfg, "lift")
    k = int(_require(lift, "degree", "lift"))
    atoms, probs, names = _mu_atoms(cfg, build_generators(cfg))
    for word, weight in _weighted_rows(cfg.get("extra_atoms", []), "extra_atoms"):
        if not word.startswith("rotation:"):
            raise ConfigError("extra_atoms in lifted configs must be rotations")
        th = (k * _rotation_angle(word)) % 1.0
        atoms.append(rotation(th))
        probs.append(weight)
        names.append(f"rotation:{th}")
    return make_step_distribution(atoms, probs,
                                  symmetric=bool(cfg["mu"].get("symmetric", False)),
                                  names=names)


def builtin_config(name: str) -> dict:
    if name not in BUILTIN_CONFIGS:
        raise ConfigError(f"unknown builtin config '{name}'")
    import copy

    return copy.deepcopy(BUILTIN_CONFIGS[name])


def catalog() -> list:
    return [(name, cfg["scenario"], cfg["description"]) for name, cfg in BUILTIN_CONFIGS.items()]
