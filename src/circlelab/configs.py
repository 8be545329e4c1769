"""Config schema, config parsing and the bundled examples.

A config is a JSON object.  Every scenario takes the common keys

    scenario     one of: stationary, lyapunov, entropy-gap, boundary,
                 distortion, near-identity, schwarzian, full-theorem-suite
    seed         master seed (overridable on the command line)
    description  free text
    generators   name -> {"matrix": [[a,b],[c,d]], "conjugator": [[cos,sin],...]?}
                 or name -> {"rotation": theta}
    mu           {"atoms": [[word, weight], ...], "symmetric": bool}
                 where word is dot-separated generator names, each
                 optionally suffixed ^-1 (e.g. "a.b^-1")
    lift         optional {"degree": k}: lift the family to the k-fold cover
    extra_atoms  optional [[word, weight], ...] rows added after the lift;
                 a word "rotation:theta" is a rotation of the cover

and the keys of its row of `SCHEMA`, each with a type and a default
(README's "Config schema" lists them).  `parse_config` checks a config
against the table before any estimate runs: a key the scenario does not
read, or a value of the wrong type, is a `ConfigError` naming the key.
full-theorem-suite takes the keys of its six parts (`SUITE_PARTS`), each
part with its own defaults.  The shapes of generators, atom rows and
`l_generator`/`l_word` words are checked by the builders that read them.

The bundled examples cover the standard situations: a discrete free
integer pair ("sanov"), a strongly contracting hyperbolic Schottky pair
with a Cantor limit set ("schottky"), a non-discrete weak-hyperbolic
plus irrational-rotation group ("dense"), an isometric control
("rotations"), and finite covers of the free pair ("lifted-2",
"lifted-3").
"""

from __future__ import annotations

from dataclasses import dataclass

from .circle import wrap
from .maps import LiftedMap, MobiusMap, Word, make_generator, rotation
from .walk import StepDistribution, make_step_distribution

ROOT2M1 = 0.41421356237309515    # sqrt(2) - 1, the rotation number used by "dense"


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing key '{key}' in {where}")
    return cfg[key]


# ---------------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------------

ARCS = "arcs"    # the kind of a list of [left, length] rows


@dataclass(frozen=True)
class Bounded:
    """The kind of a number with a lower limit, >= low or > low when
    strict, and an upper one, <= high or < high when strict_high."""

    kind: type
    low: float
    strict: bool = False
    high: float = float("inf")
    strict_high: bool = False


# key -> (kind, default).  A kind is int, float, bool or str; a Bounded
# int or float; a tuple of the allowed values; ARCS; the table of an
# object's own keys ("*" for any name); or None for a value whose shape
# its builder checks.  A default of None marks an optional key without a
# default.  Walk sizes are >= 1 (`integral_samples` >= 2, for its stderr).
KEYS = {
    "seed": (int, 0),
    "description": (str, None),
    "generators": ({"*": {"matrix": None, "conjugator": None, "rotation": float}}, None),
    "mu": ({"atoms": None, "symmetric": bool}, None),
    "lift": ({"degree": int}, None),
    "extra_atoms": (None, None),
    "method": (("transfer_iteration", "monte_carlo", "both"), "transfer_iteration"),
    "grid_size": (Bounded(int, 256), 8192),
    "mc_samples": (Bounded(int, 1), 200_000),
    "mc_steps": (Bounded(int, 1), 300),
    "tol": (float, 1e-3),
    "n_steps": (Bounded(int, 1), 10_000),
    "trajectories": (Bounded(int, 1), 100),
    "n_seeds": (Bounded(int, 1), 1),
    "integral_samples": (Bounded(int, 2), 100_000),
    "n_max": (Bounded(int, 1), 12),
    "quantized": (bool, False),
    "delta_cells": (Bounded(int, 2), 8),
    "samples": (Bounded(int, 2), 50_000),
    "epsilon": (Bounded(float, 0.0, strict=True), 1e-4),
    "word_length_cap": (int, 40),
    "gap_mass_tolerance": (Bounded(float, 0.0, strict=True, high=1.0, strict_high=True), 1e-3),
    "q_max": (Bounded(int, 1), 4),
    "probe_horizon": (Bounded(int, 1), 50),
    "probe_trials": (Bounded(int, 1), 10),
    "h_hint": (float, None),
    "lyapunov_steps": (Bounded(int, 1), 5000),
    "kappa": (Bounded(float, 0.0, strict=True), 0.5),
    "tau": (Bounded(float, 0.0, strict=True, high=1.0), 1.0),
    "x": (float, 0.3),
    "n_walks": (Bounded(int, 1), 100),
    "horizon_real": (Bounded(int, 1), 200),
    "horizon_complex": (Bounded(int, 1), 100),
    "expectation": (("dense", "discrete"), "dense"),
    "l_generator": (str, None),
    "l_word": (str, None),
    "m_min": (int, 5),
    "m_max": (int, 20),
    "eta": (float, 0.02),
    "search_seeds": (Bounded(int, 1), 11),
    "h_nu_hint": (float, 0.05),
    "length_factor": (float, 2.0),
    "discreteness_floor": (float, 1e-3),
    "brute_force_length": (int, 0),
    "limit_arcs": (ARCS, ((0.1024, 0.1476), (0.25, 0.1476), (0.6024, 0.1476), (0.75, 0.1476))),
    "omega": (float, 0.3),
    "step": (float, 1e-3),
    "family_size": (int, 10),
}
COMMON = ("seed", "description", "generators", "mu", "lift", "extra_atoms")
ORDERED = (("m_min", "m_max"), ("horizon_complex", "horizon_real"))   # low <= high when read


def _keys(*names, **defaults) -> dict:
    """The common keys and the named ones, with the scenario's own defaults."""
    table = {key: KEYS[key] for key in (*COMMON, *names, *defaults)}
    table.update({key: (KEYS[key][0], value) for key, value in defaults.items()})
    return table


_MEASURE = ("method", "grid_size", "mc_samples", "mc_steps")    # nu, by `method`

# scenario -> key -> (kind, default): the keys each scenario reads
SCHEMA = {
    "stationary": _keys(*_MEASURE, "tol"),
    "lyapunov": _keys(*_MEASURE, "n_steps", "trajectories", "n_seeds", "integral_samples"),
    "entropy-gap": _keys("grid_size", "n_max", "quantized", "delta_cells", samples=100_000),
    "boundary": _keys(*_MEASURE, "epsilon", "word_length_cap", "gap_mass_tolerance", "q_max",
                      "samples", "probe_horizon", "probe_trials"),
    "distortion": _keys("h_hint", "grid_size", "lyapunov_steps", "samples", "kappa", "tau", "x",
                        "n_walks", "horizon_real", "horizon_complex"),
    "near-identity": _keys("expectation", "l_generator", "l_word", "m_min", "m_max", "eta",
                           "search_seeds", "h_nu_hint", "length_factor", "discreteness_floor",
                           "brute_force_length", "limit_arcs", grid_size=2048, samples=16_384),
    "schwarzian": _keys("omega", "step", "family_size"),
}
SUITE = "full-theorem-suite"
SUITE_PARTS = ("stationary", "lyapunov", "entropy-gap", "boundary", "distortion", "schwarzian")

_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _value(key: str, kind, value):
    """value checked against kind and converted; a ConfigError naming key
    otherwise.  An int takes integral floats, and no kind but bool takes a
    bool."""
    if kind is None:
        return value
    if isinstance(kind, Bounded):
        value = _value(key, kind.kind, value)
        if not (value > kind.low if kind.strict else value >= kind.low):   # NaN too
            raise ConfigError(f"'{key}' must be {'>' if kind.strict else '>='} {kind.low}, got {value!r}")
        if not (value < kind.high if kind.strict_high else value <= kind.high):
            raise ConfigError(f"'{key}' must be {'<' if kind.strict_high else '<='} {kind.high}, got {value!r}")
        return value
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"'{key}' must be an object, got {value!r}")
        if "*" not in kind:
            unknown = [k for k in value if k not in kind]
            if unknown:
                raise ConfigError(f"unknown key '{key}.{unknown[0]}'; {key} takes {', '.join(kind)}")
        return {k: _value(f"{key}.{k}", kind.get(k, kind.get("*")), v) for k, v in value.items()}
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ConfigError(f"'{key}' must be one of {', '.join(kind)}, got {value!r}")
    if kind is ARCS:
        if isinstance(value, (list, tuple)) and all(
                isinstance(row, (list, tuple)) and len(row) == 2 and all(map(_is_number, row))
                for row in value):
            return tuple((float(left), float(length)) for left, length in value)
        raise ConfigError(f"'{key}' must be a list of [left, length] rows, got {value!r}")
    if kind is bool and isinstance(value, bool) or kind is str and isinstance(value, str):
        return value
    if kind is float and _is_number(value):
        return float(value)
    if kind is int and _is_number(value) and (isinstance(value, int) or value.is_integer()):
        return int(value)
    raise ConfigError(f"'{key}' must be {_KIND_NAMES[kind]}, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _values(cfg: dict, table: dict) -> dict:
    values = {key: _value(key, kind, cfg[key]) if key in cfg else default
              for key, (kind, default) in table.items()}
    for low, high in ORDERED:
        if low in values and high in values and values[low] > values[high]:
            raise ConfigError(f"'{low}' must be <= '{high}' = {values[high]!r}, got {values[low]!r}")
    return values


def parse_config(cfg) -> dict:
    """cfg's values, checked against its scenario's row of SCHEMA, with the
    defaults of the keys it leaves out.

    The declared keys are checked first, then a key the scenario does not
    read is a ConfigError naming it.  A full-theorem-suite config's values
    are the common keys plus one entry per part: the part's name mapped to
    the part's own values.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("a config must be a JSON object")
    scenario = cfg.get("scenario")
    if scenario != SUITE and not (isinstance(scenario, str) and scenario in SCHEMA):
        raise ConfigError(f"unknown scenario {scenario!r}; choose one of {sorted([*SCHEMA, SUITE])}")
    parts = SUITE_PARTS if scenario == SUITE else (scenario,)
    values = {part: _values(cfg, SCHEMA[part]) for part in parts}
    declared = {"scenario"}.union(*(SCHEMA[part] for part in parts))
    unknown = [key for key in cfg if key not in declared]
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' for scenario {scenario}")
    if scenario != SUITE:
        return values[scenario]
    return {**_values(cfg, _keys()), **values}


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
        th = float(wrap(k * _rotation_angle(word)))
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
