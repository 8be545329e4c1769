"""Deterministic report emission and re-verification.

Reports are JSON with sorted keys and canonical float repr, so a fixed
(config, seed) pair produces byte-identical files.  Every report embeds its config and the
config's SHA-256, plus a list of invariant records that `verify` can
re-check without recomputing the experiment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np


def _sanitize(obj):
    """Convert numpy scalars/arrays and non-finite floats to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def invariant(name: str, ok, **detail) -> dict:
    return {"name": name, "ok": bool(ok), "detail": _sanitize(detail)}


def write_report(out_dir, report: dict) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(canonical_json(report) + "\n")
    return path


def write_csv(out_dir, name: str, header, rows) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])
    return path


def write_walk_csv(out_dir, name: str, walk) -> Path:
    """Walk dump: one row per step, columns (step, atom_index)."""
    return write_csv(out_dir, name, ["step", "atom_index"],
                     [(i + 1, int(s)) for i, s in enumerate(walk.steps)])


def write_convolution_csv(out_dir, name: str, table, atom_names, limit: int = 1000) -> Path:
    """Convolution dump: rows (reduced_word, mass), heaviest first."""
    return write_csv(out_dir, name, ["reduced_word", "mass"],
                     table.word_strings(atom_names, limit))


def verify_report(path) -> tuple:
    """Re-check a report's embedded hash and invariant records.

    Returns (ok, messages).  This validates internal consistency, not
    the experiment itself; rerun the config to regenerate from scratch.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    messages = []
    ok = True
    cfg = data.get("config")
    if cfg is None:
        return False, ["report carries no embedded config"]
    expect = data.get("config_hash")
    actual = config_hash(cfg)
    if expect != actual:
        ok = False
        messages.append(f"config hash mismatch: embedded {expect}, recomputed {actual}")
    for inv in data.get("invariants", []):
        if not inv.get("ok", False):
            ok = False
            messages.append(f"invariant failed: {inv.get('name')} {inv.get('detail', '')}")
    if ok:
        messages.append(f"report verified: {len(data.get('invariants', []))} invariants, hash {actual[:12]}..")
    return ok, messages
