"""ASCII OBJ export with optional JSON sidecars for per-node scalar fields."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_obj(path, vertices: np.ndarray, faces: np.ndarray) -> None:
    """Write v/f records with 1-based indices."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for v in np.asarray(vertices, dtype=np.float64):
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in np.asarray(faces, dtype=np.int64):
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def write_obj_with_fields(path, vertices, faces, fields: dict[str, np.ndarray]) -> None:
    """OBJ plus a sidecar ``<path>.json`` mapping field names to row-major values."""
    write_obj(path, vertices, faces)
    sidecar = Path(path).with_suffix(Path(path).suffix + ".json")
    payload = {
        name: [float(x) for x in np.asarray(vals).reshape(-1)]
        for name, vals in fields.items()
    }
    sidecar.write_text(json.dumps(payload), encoding="utf-8")

