"""Record the reference eigenvalues the output checks compare against.

Run from the repository root on the commit whose values are the reference:

    python3 perfbench/record_reference.py

It rewrites perfbench/reference.json with, for the full and smoke grids, the
Dirichlet eigenvalues of the three bounds configurations and the Morse
indices and eigenvalues of the branched workload's exhaustion.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import anisolab.harness as hn  # noqa: E402
import anisolab.integrand as ig  # noqa: E402
import anisolab.spectrum as spc  # noqa: E402
import workloads as wl  # noqa: E402


def record(size: str) -> dict:
    grids = wl.GRIDS[size]
    bounds = {}
    for name, cfg in wl.bounds_configs(wl.DEFAULT_SEED, grids["bounds"]).items():
        bounds[name] = hn.verify_bounds(cfg)["spectral"]["eigenvalues"]
    rep = spc.morse_index_exhaustion(
        wl.enneper_chart(2, grids["spectrum"]), ig.parse_integrand("const:1"),
        [(-s, s, -s, s) for s in (0.6, 0.9, 1.0)],
    )
    branched = {"spectrum-k2": {
        "morse_index": rep.morse_index,
        "eigenvalues": [v.tolist() for v in rep.eigenvalues],
    }}
    return {"bounds": bounds, "branched": branched}


if __name__ == "__main__":
    out = {size: record(size) for size in ("full", "smoke")}
    wl.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE}")
