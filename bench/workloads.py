"""Scenario documents of the benchmark workloads, built from a seed.

Each workload function returns a scenario document for
``chernlab.scenario.run_scenario`` together with the expected outcome of every
task, which ``checks.py`` compares against the report.  The same seed always
gives the same document.

* ``demo`` is ``scenarios/demo.json`` as shipped; the seed goes to
  ``run_scenario(..., seed=)``.  It reaches every layer; about half of its
  time is the RBC/SBC frame search in ``cones``/``tensors``.  Its tasks
  are checked against closed forms, so a changed demo.json is refused.
* ``schwarz_grid`` runs n = 2 Schwarz verifiers on seeded grids with no
  frame search at all: the time goes to metric and map evaluator calls and
  the nested finite-difference Laplacians.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_POLYDISK_EXPR = "g[1][1] = 1/(1-abs2(z1))^2\ng[2][2] = 1/(1-abs2(z2))^2"

# Chern-Lu for the identity polydisk(1,1) -> 3*polydisk(1,1): Ric2 = -2 omega
# and the target RBC is -2/3, so C1 = 2, C2 = 0 and any kappa <= 2/3 hold.
# kappa = 1/2 keeps every margin at 1/2 so no verdict rests on FD noise.
_CHERN_LU_CONSTANTS = {"c1": 2.0, "c2": 0.0, "kappa": 0.5}

# grids of 2^4 = 16 points keep one schwarz_grid call near three seconds
_GRID_PER_AXIS = 2
_GRID_HALF = 0.3


def _pair(z):
    return [round(float(z.real), 6), round(float(z.imag), 6)]


# Closed forms of the tasks of scenarios/demo.json, in task order, each with
# the task fields it rests on.  fubini_study(2) and the Poincare disk are
# Kaehler with holomorphic sectional curvature c = 2 and -2: every Ricci trace
# is c (n+1)/2 g, scal = c n (n+1)/2, and for c > 0 RBC lies in
# [c, c (n+1)/2]; complex_hyperbolic (c = -2) has SBC unbounded below.  The
# hopf(2) chart metric g = I/|z|^2 is not Kaehler, has Ric^(2) = (n-1) g and
# scal = n (n-1).  The identity into 3*disk has energy 3, into disk 1.
_I2 = np.eye(2)
_DISK_G = 1.0 / (1.0 - abs(0.2 + 0.1j) ** 2) ** 2
_DEMO_EXPECTED = [
    ({"kind": "curvature", "metric": "fs", "point": [[0.0, 0.0], [0.0, 0.0]]},
     {"check": "curvature", "kahler_symmetric": True, "scal": 6.0, "scal_tilde": 6.0,
      "ricci": {"ric1": 3 * _I2, "ric2": 3 * _I2, "ric3": 3 * _I2}}),
    ({"kind": "curvature", "metric": "hopf", "point": [[1.0, 0.0], [0.5, 0.0]]},
     {"check": "curvature", "kahler_symmetric": False, "scal": 2.0,
      "ricci": {"ric2": _I2 / 1.25}}),
    ({"kind": "curvature", "metric": "disk_expr", "point": [[0.2, 0.1]]},
     {"check": "curvature", "kahler_symmetric": True, "scal": -2.0, "scal_tilde": -2.0,
      "ricci": {f"ric{k}": np.array([[-2.0 * _DISK_G]]) for k in (1, 2, 3)}}),
    ({"kind": "rbc", "metric": "fs"}, {"check": "rbc", "range": (2.0, 3.0)}),
    ({"kind": "sbc", "metric": "hyp"}, {"check": "sbc", "status": "unbounded_below"}),
    ({"theorem": "chern_lu", "source": "disk", "target": "disk3"},
     {"check": "schwarz", "sup_energy": 3.0}),
    ({"theorem": "aubin_yau", "source": "disk", "target": "disk"},
     {"check": "schwarz", "sup_energy": 1.0}),
    ({"theorem": "trace_bound", "source": "disk", "target": "disk"},
     {"check": "schwarz", "sup_energy": 1.0}),
    ({"check": "fs-moment"}, {"check": "monte_carlo"}),
    ({"check": "theorem23"}, {"check": "passed"}),
    ({"check": "averaged-hsc", "metric": "fs"}, {"check": "monte_carlo"}),
]
_DEMO_METRICS = {
    "disk": {"catalog": "poincare_disk", "params": [1.0]},
    "disk3": {"catalog": "poincare_disk", "params": [1.0], "scale": 3.0},
    "fs": {"catalog": "fubini_study", "params": [2]},
    "hyp": {"catalog": "complex_hyperbolic", "params": [2]},
    "hopf": {"catalog": "hopf", "params": [2]},
    "disk_expr": {"expression": "1/(1-abs2(z1))^2", "dim": 1},
}


def demo(root, seed):
    doc = json.loads((Path(root) / "scenarios" / "demo.json").read_text(encoding="utf-8"))
    if doc["metrics"] != _DEMO_METRICS or len(doc["tasks"]) != len(_DEMO_EXPECTED) or any(
        any(task.get(key) != value for key, value in fields.items())
        for task, (fields, _) in zip(doc["tasks"], _DEMO_EXPECTED)
    ):
        raise ValueError("scenarios/demo.json differs from the document whose closed forms "
                         "bench/workloads.py holds")
    return doc, [expected for _, expected in _DEMO_EXPECTED]


def schwarz_grid(root, seed):
    rng = np.random.default_rng(seed)
    center = [_pair(complex(*rng.uniform(-0.25, 0.25, size=2))) for _ in range(2)]
    grid = {"center": center, "half": _GRID_HALF, "per_axis": _GRID_PER_AXIS}
    mobius = [_pair(complex(*rng.uniform(-0.3, 0.3, size=2))) for _ in range(2)]
    doc = {
        "version": 1,
        "seed": seed,
        "metrics": {
            "pd": {"catalog": "polydisk", "params": [1.0, 1.0]},
            "pd3": {"catalog": "polydisk", "params": [1.0, 1.0], "scale": 3.0},
            "pd_expr": {
                "expression": _POLYDISK_EXPR,
                "dim": 2,
                "domain": {"center": [0.0, 0.0], "radius": 1.0, "norm": "max"},
            },
        },
        "maps": {
            "id2": {"kind": "identity", "dim": 2},
            "m1": {"kind": "mobius", "a": mobius[0]},
            "m2": {"kind": "mobius", "a": mobius[1]},
            "mm": {"kind": "product", "factors": ["m1", "m2"]},
        },
        "tasks": [
            {"kind": "schwarz", "theorem": "chern_lu", "map": "id2", "source": "pd",
             "target": "pd3", "constants": dict(_CHERN_LU_CONSTANTS), "grid": grid},
            {"kind": "schwarz", "theorem": "chern_lu", "map": "id2", "source": "pd_expr",
             "target": "pd3", "constants": dict(_CHERN_LU_CONSTANTS), "grid": grid},
            {"kind": "schwarz", "theorem": "aubin_yau", "map": "mm", "source": "pd",
             "target": "pd", "kappa_mode": "along_map", "grid": grid},
        ],
    }
    # the identity into 3*polydisk has energy 3n = 6; Moebius automorphisms are
    # isometries of the polydisk, with energy n = 2
    expected = [
        {"check": "schwarz", "sup_energy": 6.0},
        {"check": "schwarz", "sup_energy": 6.0, "margins_match": 0},
        {"check": "schwarz", "sup_energy": 2.0},
    ]
    return doc, expected


WORKLOADS = {"demo": demo, "schwarz_grid": schwarz_grid}


def _grid_size(task):
    grid = task["grid"]
    return grid["per_axis"] ** (2 * len(grid["center"]))


def grid_points(doc):
    """Evaluation points of a document: the grid of every schwarz task and
    one per point task; identity checks without a point count none."""
    return sum(_grid_size(t) if "grid" in t else int("point" in t) for t in doc["tasks"])


def verified_points(doc):
    """Grid points that the Schwarz verifiers visit."""
    return sum(_grid_size(t) for t in doc["tasks"] if t["kind"] == "schwarz")
