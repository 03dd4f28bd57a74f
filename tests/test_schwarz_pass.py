"""One grid pass per Schwarz task: a robustness sweep over theorems, maps,
metrics and grids, and a ratchet on the evaluations of the shipped demo."""

import itertools
import sys
from pathlib import Path

import pytest

import chernlab
from chernlab.curvature import chern_curvature
from chernlab.errors import ChernLabError
from chernlab.metrics import ChartedHermitianMetric
from chernlab.scenario import run_scenario

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"

# dimension 1 and 2 metrics and maps, matched and mismatched
SWEEP_METRICS = {
    "disk": {"catalog": "poincare_disk", "params": [1.0]},
    "pd": {"catalog": "polydisk", "params": [1.0, 1.0]},
    "pd3": {"catalog": "polydisk", "params": [1.0, 1.0], "scale": 3.0},
}
SWEEP_MAPS = {
    "id1": {"kind": "identity", "dim": 1},
    "id2": {"kind": "identity", "dim": 2},
    "mob": {"kind": "mobius", "a": [0.1, 0.05]},
    "sq": {"kind": "power", "k": 2},
    "lin12": {"kind": "linear", "matrix": [[1.0], [0.5]]},
}
SWEEP_PAIRS = [("disk", "disk"), ("disk", "pd"), ("pd", "pd3"), ("pd", "disk")]
SWEEP_CENTRES = {1: [[0.1, 0.0]], 2: [[0.1, 0.0], [0.0, -0.1]]}


def _sweep_tasks():
    tasks = []
    theorems = ("chern_lu", "aubin_yau", "family", "trace_bound")
    for theorem, (source, target), fmap, dim in itertools.product(
        theorems, SWEEP_PAIRS, sorted(SWEEP_MAPS), SWEEP_CENTRES
    ):
        if theorem == "trace_bound" and fmap != "id1":
            continue  # the trace bound has no map
        task = {"kind": "schwarz", "theorem": theorem, "source": source, "target": target,
                "grid": {"center": SWEEP_CENTRES[dim], "half": 0.2, "per_axis": 1 + len(tasks) % 2}}
        if theorem != "trace_bound":
            task["map"] = fmap
        if theorem == "family":
            task["mu"] = source
        if len(tasks) // 2 % 2:
            task["constants"] = {"c1": 2.0, "c2": 0.0, "c3": 1.0, "kappa": 0.5, "kappa1": 0.0, "kappa2": 1.0}
        tasks.append(task)
    return tasks


def test_sweep_ends_every_task_typed():
    doc = {"version": 1, "seed": 3, "metrics": SWEEP_METRICS, "maps": SWEEP_MAPS, "tasks": _sweep_tasks()}
    # any exception must be a task error
    report = run_scenario(doc)
    typed = {cls.__name__ for cls in vars(chernlab.errors).values()
             if isinstance(cls, type) and issubclass(cls, ChernLabError)}
    statuses = {"ok": 0, "fail": 0, "error": 0}
    for entry in report.tasks:
        statuses[entry["status"]] += 1
        if entry["status"] == "error":
            assert entry["error"].split(":")[0] in typed, entry
    assert len(report.tasks) == 3 * 4 * 5 * 2 + 4 * 2
    assert all(statuses.values()), statuses


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of ``chern_curvature`` calls (in every chernlab namespace that
    imported it) and of metric evaluator calls."""
    counts = {"chern_curvature": 0, "metric": 0}

    def counted_curvature(*args, **kwargs):
        counts["chern_curvature"] += 1
        return chern_curvature(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chernlab" and getattr(module, "chern_curvature", None) is chern_curvature:
            monkeypatch.setattr(module, "chern_curvature", counted_curvature)
    call = ChartedHermitianMetric.__call__

    def counted_call(self, z):
        counts["metric"] += 1
        return call(self, z)

    monkeypatch.setattr(ChartedHermitianMetric, "__call__", counted_call)
    return counts


def test_demo_evaluations_do_not_grow(evaluations):
    # estimation and verification share one pass per Schwarz task: the
    # Aubin-Yau and trace-bound tasks of the demo read the curvature of the
    # disk at 9 points once, not twice; each metric's unseen points of a
    # pass are one stacked chern_curvature call
    report = run_scenario(str(DEMO))
    assert report.passed
    assert evaluations["chern_curvature"] <= 10
    assert evaluations["metric"] <= 1183


def _constants_doc(tasks):
    metrics = {"disk": {"catalog": "poincare_disk", "params": [1.0]},
               "disk3": {"catalog": "poincare_disk", "params": [1.0], "scale": 3.0}}
    grid = {"center": [[0.1, 0.0]], "half": 0.2, "per_axis": 2}
    return {"version": 1, "seed": 5, "metrics": metrics, "maps": {"id1": {"kind": "identity", "dim": 1}},
            "tasks": [{"kind": "schwarz", "source": "disk", "grid": grid, **task} for task in tasks]}


def test_given_constants_evaluate_no_curvature(evaluations):
    # a document's constants are the estimator's fixed ones: when it gives
    # every constant a theorem fits, no curvature is evaluated for them
    report = run_scenario(_constants_doc([
        {"theorem": "chern_lu", "map": "id1", "target": "disk3", "constants": {"c1": 2.0, "c2": 0.0, "kappa": 2 / 3}},
        {"theorem": "aubin_yau", "map": "id1", "target": "disk", "constants": {"c1": 2.0, "kappa": 2.0}},
        {"theorem": "trace_bound", "target": "disk", "constants": {"c1": 2.0, "c2": 0.0, "kappa": 2.0}},
    ]))
    assert [entry["status"] for entry in report.tasks] == ["ok"] * 3
    assert evaluations["chern_curvature"] == 0
    for entry in report.tasks:
        assert set(entry["result"]["provenance"].values()) == {"user"}
        assert entry["result"]["achieved_at"] == {}


def test_partial_constants_estimate_the_rest(evaluations):
    # a Chern-Lu document that gives kappa alone gets C1 fitted on the grid
    # and C2 = 0 with it; kappa is not estimated, so the target's curvature
    # is never evaluated: the 4 source points in one stacked call, none of
    # the target
    report = run_scenario(_constants_doc([
        {"theorem": "chern_lu", "map": "id1", "target": "disk3", "constants": {"kappa": 0.25}},
    ]))
    result = report.tasks[0]["result"]
    assert result["provenance"] == {"kappa": "user", "c1": "estimated", "c2": "estimated"}
    assert result["constants"]["kappa"] == 0.25 and abs(result["constants"]["c1"] - 2.0) < 1e-6
    assert set(result["achieved_at"]) == {"c1"}
    assert evaluations["chern_curvature"] == 1
    # the bound C1 r / (kappa + C2) = 8 holds for the energy 3
    assert report.tasks[0]["status"] == "ok" and abs(result["bound"] - 8.0) < 1e-5


def test_negative_user_kappa_is_a_sign_error():
    # kappa + C2 > 0 is not enough: the /r step of Chern-Lu needs kappa >= 0
    report = run_scenario(_constants_doc([
        {"theorem": "chern_lu", "map": "id1", "target": "disk3", "constants": {"c1": 2.0, "c2": 1.0, "kappa": -0.5}},
    ]))
    assert report.tasks[0]["status"] == "error"
    assert report.tasks[0]["error"] == "HypothesisSignError: chern_lu needs kappa >= 0, got kappa = -0.5"
