"""One grid pass per Schwarz task: a robustness sweep over theorems, maps,
metrics and grids, and a ratchet on the evaluations of the shipped demo."""

import itertools
import sys
import warnings
from pathlib import Path

import pytest

import chernlab
from chernlab.curvature import chern_curvature
from chernlab.errors import ChernLabError, SearchBudgetExhausted
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
                "search": {"n_starts": 2, "max_iter": 5},
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
    # budget warnings are expected of this small search; any exception must be a task error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SearchBudgetExhausted)
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
    # disk at 9 points once, not twice
    report = run_scenario(str(DEMO))
    assert report.passed
    assert evaluations["chern_curvature"] <= 74
    assert evaluations["metric"] <= 3807
