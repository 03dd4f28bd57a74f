"""One curvature per (metric, point) per scenario run: the run's
``CurvatureStore`` serves every task, and a report is the same as if each
task had computed its own curvature."""

import json
from pathlib import Path

import numpy as np
import pytest

from chernlab.curvature import CurvatureStore, chern_curvature, curvature_report
from chernlab.errors import DomainMarginError
from chernlab.metrics import catalog_metric
from chernlab.scenario import run_scenario
from chernlab.verify import SchwarzPass

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"


def _demo():
    return json.loads(DEMO.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(_demo()["tasks"])))
def test_demo_task_alone_matches_the_full_run(index):
    # a task that finds its curvature in the store reports what it reports
    # when it computes the curvature itself
    doc = _demo()
    full = run_scenario(doc).tasks[index]
    alone = run_scenario({**doc, "tasks": [doc["tasks"][index]]}).tasks[0]
    assert full.pop("index") == index and alone.pop("index") == 0
    assert full == alone


def test_outside_the_domain_is_the_same_error_each_time():
    # a failure is not stored: the second task fails the same way as the first
    point = [[0.0, 0.0], [0.0, 0.0]]  # hopf(2) lives on C^2 minus the origin
    doc = {"version": 1, "metrics": {"hopf": {"catalog": "hopf", "params": [2]}},
           "tasks": [{"kind": "rbc", "metric": "hopf", "point": point},
                     {"kind": "curvature", "metric": "hopf", "point": point}]}
    first, second = run_scenario(doc).tasks
    assert first["status"] == second["status"] == "error"
    assert first["error"].startswith("DomainMarginError: ") and first["error"] == second["error"]


def test_a_stack_names_its_first_failing_point():
    hopf = catalog_metric("hopf", (2,))
    store = CurvatureStore()
    good = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    store.at(hopf, good[:1])
    stack = np.array([good[0], [0.0, 0.0], good[1], [0.0, 1e-6]], dtype=complex)
    with pytest.raises(DomainMarginError) as stored:
        store.at(hopf, stack)
    with pytest.raises(DomainMarginError) as direct:
        chern_curvature(hopf, stack)
    assert str(stored.value) == str(direct.value) and "[0.+0.j 0.+0.j]" in str(stored.value)
    # the points before the failing one are not stored by the failed call
    assert [len(held) for _, held in store._held.values()] == [1]


def test_each_point_is_computed_once_with_its_bits_alone():
    fs = catalog_metric("fubini_study", (2,))
    points = np.array([[0.1, -0.2j], [0.0, 0.3], [0.1, -0.2j]], dtype=complex)
    store = CurvatureStore()
    first = store.at(fs, points[:2])
    again = store.at(fs, points[::-1])
    assert again[0] is first[0] and again[1] is first[1] and again[2] is first[0]
    for z, held in zip(points, again):
        tensor, md = chern_curvature(fs, z, return_derivs=True)
        assert np.array_equal(held.tensor, tensor) and np.array_equal(held.g, md.g)
        assert held.error_estimate == md.error_estimate


def test_stored_arrays_are_read_only():
    fs = catalog_metric("fubini_study", (2,))
    store = CurvatureStore()
    report = curvature_report(fs, [0.0, 0.0], store=store)
    (held,) = store.at(fs, np.zeros((1, 2), dtype=complex))
    assert report.tensor is held.tensor
    for array in (held.tensor, held.g, report.tensor):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    # a Schwarz pass hands out its own stack
    sp = SchwarzPass(fs, fs, None, np.zeros((1, 2)), curvatures=store)
    tensors = sp.curvature(fs, sp.points)
    tensors[0, 0, 0, 0, 0] = 1.0
    assert held.tensor[0, 0, 0, 0] != 1.0


def test_passes_built_alone_share_nothing():
    fs = catalog_metric("fubini_study", (2,))
    a, b = (SchwarzPass(fs, fs, None, np.zeros((1, 2))) for _ in range(2))
    assert a.curvatures is not b.curvatures

