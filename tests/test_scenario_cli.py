import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chernlab
from chernlab.cli import build_parser, main
from chernlab.errors import BadParams, SchemaError
from chernlab.maps import catalog_map, map_identity, map_power
from chernlab.metrics import catalog_metric
from chernlab.scenario import box_grid, emit_grid, parse_grid_spec, run_scenario, scenario_schema
from chernlab.verify import CONSTANT_NAMES, THEOREMS


def base_scenario():
    return {
        "version": 1,
        "seed": 7,
        "metrics": {
            "p1": {"catalog": "poincare_disk", "params": [1.0]},
            "p3": {"catalog": "poincare_disk", "params": [1.0], "scale": 3.0},
        },
        "maps": {"id1": {"kind": "identity", "dim": 1}},
        "tasks": [
            {
                "kind": "schwarz",
                "theorem": "chern_lu",
                "map": "id1",
                "source": "p1",
                "target": "p3",
                "grid": {"center": [[0.0, 0.0]], "half": 0.3, "per_axis": 3},
            }
        ],
    }


CURVATURE = {"kind": "curvature", "metric": "p1", "point": [[0.1, 0.0]]}
THEOREM23 = {"kind": "identity", "check": "theorem23", "n": 3}
AVERAGED_HSC = {"kind": "identity", "check": "averaged-hsc", "metric": "p1", "point": [[0.1, 0.0]]}


class TestSchema:
    def test_undefined_metric(self):
        doc = base_scenario()
        doc["tasks"][0]["source"] = "nope"
        report = run_scenario(doc)
        assert report.tasks[0]["status"] == "error"
        assert "SchemaError" in report.tasks[0]["error"]

    def test_unknown_key_rejected(self):
        doc = base_scenario()
        doc["surprise"] = 1
        with pytest.raises(SchemaError):
            run_scenario(doc)

    def test_unknown_task_key_location(self):
        doc = base_scenario()
        doc["tasks"][0]["bogus"] = True
        report = run_scenario(doc)
        assert report.tasks[0]["status"] == "error"
        assert "$.tasks[0]" in report.tasks[0]["error"]

    def test_version_check(self):
        doc = base_scenario()
        doc["version"] = 2
        with pytest.raises(SchemaError):
            run_scenario(doc)

    @pytest.mark.parametrize(
        "edit, location, raised",
        [
            (
                lambda d: d["metrics"].update(
                    e={"expression": "1", "dim": 1, "domain": {"center": [0], "radius": 1, "norm": "l1"}}
                ),
                "$.metrics.e.domain.norm",
                True,
            ),
            (lambda d: d["maps"].update(p={"kind": "power", "k": "x"}), "$.maps.p.k", True),
            # no task takes a search budget or a seed: each is an unknown key of the task
            pytest.param(
                lambda d: d["tasks"][0].update(search={"n_starts": 0}), "$.tasks[0]", False, id="search-budget"
            ),
            (lambda d: d["tasks"][0]["grid"].update(half="a"), "$.tasks[0].grid.half", False),
            pytest.param(
                lambda d: d["tasks"][0].update(seed="x"), "$.tasks[0]", False, id="task-seed"
            ),
            pytest.param(
                lambda d: d["tasks"][0].update(search={"seed": "x"}), "$.tasks[0]", False,
                id="search-seed",
            ),
            pytest.param(
                lambda d: d.update(tasks=[dict(THEOREM23, n="x")]), "$.tasks[0].n", False,
                id="identity-n",
            ),
            pytest.param(
                # theorem23 is exact on a spanning set: a trial count or a diagonal mode is an unknown key
                lambda d: d.update(tasks=[dict(THEOREM23, trials=100)]), "$.tasks[0]", False,
                id="trials",
            ),
            pytest.param(
                lambda d: d.update(tasks=[dict(THEOREM23, diagonal="zero")]), "$.tasks[0]", False,
                id="diagonal",
            ),
            pytest.param(
                lambda d: d.update(tasks=[dict(THEOREM23, tol=1e-10)]), "$.tasks[0]", False,
                id="theorem23-tol",
            ),
            pytest.param(
                lambda d: d.update(tasks=[dict(CURVATURE, tol="x")]), "$.tasks[0].tol", False,
                id="curvature-tol",
            ),
            pytest.param(
                lambda d: d["tasks"][0].update(tol="x"), "$.tasks[0].tol", False, id="schwarz-tol"
            ),
            pytest.param(
                lambda d: d["tasks"][0].update(constants={"c1": "x"}), "$.tasks[0].constants.c1", False,
                id="constant-c1",
            ),
            pytest.param(
                lambda d: d["tasks"][0].update(kappa_mode="bogus"), "$.tasks[0].kappa_mode", False,
                id="kappa-mode",
            ),
            pytest.param(
                lambda d: d["tasks"][0]["grid"].update(per_axis=True), "$.tasks[0].grid.per_axis", False,
                id="per-axis-bool",
            ),
            pytest.param(
                lambda d: d["tasks"][0]["grid"].update(half=-0.3), "$.tasks[0].grid.half", False,
                id="negative-half",
            ),
            pytest.param(
                # the identity checks are exact cubatures: a sample count is an unknown key
                lambda d: d.update(tasks=[dict(AVERAGED_HSC, samples=200000)]), "$.tasks[0]", False,
                id="samples-key",
            ),
            pytest.param(
                lambda d: d.update(tasks=[{"kind": "curvature", "point": [[0.1, 0.0]]}]), "$.tasks[0]", False,
                id="no-metric",
            ),
            pytest.param(
                lambda d: d.update(tasks=[{"kind": "curvature", "metric": "p1"}]), "$.tasks[0]", False,
                id="no-point",
            ),
            pytest.param(
                lambda d: d["tasks"][0].pop("source"), "$.tasks[0]", False, id="no-source"
            ),
            pytest.param(
                lambda d: d["metrics"]["p1"].update(params=["x"]), "$.metrics.p1.params[0]", True,
                id="params",
            ),
            pytest.param(
                lambda d: d["maps"].update(lin={"kind": "linear", "matrix": [1]}), "$.maps.lin.matrix[0]", True,
                id="matrix-row",
            ),
            pytest.param(
                lambda d: d["metrics"].update(e={"expression": 5, "dim": 1}), "$.metrics.e.expression", True,
                id="expression",
            ),
            pytest.param(
                lambda d: d["metrics"].update(
                    e={"expression": "1", "dim": 1, "domain": {"center": [0.0, 0.0], "radius": 2.0}}
                ),
                "$.metrics.e.domain.center",
                True,
                id="domain-center-length",
            ),
            pytest.param(
                lambda d: d["tasks"][0].update(theorem="trace_bound", map="nowhere"), "$.tasks[0].map", False,
                id="trace-bound-map",
            ),
            pytest.param(lambda d: d.update(seed="x"), "$.seed", True, id="seed"),
            pytest.param(lambda d: d.update(version=True), "$.version", True, id="version"),
        ],
    )
    def test_schema_violations_are_schema_errors(self, edit, location, raised):
        doc = base_scenario()
        edit(doc)
        if raised:
            with pytest.raises(SchemaError) as exc:
                run_scenario(doc)
            assert exc.value.location == location
        else:
            error = run_scenario(doc).tasks[0]["error"]
            assert error.startswith("SchemaError:") and f"(at {location})" in error

    @pytest.mark.parametrize(
        "task", [CURVATURE, THEOREM23, AVERAGED_HSC, dict(CURVATURE, kind="rbc"), dict(CURVATURE, kind="sbc"),
                 "schwarz"],
        ids=["curvature", "theorem23", "averaged-hsc", "rbc", "sbc", "schwarz"],
    )
    def test_task_seed_that_nothing_reads_is_a_schema_error(self, task):
        # no task reads a seed, the SBC's included: a task's seed is an unknown key
        doc = base_scenario()
        task = doc["tasks"][0] if task == "schwarz" else task
        doc["tasks"] = [dict(task, seed=3), task]
        report = run_scenario(doc)
        assert report.tasks[0]["error"] == "SchemaError: unknown key 'seed' (at $.tasks[0])"
        assert report.tasks[1]["status"] != "error"

    def test_exclusive_metric_source(self):
        doc = base_scenario()
        doc["metrics"]["p1"] = {"catalog": "euclidean", "expression": "1", "params": [1]}
        with pytest.raises(SchemaError):
            run_scenario(doc)


class TestDeterminism:
    def test_byte_identical_reports(self):
        doc = base_scenario()
        doc["tasks"].append(
            {"kind": "identity", "check": "fs-moment", "n": 2, "indices": [1, 1, 2, 2]}
        )
        a = run_scenario(doc).to_json()
        b = run_scenario(doc).to_json()
        assert a == b

    def test_identity_results_do_not_depend_on_the_seed(self):
        doc = {
            "version": 1,
            "metrics": {"fs": {"catalog": "fubini_study", "params": [2]}},
            "tasks": [
                {"kind": "identity", "check": "fs-moment", "n": 3, "indices": [1, 2, 2, 1]},
                {"kind": "identity", "check": "averaged-hsc", "metric": "fs",
                 "point": [[0.1, 0.2], [-0.3, 0.0]], "b": [1.0, 0.5]},
            ],
        }
        at_7, at_8 = run_scenario(doc, seed=7), run_scenario(doc, seed=8)
        assert at_7.passed and at_7.tasks == at_8.tasks

    def test_parallel_is_refused(self):
        doc = base_scenario()
        assert run_scenario(doc, parallel=False).to_json() == run_scenario(doc).to_json()
        for value in (True, 2, None):
            with pytest.raises(BadParams, match="parallel must be False"):
                run_scenario(doc, parallel=value)

    def test_round_trip(self):
        report = run_scenario(base_scenario())
        again = run_scenario(report.scenario)
        assert again.to_json() == report.to_json()

    def test_timing_excluded_by_default(self):
        report = run_scenario(base_scenario())
        payload = json.loads(report.to_json())
        assert "timing_ms" not in payload
        with_timing = json.loads(report.to_json(include_timing=True))
        assert "timing_ms" in with_timing

    def test_report_is_its_compact_text(self):
        # a finished report keeps its text alone: compact, sorted, the same object on each call
        report = run_scenario(base_scenario())
        text = report.to_json()
        assert text is report.to_json()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert sorted(payload) == ["format_version", "passed", "scenario", "seed", "tasks"]
        assert (report.tasks, report.passed, report.seed) == (payload["tasks"], payload["passed"], 7)
        assert (report.scenario, report.format_version) == (payload["scenario"], payload["format_version"])
        timed = report.to_json(include_timing=True)
        assert timed == json.dumps({**payload, "timing_ms": report.timing_ms}, sort_keys=True,
                                   separators=(",", ":")) + "\n"
        assert list(json.loads(timed)["timing_ms"]) == ["0"]


class TestTasks:
    def test_flat_curvature_task(self):
        doc = {
            "version": 1,
            "metrics": {"eu": {"catalog": "euclidean", "params": [2]}},
            "tasks": [{"kind": "curvature", "metric": "eu", "point": [[0.0, 0.0], [0.0, 0.0]]}],
        }
        report = run_scenario(doc)
        result = report.tasks[0]["result"]
        assert report.passed
        assert result["tensor_max_abs"] < 1e-10
        assert np.max(np.abs(np.array(result["ric1"]))) < 1e-10

    def test_expression_metric_in_scenario(self):
        doc = {
            "version": 1,
            "metrics": {"m": {"expression": "1/(1-abs2(z1))^2", "dim": 1}},
            "tasks": [{"kind": "curvature", "metric": "m", "point": [[0.0, 0.0]]}],
        }
        report = run_scenario(doc)
        assert report.passed
        assert abs(report.tasks[0]["result"]["scal"] + 2.0) < 1e-5

    def test_integral_floats_are_integers(self):
        # JSON does not tell 2 from 2.0: the schema types both as integers
        task = {"kind": "identity", "check": "fs-moment", "n": 2, "indices": [1, 2, 2, 1]}
        floats = dict(task, n=2.0, indices=[1.0, 2.0, 2.0, 1.0])
        report = run_scenario({"version": 1, "seed": 5.0, "tasks": [floats]})
        assert report.seed == 5 and report.tasks[0]["status"] == "ok"
        assert report.tasks == run_scenario({"version": 1, "seed": 5, "tasks": [task]}).tasks

    @pytest.mark.parametrize("seed", [-1, "x", 1.5, True])
    def test_seed_argument_checked_like_the_document_seed(self, seed):
        with pytest.raises(SchemaError, match="seed argument"):
            run_scenario({"version": 1, "tasks": [THEOREM23]}, seed=seed)

    def test_ragged_linear_matrix_is_bad_params(self):
        doc = base_scenario()
        doc["maps"]["lin"] = {"kind": "linear", "matrix": [[[1, 0], [2, 0]], [[3, 0]]]}
        with pytest.raises(BadParams):
            run_scenario(doc)

    def test_non_finite_pullback_is_a_task_error(self):
        # the target metric 1/|z - 0.3|^2 is infinite at the grid point 0.3,
        # inside its declared disk but between the parser's probe points, so
        # the pullback there is not finite; the next task must still be
        # reported, and no numpy warning may escape
        doc = base_scenario()
        doc["metrics"]["inv"] = {
            "expression": "1/abs2(z1 - 0.3)",
            "dim": 1,
            "domain": {"center": [0.0], "radius": 2.0},
        }
        doc["tasks"][0].update(target="inv", constants={"c1": 2.0, "c2": 0.0, "kappa": 0.5})
        doc["tasks"].append(THEOREM23)
        report = run_scenario(doc)
        assert report.tasks[0]["status"] == "error"
        assert report.tasks[0]["error"].startswith("NonFiniteSample: ")
        assert report.tasks[1]["status"] == "ok"
        assert not report.passed

    @pytest.mark.parametrize(
        "map_spec, target, message",
        [
            # z^2 has a zero derivative at the grid centre 0
            ({"kind": "power", "k": 2}, "p1", "map is rank-deficient at"),
            ({"kind": "linear", "matrix": [[[1, 0]], [[0.5, 0]]]}, "pd", "needs equal dimensions"),
        ],
    )
    def test_aubin_yau_estimate_on_a_singular_map_is_a_task_error(self, map_spec, target, message):
        doc = base_scenario()
        doc["metrics"]["pd"] = {"catalog": "polydisk", "params": [1.0, 1.0]}
        doc["maps"] = {"f": map_spec}
        doc["tasks"][0].update(theorem="aubin_yau", map="f", target=target)
        report = run_scenario(doc)
        assert report.tasks[0]["status"] == "error"
        assert report.tasks[0]["error"].startswith("RankDeficient: ")
        assert message in report.tasks[0]["error"]
        doc["tasks"].append(THEOREM23)
        assert run_scenario(doc).tasks[1]["status"] == "ok"

    @pytest.mark.parametrize("per_axis", [2, 3])
    def test_image_outside_target_domain_is_a_task_error(self, per_axis):
        # every grid point lies in the hole |z| < 0.5 of the target's annulus,
        # and per_axis 3 also samples the singular point 0 of 1/|z|^2
        doc = base_scenario()
        doc["metrics"]["inv"] = {
            "expression": "1/abs2(z1)",
            "dim": 1,
            "domain": {"center": [0.0], "radius": 2.0, "inner_radius": 0.5},
        }
        doc["tasks"][0].update(target="inv", constants={"c1": 1.0, "c2": 0.0, "kappa": 1.0})
        doc["tasks"][0]["grid"]["per_axis"] = per_axis
        report = run_scenario(doc)
        assert report.tasks[0]["status"] == "error"
        assert report.tasks[0]["error"].startswith("DomainMarginError: ")

    def test_schwarz_task_passes(self):
        report = run_scenario(base_scenario())
        result = report.tasks[0]["result"]
        assert result["passed"]
        assert abs(result["bound"] - 3.0) < 1e-4
        assert abs(result["sup_energy"] - 3.0) < 1e-6

    def test_failing_verdict_marks_report(self):
        doc = base_scenario()
        doc["tasks"][0]["constants"] = {"c1": 2.0, "c2": 0.0, "kappa": 2.0, "r": 1, "n": 1}
        # kappa stale for the 3x-scaled target: bound 1 < energy 3
        report = run_scenario(doc)
        assert report.tasks[0]["status"] == "fail"
        assert not report.passed

    def test_averaged_hsc_task(self):
        doc = {
            "version": 1,
            "metrics": {"fs": {"catalog": "fubini_study", "params": [2]}},
            "tasks": [
                {
                    "kind": "identity",
                    "check": "averaged-hsc",
                    "metric": "fs",
                    "point": [[0.0, 0.0], [0.0, 0.0]],
                    "b": [1.0, 1.0],
                }
            ],
        }
        report = run_scenario(doc)
        result = report.tasks[0]["result"]
        assert result["passed"] and result["abs_err"] <= result["std_error"]
        assert result["nodes"] == 2 and "T:2-1" in result["rule"]
        assert abs(result["rhs"] - 2.0) < 1e-6

    @pytest.mark.parametrize(
        "kind, catalog, search, field",
        [
            ("rbc", "fubini_study", {"step_tol": -1}, "step_tol"),
            ("rbc", "fubini_study", {"step_tol": 0}, "step_tol"),
            ("sbc", "complex_hyperbolic", {"step_tol": -1}, "step_tol"),
            ("sbc", "complex_hyperbolic", {"max_iter": 0}, "max_iter"),
        ],
    )
    def test_search_budget_that_runs_no_search_is_a_task_schema_error(self, kind, catalog, search, field):
        # neither rbc (exact for n <= 2, a PSD-cone ascent above) nor sbc (a
        # pair test and a PD-cone descent) takes a budget: a search block is
        # an unknown key, with values that would run no search or with one
        # that would, and the task without it runs
        n = 3 if kind == "rbc" else 2
        task = {"kind": kind, "metric": "m", "point": [[0.0, 0.0]] * n}
        tasks = [dict(task, search=search), dict(task, search={"n_starts": 1, field: 1}), task]
        doc = {"version": 1, "metrics": {"m": {"catalog": catalog, "params": [n]}}, "tasks": tasks}
        entries = run_scenario(doc).tasks
        for i in range(2):
            assert entries[i]["error"] == f"SchemaError: unknown key 'search' (at $.tasks[{i}])"
        assert entries[2]["status"] == "ok"

    def test_sbc_task_unbounded(self):
        doc = {
            "version": 1,
            "metrics": {"ch": {"catalog": "complex_hyperbolic", "params": [2]}},
            "tasks": [
                {
                    "kind": "sbc",
                    "metric": "ch",
                    "point": [[0.0, 0.0], [0.0, 0.0]],
                }
            ],
        }
        report = run_scenario(doc)
        result = report.tasks[0]["result"]
        assert result["status"] == "unbounded_below"
        assert "certificate" in result


# Schwarz tasks whose map, metrics or grid disagree in dimension, with the
# task fields the error names: poincare_disk p1 has dim 1, polydisk pd dim 2
DIMENSION_MISMATCHES = {
    "map_vs_source": ({"map": "id1", "source": "pd", "target": "pd"}, "map is C^1 -> C^1, but source"),
    "map_vs_target": ({"map": "id1", "target": "pd"},
                      "map is C^1 -> C^1, but source has dim 1 and target dim 2"),
    "mu_vs_source": ({"theorem": "family", "mu": "pd"}, "mu has dim 2, but source has dim 1"),
    "grid_vs_source": ({"grid": {"center": [[0.0, 0.0], [0.1, 0.0]], "half": 0.2, "per_axis": 1}},
                       "grid points have 2 coordinates, but source has dim 1"),
    "trace_bound_target": ({"theorem": "trace_bound", "target": "pd"},
                           "target has dim 2, but the trace bound needs the source dim 1"),
}
USER_CONSTANTS = {"c1": 2.0, "c2": 0.0, "c3": 1.0, "kappa": 0.5, "kappa1": 0.0, "kappa2": 1.0}


def mismatched_scenario(case, theorem, constants):
    fields, _ = DIMENSION_MISMATCHES[case]
    doc = base_scenario()
    doc["metrics"]["pd"] = {"catalog": "polydisk", "params": [1.0, 1.0]}
    task = doc["tasks"][0]
    task.update({"theorem": theorem, **fields})  # the mu and trace-bound cases set their theorem
    if task["theorem"] == "trace_bound":
        del task["map"]
    if constants:
        task["constants"] = dict(USER_CONSTANTS)
    doc["tasks"].append(THEOREM23)
    return doc


class TestDimensionMismatch:
    @pytest.mark.parametrize("constants", [False, True])
    @pytest.mark.parametrize("theorem", ["chern_lu", "aubin_yau"])
    @pytest.mark.parametrize("case", sorted(DIMENSION_MISMATCHES))
    def test_is_a_task_error(self, case, theorem, constants):
        report = run_scenario(mismatched_scenario(case, theorem, constants))
        assert report.tasks[0]["status"] == "error"
        assert report.tasks[0]["error"].startswith("DimensionMismatch: ")
        assert DIMENSION_MISMATCHES[case][1] in report.tasks[0]["error"]
        assert report.tasks[1]["status"] == "ok" and not report.passed

    @pytest.mark.parametrize("case", sorted(DIMENSION_MISMATCHES))
    def test_run_exits_1(self, case, tmp_path, capsys):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(mismatched_scenario(case, "chern_lu", False)))
        out = tmp_path / "r.json"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        error = json.loads(out.read_text())["tasks"][0]["error"]
        assert error.startswith("DimensionMismatch: ") and DIMENSION_MISMATCHES[case][1] in error


EMPTY_DOMAINS = [{"radius": 0.5, "inner_radius": 0.5}, {"radius": 0.5, "inner_radius": 1.0},
                 {"radius": 0.0}, {"radius": -1.0}, {"radius": 1.0, "inner_radius": -0.5}]


def empty_domain_scenario(domain):
    doc = base_scenario()
    doc["metrics"]["e"] = {"expression": "1 + abs2(z1)", "dim": 1, "domain": {"center": [0.0], **domain}}
    return doc


class TestEmptyDomain:
    @pytest.mark.parametrize("domain", EMPTY_DOMAINS)
    def test_is_bad_params(self, domain):
        with pytest.raises(BadParams, match="domain holds no point"):
            run_scenario(empty_domain_scenario(domain))

    @pytest.mark.parametrize("domain", EMPTY_DOMAINS)
    def test_run_exits_2(self, domain, tmp_path, capsys):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(empty_domain_scenario(domain)))
        assert main(["run", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams: domain holds no point") and "Traceback" not in err


def non_finite_scenario(case):
    """``base_scenario`` with one NaN or infinite number in the field ``case`` names."""
    doc = base_scenario()
    doc["metrics"]["fs"] = {"catalog": "fubini_study", "params": [2]}
    task = doc["tasks"][0]
    nan, inf = float("nan"), float("inf")
    if case == "c1 NaN":
        task["constants"] = {"c1": nan, "kappa": 1.0}
    elif case == "c1 Infinity":
        task["constants"] = {"c1": inf, "kappa": 1.0}
    elif case == "c1 401 digits":
        task["constants"] = {"c1": 10**400, "kappa": 1.0}
    elif case == "kappa NaN":
        task.update(theorem="aubin_yau", target="p1", constants={"c1": 1.0, "kappa": nan})
    elif case == "tol NaN":
        task["tol"] = nan
    elif case == "grid half Infinity":
        task["grid"]["half"] = inf
    elif case == "point NaN":
        doc["tasks"][0] = {**CURVATURE, "point": [[nan, 0.0]]}
    elif case == "b NaN":
        doc["tasks"][0] = {**AVERAGED_HSC, "metric": "fs", "point": [[0.0, 0.0], [0.0, 0.0]], "b": [nan, 1.0]}
    elif case == "scale NaN":
        doc["metrics"]["p3"]["scale"] = nan
    elif case == "params -Infinity":
        doc["metrics"]["p1"]["params"] = [-inf]
    return doc


# Python's json module parses NaN, Infinity and integers of any length; the
# schema takes none of them past the range of a double as a number
NON_FINITE_TASK_FIELDS = {
    "c1 NaN": "$.tasks[0].constants.c1", "c1 Infinity": "$.tasks[0].constants.c1",
    "c1 401 digits": "$.tasks[0].constants.c1",
    "kappa NaN": "$.tasks[0].constants.kappa", "tol NaN": "$.tasks[0].tol",
    "grid half Infinity": "$.tasks[0].grid.half", "point NaN": "$.tasks[0].point[0]",
    "b NaN": "$.tasks[0].b[0]",
}
NON_FINITE_DOCUMENT_FIELDS = {"scale NaN": "$.metrics.p3.scale", "params -Infinity": "$.metrics.p1.params[0]"}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_TASK_FIELDS))
    def test_task_field_is_a_task_schema_error(self, case):
        report = run_scenario(non_finite_scenario(case))
        assert report.tasks[0]["status"] == "error" and not report.passed
        assert report.tasks[0]["error"].startswith("SchemaError: ")
        assert f"(at {NON_FINITE_TASK_FIELDS[case]})" in report.tasks[0]["error"]

    @pytest.mark.parametrize("case", sorted(NON_FINITE_DOCUMENT_FIELDS))
    def test_document_field_is_raised(self, case):
        with pytest.raises(SchemaError, match=re.escape(f"(at {NON_FINITE_DOCUMENT_FIELDS[case]})")):
            run_scenario(non_finite_scenario(case))

    @pytest.mark.parametrize("case", sorted(NON_FINITE_TASK_FIELDS) + sorted(NON_FINITE_DOCUMENT_FIELDS))
    def test_run_exits_without_traceback(self, case, tmp_path, capsys):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(non_finite_scenario(case)))  # writes NaN and Infinity literally
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.json")])
        assert code == (1 if case in NON_FINITE_TASK_FIELDS else 2)
        assert not caught and "Traceback" not in capsys.readouterr().err

    def test_unparsable_numbers_exit_2(self, tmp_path, capsys):
        # an integer past Python's 4300-digit conversion limit, and constants that are not JSON
        scen = tmp_path / "s.json"
        scen.write_text('{"version": 1, "seed": ' + "1" * 5000 + ', "tasks": []}')
        assert main(["run", "--scenario", str(scen)]) == 2
        assert capsys.readouterr().err.startswith("schema error: invalid JSON: ")
        argv = ["schwarz", "--theorem", "chern_lu", "--source", "poincare_disk:1", "--target", "poincare_disk:2",
                "--map", "identity:1", "--grid", "box:half=0.2", "--constants", "{bad"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: invalid JSON: ") and "(at --constants)" in err


class TestGrids:
    def test_box_grid_row_major(self):
        pts = box_grid([0.0 + 0.0j], 1.0, 3)
        assert len(pts) == 9
        assert pts[0][0] == -1.0 - 1.0j
        assert pts[1][0] == -1.0 + 0.0j  # imag axis varies fastest
        assert pts[-1][0] == 1.0 + 1.0j

    def test_parse_grid_spec(self):
        grid = parse_grid_spec("box:center=0,0;half=0.4;per-axis=5", 1)
        assert grid == {"center": [[0.0, 0.0]], "half": 0.4, "per_axis": 5}
        # n reals are real coordinates; omitted fields take their defaults
        assert parse_grid_spec("box:center=0.1,0.2,0.3", 3) == {
            "center": [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]],
            "half": 0.25,
            "per_axis": 3,
        }
        with pytest.raises(SchemaError):
            parse_grid_spec("sphere:radius=1", 1)
        with pytest.raises(SchemaError):
            parse_grid_spec("box:centre=0", 1)

    def test_grid_center_follows_the_source_dimension(self):
        # the default centre is the origin of C^n; n reals are real coordinates, 2n are (re, im) pairs
        assert parse_grid_spec("box:half=0.2", 2)["center"] == [[0.0, 0.0], [0.0, 0.0]]
        assert parse_grid_spec("box:center=0.1,0.2", 2)["center"] == [[0.1, 0.0], [0.2, 0.0]]
        assert parse_grid_spec("box:center=0.1,0.2,0.3,0.4", 2)["center"] == [[0.1, 0.2], [0.3, 0.4]]
        for reals in ("0", "0,0,0", "0,0,0,0,0"):
            with pytest.raises(SchemaError, match="center takes 2 reals"):
                parse_grid_spec(f"box:center={reals}", 2)


class TestEmitGrid:
    def test_csv_shape_and_precision(self, tmp_path):
        report = run_scenario(base_scenario())
        records = report.tasks[0]["result"]["records"]
        path = tmp_path / "grid.csv"
        emit_grid(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "re(z_1),im(z_1),energy,lhs,rhs,margin"
        assert len(lines) == 1 + 9  # 3x3 grid
        for line in lines[1:]:
            assert len(line.split(",")) == 2 * 1 + 4
        # constant-energy map: energy column constant (up to FD noise well
        # below the printed precision)
        energies = [float(line.split(",")[2]) for line in lines[1:]]
        assert np.ptp(energies) < 1e-11 * energies[0]

    def test_empty_grid_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_grid([], path)
        assert path.read_text() == "energy,lhs,rhs,margin\n"


class TestCli:
    def test_run_exit_codes(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(base_scenario()))
        out = tmp_path / "r.json"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"]

    def test_run_failing_scenario_exit_1(self, tmp_path):
        doc = base_scenario()
        doc["tasks"][0]["constants"] = {"c1": 2.0, "c2": 0.0, "kappa": 2.0, "r": 1, "n": 1}
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r.json")]) == 1

    def test_schema_error_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "bad.json"
        scen.write_text("{\"version\": 1, \"tasks\": [], \"wat\": true}")
        assert main(["run", "--scenario", str(scen)]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 5000 + "]" * 5000, '{"version": 1, "tasks": ' + "[" * 5000 + "]" * 5000
                                      + "}"], ids=["top", "tasks"])
    def test_deep_json_exit_2(self, text, tmp_path, capsys):
        scen = tmp_path / "deep.json"
        scen.write_text(text)
        assert main(["run", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: invalid JSON: ") and err.count("\n") == 1
        argv = ["schwarz", "--theorem", "aubin_yau", "--source", "poincare_disk:1", "--target", "poincare_disk:1",
                "--grid", "box:half=0.2", "--constants", "[" * 5000 + "]" * 5000]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: invalid JSON: ") and err.endswith("(at --constants)\n")

    @pytest.mark.parametrize("expression", ["(" * 400 + "1" + ")" * 400, "+".join(["1"] * 3000)],
                             ids=["parentheses", "sum"])
    def test_deep_expression_exit_2(self, expression, tmp_path, capsys):
        doc = base_scenario()
        doc["metrics"]["e"] = {"expression": expression, "dim": 1}
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ") and err.count("\n") == 1

    def test_cli_byte_identical(self, tmp_path):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(base_scenario()))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--scenario", str(scen), "--out", str(a), "--seed", "3"])
        main(["run", "--scenario", str(scen), "--out", str(b), "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_run_keeps_the_document_seed(self, tmp_path):
        demo = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"
        out = tmp_path / "r.json"
        main(["run", "--scenario", str(demo), "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        assert json.loads(text)["seed"] == 7
        assert text == run_scenario(str(demo)).to_json()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps({"version": 1, "tasks": [THEOREM23]}))
        assert main(["run", "--scenario", str(scen), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "seed" in err and "Traceback" not in err

    def test_ragged_linear_matrix_exit_2(self, tmp_path, capsys):
        doc = base_scenario()
        doc["maps"]["lin"] = {"kind": "linear", "matrix": [[[1, 0], [2, 0]], [[3, 0]]]}
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(scen)]) == 2
        assert capsys.readouterr().err.startswith("error: BadParams:")

    def test_domain_center_length_exit_2(self, tmp_path, capsys):
        doc = base_scenario()
        doc["metrics"]["e"] = {"expression": "1", "dim": 1, "domain": {"center": [0.0, 0.0], "radius": 2.0}}
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "$.metrics.e.domain.center" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_tol_exit_2(self, tol, capsys):
        for argv in (["curvature", "--metric", "poincare_disk:1", "--point", "0"],
                     ["schwarz", "--theorem", "aubin_yau", "--source", "poincare_disk:1",
                      "--target", "poincare_disk:1", "--grid", "box:half=0.2;per-axis=2"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"--tol={tol}"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:") and f"argument --tol: {tol} is not a finite number" in err

    @pytest.mark.parametrize("constants", ['{"kappa": 1e999}', '{"c1": NaN}', '{"kappa": -Infinity}',
                                           '{"r": 1' + "0" * 400 + "}"])
    def test_non_finite_constants_exit_2(self, constants, capsys):
        argv = ["schwarz", "--theorem", "aubin_yau", "--source", "poincare_disk:1", "--target", "poincare_disk:1",
                "--grid", "box:half=0.2;per-axis=2", "--constants", constants]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: invalid JSON: ") and "is not a finite number (at --constants)" in err

    def test_grid_without_center_on_a_polydisk_exit_0(self, capsys):
        argv = ["schwarz", "--theorem", "aubin_yau", "--source", "polydisk:1,1", "--target", "polydisk:1,1",
                "--grid", "box:half=0.2;per-axis=2"]
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
        assert result["records"][0]["z"] == [[-0.2, -0.2], [-0.2, -0.2]]

    def test_non_numeric_metric_param_exit_2(self, capsys):
        assert main(["curvature", "--metric", "poincare_disk:x", "--point", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams:") and "Traceback" not in err

    def test_point_dimension_mismatch_exit_2(self, capsys):
        assert main(["curvature", "--metric", "fubini_study:2", "--point", "0,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch:") and "Traceback" not in err

    def test_non_numeric_point_exit_2(self, capsys):
        assert main(["curvature", "--metric", "fubini_study:2", "--point", "0,0,x,0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "Traceback" not in err

    def test_curvature_subcommand(self, tmp_path, capsys):
        code = main(["curvature", "--metric", "euclidean:2", "--point", "0,0,0,0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tasks"][0]["result"]["tensor_max_abs"] < 1e-10

    def test_rbc_subcommand_is_exact_at_n2(self, capsys):
        assert main(["rbc", "--metric", "fubini_study:2", "--point", "0,0,0,0"]) == 0
        result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
        assert abs(result["inf"] - 2.0) < 1e-8 and abs(result["sup"] - 3.0) < 1e-8
        assert result["heuristic"] is False

    def test_rbc_subcommand_outside_the_domain_exit_1(self, capsys):
        # hopf(2) lives on C^2 minus the origin
        assert main(["rbc", "--metric", "hopf:2", "--point", "0,0,0,0"]) == 1
        task = json.loads(capsys.readouterr().out)["tasks"][0]
        assert task["status"] == "error" and task["error"].startswith("DomainMarginError:")

    @pytest.mark.parametrize(
        "args",
        [
            ["curvature", "--metric", "fubini_study:2", "--point", "0,0,0,0"],
            ["rbc", "--metric", "fubini_study:3", "--point", "0,0,0,0,0,0"],
            ["identity", "--check", "theorem23", "--n", "3"],
            ["sbc", "--metric", "complex_hyperbolic:2", "--point", "0,0,0,0"],
            ["schwarz", "--theorem", "trace_bound", "--source", "poincare_disk:1", "--target", "poincare_disk:1",
             "--grid", "box:half=0.2;per-axis=2"],
        ],
        ids=["curvature", "rbc", "identity", "sbc", "schwarz"],
    )
    def test_seed_on_a_subcommand_that_reads_none_exit_2(self, args, capsys):
        # no task reads a seed, so argparse refuses --seed on every one-task
        # subcommand; run keeps it for the seed its report echoes
        with pytest.raises(SystemExit) as exc:
            main(args + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert build_parser().parse_args(["run", "--scenario", "s.json", "--seed", "1"]).seed == 1

    @pytest.mark.parametrize(
        "catalog, params, n",
        [("poincare_disk", [1.0], 1), ("fubini_study", [2], 2), ("fubini_study", [3], 3)],
    )
    def test_search_on_an_exact_rbc_task(self, catalog, params, n):
        # neither rbc nor sbc takes a budget or a seed at any n: a search
        # block or a seed is an unknown key of either
        task = {"kind": "rbc", "metric": "m", "point": [[0.0, 0.0]] * n}
        searched = dict(task, search={"n_starts": 4, "max_iter": 25})
        doc = {"version": 1, "metrics": {"m": {"catalog": catalog, "params": params}},
               "tasks": [searched, dict(task, seed=3), task, dict(searched, kind="sbc"), dict(task, kind="sbc")]}
        tasks = run_scenario(doc).tasks
        assert tasks[0]["error"] == "SchemaError: unknown key 'search' (at $.tasks[0])"
        assert tasks[1]["error"] == "SchemaError: unknown key 'seed' (at $.tasks[1])"
        assert tasks[3]["error"] == "SchemaError: unknown key 'search' (at $.tasks[3])"
        assert tasks[2]["status"] == "ok" and tasks[4]["status"] == "ok"

    @pytest.mark.parametrize("theorem", ["chern_lu", "trace_bound", "family"])
    def test_kappa_mode_on_a_theorem_that_does_not_read_it(self, theorem, capsys):
        # only a theorem with an "sbc" cone in THEOREMS (Aubin-Yau) reads kappa_mode
        assert "sbc" not in THEOREMS[theorem].cones.values() and "sbc" in THEOREMS["aubin_yau"].cones.values()
        args = ["schwarz", "--theorem", theorem, "--source", "poincare_disk:1", "--target", "3*poincare_disk:1",
                "--grid", "box:center=0.1,0;half=0.2;per-axis=2"]
        if theorem != "trace_bound":
            args += ["--map", "identity"]
        if theorem == "family":
            args += ["--mu", "poincare_disk:1"]
        assert main(args + ["--kappa-mode", "along_map"]) == 1
        task = json.loads(capsys.readouterr().out)["tasks"][0]
        assert task["status"] == "error"
        assert task["error"] == f"BadParams: kappa_mode is read only by aubin_yau; {theorem} does not read it"
        assert main(args) == 0

    def test_sbc_subcommand_unbounded(self, capsys):
        assert main(["sbc", "--metric", "complex_hyperbolic:2", "--point", "0,0,0,0"]) == 0
        result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
        assert result["status"] == "unbounded_below" and result["certificate"]["leading_coefficient"] < 0

    def test_schwarz_subcommand_with_grid_out(self, tmp_path, capsys):
        csv_path = tmp_path / "g.csv"
        code = main(
            [
                "schwarz",
                "--theorem",
                "chern_lu",
                "--source",
                "poincare_disk:1",
                "--target",
                "3*poincare_disk:1",
                "--map",
                "identity",
                "--grid",
                "box:center=0,0;half=0.3;per-axis=3",
                "--out",
                str(tmp_path / "r.json"),
                "--grid-out",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        task = json.loads((tmp_path / "r.json").read_text())["scenario"]["tasks"][0]
        assert task["grid"] == {"center": [[0.0, 0.0]], "half": 0.3, "per_axis": 3}

    @pytest.mark.parametrize("spec", ["power:x", "scaling:abc", "mobius:zz"])
    def test_malformed_map_exit_2(self, spec, capsys):
        argv = ["schwarz", "--theorem", "chern_lu", "--source", "poincare_disk:1", "--target", "poincare_disk:2"]
        assert main(argv + ["--map", spec, "--grid", "box:half=0.2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: BadParams:") and "Traceback" not in err

    @pytest.mark.parametrize("spec", ["box:half=abc", "box:half=0.2;junk"])
    def test_malformed_grid_exit_2(self, spec, capsys):
        argv = ["schwarz", "--theorem", "chern_lu", "--source", "poincare_disk:1", "--target", "poincare_disk:2"]
        assert main(argv + ["--grid", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "Traceback" not in err

    def test_catalog_lists_the_schema_enums(self, capsys):
        metric_params = {
            "euclidean": (2,),
            "fubini_study": (2,),
            "complex_hyperbolic": (2,),
            "poincare_disk": (1.0,),
            "polydisk": (1.0, 2.0),
            "hopf": (2,),
        }
        map_params = {
            "identity": {"dim": 1},
            "scaling": {"c": 2.0},
            "linear": {"matrix": [[1.0, 0.5]]},
            "power": {"k": 2},
            "mobius": {"a": 0.5},
            "product": {"factors": [map_identity(1), map_power(2)]},
        }
        assert main(["catalog"]) == 0
        names = "\n".join(f"  {name}" for name in metric_params)
        kinds = "\n".join(f"  {kind}" for kind in map_params)
        assert capsys.readouterr().out == f"metrics:\n{names}\nmaps:\n{kinds}\n"
        for name, params in metric_params.items():
            assert catalog_metric(name, params).label == name
        for kind, params in map_params.items():
            catalog_map(kind, **params)

    @pytest.mark.parametrize("argv, key", [
        (["schwarz", "--theorem"], "theorem"), (["schwarz", "--preset"], "preset"),
        (["schwarz", "--kappa-mode"], "kappa_mode"), (["identity", "--check"], "check"),
    ])
    def test_choices_are_the_schema_enums(self, argv, key, capsys):
        enum = scenario_schema()["$defs"]["task"]["properties"][key]["enum"]
        actions = {a.dest: a for sub in build_parser()._subparsers._group_actions
                   for a in sub.choices[argv[0]]._actions}
        assert actions[argv[1].lstrip("-").replace("-", "_")].choices == enum
        with pytest.raises(SystemExit) as info:
            main([*argv, "bogus"])
        assert info.value.code == 2 and "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_schema_names_the_theorem_table(self):
        task = scenario_schema()["$defs"]["task"]["properties"]
        assert sorted(task["theorem"]["enum"]) == sorted(THEOREMS)
        assert sorted(task["preset"]["enum"]) == sorted(THEOREMS["family"].presets)
        assert list(task["constants"]["properties"]) == list(CONSTANT_NAMES)

    def test_schwarz_subcommand_with_partial_constants(self, capsys):
        argv = ["schwarz", "--theorem", "chern_lu", "--source", "poincare_disk:1", "--target", "3*poincare_disk:1",
                "--grid", "box:half=0.2;per-axis=2", "--constants", '{"kappa": 0.25}']
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
        assert result["provenance"] == {"kappa": "user", "c1": "estimated", "c2": "estimated"}

    def test_identity_subcommand(self, capsys):
        code = main(["identity", "--check", "theorem23", "--n", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tasks"][0]["result"] == {
            "check": "theorem23", "n": 3, "tensors": 33, "max_discrepancy": 0.0, "passed": True}

    @pytest.mark.parametrize("flag", ["--trials", "--tol"])
    def test_identity_subcommand_has_no_trials_or_tol(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["identity", "--check", "theorem23", "--n", "3", flag, "20"])
        assert info.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err

    def test_identity_fs_moment_subcommand(self, capsys):
        code = main(["identity", "--check", "fs-moment", "--n", "3", "--indices", "1,2,1,2"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
        assert result["passed"] and result["abs_err"] <= result["std_error"]
        assert result["nodes"] == 9  # 3 simplex nodes x 3 phases on the one free coordinate

    def test_run_has_no_parallel_option(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps(base_scenario()))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(scen), "--parallel"])
        assert exc.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_identity_has_no_samples_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identity", "--check", "fs-moment", "--samples", "1000000"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err


def test_averaged_hsc_overflow_is_a_task_error():
    # run as a user runs it, outside the test configuration's warning filters:
    # exit 1, strict JSON with the task's typed error, and nothing on stderr
    src = str(Path(chernlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "chernlab.cli", "identity", "--check", "averaged-hsc",
                          "--metric", "fubini_study:2", "--point", "0,0,0,0", "--b", "1e100,1e100"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (1, "")
    task = json.loads(out.stdout, parse_constant=lambda name: pytest.fail(f"{name} in the report"))["tasks"][0]
    assert task["status"] == "error" and task["error"].startswith("BadIndices: ")


def test_import_loads_no_scipy():
    # the package needs numpy only; scipy is a dependency of the tests.  Import
    # does no numerical set-up either: no numpy.polynomial (Gauss rules), and the
    # identity checks build their cubature rules per call
    src = str(Path(chernlab.__file__).resolve().parents[1])
    code = """if True:
        import sys
        built = []
        sys.setprofile(lambda frame, event, arg: event == "call"
                       and frame.f_code.co_name == "_simplex_nodes" and built.append(1))
        import chernlab.scenario
        sys.setprofile(None)
        assert callable(chernlab.verify._simplex_nodes)
        print(len(built), [m for m in sys.modules if m.split(".")[0] == "scipy"
                           or m.startswith("numpy.polynomial")])
    """
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
