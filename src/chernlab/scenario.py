"""Scenario files: schema validation, task execution, reports, CSV grids.

A scenario is one JSON document (strict schema, unknown keys rejected)
declaring named metrics and maps plus a task list.  Reports are
deterministic given (scenario, seed): all randomness flows from the seed,
key order is sorted, and wall-clock timing is excluded unless explicitly
requested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .cones import FrameSearchConfig, rbc_bounds, sbc_bound
from .curvature import chern_curvature, curvature_report
from .errors import ChernLabError, SchemaError
from .exprparse import parse_metric_expression
from .maps import catalog_map, map_product
from .metrics import Domain, catalog_metric, scale_metric
from .tensors import curvature_in_frame, gram_unitary_frame
from .verify import (
    HypothesisConstants,
    averaged_hsc_check,
    aubin_yau_verify,
    chern_lu_verify,
    estimate_hypotheses,
    family_verify,
    fs_moment_check,
    theorem23_check,
    trace_bound_verify,
)

__all__ = ["Report", "box_grid", "emit_grid", "parse_grid_spec", "parse_point_spec", "run_scenario"]

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------


def _require_keys(obj, allowed, required, loc):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", loc)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}", loc)
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing required key {key!r}", loc)


def _number(value, loc):
    if not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {value!r}", loc)
    return float(value)


def _positive_int(value, loc):
    if not isinstance(value, int) or value < 1:
        raise SchemaError(f"expected a positive integer, got {value!r}", loc)
    return value


def _as_complex(value, loc):
    """Complex scalar from a number or an [re, im] pair."""
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) for v in value
    ):
        return complex(value[0], value[1])
    raise SchemaError(f"expected a number or [re, im] pair, got {value!r}", loc)


def _as_point(value, loc):
    if not isinstance(value, list) or not value:
        raise SchemaError("point must be a nonempty list of coordinates", loc)
    return np.array([_as_complex(v, f"{loc}[{i}]") for i, v in enumerate(value)])


def parse_point_spec(text, loc):
    """Comma-separated reals as document coordinates ``[[re, im], ...]``.

    n reals are n real coordinates; 2n reals are n interleaved (re, im) pairs.
    """
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise SchemaError(f"coordinates must be numbers, got {text!r}", loc) from exc
    if len(values) % 2 == 0:
        return [[values[i], values[i + 1]] for i in range(0, len(values), 2)]
    return [[v, 0.0] for v in values]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def box_grid(center, half, per_axis):
    """Row-major real-coordinate grid around ``center`` in C^n.

    Axes are ordered (re z_1, im z_1, re z_2, im z_2, ...) with the last
    axis varying fastest; each of the 2n axes carries ``per_axis`` points
    spanning ``[c - half, c + half]``.
    """
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    n = center.shape[0]
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
    axes = []
    for i in range(n):
        axes.append(np.linspace(center[i].real - half, center[i].real + half, per_axis))
        axes.append(np.linspace(center[i].imag - half, center[i].imag + half, per_axis))
    points = []
    for idx in np.ndindex(*(per_axis,) * (2 * n)):
        z = np.empty(n, dtype=complex)
        for i in range(n):
            z[i] = axes[2 * i][idx[2 * i]] + 1j * axes[2 * i + 1][idx[2 * i + 1]]
        points.append(z)
    return points


def parse_grid_spec(spec):
    """Parse a CLI grid spec like ``box:center=0,0;half=0.4;per-axis=5``.

    Returns the scenario document's grid object ``{"center", "half",
    "per_axis"}``; omitted fields default to center 0, half 0.25, per-axis 3.
    """
    if not spec.startswith("box:"):
        raise SchemaError(f"unsupported grid spec {spec!r} (expected 'box:...')", "--grid")
    fields = {}
    for part in spec[len("box:") :].split(";"):
        if not part:
            continue
        if "=" not in part:
            raise SchemaError(f"malformed grid field {part!r}", "--grid")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"center", "half", "per-axis"}
    if unknown:
        raise SchemaError(f"unknown grid fields {sorted(unknown)}", "--grid")
    try:
        half = float(fields.get("half", "0.25"))
        per_axis = int(fields.get("per-axis", "3"))
    except ValueError as exc:
        raise SchemaError(f"malformed grid spec: {exc}", "--grid") from exc
    center = parse_point_spec(fields.get("center", "0"), "--grid")
    return {"center": center, "half": half, "per_axis": per_axis}


def _grid_from_json(obj, loc):
    _require_keys(obj, {"center", "half", "per_axis"}, {"center", "half", "per_axis"}, loc)
    center = _as_point(obj["center"], f"{loc}.center")
    half = _number(obj["half"], f"{loc}.half")
    return box_grid(center, half, _positive_int(obj["per_axis"], f"{loc}.per_axis"))


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


def _load_metric(spec, loc):
    allowed = {"catalog", "params", "expression", "dim", "domain", "scale"}
    _require_keys(spec, allowed, set(), loc)
    if ("catalog" in spec) == ("expression" in spec):
        raise SchemaError("metric needs exactly one of 'catalog' or 'expression'", loc)
    if "catalog" in spec:
        metric = catalog_metric(spec["catalog"], tuple(spec.get("params", [])))
    else:
        if "dim" not in spec:
            raise SchemaError("expression metrics need 'dim'", loc)
        domain = None
        if "domain" in spec:
            dom_loc = f"{loc}.domain"
            dom = spec["domain"]
            _require_keys(dom, {"center", "radius", "inner_radius", "norm"}, {"center", "radius"}, dom_loc)
            norm = dom.get("norm", "l2")
            if norm not in ("l2", "max"):
                raise SchemaError(f"unknown domain norm {norm!r} (expected 'l2' or 'max')", f"{dom_loc}.norm")
            domain = Domain(
                center=tuple(_as_point(dom["center"], f"{dom_loc}.center")),
                radius=_number(dom["radius"], f"{dom_loc}.radius"),
                inner_radius=_number(dom.get("inner_radius", 0.0), f"{dom_loc}.inner_radius"),
                norm=norm,
            )
        dim = _positive_int(spec["dim"], f"{loc}.dim")
        metric = parse_metric_expression(spec["expression"], dim, domain=domain)
    if "scale" in spec:
        metric = scale_metric(metric, _number(spec["scale"], f"{loc}.scale"))
    return metric


def _load_map(spec, loc, maps):
    allowed = {"kind", "dim", "c", "matrix", "k", "a", "factors"}
    _require_keys(spec, allowed, {"kind"}, loc)
    kind = spec["kind"]
    if kind == "product":
        names = spec.get("factors")
        if not isinstance(names, list) or not names:
            raise SchemaError("product map needs a list of factor names", loc)
        missing = [nm for nm in names if nm not in maps]
        if missing:
            raise SchemaError(f"undefined factor maps {missing}", loc)
        return map_product([maps[nm] for nm in names])
    params = {}
    if kind == "identity":
        if "dim" not in spec:
            raise SchemaError("identity map needs 'dim'", loc)
        params["dim"] = _positive_int(spec["dim"], f"{loc}.dim")
    elif kind == "scaling":
        params["c"] = _as_complex(spec.get("c", 1.0), f"{loc}.c")
        params["dim"] = _positive_int(spec.get("dim", 1), f"{loc}.dim")
    elif kind == "linear":
        rows = spec.get("matrix")
        if not isinstance(rows, list) or not rows:
            raise SchemaError("linear map needs 'matrix'", loc)
        params["matrix"] = [
            [_as_complex(v, f"{loc}.matrix[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    elif kind == "power":
        params["k"] = _positive_int(spec.get("k", 1), f"{loc}.k")
    elif kind == "mobius":
        params["a"] = _as_complex(spec.get("a", 0.0), f"{loc}.a")
    else:
        raise SchemaError(f"unknown map kind {kind!r}", loc)
    return catalog_map(kind, **params)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _jsonify(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return _jsonify([complex(v) for v in value.reshape(-1)]) if value.ndim == 1 else [
                _jsonify(row) for row in value
            ]
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _verdict_payload(verdict):
    return {
        "theorem": verdict.theorem,
        "passed": verdict.passed,
        "bound": verdict.bound,
        "sup_energy": verdict.sup_energy,
        "tol": verdict.tol,
        "constants": _jsonify(verdict.constants.as_dict()),
        "provenance": dict(verdict.constants.provenance),
        "achieved_at": _jsonify(verdict.constants.achieved_at),
        "records": _jsonify(verdict.records),
        "notes": _jsonify(verdict.notes),
    }


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

_TASK_KEYS = {
    "curvature": {"kind", "metric", "point", "tol", "seed"},
    "rbc": {"kind", "metric", "point", "search", "seed"},
    "sbc": {"kind", "metric", "point", "search", "seed"},
    "schwarz": {
        "kind",
        "theorem",
        "preset",
        "map",
        "source",
        "target",
        "mu",
        "grid",
        "constants",
        "tol",
        "seed",
        "kappa_mode",
        "search",
    },
    "identity": {
        "kind",
        "check",
        "n",
        "indices",
        "samples",
        "trials",
        "tol",
        "seed",
        "metric",
        "point",
        "b",
        "diagonal",
    },
}

_CONSTANT_KEYS = {"c1", "c2", "c3", "c4", "kappa", "kappa1", "kappa2", "r", "n"}


def _search_cfg(spec, loc, seed):
    if spec is None:
        return FrameSearchConfig(seed=seed)
    _require_keys(spec, {"n_starts", "max_iter", "step_tol", "seed"}, set(), loc)
    return FrameSearchConfig(
        n_starts=_positive_int(spec.get("n_starts", 8), f"{loc}.n_starts"),
        max_iter=_positive_int(spec.get("max_iter", 40), f"{loc}.max_iter"),
        step_tol=_number(spec.get("step_tol", 1e-4), f"{loc}.step_tol"),
        seed=spec.get("seed", seed),
    )


def _metric_ref(name, metrics, loc):
    if name not in metrics:
        raise SchemaError(f"undefined metric {name!r}", loc)
    return metrics[name]


def _run_task(task, metrics, maps, loc, default_seed):
    kind = task.get("kind")
    if kind not in _TASK_KEYS:
        raise SchemaError(f"unknown task kind {kind!r}", loc)
    _require_keys(task, _TASK_KEYS[kind], {"kind"}, loc)
    seed = task.get("seed", default_seed)

    if kind == "curvature":
        metric = _metric_ref(task["metric"], metrics, f"{loc}.metric")
        point = _as_point(task["point"], f"{loc}.point")
        report = curvature_report(metric, point, kahler_tol=task.get("tol", 1e-6))
        return {
            "point": _jsonify(list(point)),
            "scal": report.scal,
            "scal_tilde": report.scal_tilde,
            "kahler_symmetric": report.kahler_symmetric,
            "kahler_residue": report.kahler_residue,
            "fd_error_estimate": report.fd_error_estimate,
            "ric1": _jsonify(report.ric1),
            "ric2": _jsonify(report.ric2),
            "ric3": _jsonify(report.ric3),
            "tensor_max_abs": float(np.max(np.abs(report.tensor))),
        }

    if kind in ("rbc", "sbc"):
        metric = _metric_ref(task["metric"], metrics, f"{loc}.metric")
        point = _as_point(task["point"], f"{loc}.point")
        cfg = _search_cfg(task.get("search"), f"{loc}.search", seed)
        tensor = chern_curvature(metric, point)
        g = metric(point)
        if kind == "rbc":
            res = rbc_bounds(tensor, g, cfg)
            return {
                "point": _jsonify(list(point)),
                "inf": res.inf,
                "sup": res.sup,
                "heuristic": res.heuristic,
            }
        res = sbc_bound(tensor, g, cfg)
        payload = {"point": _jsonify(list(point)), "status": res.status}
        if res.status == "finite":
            payload.update(
                inf_val=res.inf_val, arg=_jsonify(res.arg), marginal=res.marginal, margin=res.margin
            )
        else:
            cert = res.divergence_certificate
            payload["certificate"] = {
                "gap_index": cert.gap_index,
                "base": _jsonify(cert.base),
                "leading_coefficient": cert.leading_coefficient,
            }
        return payload

    if kind == "schwarz":
        return _run_schwarz(task, metrics, maps, loc, seed)

    return _run_identity(task, metrics, loc, seed)


def _run_schwarz(task, metrics, maps, loc, seed):
    theorem = task.get("theorem")
    if theorem not in ("chern_lu", "aubin_yau", "family", "trace_bound"):
        raise SchemaError(f"unknown theorem {theorem!r}", f"{loc}.theorem")
    source = _metric_ref(task["source"], metrics, f"{loc}.source")
    target = _metric_ref(task["target"], metrics, f"{loc}.target")
    mu = _metric_ref(task["mu"], metrics, f"{loc}.mu") if "mu" in task else None
    if theorem == "trace_bound":
        fmap = None
    else:
        name = task.get("map")
        if name not in maps:
            raise SchemaError(f"undefined map {name!r}", f"{loc}.map")
        fmap = maps[name]
    if "grid" not in task:
        raise SchemaError("schwarz tasks need a grid", loc)
    grid = _grid_from_json(task["grid"], f"{loc}.grid")
    tol = task.get("tol", 1e-6)
    cfg = _search_cfg(task.get("search"), f"{loc}.search", seed)

    constants = None
    if "constants" in task:
        _require_keys(task["constants"], _CONSTANT_KEYS, set(), f"{loc}.constants")
        constants = HypothesisConstants(**task["constants"])
        for key in task["constants"]:
            constants.provenance[key] = "user"
        constants.n = constants.n or (source.dim if fmap is None else fmap.source_dim)
        constants.r = constants.r or constants.n
    else:
        from_map = fmap if fmap is not None else None
        if theorem == "trace_bound":
            constants = estimate_hypotheses(
                source, target, _identity_for(source), grid, "trace_bound", frame_cfg=cfg
            )
        else:
            constants = estimate_hypotheses(
                source,
                target,
                from_map,
                grid,
                theorem,
                mu=mu,
                frame_cfg=cfg,
                kappa_mode=task.get("kappa_mode", "auto"),
            )

    if theorem == "chern_lu":
        verdict = chern_lu_verify(source, target, fmap, constants, grid, tol=tol)
    elif theorem == "aubin_yau":
        verdict = aubin_yau_verify(source, target, fmap, constants, grid, tol=tol)
    elif theorem == "family":
        if mu is None:
            raise SchemaError("family tasks need 'mu'", loc)
        verdict = family_verify(
            source, target, mu, fmap, constants, grid, tol=tol, preset=task.get("preset")
        )
    else:
        verdict = trace_bound_verify(source, target, constants, grid, tol=tol)
    return _verdict_payload(verdict)


def _identity_for(metric):
    from .maps import map_identity

    return map_identity(metric.dim)


def _run_identity(task, metrics, loc, seed):
    check = task.get("check")
    if check == "fs-moment":
        res = fs_moment_check(
            int(task.get("n", 2)),
            tuple(task.get("indices", (1, 1, 1, 1))),
            n_samples=int(task.get("samples", 1_000_000)),
            seed=seed,
        )
        return {
            "check": check,
            "estimate": _jsonify(res.estimate),
            "target": res.target,
            "abs_err": res.abs_err,
            "std_error": res.std_error,
            "within_3se": bool(res.abs_err <= 3 * res.std_error + 1e-12),
        }
    if check == "theorem23":
        return {
            "check": check,
            **_jsonify(
                theorem23_check(
                    int(task.get("n", 3)),
                    trials=int(task.get("trials", 100)),
                    seed=seed,
                    tol=float(task.get("tol", 1e-10)),
                    diagonal=task.get("diagonal", "zero"),
                )
            ),
        }
    if check == "averaged-hsc":
        metric = _metric_ref(task["metric"], metrics, f"{loc}.metric")
        point = _as_point(task["point"], f"{loc}.point")
        tensor = chern_curvature(metric, point)
        frame = gram_unitary_frame(metric(point))
        fm = curvature_in_frame(tensor, frame)
        res = averaged_hsc_check(
            fm,
            np.asarray(task.get("b", [1.0] * metric.dim), dtype=float),
            n_samples=int(task.get("samples", 200_000)),
            seed=seed,
        )
        return {
            "check": check,
            "lhs": res.lhs,
            "rhs": res.rhs,
            "abs_err": res.abs_err,
            "std_error": res.std_error,
            "within_3se": bool(res.abs_err <= 3 * res.std_error + 1e-12),
        }
    raise SchemaError(f"unknown identity check {check!r}", f"{loc}.check")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Machine-readable scenario outcome; deterministic given (scenario, seed)."""

    format_version: int
    seed: int
    scenario: dict
    tasks: list
    passed: bool
    timing_ms: dict = field(default_factory=dict)

    def to_json(self, include_timing=False):
        payload = {
            "format_version": self.format_version,
            "seed": self.seed,
            "scenario": self.scenario,
            "tasks": self.tasks,
            "passed": self.passed,
        }
        if include_timing:
            payload["timing_ms"] = self.timing_ms
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _task_passed(result):
    if "passed" in result:
        return bool(result["passed"])
    if "within_3se" in result:
        return bool(result["within_3se"])
    return True


def run_scenario(source, seed=None, parallel=False):
    """Execute a scenario (path or already-loaded dict) and build a Report.

    Tasks run in order (or task-parallel with ``parallel=True``; results
    are still collected in order so the report is identical).  Per-task
    failures are recorded and the run continues; the report passes only
    if every task succeeded and every verdict passed.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    else:
        doc = source

    _require_keys(doc, {"version", "seed", "metrics", "maps", "tasks"}, {"version", "tasks"}, "$")
    if doc["version"] != 1:
        raise SchemaError(f"unsupported scenario version {doc['version']!r}", "$.version")
    if seed is None:
        seed = int(doc.get("seed", 0))

    metrics = {}
    for name, spec in (doc.get("metrics") or {}).items():
        metrics[name] = _load_metric(spec, f"$.metrics.{name}")
    maps = {}
    for name, spec in (doc.get("maps") or {}).items():
        maps[name] = _load_map(spec, f"$.maps.{name}", maps)
    tasks = doc.get("tasks")
    if not isinstance(tasks, list):
        raise SchemaError("tasks must be a list", "$.tasks")

    def execute(index, task):
        loc = f"$.tasks[{index}]"
        start = perf_counter()
        try:
            result = _run_task(task, metrics, maps, loc, default_seed=seed + index)
            entry = {
                "index": index,
                "kind": task.get("kind"),
                "status": "ok" if _task_passed(result) else "fail",
                "result": result,
            }
        except ChernLabError as exc:
            entry = {
                "index": index,
                "kind": task.get("kind"),
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }
        return entry, (perf_counter() - start) * 1000.0

    results = [None] * len(tasks)
    timings = {}
    if parallel and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor() as pool:
            futures = [pool.submit(execute, i, t) for i, t in enumerate(tasks)]
            for i, fut in enumerate(futures):
                results[i], timings[str(i)] = fut.result()
    else:
        for i, task in enumerate(tasks):
            results[i], timings[str(i)] = execute(i, task)

    effective = {
        "version": 1,
        "seed": seed,
        "metrics": doc.get("metrics") or {},
        "maps": doc.get("maps") or {},
        "tasks": tasks,
    }
    passed = all(entry["status"] == "ok" for entry in results)
    return Report(
        format_version=FORMAT_VERSION,
        seed=seed,
        scenario=effective,
        tasks=results,
        passed=passed,
        timing_ms=timings,
    )


# ---------------------------------------------------------------------------
# CSV grid output
# ---------------------------------------------------------------------------


def emit_grid(records, path):
    """Write per-point records to CSV.

    Header: ``re(z_1), im(z_1), ..., energy, lhs, rhs, margin``; one row per
    record in row-major grid order; floats printed with 17 significant
    digits, '.' decimal separator, ',' field separator, LF line ends.
    """
    if records:
        n = len(records[0]["z"])
    else:
        n = 0
    header = []
    for i in range(n):
        header += [f"re(z_{i + 1})", f"im(z_{i + 1})"]
    header += ["energy", "lhs", "rhs", "margin"]

    def fmt(x):
        return f"{float(x):.17g}"

    lines = [",".join(header)]
    for rec in records:
        row = []
        for re_im in rec["z"]:
            row += [fmt(re_im[0]), fmt(re_im[1])]
        row += [fmt(rec["energy"]), fmt(rec["lhs"]), fmt(rec["rhs"]), fmt(rec["margin"])]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path
