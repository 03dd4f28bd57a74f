"""Scenario files: schema validation, task execution, reports, CSV grids.

A scenario is one JSON document declaring named metrics and maps plus a
task list.  ``scenario.schema.json`` next to this module is the one
definition of a valid document (unknown keys rejected, allowed and required
keys per task and map kind); the code checks only the names a document
refers to.  Reports are deterministic given (scenario, seed): no task draws
a random number, the seed is only echoed, key order is sorted, and
wall-clock timing is excluded unless explicitly requested.  The tasks of a
run share one ``CurvatureStore``, so each (metric, point) curvature is
computed once per run, with the bits it gets alone.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from .cones import rbc_bounds, sbc_bound
from .curvature import CurvatureStore, curvature_report
from .errors import BadParams, ChernLabError, SchemaError
from .exprparse import parse_metric_expression
from .maps import catalog_map
from .metrics import Domain, catalog_metric, scale_metric
from .tensors import curvature_in_frame, gram_unitary_frame
from .verify import (
    SchwarzPass,
    averaged_hsc_check,
    estimate_hypotheses,
    fs_moment_check,
    schwarz_verify,
    theorem23_check,
)

__all__ = ["Report", "box_grid", "emit_grid", "parse_grid_spec", "parse_point_spec", "run_scenario"]

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


@functools.cache
def scenario_schema():
    """The parsed ``scenario.schema.json``: one shared dict, not to be mutated."""
    return json.loads(Path(__file__).with_name("scenario.schema.json").read_text(encoding="utf-8"))


@functools.cache
def _document_schema():
    """The schema with the task list left unchecked: each task is checked where it runs."""
    schema = scenario_schema()
    return {**schema, "properties": {**schema["properties"], "tasks": {"type": "array"}}}


def _finite(v):
    """A JSON number within the range of a double: true, NaN, Infinity (which
    Python's json module parses) and larger integers are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# JSON types of values as Python's json module loads them: numbers are
# finite, and 2.0 is an integer (JSON does not tell 2 from 2.0)
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _finite,
    "integer": lambda v: _finite(v) and (isinstance(v, int) or v.is_integer()),
}


def _same(a, b):
    """JSON equality of scalars: true is not 1, 1.0 is."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _fail(message, loc):
    raise SchemaError(message, loc)


@functools.cache
def _ref(pointer):
    """The node of the schema at the JSON pointer ``#/...``."""
    return functools.reduce(dict.__getitem__, pointer.removeprefix("#/").split("/"), scenario_schema())


def _attempt(value, node, loc):
    """``[_conform(value, node, loc)]``, or [] where that raises SchemaError."""
    try:
        return [_conform(value, node, loc)]
    except SchemaError:
        return []


def _one_of(value, options, loc):
    matches = [match for option in options for match in _attempt(value, option, loc)]
    return matches[0] if len(matches) == 1 else _fail(
        f"matches {len(matches)} of the alternatives {options}, not one", loc)


def _members(value, node, loc):
    """An object's keys against ``properties`` and ``additionalProperties``."""
    if not isinstance(value, dict):
        return value
    properties, others = node.get("properties", {}), node.get("additionalProperties", True)
    for key in value:
        if others is False and key not in properties:
            _fail(f"unknown key {key!r}", loc)
    return {key: _conform(item, properties.get(key, others), f"{loc}.{key}") if key in properties or others
            is not True else item for key, item in value.items()}


def _dependents(value, node, loc):
    for key, needed in node["dependentRequired"].items():
        if isinstance(value, dict) and key in value and not value.keys() >= set(needed):
            _fail(f"key {key!r} needs the keys {needed}", loc)
    return value


# The keywords scenario.schema.json uses, in the order they are checked: each
# is a step (value, node, loc) -> value that a node holding one of them runs.
_STEPS = (
    (("$ref",), lambda v, node, loc: _conform(v, _ref(node["$ref"]), loc)),
    (("type",), lambda v, node, loc: (int(v) if node["type"] == "integer" else v) if _TYPES[node["type"]](v)
     else _fail(f"expected {node['type']}, got {v!r}", loc)),
    (("const",), lambda v, node, loc: v if _same(v, node["const"])
     else _fail(f"expected {node['const']!r}, got {v!r}", loc)),
    (("enum",), lambda v, node, loc: v if any(_same(v, option) for option in node["enum"])
     else _fail(f"expected one of {node['enum']}, got {v!r}", loc)),
    (("minimum",), lambda v, node, loc: _fail(f"expected a value >= {node['minimum']}, got {v!r}", loc)
     if _finite(v) and v < node["minimum"] else v),
    (("exclusiveMinimum",), lambda v, node, loc: _fail(
        f"expected a value > {node['exclusiveMinimum']}, got {v!r}", loc)
     if _finite(v) and v <= node["exclusiveMinimum"] else v),
    (("minItems",), lambda v, node, loc: _fail(f"expected at least {node['minItems']} items, got {len(v)}", loc)
     if isinstance(v, list) and len(v) < node["minItems"] else v),
    (("maxItems",), lambda v, node, loc: _fail(f"expected at most {node['maxItems']} items, got {len(v)}", loc)
     if isinstance(v, list) and len(v) > node["maxItems"] else v),
    (("items",), lambda v, node, loc: [_conform(item, node["items"], f"{loc}[{i}]") for i, item in enumerate(v)]
     if isinstance(v, list) else v),
    (("required",), lambda v, node, loc: _fail(
        f"missing required key {next(key for key in node['required'] if key not in v)!r}", loc)
     if isinstance(v, dict) and not v.keys() >= set(node["required"]) else v),
    (("properties", "additionalProperties"), _members),
    (("dependentRequired",), _dependents),
    (("oneOf",), lambda v, node, loc: _one_of(v, node["oneOf"], loc)),
    (("allOf",), lambda v, node, loc: functools.reduce(lambda v, option: _conform(v, option, loc), node["allOf"], v)),
    (("if",), lambda v, node, loc: _conform(v, node["then"], loc) if _attempt(v, node["if"], loc) else v),
)
_CHECKERS = {}  # id(node) -> (node, its steps); holding the node keeps its id from being reused


def _conform(value, node, loc):
    """Check ``value`` against the schema ``node``; raise SchemaError at the first violation.

    Runs the steps of the keywords ``node`` holds, listed once, on its first
    use.  Returns ``value`` with every float the schema types as an integer
    made an int, so that ``"n": 3.0`` reaches the program as 3.
    """
    if isinstance(node, bool):  # the schemas true and false
        return value if node else _fail("not allowed here", loc)
    held = _CHECKERS.get(id(node))
    if held is None:
        held = _CHECKERS[id(node)] = (node, [step for keys, step in _STEPS if any(key in node for key in keys)])
    for step in held[1]:
        value = step(value, node, loc)
    return value


def _as_complex(value):
    """Complex scalar from a number or an [re, im] pair."""
    return complex(*value) if isinstance(value, list) else complex(value)


def _as_point(value):
    return np.array([_as_complex(v) for v in value])


def _reals(text, loc):
    """Comma-separated reals; SchemaError at ``loc`` if one does not parse."""
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise SchemaError(f"coordinates must be numbers, got {text!r}", loc) from exc


def parse_point_spec(text, loc):
    """Comma-separated reals as document coordinates ``[[re, im], ...]``.

    n reals are n real coordinates; 2n reals are n interleaved (re, im) pairs.
    """
    values = _reals(text, loc)
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
    spanning ``[c - half, c + half]``.  Returns the ``(per_axis^(2n), n)``
    stack of points.
    """
    if per_axis < 1:
        raise BadParams("per_axis must be >= 1")
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    axes = [np.linspace(x - half, x + half, per_axis) for c in center for x in (c.real, c.imag)]
    x = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return x[:, 0::2] + 1j * x[:, 1::2]


def parse_grid_spec(spec, dim):
    """Parse a CLI grid spec like ``box:center=0,0;half=0.4;per-axis=5`` for a
    source of dimension ``dim``.

    Returns the scenario document's grid object ``{"center", "half",
    "per_axis"}``; omitted fields default to the origin of C^dim, half 0.25
    and per-axis 3.  ``center`` takes ``dim`` reals (real coordinates) or
    ``2 dim`` reals (interleaved (re, im) pairs); any other count is SchemaError.
    """
    if not spec.startswith("box:"):
        raise SchemaError(f"unsupported grid spec {spec!r} (expected 'box:...')", "--grid")
    parts = [part for part in spec[len("box:") :].split(";") if part]
    for part in parts:
        if "=" not in part:
            raise SchemaError(f"malformed grid field {part!r}", "--grid")
    fields = {key.strip(): value.strip() for key, value in (part.split("=", 1) for part in parts)}
    unknown = set(fields) - {"center", "half", "per-axis"}
    if unknown:
        raise SchemaError(f"unknown grid fields {sorted(unknown)}", "--grid")
    try:
        half = float(fields.get("half", "0.25"))
        per_axis = int(fields.get("per-axis", "3"))
    except ValueError as exc:
        raise SchemaError(f"malformed grid spec: {exc}", "--grid") from exc
    reals = _reals(fields["center"], "--grid") if "center" in fields else [0.0] * dim
    if len(reals) not in (dim, 2 * dim):
        raise SchemaError(f"center takes {dim} reals (real coordinates) or {2 * dim} (re, im pairs), "
                          f"got {len(reals)}", "--grid")
    center = [[v, 0.0] for v in reals] if len(reals) == dim else [reals[i:i + 2] for i in range(0, 2 * dim, 2)]
    return {"center": center, "half": half, "per_axis": per_axis}


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


def _lookup(table, what, name, loc):
    if name not in table:
        raise SchemaError(f"undefined {what} {name!r}", loc)
    return table[name]


def _load_metric(name, spec):
    if "catalog" in spec:
        metric = catalog_metric(spec["catalog"], tuple(spec.get("params", [])))
    else:
        domain = None
        if "domain" in spec:
            dom = spec["domain"]
            center = _as_point(dom["center"])
            if center.shape != (spec["dim"],):
                raise SchemaError(f"domain center has {center.size} coordinates, expected "
                                  f"dim = {spec['dim']}", f"$.metrics.{name}.domain.center")
            domain = Domain(
                center=tuple(center),
                radius=dom["radius"],
                inner_radius=dom.get("inner_radius", 0.0),
                norm=dom.get("norm", "l2"),
            )
        metric = parse_metric_expression(spec["expression"], spec["dim"], domain=domain)
    if "scale" in spec:
        metric = scale_metric(metric, spec["scale"])
    return metric


def _load_map(spec, loc, maps):
    params = {key: value for key, value in spec.items() if key != "kind"}
    if "factors" in params:
        params["factors"] = [_lookup(maps, "factor map", name, loc) for name in params["factors"]]
    for key in ("c", "a"):
        if key in params:
            params[key] = _as_complex(params[key])
    if "matrix" in params:
        params["matrix"] = [[_as_complex(v) for v in row] for row in params["matrix"]]
    return catalog_map(spec["kind"], **params)


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
        "constants": _jsonify(verdict.constants.values),
        "provenance": dict(verdict.constants.provenance),
        "achieved_at": _jsonify(verdict.constants.achieved_at),
        "records": _jsonify(verdict.records),
        "notes": _jsonify(verdict.notes),
    }


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def _run_task(task, metrics, maps, loc, store):
    kind = task["kind"]
    if kind == "schwarz":
        return _run_schwarz(task, metrics, maps, loc, store)
    if kind == "identity":
        return _run_identity(task, metrics, loc, store)

    metric = _lookup(metrics, "metric", task["metric"], f"{loc}.metric")
    point = _as_point(task["point"])
    if kind == "curvature":
        report = curvature_report(metric, point, kahler_tol=task.get("tol", 1e-6), store=store)
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

    tensor, g, _ = store.at(metric, point[None])[0]
    if kind == "rbc":
        res = rbc_bounds(tensor, g)
        return {
            "point": _jsonify(list(point)),
            "inf": res.inf,
            "sup": res.sup,
            "heuristic": res.heuristic,
        }
    res = sbc_bound(tensor, g)
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


def _run_schwarz(task, metrics, maps, loc, store):
    source = _lookup(metrics, "metric", task["source"], f"{loc}.source")
    target = _lookup(metrics, "metric", task["target"], f"{loc}.target")
    mu = _lookup(metrics, "metric", task["mu"], f"{loc}.mu") if "mu" in task else None
    fmap = None if task["theorem"] == "trace_bound" else _lookup(maps, "map", task["map"], f"{loc}.map")
    grid = box_grid(_as_point(task["grid"]["center"]), task["grid"]["half"], task["grid"]["per_axis"])
    sp = SchwarzPass(source, target, fmap, grid, mu, curvatures=store)
    # the document's constants are kept; only those it leaves out are estimated
    constants = estimate_hypotheses(sp, task["theorem"], task.get("constants"),
                                    task.get("kappa_mode"), task.get("preset"))
    return _verdict_payload(schwarz_verify(sp, constants, tol=task.get("tol", 1e-6)))


def _run_identity(task, metrics, loc, store):
    check = task["check"]
    if check == "fs-moment":
        res = fs_moment_check(task.get("n", 2), tuple(task.get("indices", (1, 1, 1, 1))))
        return {"check": check, **_cubature_payload(res, "estimate", "target")}
    if check == "theorem23":
        return {"check": check, **theorem23_check(task.get("n", 3))}
    metric = _lookup(metrics, "metric", task["metric"], f"{loc}.metric")
    point = _as_point(task["point"])
    tensor, g, _ = store.at(metric, point[None])[0]
    frame = gram_unitary_frame(g)
    fm = curvature_in_frame(tensor, frame)
    res = averaged_hsc_check(fm, np.asarray(task.get("b", [1.0] * metric.dim), dtype=float))
    return {"check": check, **_cubature_payload(res, "lhs", "rhs")}


def _cubature_payload(res, lhs, rhs):
    # std_error, the rounding bound, keeps the name the benchmark's checks read
    fields = {lhs: _jsonify(res.lhs), rhs: res.rhs, "abs_err": res.abs_err, "std_error": res.std_error}
    return {**fields, "passed": res.passed, "rule": res.rule, "nodes": res.nodes}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _report_text(payload):
    """A report as compact JSON: sorted keys, no spaces, one line."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _parsed(key):
    return property(lambda self: json.loads(self._text)[key], doc=f"``{key}``, parsed from the report text.")


class Report:
    """Machine-readable scenario outcome; deterministic given (scenario, seed).

    A report is its JSON text, serialized once, and the wall time of each
    task; ``format_version``, ``seed``, ``scenario``, ``tasks`` and
    ``passed`` are parsed from the text on each read.
    """

    __slots__ = ("_text", "timing_ms")

    def __init__(self, text, timing_ms):
        self._text = text
        self.timing_ms = timing_ms

    format_version = _parsed("format_version")
    seed = _parsed("seed")
    scenario = _parsed("scenario")
    tasks = _parsed("tasks")
    passed = _parsed("passed")

    def to_json(self, include_timing=False):
        """The report text (the same string on every call), or a new text with ``timing_ms`` added."""
        if include_timing:
            return _report_text({**json.loads(self._text), "timing_ms": self.timing_ms})
        return self._text


def _task_passed(result):
    return bool(result.get("passed", True))


def run_scenario(source, seed=None, parallel=False):
    """Execute a scenario (path or already-loaded dict) and build a Report.

    A document the schema rejects outside its task list raises SchemaError,
    and so does a ``seed`` argument the schema would reject as the
    document's seed; a task the schema rejects, or one that fails, is
    recorded on that task and the run continues.  Tasks run in order; the
    report passes only if every task succeeded and every verdict passed.
    ``parallel`` is accepted only as False, the sequential run; any other
    value is BadParams.
    """
    if parallel is not False:
        raise BadParams("tasks run in order; parallel must be False")
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # a JSONDecodeError, a too long integer, deep arrays
                raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    else:
        doc = source

    schema = scenario_schema()
    top = _conform(doc, _document_schema(), "$")
    if seed is None:
        seed = top.get("seed", 0)
    else:
        seed = _conform(seed, schema["properties"]["seed"], "seed argument")
    metrics, loaded = {}, {}  # loaded: spec -> metric, so that equal specs share one metric and its curvature
    for name, spec in top.get("metrics", {}).items():
        key = json.dumps(spec, sort_keys=True)
        metrics[name] = loaded[key] = loaded.get(key) or _load_metric(name, spec)
    maps = {}
    for name, spec in top.get("maps", {}).items():
        maps[name] = _load_map(spec, f"$.maps.{name}", maps)
    tasks = doc["tasks"]
    store = CurvatureStore()

    def execute(index, task):
        loc = f"$.tasks[{index}]"
        entry = {"index": index, "kind": task.get("kind") if isinstance(task, dict) else None}
        start = perf_counter()
        try:
            checked = _conform(task, schema["$defs"]["task"], loc)
            result = _run_task(checked, metrics, maps, loc, store)
            entry.update(status="ok" if _task_passed(result) else "fail", result=result)
        except ChernLabError as exc:
            entry.update(status="error", error=f"{type(exc).__name__}: {exc}")
        return entry, (perf_counter() - start) * 1000.0

    runs = [execute(i, task) for i, task in enumerate(tasks)]
    results = [entry for entry, _ in runs]
    effective = {"version": 1, "seed": seed, "metrics": doc.get("metrics", {}), "maps": doc.get("maps", {}),
                 "tasks": tasks}
    passed = all(entry["status"] == "ok" for entry in results)
    payload = {"format_version": FORMAT_VERSION, "seed": seed, "scenario": effective, "tasks": results,
               "passed": passed}
    return Report(_report_text(payload), {str(i): ms for i, (_, ms) in enumerate(runs)})


# ---------------------------------------------------------------------------
# CSV grid output
# ---------------------------------------------------------------------------


def emit_grid(records, path):
    """Write per-point records to CSV.

    Header: ``re(z_1), im(z_1), ..., energy, lhs, rhs, margin``; one row per
    record in row-major grid order; floats printed with 17 significant
    digits, '.' decimal separator, ',' field separator, LF line ends.
    """
    n, columns = (len(records[0]["z"]) if records else 0), ["energy", "lhs", "rhs", "margin"]
    header = [f"{part}(z_{i + 1})" for i in range(n) for part in ("re", "im")] + columns
    rows = [[x for re_im in rec["z"] for x in re_im] + [rec[key] for key in columns] for rec in records]
    lines = [header] + [[f"{float(x):.17g}" for x in row] for row in rows]
    text = "".join(",".join(line) + "\n" for line in lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path
