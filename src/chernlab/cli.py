"""Command-line front end.

Single-shot subcommands (``curvature``, ``rbc``, ``sbc``, ``schwarz``,
``identity``) are sugar: each builds a one-task scenario and runs it
through the same engine as ``run``, so outputs are identical to scenario
runs, byte for byte on every call.  No task reads a seed: ``run --seed``
only sets the seed that the report echoes, and the others echo seed 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BadParams, ChernLabError, DimensionMismatch, SchemaError
from .metrics import catalog_metric
from .scenario import emit_grid, parse_grid_spec, parse_point_spec, run_scenario, scenario_schema


def _metric_arg(text):
    """Parse '[scale*]name[:p1,p2,...]' into a scenario metric entry."""
    spec = {}
    rest = text
    try:
        if "*" in rest:
            scale, rest = rest.split("*", 1)
            spec["scale"] = float(scale)
        if ":" in rest:
            name, params = rest.split(":", 1)
            spec["params"] = [float(p) for p in params.split(",") if p]
        else:
            name, spec["params"] = rest, []
    except ValueError as exc:
        raise BadParams(f"metric spec {text!r}: scale and parameters must be numbers") from exc
    spec["catalog"] = name
    return spec


def _numbers(text, cast, flag):
    """Comma-separated numbers of ``flag``, each through ``cast``; SchemaError if one does not parse."""
    try:
        return [cast(v) for v in text.split(",")]
    except ValueError as exc:
        raise SchemaError(f"expected comma-separated numbers, got {text!r}", flag) from exc


def _metric_dim(spec):
    """Complex dimension of a catalog metric entry, from the catalog itself."""
    return catalog_metric(spec["catalog"], spec["params"]).dim


def _map_arg(text, source_dim):
    if ":" in text:
        kind, arg = text.split(":", 1)
    else:
        kind, arg = text, None
    try:
        if kind == "identity":
            return {"kind": "identity", "dim": source_dim}
        if kind == "scaling":
            c = complex(arg) if arg else 1.0
            return {"kind": "scaling", "c": [c.real, c.imag], "dim": source_dim}
        if kind == "power":
            return {"kind": "power", "k": int(arg)}
        if kind == "mobius":
            a = complex(arg) if arg else 0.0
            return {"kind": "mobius", "a": [a.real, a.imag]}
    except (TypeError, ValueError) as exc:
        raise BadParams(f"map spec {text!r}: malformed parameter {arg!r}") from exc
    raise SchemaError(f"unsupported map spec {text!r} (CLI supports identity, scaling, power, mobius)", "--map")


def _emit(report, args):
    """Write the report, and the grids of its Schwarz tasks if ``--grid-out`` asks; the exit code."""
    text = report.to_json(include_timing=getattr(args, "timing", False))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if getattr(args, "grid_out", None):
        _write_grids(report, args.grid_out)
    return 0 if report.passed else 1


def _write_grids(report, prefix):
    tasks = report.tasks  # parsed from the report text on each read
    for entry in tasks:
        records = (entry.get("result") or {}).get("records")
        if records:
            emit_grid(records, f"{prefix}_task{entry['index']}.csv" if len(tasks) > 1 else prefix)


def _run_single_task(task, metrics, maps, args):
    return _emit(run_scenario({"version": 1, "metrics": metrics, "maps": maps, "tasks": [task]}), args)


def _cmd_catalog(args):
    defs = scenario_schema()["$defs"]
    lines = ["metrics:"]
    lines += [f"  {name}" for name in defs["metric"]["properties"]["catalog"]["enum"]]
    lines.append("maps:")
    lines += [f"  {kind}" for kind in defs["map"]["properties"]["kind"]["enum"]]
    print("\n".join(lines))
    return 0


def _point_task(kind, args):
    """A one-point task on ``--metric`` at ``--point``, with the point's dimension checked."""
    metric = _metric_arg(args.metric)
    point = parse_point_spec(args.point, "--point")
    dim = _metric_dim(metric)
    if len(point) != dim:
        raise DimensionMismatch(
            f"--point has {len(point)} complex coordinates, {args.metric} has dimension {dim}"
        )
    return {"kind": kind, "metric": "m", "point": point}, {"m": metric}


def _cmd_curvature(args):
    task, metrics = _point_task("curvature", args)
    if args.tol is not None:
        task["tol"] = args.tol
    return _run_single_task(task, metrics, {}, args)


def _cmd_cone(args, kind):
    task, metrics = _point_task(kind, args)
    return _run_single_task(task, metrics, {}, args)


def _cmd_schwarz(args):
    metrics = {"source": _metric_arg(args.source), "target": _metric_arg(args.target)}
    maps = {}
    task = {
        "kind": "schwarz",
        "theorem": args.theorem,
        "source": "source",
        "target": "target",
        "grid": parse_grid_spec(args.grid),
    }
    if args.theorem != "trace_bound":
        maps["f"] = _map_arg(args.map, _metric_dim(metrics["source"]))
        task["map"] = "f"
    if args.mu:
        metrics["mu"] = _metric_arg(args.mu)
        task["mu"] = "mu"
    if args.preset:
        task["preset"] = args.preset
    if args.constants:
        try:
            task["constants"] = json.loads(args.constants)
        except ValueError as exc:
            raise SchemaError(f"invalid JSON: {exc}", "--constants") from exc
    if args.tol is not None:
        task["tol"] = args.tol
    if args.kappa_mode:
        task["kappa_mode"] = args.kappa_mode
    return _run_single_task(task, metrics, maps, args)


def _cmd_identity(args):
    task = {"kind": "identity", "check": args.check}
    metrics = {}
    if args.check == "fs-moment":
        task["n"] = args.n
        task["indices"] = _numbers(args.indices, int, "--indices")
    elif args.check == "theorem23":
        task["n"] = args.n
    else:
        if not args.metric or not args.point:
            raise SchemaError("averaged-hsc needs --metric and --point", "--check")
        metrics["m"] = _metric_arg(args.metric)
        task["metric"] = "m"
        task["point"] = parse_point_spec(args.point, "--point")
        if args.b:
            task["b"] = _numbers(args.b, float, "--b")
    return _run_single_task(task, metrics, {}, args)


def _cmd_run(args):
    return _emit(run_scenario(args.scenario, seed=args.seed), args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chernlab",
        description="Curvature invariants of Hermitian chart metrics and "
        "pointwise verification of Schwarz-type inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the names a task field takes, as the scenario schema lists them
    task = scenario_schema()["$defs"]["task"]["properties"]

    def common(p, grid=False):
        p.add_argument("--out", default=None, help="write the report JSON here")
        p.add_argument("--timing", action="store_true", help="include wall-clock timing (breaks byte determinism)")
        if grid:
            p.add_argument("--grid-out", default=None, help="write per-point CSV grid(s) here")

    p = sub.add_parser("catalog", help="list the model metric and map catalogs")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("curvature", help="curvature report at a point")
    p.add_argument("--metric", required=True, help="e.g. poincare_disk:1 or 3*fubini_study:2")
    p.add_argument("--point", required=True, help="comma-separated reals (re,im pairs)")
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_curvature)

    for kind, help_text in (
        ("rbc", "real bisectional curvature bounds at a point: exact for n <= 2, a PSD-cone ascent for n >= 3"),
        ("sbc", "ordered-cone curvature infimum over all frames at a point: the Gram frame, an "
                "orthonormal-pair test for unboundedness, then a descent over positive-definite weights"),
    ):
        p = sub.add_parser(kind, help=help_text, description=help_text)
        p.add_argument("--metric", required=True)
        p.add_argument("--point", required=True)
        common(p)
        p.set_defaults(func=lambda a, _k=kind: _cmd_cone(a, _k))

    p = sub.add_parser("schwarz", help="verify a Schwarz-type inequality on a grid")
    p.add_argument("--theorem", required=True, choices=task["theorem"]["enum"])
    p.add_argument("--source", required=True, help="source metric spec")
    p.add_argument("--target", required=True, help="target metric spec")
    p.add_argument("--map", default="identity", help="map spec (identity, scaling:c, power:k, mobius:a)")
    p.add_argument("--mu", default=None, help="auxiliary metric for the family theorem")
    p.add_argument("--preset", default=None, choices=task["preset"]["enum"])
    p.add_argument("--grid", required=True, help="box:center=..;half=..;per-axis=..")
    p.add_argument("--constants", default=None, help="JSON object of user constants; the others are estimated")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--kappa-mode", dest="kappa_mode", default=None, choices=task["kappa_mode"]["enum"])
    common(p, grid=True)
    p.set_defaults(func=_cmd_schwarz)

    p = sub.add_parser("identity", help="standalone identity checks")
    p.add_argument("--check", required=True, choices=task["check"]["enum"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--indices", default="1,1,1,1")
    p.add_argument("--metric", default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--b", default=None)
    common(p)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("--scenario", required=True)
    common(p, grid=True)
    p.add_argument("--seed", type=int, default=None,
                   help="the seed the report echoes (default: the scenario's own); no task reads it")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (ChernLabError, OSError) as exc:  # OSError: a scenario or --out path that cannot be opened
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
