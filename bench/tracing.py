"""Spans and counters around chernlab's public functions, from outside the package.

``Tracer.installed()`` replaces every public function of every chernlab
module, in every chernlab module namespace that imported it, with a wrapper
that records a span (name, start, end, parent).  ``chern_curvature``, for
example, is wrapped in ``curvature``, ``verify``, ``scenario`` and the package
namespace alike, so calls from any module are seen.  The evaluator calls of
metrics and maps and ``Report.to_json`` get spans too; the ``scipy`` calls of
the frame search and of L-BFGS are only counted, so their time stays in the
self time of the ``cones`` function that made them.  Leaving the context
restores the original functions.

A span's self time is its duration minus the durations of its direct child
spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

import scipy.linalg
import scipy.optimize

# (span name, reported fields): "calls", "self_s" (self time) or "s" (inclusive time)
SPAN_METRICS = (
    ("cones.rbc_bounds", ("calls", "self_s")),
    ("cones.sbc_bound", ("calls", "self_s")),
    ("cones.orthant_rayleigh_extrema", ("calls", "self_s")),
    ("cones.sbc_infimum", ("calls", "self_s")),
    ("tensors.curvature_in_frame", ("calls", "self_s")),
    ("tensors.hermitian_inverse", ("calls",)),
    ("metrics.metric_derivatives", ("calls", "self_s")),
    ("metrics.metric_eval", ("self_s",)),
    ("fd.wirtinger_derivatives", ("calls", "self_s")),
    ("fd.wirtinger_hessian", ("calls", "self_s")),
    ("curvature.chern_curvature", ("calls", "self_s")),
    ("curvature.ricci", ("calls",)),
    ("curvature.curvature_report", ("self_s",)),
    ("maps.map_eval", ("self_s",)),
    ("maps.jacobian", ("calls", "self_s")),
    ("maps.energy_density", ("calls", "self_s")),
    ("maps.singular_frames", ("calls", "self_s")),
    ("maps.laplacian_log_energy", ("calls", "self_s")),
    ("maps.laplacian_energy", ("calls", "self_s")),
    ("verify.estimate_hypotheses", ("calls", "self_s")),
    ("verify.chern_lu_verify", ("self_s",)),
    ("verify.aubin_yau_verify", ("self_s",)),
    ("verify.fs_moment_check", ("s",)),
    ("verify.averaged_hsc_check", ("s",)),
    ("verify.theorem23_check", ("s",)),
    ("exprparse.parse_metric_expression", ("calls", "s")),
    ("scenario.run_scenario", ("self_s",)),
)

# metrics that are not one field of one span, with their units
DERIVED_METRICS = (
    ("cones.frame_evals", "count"),
    ("cones.lbfgs_runs", "count"),
    ("cones.lbfgs_nit", "count"),
    ("cones.budget_exhausted", "count"),
    ("metrics.metric_evals", "count"),
    ("metrics.metric_evals_per_point", "evals/point"),
    ("maps.map_evals", "count"),
    ("maps.map_evals_per_point", "evals/point"),
    ("verify.point_s", "s/point"),
    ("scenario.report_json_s", "s"),
    ("trace.overhead_s", "s"),
)

_FIELD_UNITS = {"calls": "count", "self_s": "s", "s": "s"}

# metrics that must repeat exactly between runs of one document
COUNT_SUFFIXES = (".calls", "_evals", ".lbfgs_runs", ".lbfgs_nit", ".budget_exhausted")

# the Schwarz verifiers that the workloads run
_VERIFIERS = ("verify.chern_lu_verify", "verify.aubin_yau_verify", "verify.trace_bound_verify")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            units[f"{span}.{f}"] = _FIELD_UNITS[f]
    units.update(DERIVED_METRICS)
    return units


def is_count(name):
    return name.endswith(COUNT_SUFFIXES)


class Tracer:
    """Spans and counters of the calls made while ``installed()`` is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outermost of its name]
        self.counts = Counter()
        self._stack = []
        self._active = Counter()

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self._active[name] == 0]
            self.spans.append(span)
            self._stack.append(index)
            self._active[name] += 1
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._active[name] -= 1
                self._stack.pop()

        return traced

    def _count_expm(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["cones.frame_evals"] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_minimize(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            if kwargs.get("method") == "L-BFGS-B":
                self.counts["cones.lbfgs_runs"] += 1
                self.counts["cones.lbfgs_nit"] += int(res.nit)
            return res

        return counted

    @contextlib.contextmanager
    def installed(self):
        from chernlab.maps import HolomorphicMapModel
        from chernlab.metrics import ChartedHermitianMetric
        from chernlab.scenario import Report

        modules = [m for name, m in list(sys.modules.items())
                   if name == "chernlab" or name.startswith("chernlab.")]
        names = {}
        for mod in modules:
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    names[fn] = f"{mod.__name__.rpartition('.')[2]}.{attr}"
        wrappers = {fn: self._span(name, fn) for fn, name in names.items()}

        patches = [(mod, attr, value) for mod in modules for attr, value in vars(mod).items()
                   if inspect.isfunction(value) and value in wrappers]
        replaced = [(mod, attr, wrappers[value]) for mod, attr, value in patches]
        for owner, attr, name in ((ChartedHermitianMetric, "__call__", "metrics.metric_eval"),
                                  (HolomorphicMapModel, "__call__", "maps.map_eval"),
                                  (Report, "to_json", "scenario.report_json")):
            fn = owner.__dict__[attr]
            patches.append((owner, attr, fn))
            replaced.append((owner, attr, self._span(name, fn)))
        patches.append((scipy.linalg, "expm", scipy.linalg.expm))
        replaced.append((scipy.linalg, "expm", self._count_expm(scipy.linalg.expm)))
        patches.append((scipy.optimize, "minimize", scipy.optimize.minimize))
        replaced.append((scipy.optimize, "minimize", self._count_minimize(scipy.optimize.minimize)))

        for owner, attr, value in replaced:
            setattr(owner, attr, value)
        try:
            yield self
        finally:
            for owner, attr, value in patches:
                setattr(owner, attr, value)

    def span_stats(self):
        """name -> {"calls", "self_s", "s"} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats = {}
        for (name, start, end, _, outermost), child_s in zip(self.spans, child):
            st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            st["calls"] += 1
            st["self_s"] += end - start - child_s
            if outermost:
                st["s"] += end - start
        return stats


def layer_metrics(tracer, budget_exhausted, points, verified):
    """Per-layer metrics of one traced scenario call (overhead excluded)."""
    stats = tracer.span_stats()

    def get(span, field):
        return stats.get(span, {}).get(field, 0)

    out = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            out[f"{span}.{f}"] = get(span, f)
    for name in ("cones.frame_evals", "cones.lbfgs_runs", "cones.lbfgs_nit"):
        out[name] = tracer.counts[name]
    out["cones.budget_exhausted"] = budget_exhausted
    out["metrics.metric_evals"] = get("metrics.metric_eval", "calls")
    out["metrics.metric_evals_per_point"] = out["metrics.metric_evals"] / max(points, 1)
    out["maps.map_evals"] = get("maps.map_eval", "calls")
    out["maps.map_evals_per_point"] = out["maps.map_evals"] / max(points, 1)
    out["verify.point_s"] = sum(get(v, "s") for v in _VERIFIERS) / max(verified, 1)
    out["scenario.report_json_s"] = get("scenario.report_json", "s")
    return out


def median_metrics(runs):
    """Per-metric median over runs; counts must agree exactly and are taken as is."""
    merged, mismatched = {}, []
    for name in runs[0]:
        values = [run[name] for run in runs]
        if is_count(name):
            if len(set(values)) != 1:
                mismatched.append(name)
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    return merged, mismatched


def write_spans(tracer, path):
    """Spans of one traced call as JSON lines: name, start, end, parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, _ in tracer.spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")
