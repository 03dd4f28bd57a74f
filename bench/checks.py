"""Correctness checks of scenario reports against known values.

Every task of a report gets one verdict.  The tolerance allows for the
finite-difference error of curvatures, energies and Laplacians (below 1e-7
on these documents) and is far below any real error.
"""

from __future__ import annotations

import numpy as np

VALUE_TOL = 1e-6

# The Monte Carlo identities of the demo mark a task "fail" beyond three
# standard errors, which a correct program does on about 0.3% of seeds.  The
# benchmark runs many seeds, so it checks them at five standard errors.
MC_SIGMAS = 5.0


def _close(got, want):
    return got is not None and abs(got - want) <= VALUE_TOL * max(1.0, abs(want))


def _matrix(pairs):
    """Complex matrix of a report's [[[re, im], ...], ...] form."""
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _check_curvature(entry, expected, report):
    res = entry["result"]
    if entry["status"] != "ok":
        return f"status {entry['status']}"
    if res["kahler_symmetric"] != expected["kahler_symmetric"]:
        return f"kahler_symmetric {res['kahler_symmetric']}, expected {expected['kahler_symmetric']}"
    for key in ("scal", "scal_tilde"):
        if key in expected and not _close(res[key], expected[key]):
            return f"{key} {res[key]}, expected {expected[key]}"
    for key, want in expected["ricci"].items():
        worst = float(np.max(np.abs(_matrix(res[key]) - want)))
        if worst > VALUE_TOL * max(1.0, float(np.max(np.abs(want)))):
            return f"{key} differs from the closed form by {worst:.3g}"
    return None


def _check_rbc(entry, expected, report):
    res = entry["result"]
    if entry["status"] != "ok":
        return f"status {entry['status']}"
    lo, hi = expected["range"]
    slack = VALUE_TOL * max(1.0, abs(lo), abs(hi))
    if not lo - slack <= res["inf"] <= res["sup"] <= hi + slack:
        return f"RBC inf {res['inf']}, sup {res['sup']} not ordered within [{lo}, {hi}]"
    return None


def _check_sbc(entry, expected, report):
    res = entry["result"]
    if entry["status"] != "ok":
        return f"status {entry['status']}"
    if res["status"] != expected["status"]:
        return f"SBC status {res['status']}, expected {expected['status']}"
    return None


def _check_schwarz(entry, expected, report):
    res = entry["result"]
    if entry["status"] != "ok":
        return f"verdict failed (margin {min(r['margin'] for r in res['records'])})"
    if not _close(res["sup_energy"], expected["sup_energy"]):
        return f"sup_energy {res['sup_energy']}, expected {expected['sup_energy']}"
    if "margins_match" in expected:
        ref = report.tasks[expected["margins_match"]]
        if ref["status"] == "error":
            return "reference task failed"
        pairs = zip(res["records"], ref["result"]["records"])
        worst = max(abs(a["margin"] - b["margin"]) for a, b in pairs)
        if worst > VALUE_TOL:
            return f"margins differ from task {expected['margins_match']} by {worst:.3g}"
    return None


def _check_monte_carlo(entry, expected, report):
    res = entry["result"]
    if res["abs_err"] > MC_SIGMAS * res["std_error"]:
        return f"Monte Carlo error {res['abs_err']:.3g} beyond {MC_SIGMAS} standard errors"
    return None


def _check_passed(entry, expected, report):
    if entry["status"] != "ok":
        return f"status {entry['status']}"
    return None


_CHECKS = {
    "curvature": _check_curvature,
    "rbc": _check_rbc,
    "sbc": _check_sbc,
    "schwarz": _check_schwarz,
    "monte_carlo": _check_monte_carlo,
    "passed": _check_passed,
}


def check_report(report, expected):
    """Per-task failure messages (None where the task is correct)."""
    if len(report.tasks) != len(expected):
        return [f"report has {len(report.tasks)} tasks, expected {len(expected)}"]
    out = []
    for entry, exp in zip(report.tasks, expected):
        if entry["status"] == "error":
            out.append(entry["error"])
        else:
            out.append(_CHECKS[exp["check"]](entry, exp, report))
    return out
