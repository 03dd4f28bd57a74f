"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is pinned, nothing is calibrated at runtime.
"""

import json
import time

import numpy as np

import oracles
from chernlab.cones import FrameSearchConfig, rbc_bounds, sbc_bound, sbc_value
from chernlab.curvature import chern_curvature, kahler_symmetry_check, ricci
from chernlab.maps import map_identity
from chernlab.metrics import catalog_metric, scale_metric
from chernlab.scenario import run_scenario
from chernlab.tensors import curvature_in_frame
from chernlab.verify import SchwarzPass, estimate_hypotheses, fs_moment_check, schwarz_verify, theorem23_check
from test_metrics import interior_points


def report(number, ok, detail):
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}]: {detail}")
    assert ok, detail


def test_criterion_1_fd_vs_closed_forms():
    """Chern tensors match hand-derived closed forms, rel err < 1e-6, < 10 s."""
    rng = np.random.default_rng(101)
    cases = [
        ("euclidean", (2,), lambda z: oracles.euclidean_tensor(z, 2)),
        ("poincare_disk", (1.0,), oracles.poincare_tensor),
        ("fubini_study", (2,), oracles.fs_tensor),
        ("complex_hyperbolic", (2,), oracles.hyperbolic_tensor),
        ("hopf", (2,), oracles.hopf_tensor),
    ]
    start = time.perf_counter()
    worst = 0.0
    for name, params, oracle in cases:
        metric = catalog_metric(name, params)
        for z in interior_points(name, rng, 20):
            fd = chern_curvature(metric, z)
            exact = oracle(z)
            scale = max(1.0, float(np.max(np.abs(exact))))
            worst = max(worst, float(np.max(np.abs(fd - exact))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    report(1, ok, f"max relative error {worst:.3e} over 5 metrics x 20 points in {elapsed:.2f}s")


def test_criterion_2_kahler_trace_collapse():
    """Ricci traces coincide within 1e-6 for Kaehler members; hopf violates."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for name, params in (
        ("euclidean", (2,)),
        ("fubini_study", (2,)),
        ("complex_hyperbolic", (2,)),
        ("poincare_disk", (1.0,)),
        ("polydisk", (1.0, 2.0)),
    ):
        metric = catalog_metric(name, params)
        pts = interior_points(name if name != "polydisk" else "complex_hyperbolic", rng, 6)
        for z in pts:
            tensor = chern_curvature(metric, z)
            g = metric(np.atleast_1d(np.asarray(z, dtype=complex)))
            rics = [ricci(tensor, g, kind)[0] for kind in (1, 2, 3)]
            worst = max(
                worst,
                float(np.max(np.abs(rics[0] - rics[1]))),
                float(np.max(np.abs(rics[0] - rics[2]))),
            )
    hopf = catalog_metric("hopf", (2,))
    symmetric, residue = kahler_symmetry_check(chern_curvature(hopf, [1.0, 0.5]), 1e-6)
    ok = worst < 1e-6 and not symmetric and residue > 1e-2
    report(2, ok, f"Kaehler trace gap {worst:.3e}; hopf symmetry residue {residue:.3e}")


def test_criterion_3_fs_moment_identity():
    """n=2 sphere moments hit (1/3, 1/6) by exact cubature, to rounding."""
    res_a = fs_moment_check(2, (1, 1, 1, 1))
    res_b = fs_moment_check(2, (1, 1, 2, 2))
    ok = all(
        res.passed and res.abs_err <= res.std_error <= 1e-14 and res.rhs == target
        for res, target in ((res_a, 1.0 / 3.0), (res_b, 1.0 / 6.0))
    )
    report(
        3,
        ok,
        f"(1,1,1,1) err {res_a.abs_err:.2e} (bound {res_a.std_error:.2e}, {res_a.nodes} nodes), "
        f"(1,1,2,2) err {res_b.abs_err:.2e} (bound {res_b.std_error:.2e}, {res_b.nodes} nodes)",
    )


def test_criterion_4_theorem23_equivalence():
    """The antisymmetry-constrained tensors at n=3, through a spanning set: the forms agree exactly."""
    rep = theorem23_check(3)
    ok = rep["max_discrepancy"] == 0.0 and rep["passed"]
    report(4, ok, f"max |sym(P+R) - Sigma|, |sym(R) - Sigma/2| = {rep['max_discrepancy']:.3e} "
                  f"over a spanning set of {rep['tensors']} tensors")


def test_criterion_5_orthant_exactness():
    """RBC bounds at n = 3 vs simplex brute force (resolution 400) in their witness frames, < 30 s."""
    start = time.perf_counter()
    resolution = 400
    pts = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            pts.append((i, j, resolution - i - j))
    grid = np.array(pts, dtype=float)
    grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    rng = np.random.default_rng(106)
    shape = (200, 3, 3, 3, 3)
    r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = (r + np.conj(np.transpose(r, (0, 2, 1, 4, 3)))) / 2.0
    worst = 0.0
    for tensor, res in zip(r, rbc_bounds(r, np.tile(np.eye(3), (200, 1, 1)))):
        lo = np.einsum("pi,ij,pj->p", grid, curvature_in_frame(tensor, res.inf_frame).r_mat, grid)
        hi = np.einsum("pi,ij,pj->p", grid, curvature_in_frame(tensor, res.sup_frame).r_mat, grid)
        worst = max(worst, abs(res.inf - float(np.min(lo))), abs(res.sup - float(np.max(hi))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(5, ok, f"max discrepancy {worst:.3e} over 200 tensors in {elapsed:.2f}s")


def test_criterion_6_rbc_sbc_model_values():
    """FS: RBC in [2,3] and SBC = 6 (1e-3); hyperbolic: certified unbounded."""
    cfg = FrameSearchConfig(n_starts=4, max_iter=25, seed=107)
    fs = catalog_metric("fubini_study", (2,))
    tensor_fs = chern_curvature(fs, [0.0, 0.0])
    rb = rbc_bounds(tensor_fs, np.eye(2))
    sb = sbc_bound(tensor_fs, np.eye(2), cfg)
    ch = catalog_metric("complex_hyperbolic", (2,))
    tensor_ch = chern_curvature(ch, [0.0, 0.0])
    sb_ch = sbc_bound(tensor_ch, np.eye(2), cfg)
    cert_ok = False
    if sb_ch.status == "unbounded_below":
        fm = curvature_in_frame(tensor_ch, sb_ch.frame)
        cert = sb_ch.divergence_certificate
        v5 = sbc_value(fm.r_mat, cert.family(5.0))
        v10 = sbc_value(fm.r_mat, cert.family(10.0))
        v20 = sbc_value(fm.r_mat, cert.family(20.0))
        cert_ok = v20 < v10 < v5 and v20 < -1e6
    ok = (
        abs(rb.inf - 2.0) < 1e-3
        and abs(rb.sup - 3.0) < 1e-3
        and sb.status == "finite"
        and abs(sb.inf_val - 6.0) < 1e-3
        and sb_ch.status == "unbounded_below"
        and cert_ok
    )
    report(
        6,
        ok,
        f"FS RBC [{rb.inf:.6f}, {rb.sup:.6f}], SBC {sb.inf_val:.6f}; "
        f"hyperbolic {sb_ch.status} with verified certificate",
    )


def grid_9x9(half=0.4):
    return [
        np.array([x + 1j * y])
        for x in np.linspace(-half, half, 9)
        for y in np.linspace(-half, half, 9)
    ]


def test_criterion_7_schwarz_sharpness():
    """Chern-Lu equality for c in {1/2, 1, 3} on a 9x9 grid; Aubin-Yau equality."""
    p1 = catalog_metric("poincare_disk", (1.0,))
    f = map_identity(1)
    grid = grid_9x9()
    cfg = FrameSearchConfig(n_starts=2, max_iter=10, seed=108)
    details = []
    ok = True
    for c_scale in (0.5, 1.0, 3.0):
        target = scale_metric(p1, c_scale)
        constants = estimate_hypotheses(SchwarzPass(p1, target, f, grid), "chern_lu", frame_cfg=cfg)
        verdict = schwarz_verify(SchwarzPass(p1, target, f, grid), constants, tol=1e-5)
        gap = abs(verdict.bound - verdict.sup_energy)
        min_margin = min(rec["margin"] for rec in verdict.records)
        ok = ok and verdict.passed and gap < 1e-4 and min_margin >= -1e-5
        details.append(f"c={c_scale}: |bound-energy|={gap:.2e}, min margin {min_margin:.2e}")
    constants = estimate_hypotheses(SchwarzPass(p1, p1, f, grid), "aubin_yau")
    verdict = schwarz_verify(SchwarzPass(p1, p1, f, grid), constants, tol=1e-5)
    ay_gap = abs(verdict.bound - verdict.sup_energy)
    ok = ok and verdict.passed and ay_gap < 1e-4
    details.append(f"AY |bound-energy|={ay_gap:.2e}")
    report(7, ok, "; ".join(details))


def test_criterion_8_negative_tests():
    """Deliberately violated hypotheses always fail with a localized worst point."""
    p1 = catalog_metric("poincare_disk", (1.0,))
    f = map_identity(1)
    grid = [np.array([x + 1j * y]) for x in (-0.3, 0.0, 0.3) for y in (-0.3, 0.0, 0.3)]
    cfg = FrameSearchConfig(n_starts=2, max_iter=10, seed=109)
    outcomes = []

    # (a) Chern-Lu constants fitted for the unscaled target, target rescaled 4x
    stale = estimate_hypotheses(SchwarzPass(p1, p1, f, grid), "chern_lu", frame_cfg=cfg)
    v = schwarz_verify(SchwarzPass(p1, scale_metric(p1, 4.0), f, grid), stale)
    outcomes.append((not v.passed) and v.notes["worst_point"] is not None and v.sup_energy > v.bound)

    # (b) Aubin-Yau with a kappa that is too small for the rescaled source
    stale_ay = estimate_hypotheses(SchwarzPass(p1, p1, f, grid), "aubin_yau")
    v = schwarz_verify(SchwarzPass(scale_metric(p1, 0.25), p1, f, grid), stale_ay)
    outcomes.append((not v.passed) and v.worst()["margin"] is not None)

    # (c) family bound violated after target rescale with stale constants
    sp = SchwarzPass(p1, scale_metric(p1, 4.0), f, grid, p1)
    const = estimate_hypotheses(sp, "family", dict(c1=2.0, c2=0.0, c3=2.0, c4=0.0, kappa1=2.0, kappa2=2.0,
                                                   n=1, r=1))
    v = schwarz_verify(sp, const)
    outcomes.append((not v.passed) and "bound_violation" in v.notes)

    # (d) trace bound with a doubled target and stale constants
    stale_tr = estimate_hypotheses(SchwarzPass(p1, p1, None, grid), "trace_bound", frame_cfg=cfg)
    v = schwarz_verify(SchwarzPass(p1, scale_metric(p1, 2.0), None, grid), stale_tr)
    outcomes.append((not v.passed) and v.worst()["margin"] < 0)

    ok = all(outcomes)
    report(8, ok, f"{sum(outcomes)}/{len(outcomes)} invalid configurations produced fail verdicts")


def test_criterion_9_determinism(tmp_path):
    """Identical scenario + seed produce byte-identical report JSON."""
    scenario = {
        "version": 1,
        "seed": 11,
        "metrics": {
            "p1": {"catalog": "poincare_disk", "params": [1.0]},
            "p3": {"catalog": "poincare_disk", "params": [1.0], "scale": 3.0},
            "fs": {"catalog": "fubini_study", "params": [2]},
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
            },
            {"kind": "identity", "check": "fs-moment", "n": 2, "indices": [1, 1, 2, 2]},
            {"kind": "rbc", "metric": "fs", "point": [[0.0, 0.0], [0.0, 0.0]]},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    first = run_scenario(str(path)).to_json().encode()
    second = run_scenario(str(path)).to_json().encode()
    ok = first == second and json.loads(first)["passed"]
    report(9, ok, f"two runs produced {len(first)} identical bytes")
