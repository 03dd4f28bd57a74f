"""Pointwise verification of Schwarz-type inequalities and the standalone
identities behind them.

Each verifier checks a differential or trace inequality on a sample grid and
a global sup-energy bound against the closed-form constant combination of
its theorem.  Verification is pointwise-on-grids: the charts are open sets,
so "global" means the sup over the sampled grid, and every verdict records
that, the constants used, and their provenance (user-given or estimated).

The verifiers and ``estimate_hypotheses`` make each map-side quantity of a
``(P, n)`` grid stack (energy, exact Jacobians and their inverses, singular
frames, Laplacian stencils, pullbacks) one call; every point keeps the bits
it gets alone, and a failing check names the first failing point in grid
order.  ``estimate_hypotheses`` takes the map's values, Jacobians,
pullbacks and the target metric at ``f(z)`` from one ``singular_frames``
call per grid, and its frame-searched kappas search all grid points in one
lockstep ``rbc_bounds`` or ``sbc_bound`` call.  Hermitian eigenvalues are
numpy's ``eigvalsh``; those of a pencil ``(a, b)`` are taken after whitening
by the Cholesky factor of b.
Curvature (``chern_curvature``, so the loops of ``estimate_hypotheses`` and
the mu curvature of ``family_verify``) stays one point at a time: its
stencils call the metric once per sample, a count the benchmark's
evaluation check pins, and exact Wirtinger jets are to replace those
stencils rather than stack them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import FrameSearchConfig, rbc_bounds, sbc_along_map, sbc_bound
from .curvature import chern_curvature, ricci
from .errors import (
    BadIndices,
    BadParams,
    FormInequalityViolated,
    HypothesisSignError,
    InfeasibleHypothesis,
    RankDeficient,
    UnboundedSbc,
)
from .maps import (
    energy_density,
    laplacian_energy,
    laplacian_log_energy,
    pullback_metric,
    singular_frames,
)
from .tensors import FrameCurvatureMatrices, cholesky_factor, curvature_in_frame, trace_form

__all__ = [
    "HypothesisConstants",
    "SchwarzVerdict",
    "aubin_yau_verify",
    "averaged_hsc_check",
    "chern_lu_verify",
    "estimate_hypotheses",
    "family_verify",
    "fs_moment_check",
    "theorem23_check",
    "trace_bound_verify",
]

EIG_TOL = 1e-7  # absolute tolerance on eigenvalues of difference forms


@dataclass
class HypothesisConstants:
    """Constants entering the Schwarz hypotheses; which are active depends
    on the theorem.  ``provenance`` maps constant names to "user" or
    "estimated"; ``achieved_at`` records the grid point where an estimated
    constant is tight."""

    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    c4: float | None = None
    kappa: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    r: int | None = None
    n: int | None = None
    provenance: dict = field(default_factory=dict)
    achieved_at: dict = field(default_factory=dict)

    def as_dict(self):
        out = {}
        for name in ("c1", "c2", "c3", "c4", "kappa", "kappa1", "kappa2", "r", "n"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@dataclass
class SchwarzVerdict:
    """Per-grid verdict for one theorem instance.

    ``records`` hold one dict per grid point with keys ``z``, ``energy``,
    ``lhs``, ``rhs``, ``margin`` (sign convention: margin >= -tol is good).
    """

    theorem: str
    records: list
    bound: float | None
    sup_energy: float
    passed: bool
    tol: float
    constants: HypothesisConstants
    notes: dict = field(default_factory=dict)

    def worst(self):
        if not self.records:
            return None
        return min(self.records, key=lambda rec: rec["margin"])


def _grid_stack(grid):
    """The sample grid as one ``(P, n)`` stack of points."""
    points = np.asarray(grid, dtype=complex)
    if points.size == 0:
        raise BadParams("sample grid is empty")
    return points.reshape(len(points), -1)


def _z_list(z):
    return [[float(np.real(c)), float(np.imag(c))] for c in np.atleast_1d(z)]


def _gen_eigs(a, b):
    """Eigenvalues of the pencil (a, b) with b Hermitian positive-definite:
    those of ``L^-1 a L^-dag`` with ``L`` the Cholesky factor of b."""
    inv_low = np.linalg.inv(cholesky_factor(b))
    return np.linalg.eigvalsh(inv_low @ a @ np.conj(np.swapaxes(inv_low, -1, -2)))


def _ric2(metric, stack):
    """Ric2 and the metric at each grid point, as stacks; one curvature
    stencil per point."""
    g = [metric(z) for z in stack]
    return np.array([ricci(chern_curvature(metric, z), gz, 2)[0] for z, gz in zip(stack, g)]), np.array(g)


def _first_extreme(values, points, sense=+1):
    """The largest (``sense`` +1) or least (-1) of the per-point ``values``
    and the first point that takes it."""
    k = int(np.argmax(sense * np.asarray(values)))
    return float(values[k]), points[k]


def _kappa_rbc(target_metric, sf, cfg):
    """kappa with RBC <= -kappa: minus the largest frame-searched sup over
    the image points of the singular frames ``sf``, the searches of every
    image point run as one ``rbc_bounds`` call."""
    tensors = np.array([chern_curvature(target_metric, w) for w in sf.image])
    sup, at = _first_extreme([b.sup for b in rbc_bounds(tensors, sf.image_metric, cfg)], sf.image)
    return -sup, at


def _kappa_sbc_along_map(sf, source_metric, points):
    """kappa with SBC_omega >= -kappa along the map: the sup over the grid
    of minus the pointwise curvature sum at the map's singular values
    (``sf``, the map's singular frames on the grid), in the source singular
    frame."""
    values = []
    for z, rank, frame, lambdas in zip(points, sf.rank, sf.source_frame, sf.lambdas):
        if rank < len(z):
            raise RankDeficient(f"map is rank-deficient at {z}")
        fm = curvature_in_frame(chern_curvature(source_metric, z), frame)
        values.append(-sbc_along_map(fm.r_mat, lambdas))
    value, at = _first_extreme(values, points)
    return max(0.0, value), at


def _kappa_sbc_full_cone(source_metric, points, cfg):
    """kappa with SBC_omega >= -kappa over the full ordered cone, the
    searches of every grid point run as one ``sbc_bound`` call; raises
    UnboundedSbc with the divergence certificate of the first point, in
    grid order, where the infimum is -inf."""
    tensors = np.array([chern_curvature(source_metric, z) for z in points])
    results = sbc_bound(tensors, source_metric(points), cfg)
    for z, res in zip(points, results):
        if res.status == "unbounded_below":
            raise UnboundedSbc(f"SBC unbounded below at {z}", certificate=res.divergence_certificate)
    value, at = _first_extreme([-res.inf_val for res in results], points)
    return max(0.0, value), at


def estimate_hypotheses(
    source_metric,
    target_metric,
    f,
    grid,
    theorem="chern_lu",
    mu=None,
    fixed=None,
    frame_cfg=FrameSearchConfig(),
    kappa_mode="along_map",
):
    """Fit the tightest constants valid on the sampled grid for a theorem.

    ``fixed`` supplies user-chosen constants (recorded with provenance
    "user"); the remaining ones are fitted so the defining form
    inequalities hold with equality at their achieving points.  Raises
    InfeasibleHypothesis when a sign constraint cannot be met (e.g. the
    RBC sup is positive where kappa >= 0 is demanded) and UnboundedSbc
    when a full-cone kappa certification fails.  ``kappa_mode`` picks the
    Aubin-Yau kappa: the SBC along the map (``"along_map"``) or over the
    full cone (``"full_cone"``).
    """
    if kappa_mode not in ("along_map", "full_cone"):
        raise BadParams(f"unknown kappa_mode {kappa_mode!r} (expected 'along_map' or 'full_cone')")
    fixed = dict(fixed or {})
    stack = _grid_stack(grid)
    n = f.source_dim
    constants = HypothesisConstants(n=n)
    for name, value in fixed.items():
        setattr(constants, name, value)
        constants.provenance[name] = "user"

    def fit(name, value, at):
        if name in fixed:
            return getattr(constants, name)
        setattr(constants, name, float(value))
        constants.provenance[name] = "estimated"
        if at is not None:
            constants.achieved_at[name] = _z_list(at)
        return float(value)

    if theorem == "chern_lu":
        c2 = fixed.get("c2", 0.0)
        if c2 < 0:
            raise HypothesisSignError("C2 must be nonnegative")
        fit("c2", c2, None)
        sf = singular_frames(f, stack, source_metric, target_metric)
        ric2, g = _ric2(source_metric, stack)
        fit("c1", *_first_extreme(-np.min(_gen_eigs(ric2 - c2 * sf.pullback, g), axis=-1), stack))
        kappa, at = _kappa_rbc(target_metric, sf, frame_cfg)
        if kappa < 0:
            raise InfeasibleHypothesis(
                f"RBC sup of the target is positive ({-kappa:.6g}); kappa >= 0 is demanded"
            )
        fit("kappa", kappa, at)
        constants.r = int(np.max(sf.rank))
        if constants.kappa + constants.c2 <= 0:
            raise InfeasibleHypothesis("kappa + C2 > 0 is required for the bound")
        return constants

    if theorem == "aubin_yau":
        c2 = fixed.get("c2", 0.0)
        fit("c2", c2, None)
        if f.source_dim != f.target_dim:
            raise RankDeficient(
                f"Aubin-Yau needs equal dimensions, got a map C^{f.source_dim} -> C^{f.target_dim}"
            )
        sf = singular_frames(f, stack, source_metric, target_metric)
        deficient = sf.rank < n
        if np.any(deficient):
            raise RankDeficient(f"map is rank-deficient at {stack[np.argmax(deficient)]}")
        jinvs = np.linalg.inv(sf.jacobian)
        backs = np.swapaxes(jinvs, -1, -2) @ source_metric(stack) @ np.conj(jinvs)
        ric2_h = np.array([ricci(chern_curvature(target_metric, w), h_w, 2)[0]
                           for w, h_w in zip(sf.image, sf.image_metric)])
        eigs = _gen_eigs(c2 * backs - ric2_h, sf.image_metric)
        c1, at = _first_extreme(np.min(eigs, axis=-1), stack, -1)
        if c1 <= 0:
            raise InfeasibleHypothesis(
                f"no C1 > 0 satisfies Ric2 <= -C1 eta + C2 (f^-1)* omega (best {c1:.6g})"
            )
        fit("c1", c1, at)
        if "kappa" not in fixed:
            if kappa_mode == "along_map":
                kappa, at = _kappa_sbc_along_map(sf, source_metric, stack)
            else:
                kappa, at = _kappa_sbc_full_cone(source_metric, stack, frame_cfg)
            fit("kappa", kappa, at)
        constants.r = f.source_dim
        return constants

    if theorem == "family":
        if mu is None:
            raise BadParams("the family theorem needs the auxiliary metric mu")
        c2 = fixed.get("c2", 0.0)
        c4 = fixed.get("c4", 0.0)
        if c2 < 0:
            raise HypothesisSignError("C2 must be nonnegative")
        fit("c2", c2, None)
        fit("c4", c4, None)
        sf = singular_frames(f, stack, source_metric, target_metric)
        ric2_mu, g_mu = _ric2(mu, stack)
        fit("c1", *_first_extreme(np.max(_gen_eigs(c2 * sf.pullback - ric2_mu, g_mu), axis=-1), stack))
        eigs = _gen_eigs(c4 * source_metric(stack) - ric2_mu, g_mu)
        c3, at = _first_extreme(np.min(eigs, axis=-1), stack, -1)
        if c3 <= 0:
            raise InfeasibleHypothesis(
                f"no C3 > 0 satisfies Ric2_mu <= -C3 mu + C4 omega (best {c3:.6g})"
            )
        fit("c3", c3, at)
        if "kappa1" not in fixed:
            kappa1, at1 = _kappa_sbc_along_map(sf, source_metric, stack)
            fit("kappa1", kappa1, at1)
        if "kappa2" not in fixed:
            kappa2, at2 = _kappa_rbc(target_metric, sf, frame_cfg)
            if kappa2 < 0:
                raise InfeasibleHypothesis(
                    f"RBC sup of the target is positive ({-kappa2:.6g}); kappa2 >= 0 is demanded"
                )
            fit("kappa2", kappa2, at2)
        constants.r = int(np.max(sf.rank))
        if constants.kappa2 + constants.c2 <= 0:
            raise InfeasibleHypothesis("kappa2 + C2 > 0 is required")
        return constants

    if theorem == "trace_bound":
        c2 = fixed.get("c2", 0.0)
        fit("c2", c2, None)
        ric2_h, g_eta = _ric2(target_metric, stack)
        eigs = _gen_eigs(c2 * source_metric(stack) - ric2_h, g_eta)
        c1, at = _first_extreme(np.min(eigs, axis=-1), stack, -1)
        if c1 <= 0:
            raise InfeasibleHypothesis(
                f"no C1 > 0 satisfies Ric2 <= -C1 eta + C2 omega (best {c1:.6g})"
            )
        fit("c1", c1, at)
        if "kappa" not in fixed:
            kappa, at = _kappa_sbc_full_cone(source_metric, stack, frame_cfg)
            fit("kappa", kappa, at)
        constants.r = constants.n
        return constants

    raise BadParams(f"unknown theorem {theorem!r}")


def _grid_verdict(theorem, records, bound, tol, constants, sup_checked=True):
    """Verdict on the per-point ``records``: passed when every margin is at
    least ``-tol`` and, if ``sup_checked``, the sup energy is within ``bound``."""
    sup_energy = max(rec["energy"] for rec in records)
    passed = all(rec["margin"] >= -tol for rec in records)
    passed = passed and (not sup_checked or sup_energy <= bound * (1 + tol))
    verdict = SchwarzVerdict(theorem, records, bound, sup_energy, passed, tol, constants)
    verdict.notes["worst_point"] = verdict.worst()["z"]
    verdict.notes["grid_semantics"] = "sup over sampled grid"
    return verdict


def chern_lu_verify(source_metric, target_metric, f, constants, grid, tol=1e-6):
    """Chern-Lu check: pointwise ``Delta_omega log|df|^2 >= -C1 +
    (kappa + C2)|df|^2 / r`` plus the sup bound ``|df|^2 <= C1 r /
    (kappa + C2)``."""
    c1, c2, kappa = constants.c1, constants.c2 or 0.0, constants.kappa
    if c1 is None or kappa is None:
        raise HypothesisSignError("Chern-Lu needs C1 and kappa")
    if c2 < 0:
        raise HypothesisSignError("C2 must be nonnegative")
    if kappa + c2 <= 0:
        raise HypothesisSignError("kappa + C2 > 0 is required for the bound")
    r = constants.r or f.source_dim
    z = _grid_stack(grid)
    energies = energy_density(f, z, source_metric, target_metric)
    lhss = laplacian_log_energy(f, z, source_metric, target_metric, energy=energies)
    records = []
    for point, energy, lhs in zip(z, energies.tolist(), lhss.tolist()):
        rhs = -c1 + (kappa + c2) * energy / r
        records.append(
            {"z": _z_list(point), "energy": energy, "lhs": lhs, "rhs": rhs, "margin": lhs - rhs}
        )
    verdict = _grid_verdict("chern_lu", records, c1 * r / (kappa + c2), tol, constants)
    verdict.notes["bound_slack"] = verdict.bound - verdict.sup_energy
    return verdict


def aubin_yau_verify(source_metric, target_metric, f, constants, grid, tol=1e-6):
    """Aubin-Yau check: pointwise ``Delta_eta |df|^2 >= C1 |df|^2 -
    n(C2 + kappa)`` plus the sup bound ``|df|^2 <= n(C2 + kappa)/C1``.

    The margin is against the displayed (weaker) right-hand side; the
    margin against the stricter in-proof form ``C1|df|^2 - n C2 - kappa``
    is recorded alongside as ``margin_strict``.
    """
    c1, c2, kappa = constants.c1, constants.c2 or 0.0, constants.kappa
    if c1 is None or kappa is None:
        raise HypothesisSignError("Aubin-Yau needs C1 and kappa")
    if kappa < 0:
        raise HypothesisSignError("kappa must be nonnegative")
    if c1 <= 0:
        raise HypothesisSignError("C1 must be positive")
    n = f.source_dim
    z = _grid_stack(grid)
    sf = singular_frames(f, z, source_metric, target_metric)
    deficient = sf.rank < n
    if np.any(deficient):
        raise RankDeficient(f"map is rank-deficient at {z[np.argmax(deficient)]}")
    lhss = laplacian_energy(f, z, source_metric, target_metric, energy=sf.energy,
                            jac=sf.jacobian, image_metric=sf.image_metric)
    records = []
    for point, energy, lhs in zip(z, sf.energy.tolist(), lhss.tolist()):
        rhs = c1 * energy - n * (c2 + kappa)
        rhs_strict = c1 * energy - n * c2 - kappa
        records.append({"z": _z_list(point), "energy": energy, "lhs": lhs, "rhs": rhs,
                        "margin": lhs - rhs, "margin_strict": lhs - rhs_strict})
    verdict = _grid_verdict("aubin_yau", records, n * (c2 + kappa) / c1, tol, constants)
    verdict.notes["min_margin_strict"] = min(rec["margin_strict"] for rec in records)
    return verdict


def _family_bound(constants):
    return (
        constants.c1
        * constants.n
        * constants.r
        * (constants.kappa1 + constants.c4)
        / (constants.c3 * (constants.kappa2 + constants.c2))
    )


def _apply_family_preset(constants, preset, tol):
    """Validate/derive constants for the corollary presets of the family."""
    c = constants
    if preset is None:
        return _family_bound(c), {}
    if preset == "chen_cheng_lu":
        if c.kappa2 is None or c.kappa2 <= 0:
            raise HypothesisSignError("chen_cheng_lu needs kappa2 > 0")
        if c.c4 not in (None, 0, 0.0):
            raise HypothesisSignError("chen_cheng_lu requires C4 = 0")
        c.c4 = 0.0
        target_c1 = (c.kappa2 + c.c2) / (c.kappa2 * c.n * c.r) * c.c3
        if c.c1 is None:
            c.c1 = target_c1
            c.provenance["c1"] = "preset"
        elif abs(c.c1 - target_c1) > tol * max(1.0, abs(target_c1)):
            raise HypothesisSignError(
                f"chen_cheng_lu requires C1 = (kappa2+C2)/(kappa2 n r) C3 = {target_c1:.6g}"
            )
        if c.c2 < c.kappa2 * (c.n * c.r - 1) - tol:
            raise HypothesisSignError("chen_cheng_lu requires C2 >= kappa2 (n r - 1)")
        return c.kappa1 / c.kappa2, {"preset": "chen_cheng_lu"}
    if preset == "ricci_only":
        if c.n * c.r * (c.kappa1 + c.c4) > c.kappa2 + c.c2 + tol:
            raise HypothesisSignError("ricci_only requires n r (kappa1 + C4) <= kappa2 + C2")
        return c.c1 / c.c3, {"preset": "ricci_only"}
    if preset == "liouville":
        if c.c1 is None or c.c1 <= 0 or c.c3 is None or c.c3 <= 0:
            raise HypothesisSignError("liouville requires C1, C3 > 0")
        if c.c4 is None or c.c4 >= 0:
            raise HypothesisSignError("liouville requires C4 < 0")
        if not 0 <= c.kappa1 <= -c.c4:
            raise HypothesisSignError("liouville requires 0 <= kappa1 <= -C4")
        return _family_bound(c), {"preset": "liouville", "liouville_contradiction": True}
    raise BadParams(f"unknown family preset {preset!r}")


def family_verify(source_metric, target_metric, mu, f, constants, grid, tol=1e-6, preset=None):
    """Family-of-Schwarz-lemmas check: both form inequalities
    ``-C1 mu + C2 f*eta <= Ric2_mu <= -C3 mu + C4 omega`` pointwise, then
    the sup bound ``|df|^2 <= C1 n r (kappa1+C4) / (C3 (kappa2+C2))``.

    Presets configure the corollary instances: ``chen_cheng_lu`` (bound
    kappa1/kappa2), ``ricci_only`` (bound C1/C3), and ``liouville`` (the
    forced bound is <= 0, so any map with positive energy certifies the
    no-map contradiction).
    """
    c = constants
    needed = ("c2", "c3", "kappa1", "kappa2") if preset == "chen_cheng_lu" else (
        "c1", "c2", "c3", "kappa1", "kappa2"
    )
    for name in needed:
        if getattr(c, name) is None:
            raise HypothesisSignError(f"family theorem needs {name}")
    if c.c4 is None:
        c.c4 = 0.0
    if c.c2 < 0:
        raise HypothesisSignError("C2 must be nonnegative")
    if c.c3 <= 0:
        raise HypothesisSignError("C3 must be positive")
    if c.kappa1 < 0 or c.kappa2 < 0:
        raise HypothesisSignError("kappa1, kappa2 must be nonnegative")
    if c.kappa2 + c.c2 <= 0:
        raise HypothesisSignError("kappa2 + C2 > 0 is required")
    c.n = c.n or f.source_dim
    c.r = c.r or f.source_dim
    bound, preset_notes = _apply_family_preset(c, preset, tol)

    z = _grid_stack(grid)
    pulls = pullback_metric(f, z, target_metric)
    energies = energy_density(f, z, source_metric, target_metric)
    records = []
    worst_eig = (np.inf, None)
    for point, pull, g_omega, energy in zip(z, pulls, source_metric(z), energies.tolist()):
        g_mu = mu(point)
        ric2_mu = ricci(chern_curvature(mu, point), g_mu, 2)[0]
        lo_eig = float(np.min(np.linalg.eigvalsh(ric2_mu + c.c1 * g_mu - c.c2 * pull)))
        hi_eig = float(np.min(np.linalg.eigvalsh(c.c4 * g_omega - c.c3 * g_mu - ric2_mu)))
        slack = min(lo_eig, hi_eig)
        if slack < worst_eig[0]:
            worst_eig = (slack, point)
        records.append(
            {"z": _z_list(point), "energy": energy, "lhs": slack, "rhs": 0.0, "margin": slack}
        )
    if worst_eig[0] < -EIG_TOL:
        raise FormInequalityViolated(
            f"Ric2_mu form inequality violated: min eigenvalue {worst_eig[0]:.6g} at {worst_eig[1]}",
            point=_z_list(worst_eig[1]),
            eigenvalue=worst_eig[0],
        )
    sup_energy = max(rec["energy"] for rec in records)
    if preset == "liouville":
        passed = bound <= tol
    else:
        passed = sup_energy <= bound * (1 + tol)
    verdict = SchwarzVerdict(
        theorem="family" if preset is None else f"family:{preset}",
        records=records,
        bound=bound,
        sup_energy=sup_energy,
        passed=passed,
        tol=tol,
        constants=c,
    )
    verdict.notes.update(preset_notes)
    verdict.notes["min_form_eigenvalue"] = worst_eig[0]
    verdict.notes["worst_point"] = _z_list(worst_eig[1])
    verdict.notes["grid_semantics"] = "sup over sampled grid"
    if not passed and preset != "liouville":
        over = max(records, key=lambda rec: rec["energy"])
        verdict.notes["bound_violation"] = {"point": over["z"], "energy": over["energy"], "bound": bound}
    return verdict


def trace_bound_verify(source_metric, target_metric, constants, grid, tol=1e-6):
    """Trace bound for the identity map: ``tr_omega(eta) <= (kappa + n C2)/C1``
    at each grid point.  When the certified constants satisfy
    ``kappa <= -C2`` the automorphism-triviality flag is set (informational;
    no group computation is attempted)."""
    c1, c2, kappa = constants.c1, constants.c2 or 0.0, constants.kappa
    if c1 is None or c1 <= 0:
        raise HypothesisSignError("trace bound needs C1 > 0")
    if kappa is None or kappa < 0:
        raise HypothesisSignError("trace bound needs a finite kappa >= 0")
    z = _grid_stack(grid)
    n = constants.n or z.shape[1]
    bound = (kappa + n * c2) / c1
    traces = trace_form(source_metric(z), target_metric(z))
    records = [
        {"z": _z_list(point), "energy": tr, "lhs": tr, "rhs": bound, "margin": bound - tr}
        for point, tr in zip(z, traces.tolist())
    ]
    verdict = _grid_verdict("trace_bound", records, bound, tol, constants, sup_checked=False)
    verdict.notes["aut_trivial_flag"] = bool(kappa <= -c2 + 1e-12)
    return verdict


# ---------------------------------------------------------------------------
# standalone identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCheck:
    estimate: complex
    target: float
    abs_err: float
    std_error: float
    n_samples: int


def _sphere_samples(rng, n_samples, n):
    zeta = rng.standard_normal((n_samples, n)) + 1j * rng.standard_normal((n_samples, n))
    return zeta / np.linalg.norm(zeta, axis=1, keepdims=True)


def fs_moment_check(n, indices, n_samples=1_000_000, seed=0, batch=250_000):
    """Monte Carlo check of the unitary-invariant quartic sphere moment

        E[w_i conj(w_j) w_k conj(w_l)] = (d_ij d_kl + d_il d_kj) / (n (n+1))

    over uniform points of the unit sphere in C^n (which push forward to
    the unit-volume Fubini-Study measure).  Indices are 1-based.
    """
    if n < 2:
        raise BadParams("the moment identity needs n >= 2")
    if n_samples < 10_000:
        raise BadParams("n_samples must be at least 1e4")
    try:
        i, j, k, l = (int(v) for v in indices)
    except (TypeError, ValueError) as exc:
        raise BadIndices(f"indices must be a 4-tuple, got {indices!r}") from exc
    if not all(1 <= v <= n for v in (i, j, k, l)):
        raise BadIndices(f"indices {indices} out of range for n={n}")
    i, j, k, l = i - 1, j - 1, k - 1, l - 1
    target = (float(i == j) * float(k == l) + float(i == l) * float(k == j)) / (n * (n + 1))

    rng = np.random.default_rng(seed)
    total = 0.0 + 0.0j
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        w = _sphere_samples(rng, m, n)
        vals = w[:, i] * np.conj(w[:, j]) * w[:, k] * np.conj(w[:, l])
        total += np.sum(vals)
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += m
        del w, vals  # the next batch is drawn without this one held
    estimate = total / n_samples
    var = max(total_sq / n_samples - abs(estimate) ** 2, 0.0)
    std_error = float(np.sqrt(var / n_samples))
    return MomentCheck(
        estimate=complex(estimate),
        target=target,
        abs_err=float(abs(estimate - target)),
        std_error=std_error,
        n_samples=n_samples,
    )


@dataclass(frozen=True)
class AveragedHscCheck:
    lhs: float
    rhs: float
    abs_err: float
    std_error: float
    n_samples: int


def averaged_hsc_check(fm: FrameCurvatureMatrices, b, n_samples=200_000, seed=0):
    """Sphere average of the b-weighted curvature quartic vs its closed form.

    The average of ``sum R_{i jbar k lbar} b_i w_i b_j conj(w_j) b_k w_k
    b_l conj(w_l)`` over the unit sphere equals
    ``(1/(n(n+1))) sum_{ik} (R_mat + P_mat)_{ik} b_i^2 b_k^2``.  The Monte
    Carlo integrand uses the diagonal-pair components, counting the
    all-equal-index entries once (they appear in both R_mat and P_mat).
    """
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise BadIndices("b must be entrywise nonnegative")
    n = fm.dim
    if b.shape != (n,):
        raise BadIndices(f"b has shape {b.shape}, expected ({n},)")
    q = fm.q_mat()
    b2 = b**2
    rhs = float(b2 @ q @ b2) / (n * (n + 1))

    rng = np.random.default_rng(seed)
    w = _sphere_samples(rng, n_samples, n)
    y = b2[None, :] * np.abs(w) ** 2  # per-sample b_i^2 |w_i|^2
    diag_r = np.diag(fm.r_mat)
    vals = np.einsum("si,ik,sk->s", y, q, y) - (y**2) @ diag_r
    lhs = float(np.mean(vals))
    std_error = float(np.std(vals) / np.sqrt(n_samples))
    return AveragedHscCheck(
        lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs), std_error=std_error, n_samples=n_samples
    )


def random_pair_antisymmetric_tensor(n, rng, diagonal="zero"):
    """Random conjugation-symmetric tensor with R_{i jbar k lbar} =
    -R_{k lbar i jbar} under the index-pair swap.

    Full antisymmetrization zeroes the diagonal quartics R_{k kbar k kbar};
    ``diagonal="random"`` reinstates random real values there (the proof's
    Sigma block).
    """
    t = rng.standard_normal((n, n, n, n)) + 1j * rng.standard_normal((n, n, n, n))
    t = (t + np.conj(np.transpose(t, (1, 0, 3, 2)))) / 2.0
    t = (t - np.transpose(t, (2, 3, 0, 1))) / 2.0
    if diagonal == "random":
        for k in range(n):
            t[k, k, k, k] = rng.standard_normal()
    return t


def _row_forms(v, m):
    """``v_k @ m @ v_k`` for each row ``v_k`` of ``v``, ``(..., K, n)`` rows
    against ``(..., n, n)`` matrices, with the bits of that row alone (a
    vector-matrix product, then a dot product, per row)."""
    return ((v[..., None, :] @ m[..., None, :, :]) @ v[..., :, None])[..., 0, 0]


def theorem23_check(n, trials=100, seed=0, tol=1e-10, diagonal="zero"):
    """HSC/RBC coincidence under the pair-swap antisymmetry.

    For tensors with ``R(X,Xbar,Y,Ybar) = -R(Y,Ybar,X,Xbar)`` the quadratic
    forms ``v^t (P_mat + R_mat) v`` and ``v^t Sigma v`` with
    ``Sigma = diag(2 R_{k kbar k kbar})`` coincide on nonnegative vectors
    (the Rayleigh quotient annihilates the antisymmetric parts), and
    ``v^t R_mat v = v^t Sigma v / 2``.  With the default zero-diagonal
    construction all three vanish and the acceptance quantity
    ``|v^t(P+R)v - v^t R v|`` is checked directly.

    Each trial draws a tensor and then its 100 vectors; all trials are
    contracted and evaluated as one stack.
    """
    if n < 2:
        raise BadParams("theorem23_check needs n >= 2")
    if trials < 1:
        raise BadParams("theorem23_check needs at least one trial")
    if diagonal not in ("zero", "random"):
        raise BadParams(f"unknown diagonal {diagonal!r} (expected 'zero' or 'random')")
    rng = np.random.default_rng(seed)
    tensors, v = [], []
    for _ in range(trials):
        tensors.append(random_pair_antisymmetric_tensor(n, rng, diagonal=diagonal))
        v.append(rng.random((100, n)))
    tensors, v = np.array(tensors), np.array(v)
    fm = curvature_in_frame(tensors, np.eye(n, dtype=complex), imag_tol=1e-8)
    k = np.arange(n)
    sigma = np.zeros((trials, n, n))
    sigma[:, k, k] = 2.0 * np.real(tensors[:, k, k, k, k])
    q1, q2, q3 = (_row_forms(v, m) for m in (fm.q_mat(), fm.r_mat, sigma))
    max_equal = float(np.max(np.abs(q1 - q2)))
    max_sigma = float(np.max(np.abs(q1 - q3)))
    max_half = float(np.max(np.abs(q2 - q3 / 2.0)))
    return {
        "n": n,
        "trials": trials,
        "diagonal": diagonal,
        "max_discrepancy": max_equal,
        "max_vs_sigma": max_sigma,
        "max_rbc_vs_half_sigma": max_half,
        "passed": (max_equal < tol) if diagonal == "zero" else (max_sigma < tol and max_half < tol),
        "tol": tol,
    }
