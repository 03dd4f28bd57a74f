"""Pointwise verification of Schwarz-type inequalities and the standalone
identities behind them.

Each verifier checks a differential or trace inequality on a sample grid and
a global sup-energy bound against the closed-form constant combination of
its theorem.  Verification is pointwise-on-grids: the charts are open sets,
so "global" means the sup over the sampled grid, and every verdict records
that, the constants used, and their provenance (user-given or estimated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
    jacobian,
    laplacian_energy,
    laplacian_log_energy,
    pullback_metric,
    singular_frames,
)
from .tensors import FrameCurvatureMatrices, curvature_in_frame, hermitian_inverse

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


def _z_list(z):
    return [[float(np.real(c)), float(np.imag(c))] for c in np.atleast_1d(z)]


def _min_eig(form):
    return float(np.min(scipy.linalg.eigvalsh(form)))


def _gen_eigs(a, b):
    """Eigenvalues of the pencil (a, b) with b Hermitian positive-definite."""
    return scipy.linalg.eigh(a, b, eigvals_only=True)


def _curvatures(metric, points):
    out = []
    for z in points:
        tensor = chern_curvature(metric, z)
        g = metric(np.atleast_1d(np.asarray(z, dtype=complex)))
        out.append((np.atleast_1d(np.asarray(z, dtype=complex)), tensor, g))
    return out


def _ric2(metric, points):
    return [(z, ricci(t, g, 2)[0], g) for z, t, g in _curvatures(metric, points)]


def _kappa_rbc(target_metric, image_points, cfg):
    """kappa with RBC <= -kappa: minus the largest frame-searched sup."""
    worst = (-np.inf, None)
    for w in image_points:
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        tensor = chern_curvature(target_metric, w)
        bounds = rbc_bounds(tensor, target_metric(w), cfg)
        if bounds.sup > worst[0]:
            worst = (bounds.sup, w)
    return -worst[0], worst[1]


def _kappa_sbc_along_map(f, source_metric, target_metric, points):
    """kappa with SBC_omega >= -kappa along the map: the sup over the grid
    of minus the pointwise curvature sum at the map's singular values, in
    the source singular frame."""
    worst = (-np.inf, None)
    for z in points:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        sf = singular_frames(f, z, source_metric, target_metric)
        if sf.rank < f.source_dim:
            raise RankDeficient(f"map is rank-deficient at {z}")
        tensor = chern_curvature(source_metric, z)
        fm = curvature_in_frame(tensor, sf.source_frame)
        value = -sbc_along_map(fm.r_mat, sf.lambdas)
        if value > worst[0]:
            worst = (value, z)
    return max(0.0, worst[0]), worst[1]


def _kappa_sbc_full_cone(source_metric, points, cfg):
    """kappa with SBC_omega >= -kappa over the full ordered cone; raises
    UnboundedSbc with the divergence certificate when the infimum is -inf."""
    worst = (-np.inf, None)
    for z in points:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        tensor = chern_curvature(source_metric, z)
        res = sbc_bound(tensor, source_metric(z), cfg)
        if res.status == "unbounded_below":
            raise UnboundedSbc(
                f"SBC unbounded below at {z}", certificate=res.divergence_certificate
            )
        if -res.inf_val > worst[0]:
            worst = (-res.inf_val, z)
    return max(0.0, worst[0]), worst[1]


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
    points = [np.atleast_1d(np.asarray(z, dtype=complex)) for z in grid]
    if not points:
        raise BadParams("sample grid is empty")
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
        worst = (-np.inf, None)
        ranks = []
        for z, ric2_w, g in _ric2(source_metric, points):
            pull = pullback_metric(f, z, target_metric)
            c_here = -float(np.min(_gen_eigs(ric2_w - c2 * pull, g)))
            if c_here > worst[0]:
                worst = (c_here, z)
            ranks.append(singular_frames(f, z, source_metric, target_metric).rank)
        fit("c1", worst[0], worst[1])
        kappa, at = _kappa_rbc(target_metric, [f(z) for z in points], frame_cfg)
        if kappa < 0:
            raise InfeasibleHypothesis(
                f"RBC sup of the target is positive ({-kappa:.6g}); kappa >= 0 is demanded"
            )
        fit("kappa", kappa, at)
        constants.r = max(ranks)
        if constants.kappa + constants.c2 <= 0:
            raise InfeasibleHypothesis("kappa + C2 > 0 is required for the bound")
        return constants

    if theorem == "aubin_yau":
        c2 = fixed.get("c2", 0.0)
        fit("c2", c2, None)
        worst = (np.inf, None)
        for z in points:
            w = f(z)
            ric2_h = ricci(chern_curvature(target_metric, w), target_metric(w), 2)[0]
            jac = jacobian(f, z)
            jinv = np.linalg.inv(jac)
            back = jinv.T @ source_metric(z) @ np.conj(jinv)
            c_here = float(np.min(_gen_eigs(c2 * back - ric2_h, target_metric(w))))
            if c_here < worst[0]:
                worst = (c_here, z)
        if worst[0] <= 0:
            raise InfeasibleHypothesis(
                f"no C1 > 0 satisfies Ric2 <= -C1 eta + C2 (f^-1)* omega (best {worst[0]:.6g})"
            )
        fit("c1", worst[0], worst[1])
        if "kappa" not in fixed:
            if kappa_mode == "along_map":
                kappa, at = _kappa_sbc_along_map(f, source_metric, target_metric, points)
            else:
                kappa, at = _kappa_sbc_full_cone(source_metric, points, frame_cfg)
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
        lo_worst, hi_worst = (-np.inf, None), (np.inf, None)
        ranks = []
        for z, ric2_mu, g_mu in _ric2(mu, points):
            pull = pullback_metric(f, z, target_metric)
            g_omega = source_metric(z)
            lo_here = float(np.max(_gen_eigs(c2 * pull - ric2_mu, g_mu)))
            hi_here = float(np.min(_gen_eigs(c4 * g_omega - ric2_mu, g_mu)))
            if lo_here > lo_worst[0]:
                lo_worst = (lo_here, z)
            if hi_here < hi_worst[0]:
                hi_worst = (hi_here, z)
            ranks.append(singular_frames(f, z, source_metric, target_metric).rank)
        fit("c1", lo_worst[0], lo_worst[1])
        if hi_worst[0] <= 0:
            raise InfeasibleHypothesis(
                f"no C3 > 0 satisfies Ric2_mu <= -C3 mu + C4 omega (best {hi_worst[0]:.6g})"
            )
        fit("c3", hi_worst[0], hi_worst[1])
        if "kappa1" not in fixed:
            kappa1, at1 = _kappa_sbc_along_map(f, source_metric, target_metric, points)
            fit("kappa1", kappa1, at1)
        if "kappa2" not in fixed:
            kappa2, at2 = _kappa_rbc(target_metric, [f(z) for z in points], frame_cfg)
            if kappa2 < 0:
                raise InfeasibleHypothesis(
                    f"RBC sup of the target is positive ({-kappa2:.6g}); kappa2 >= 0 is demanded"
                )
            fit("kappa2", kappa2, at2)
        constants.r = max(ranks)
        if constants.kappa2 + constants.c2 <= 0:
            raise InfeasibleHypothesis("kappa2 + C2 > 0 is required")
        return constants

    if theorem == "trace_bound":
        c2 = fixed.get("c2", 0.0)
        fit("c2", c2, None)
        worst = (np.inf, None)
        for z, ric2_h, g_eta in _ric2(target_metric, points):
            g_omega = source_metric(z)
            c_here = float(np.min(_gen_eigs(c2 * g_omega - ric2_h, g_eta)))
            if c_here < worst[0]:
                worst = (c_here, z)
        if worst[0] <= 0:
            raise InfeasibleHypothesis(
                f"no C1 > 0 satisfies Ric2 <= -C1 eta + C2 omega (best {worst[0]:.6g})"
            )
        fit("c1", worst[0], worst[1])
        if "kappa" not in fixed:
            kappa, at = _kappa_sbc_full_cone(source_metric, points, frame_cfg)
            fit("kappa", kappa, at)
        constants.r = constants.n
        return constants

    raise BadParams(f"unknown theorem {theorem!r}")


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
    records = []
    for z in grid:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        energy = energy_density(f, z, source_metric, target_metric)
        lhs = laplacian_log_energy(f, z, source_metric, target_metric)
        rhs = -c1 + (kappa + c2) * energy / r
        records.append(
            {"z": _z_list(z), "energy": energy, "lhs": lhs, "rhs": rhs, "margin": lhs - rhs}
        )
    bound = c1 * r / (kappa + c2)
    sup_energy = max(rec["energy"] for rec in records)
    passed = all(rec["margin"] >= -tol for rec in records) and sup_energy <= bound * (1 + tol)
    verdict = SchwarzVerdict(
        theorem="chern_lu",
        records=records,
        bound=bound,
        sup_energy=sup_energy,
        passed=passed,
        tol=tol,
        constants=constants,
    )
    verdict.notes["worst_point"] = verdict.worst()["z"]
    verdict.notes["bound_slack"] = bound - sup_energy
    verdict.notes["grid_semantics"] = "sup over sampled grid"
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
    records = []
    for z in grid:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        sf = singular_frames(f, z, source_metric, target_metric)
        if sf.rank < n:
            raise RankDeficient(f"map is rank-deficient at {z}")
        energy = energy_density(f, z, source_metric, target_metric)
        lhs = laplacian_energy(f, z, source_metric, target_metric)
        rhs = c1 * energy - n * (c2 + kappa)
        rhs_strict = c1 * energy - n * c2 - kappa
        records.append(
            {
                "z": _z_list(z),
                "energy": energy,
                "lhs": lhs,
                "rhs": rhs,
                "margin": lhs - rhs,
                "margin_strict": lhs - rhs_strict,
            }
        )
    bound = n * (c2 + kappa) / c1
    sup_energy = max(rec["energy"] for rec in records)
    passed = all(rec["margin"] >= -tol for rec in records) and sup_energy <= bound * (1 + tol)
    verdict = SchwarzVerdict(
        theorem="aubin_yau",
        records=records,
        bound=bound,
        sup_energy=sup_energy,
        passed=passed,
        tol=tol,
        constants=constants,
    )
    verdict.notes["worst_point"] = verdict.worst()["z"]
    verdict.notes["min_margin_strict"] = min(rec["margin_strict"] for rec in records)
    verdict.notes["grid_semantics"] = "sup over sampled grid"
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

    records = []
    worst_eig = (np.inf, None)
    for z in grid:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        g_mu = mu(z)
        ric2_mu = ricci(chern_curvature(mu, z), g_mu, 2)[0]
        pull = pullback_metric(f, z, target_metric)
        g_omega = source_metric(z)
        lo_eig = _min_eig(ric2_mu + c.c1 * g_mu - c.c2 * pull)
        hi_eig = _min_eig(c.c4 * g_omega - c.c3 * g_mu - ric2_mu)
        slack = min(lo_eig, hi_eig)
        if slack < worst_eig[0]:
            worst_eig = (slack, z)
        energy = energy_density(f, z, source_metric, target_metric)
        records.append(
            {"z": _z_list(z), "energy": energy, "lhs": slack, "rhs": 0.0, "margin": slack}
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
    n = constants.n or len(np.atleast_1d(grid[0]))
    bound = (kappa + n * c2) / c1
    records = []
    for z in grid:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        tr = float(np.real(np.trace(hermitian_inverse(source_metric(z)) @ target_metric(z))))
        records.append(
            {"z": _z_list(z), "energy": tr, "lhs": tr, "rhs": bound, "margin": bound - tr}
        )
    sup_energy = max(rec["energy"] for rec in records)
    passed = all(rec["margin"] >= -tol for rec in records)
    verdict = SchwarzVerdict(
        theorem="trace_bound",
        records=records,
        bound=bound,
        sup_energy=sup_energy,
        passed=passed,
        tol=tol,
        constants=constants,
    )
    verdict.notes["worst_point"] = verdict.worst()["z"]
    verdict.notes["aut_trivial_flag"] = bool(kappa <= -c2 + 1e-12)
    verdict.notes["grid_semantics"] = "sup over sampled grid"
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


def theorem23_check(n, trials=100, seed=0, tol=1e-10, diagonal="zero"):
    """HSC/RBC coincidence under the pair-swap antisymmetry.

    For tensors with ``R(X,Xbar,Y,Ybar) = -R(Y,Ybar,X,Xbar)`` the quadratic
    forms ``v^t (P_mat + R_mat) v`` and ``v^t Sigma v`` with
    ``Sigma = diag(2 R_{k kbar k kbar})`` coincide on nonnegative vectors
    (the Rayleigh quotient annihilates the antisymmetric parts), and
    ``v^t R_mat v = v^t Sigma v / 2``.  With the default zero-diagonal
    construction all three vanish and the acceptance quantity
    ``|v^t(P+R)v - v^t R v|`` is checked directly.
    """
    if n < 2:
        raise BadParams("theorem23_check needs n >= 2")
    if diagonal not in ("zero", "random"):
        raise BadParams(f"unknown diagonal {diagonal!r} (expected 'zero' or 'random')")
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=complex)
    max_equal = 0.0
    max_sigma = 0.0
    max_half = 0.0
    for _ in range(trials):
        tensor = random_pair_antisymmetric_tensor(n, rng, diagonal=diagonal)
        fm = curvature_in_frame(tensor, eye, imag_tol=1e-8)
        sigma = np.diag(2.0 * np.real(np.einsum("kkkk->k", tensor)))
        q = fm.q_mat()
        for _ in range(100):
            v = rng.random(n)
            q1 = float(v @ q @ v)
            q2 = float(v @ fm.r_mat @ v)
            q3 = float(v @ sigma @ v)
            max_equal = max(max_equal, abs(q1 - q2))
            max_sigma = max(max_sigma, abs(q1 - q3))
            max_half = max(max_half, abs(q2 - q3 / 2.0))
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
