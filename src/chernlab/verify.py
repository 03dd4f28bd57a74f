"""Pointwise verification of Schwarz-type inequalities and the standalone
identities behind them.

Each verifier checks a differential or trace inequality on a sample grid and
a global sup-energy bound against the closed-form constant combination of
its theorem.  Verification is pointwise-on-grids: the charts are open sets,
so "global" means the sup over the sampled grid, and every verdict records
that, the constants used, and their provenance (user-given or estimated).

A Schwarz task is one ``SchwarzPass``, shared by ``estimate_hypotheses`` and
the verifier: the ``(P, n)`` grid stack and every metric, map and curvature
value read there, each evaluated once and only when first read.  Every point
keeps the bits it gets alone, a failing check names the first failing point
in grid order, and the cone kappas take all points in one ``rbc_bounds``
call (exact for n <= 2, a lockstep frame search for n >= 3) or one lockstep
``sbc_bound`` search.  Pencil eigenvalues are taken after whitening by a
Cholesky factor.  All curvature goes through
``SchwarzPass.curvature``, one point at a time: its stencils call the metric
once per sample, a count the benchmark's evaluation check pins, so stacking
them waits for that check to change.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cones import FrameSearchConfig, rbc_bounds, sbc_along_map, sbc_bound
from .curvature import chern_curvature, ricci
from .errors import (
    BadIndices,
    BadParams,
    DimensionMismatch,
    FormInequalityViolated,
    HypothesisSignError,
    InfeasibleHypothesis,
    RankDeficient,
    UnboundedSbc,
)
from .maps import HolomorphicMapModel, laplacian_energy, laplacian_log_energy, singular_frames
from .metrics import ChartedHermitianMetric
from .tensors import FrameCurvatureMatrices, cholesky_factor, curvature_in_frame, trace_form

__all__ = [
    "HypothesisConstants",
    "SchwarzPass",
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
_EPS = np.finfo(float).eps  # 2 u, twice the unit roundoff


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
        """The first record whose margin is within ``tol`` of the least (nearer ones are FD noise)."""
        if not self.records:
            return None
        least = min(rec["margin"] for rec in self.records)
        return next(rec for rec in self.records if rec["margin"] <= least + self.tol)


@dataclass(frozen=True, eq=False)
class SchwarzPass:
    """One grid pass of a Schwarz task: the sample grid ``points`` as a
    ``(P, n)`` stack, the ``source`` and ``target`` metrics, the holomorphic
    ``map`` between them (None for the trace bound, which compares the two
    metrics at one point) and the family theorem's auxiliary metric ``mu``.

    Each property is evaluated when first read and kept, so estimation and
    verification share every metric, map and curvature value.  Construction
    raises DimensionMismatch on dimensions that disagree and BadParams on an
    empty grid.
    """

    source: ChartedHermitianMetric
    target: ChartedHermitianMetric
    map: HolomorphicMapModel | None
    points: np.ndarray
    mu: ChartedHermitianMetric | None = None
    _curvature: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=complex)
        if points.size == 0:
            raise BadParams("sample grid is empty")
        object.__setattr__(self, "points", points.reshape(len(points), -1))
        n, m, k = self.source.dim, self.target.dim, self.points.shape[1]
        if self.map is None and m != n:
            raise DimensionMismatch(f"target has dim {m}, but the trace bound needs the source dim {n}")
        if self.map is not None and (self.map.source_dim, self.map.target_dim) != (n, m):
            raise DimensionMismatch(f"map is C^{self.map.source_dim} -> C^{self.map.target_dim}, but source "
                                    f"has dim {n} and target dim {m}")
        if self.mu is not None and self.mu.dim != n:
            raise DimensionMismatch(f"mu has dim {self.mu.dim}, but source has dim {n}")
        if k != n:
            raise DimensionMismatch(f"grid points have {k} coordinates, but source has dim {n}")

    @cached_property
    def frames(self):
        """The map's ``singular_frames`` on the grid."""
        if self.map is None:
            raise BadParams("this theorem needs a map")
        return singular_frames(self.map, self.points, self.source, self.target)

    @cached_property
    def g(self):
        """The source metric on the grid."""
        return self.source(self.points) if self.map is None else self.frames.metric

    @cached_property
    def image(self):
        """The map's values on the grid (without a map, the grid) and the target metric there."""
        if self.map is None:
            return self.points, self.target(self.points)
        return self.frames.image, self.frames.image_metric

    @cached_property
    def mu_metric(self):
        """The auxiliary metric on the grid."""
        if self.mu is None:
            raise BadParams("the family theorem needs the auxiliary metric mu")
        return self.mu(self.points)

    def curvature(self, metric, points):
        """The Chern curvature tensors of ``metric``, one of the pass's
        metrics, at each of ``points``: one ``chern_curvature`` call per
        (metric, point) pair the pass has not seen yet."""
        tensors = []
        for z in points:
            key = (id(metric), z.tobytes())
            if key not in self._curvature:
                self._curvature[key] = chern_curvature(metric, z)
            tensors.append(self._curvature[key])
        return np.array(tensors)

    @cached_property
    def source_ric2(self):
        """Ric2 of the source on the grid."""
        return ricci(self.curvature(self.source, self.points), self.g, 2)[0]

    @cached_property
    def target_ric2(self):
        """Ric2 of the target at the image points."""
        return ricci(self.curvature(self.target, self.image[0]), self.image[1], 2)[0]

    @cached_property
    def mu_ric2(self):
        """Ric2 of mu on the grid (BadParams without mu)."""
        g_mu = self.mu_metric
        return ricci(self.curvature(self.mu, self.points), g_mu, 2)[0]


def _z_list(z):
    return [[float(np.real(c)), float(np.imag(c))] for c in np.atleast_1d(z)]


def _gen_eigs(a, b):
    """Eigenvalues of the pencil (a, b) with b Hermitian positive-definite:
    those of ``L^-1 a L^-dag`` with ``L`` the Cholesky factor of b."""
    inv_low = np.linalg.inv(cholesky_factor(b))
    return np.linalg.eigvalsh(inv_low @ a @ np.conj(np.swapaxes(inv_low, -1, -2)))


def _first_extreme(values, points, sense=+1):
    """The largest (``sense`` +1) or least (-1) of the per-point ``values``
    and the first point that takes it."""
    k = int(np.argmax(sense * np.asarray(values)))
    return float(values[k]), points[k]


def _kappa_rbc(sp, cfg):
    """kappa with RBC <= -kappa: minus the largest RBC sup over the image
    points of the pass ``sp``, from one ``rbc_bounds`` call (exact for
    n <= 2, searched for n >= 3)."""
    image, image_metric = sp.image
    bounds = rbc_bounds(sp.curvature(sp.target, image), image_metric, cfg)
    sup, at = _first_extreme([b.sup for b in bounds], image)
    return -sup, at


def _kappa_sbc_along_map(sp):
    """kappa with SBC_omega >= -kappa along the map: the sup over the grid
    of minus the pointwise curvature sum at the map's singular values, in
    the source singular frame."""
    sf = sp.frames
    deficient = sf.rank < sp.points.shape[1]
    if np.any(deficient):
        raise RankDeficient(f"map is rank-deficient at {sp.points[np.argmax(deficient)]}")
    fm = curvature_in_frame(sp.curvature(sp.source, sp.points), sf.source_frame)
    values = [-sbc_along_map(r_mat, lambdas) for r_mat, lambdas in zip(fm.r_mat, sf.lambdas)]
    value, at = _first_extreme(values, sp.points)
    return max(0.0, value), at


def _kappa_sbc_full_cone(sp, cfg):
    """kappa with SBC_omega >= -kappa over the full ordered cone, the
    searches of every grid point run as one ``sbc_bound`` call; raises
    UnboundedSbc with the divergence certificate of the first point, in
    grid order, where the infimum is -inf."""
    results = sbc_bound(sp.curvature(sp.source, sp.points), sp.g, cfg)
    for z, res in zip(sp.points, results):
        if res.status == "unbounded_below":
            raise UnboundedSbc(f"SBC unbounded below at {z}", certificate=res.divergence_certificate)
    value, at = _first_extreme([-res.inf_val for res in results], sp.points)
    return max(0.0, value), at


def estimate_hypotheses(sp, theorem="chern_lu", fixed=None, frame_cfg=FrameSearchConfig(),
                        kappa_mode="along_map"):
    """Fit the tightest constants valid on the grid of the pass ``sp`` for a
    theorem.

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
    stack = sp.points
    n = sp.source.dim
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
        sf = sp.frames
        eigs = _gen_eigs(sp.source_ric2 - c2 * sf.pullback, sp.g)
        fit("c1", *_first_extreme(-np.min(eigs, axis=-1), stack))
        kappa, at = _kappa_rbc(sp, frame_cfg)
        if kappa < 0:
            raise InfeasibleHypothesis(
                f"RBC sup of the target is positive ({-kappa:.6g}); kappa >= 0 is demanded"
            )
        fit("kappa", kappa, at)
        constants.r = int(np.max(sf.rank))
        if constants.kappa + constants.c2 <= 0:
            raise InfeasibleHypothesis("kappa + C2 > 0 is required for the bound")
        return constants

    if theorem in ("aubin_yau", "trace_bound"):
        c2 = fixed.get("c2", 0.0)
        fit("c2", c2, None)
        back, form = sp.g, "omega"  # (f^-1)* omega, the identity's for the trace bound
        if theorem == "aubin_yau":
            if sp.target.dim != n:
                raise RankDeficient(f"Aubin-Yau needs equal dimensions, got a map C^{n} -> C^{sp.target.dim}")
            deficient = sp.frames.rank < n
            if np.any(deficient):
                raise RankDeficient(f"map is rank-deficient at {stack[np.argmax(deficient)]}")
            jinvs = np.linalg.inv(sp.frames.jacobian)
            back, form = np.swapaxes(jinvs, -1, -2) @ sp.g @ np.conj(jinvs), "(f^-1)* omega"
        eigs = _gen_eigs(c2 * back - sp.target_ric2, sp.image[1])
        c1, at = _first_extreme(np.min(eigs, axis=-1), stack, -1)
        if c1 <= 0:
            raise InfeasibleHypothesis(f"no C1 > 0 satisfies Ric2 <= -C1 eta + C2 {form} (best {c1:.6g})")
        fit("c1", c1, at)
        if "kappa" not in fixed:
            along_map = theorem == "aubin_yau" and kappa_mode == "along_map"
            fit("kappa", *(_kappa_sbc_along_map(sp) if along_map else _kappa_sbc_full_cone(sp, frame_cfg)))
        constants.r = n
        return constants

    if theorem == "family":
        c2 = fixed.get("c2", 0.0)
        c4 = fixed.get("c4", 0.0)
        if c2 < 0:
            raise HypothesisSignError("C2 must be nonnegative")
        fit("c2", c2, None)
        fit("c4", c4, None)
        sf = sp.frames
        ric2_mu, g_mu = sp.mu_ric2, sp.mu_metric
        fit("c1", *_first_extreme(np.max(_gen_eigs(c2 * sf.pullback - ric2_mu, g_mu), axis=-1), stack))
        eigs = _gen_eigs(c4 * sp.g - ric2_mu, g_mu)
        c3, at = _first_extreme(np.min(eigs, axis=-1), stack, -1)
        if c3 <= 0:
            raise InfeasibleHypothesis(
                f"no C3 > 0 satisfies Ric2_mu <= -C3 mu + C4 omega (best {c3:.6g})"
            )
        fit("c3", c3, at)
        if "kappa1" not in fixed:
            kappa1, at1 = _kappa_sbc_along_map(sp)
            fit("kappa1", kappa1, at1)
        if "kappa2" not in fixed:
            kappa2, at2 = _kappa_rbc(sp, frame_cfg)
            if kappa2 < 0:
                raise InfeasibleHypothesis(
                    f"RBC sup of the target is positive ({-kappa2:.6g}); kappa2 >= 0 is demanded"
                )
            fit("kappa2", kappa2, at2)
        constants.r = int(np.max(sf.rank))
        if constants.kappa2 + constants.c2 <= 0:
            raise InfeasibleHypothesis("kappa2 + C2 > 0 is required")
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


def _require_finite(constants, tol):
    """HypothesisSignError naming the constants that are NaN or past the range
    of a double, and BadParams for such a ``tol``."""
    bad = [f"{name} = {value!r}" for name, value in constants.as_dict().items()
           if not abs(value) <= sys.float_info.max]
    if bad:
        raise HypothesisSignError(f"constants must be finite, got {', '.join(bad)}")
    if not abs(tol) <= sys.float_info.max:
        raise BadParams(f"tol must be finite, got {tol!r}")


def chern_lu_verify(sp, constants, tol=1e-6):
    """Chern-Lu check on the pass ``sp``: pointwise ``Delta_omega log|df|^2 >=
    -C1 + (kappa + C2)|df|^2 / r`` plus the sup bound ``|df|^2 <= C1 r /
    (kappa + C2)``."""
    _require_finite(constants, tol)
    c1, c2, kappa = constants.c1, constants.c2 or 0.0, constants.kappa
    if c1 is None or kappa is None:
        raise HypothesisSignError("Chern-Lu needs C1 and kappa")
    if c2 < 0:
        raise HypothesisSignError("C2 must be nonnegative")
    if kappa + c2 <= 0:
        raise HypothesisSignError("kappa + C2 > 0 is required for the bound")
    r = constants.r or sp.source.dim
    sf = sp.frames
    lhss = laplacian_log_energy(sp.map, sp.points, sp.source, sp.target, sf)
    records = []
    for point, energy, lhs in zip(sp.points, sf.energy.tolist(), lhss.tolist()):
        rhs = -c1 + (kappa + c2) * energy / r
        records.append({"z": _z_list(point), "energy": energy, "lhs": lhs, "rhs": rhs, "margin": lhs - rhs})
    verdict = _grid_verdict("chern_lu", records, c1 * r / (kappa + c2), tol, constants)
    verdict.notes["bound_slack"] = verdict.bound - verdict.sup_energy
    return verdict


def aubin_yau_verify(sp, constants, tol=1e-6):
    """Aubin-Yau check on the pass ``sp``: pointwise ``Delta_eta |df|^2 >=
    C1 |df|^2 - n(C2 + kappa)`` plus the sup bound ``|df|^2 <= n(C2 +
    kappa)/C1``.

    The margin is against the displayed (weaker) right-hand side; the
    margin against the stricter in-proof form ``C1|df|^2 - n C2 - kappa``
    is recorded alongside as ``margin_strict``.
    """
    _require_finite(constants, tol)
    c1, c2, kappa = constants.c1, constants.c2 or 0.0, constants.kappa
    if c1 is None or kappa is None:
        raise HypothesisSignError("Aubin-Yau needs C1 and kappa")
    if kappa < 0:
        raise HypothesisSignError("kappa must be nonnegative")
    if c1 <= 0:
        raise HypothesisSignError("C1 must be positive")
    n = sp.source.dim
    sf = sp.frames
    deficient = sf.rank < n
    if np.any(deficient):
        raise RankDeficient(f"map is rank-deficient at {sp.points[np.argmax(deficient)]}")
    lhss = laplacian_energy(sp.map, sp.points, sp.source, sp.target, sf)
    records = []
    for point, energy, lhs in zip(sp.points, sf.energy.tolist(), lhss.tolist()):
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


def family_verify(sp, constants, tol=1e-6, preset=None):
    """Family-of-Schwarz-lemmas check on the pass ``sp``: both form
    inequalities ``-C1 mu + C2 f*eta <= Ric2_mu <= -C3 mu + C4 omega``
    pointwise, then the sup bound ``|df|^2 <= C1 n r (kappa1+C4) / (C3
    (kappa2+C2))``.

    Presets configure the corollary instances: ``chen_cheng_lu`` (bound
    kappa1/kappa2), ``ricci_only`` (bound C1/C3), and ``liouville`` (the
    forced bound is <= 0, so any map with positive energy certifies the
    no-map contradiction).
    """
    _require_finite(constants, tol)
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
    c.n = c.n or sp.source.dim
    c.r = c.r or sp.source.dim
    bound, preset_notes = _apply_family_preset(c, preset, tol)

    sf = sp.frames
    g_mu, ric2_mu = sp.mu_metric, sp.mu_ric2
    lo_eigs = np.min(np.linalg.eigvalsh(ric2_mu + c.c1 * g_mu - c.c2 * sf.pullback), axis=-1)
    hi_eigs = np.min(np.linalg.eigvalsh(c.c4 * sp.g - c.c3 * g_mu - ric2_mu), axis=-1)
    slacks = [min(lo, hi) for lo, hi in zip(lo_eigs.tolist(), hi_eigs.tolist())]
    records = [
        {"z": _z_list(point), "energy": energy, "lhs": slack, "rhs": 0.0, "margin": slack}
        for point, energy, slack in zip(sp.points, sf.energy.tolist(), slacks)
    ]
    worst, at = _first_extreme(slacks, sp.points, -1)
    if worst < -EIG_TOL:
        raise FormInequalityViolated(
            f"Ric2_mu form inequality violated: min eigenvalue {worst:.6g} at {at}",
            point=_z_list(at),
            eigenvalue=worst,
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
    verdict.notes["min_form_eigenvalue"] = worst
    verdict.notes["worst_point"] = _z_list(at)
    verdict.notes["grid_semantics"] = "sup over sampled grid"
    if not passed and preset != "liouville":
        over = max(records, key=lambda rec: rec["energy"])
        verdict.notes["bound_violation"] = {"point": over["z"], "energy": over["energy"], "bound": bound}
    return verdict


def trace_bound_verify(sp, constants, tol=1e-6):
    """Trace bound for the identity map on the pass ``sp`` (which has no
    map): ``tr_omega(eta) <= (kappa + n C2)/C1`` at each grid point.  When
    the certified constants satisfy ``kappa <= -C2`` the
    automorphism-triviality flag is set (informational; no group
    computation is attempted)."""
    _require_finite(constants, tol)
    c1, c2, kappa = constants.c1, constants.c2 or 0.0, constants.kappa
    if c1 is None or c1 <= 0:
        raise HypothesisSignError("trace bound needs C1 > 0")
    if kappa is None or kappa < 0:
        raise HypothesisSignError("trace bound needs a finite kappa >= 0")
    if sp.map is not None:
        raise BadParams("the trace bound compares the two metrics at one point; its pass has no map")
    n = constants.n or sp.source.dim
    bound = (kappa + n * c2) / c1
    traces = trace_form(sp.g, sp.image[1])
    records = [
        {"z": _z_list(point), "energy": tr, "lhs": tr, "rhs": bound, "margin": bound - tr}
        for point, tr in zip(sp.points, traces.tolist())
    ]
    verdict = _grid_verdict("trace_bound", records, bound, tol, constants, sup_checked=False)
    verdict.notes["aut_trivial_flag"] = bool(kappa <= -c2 + 1e-12)
    return verdict


# ---------------------------------------------------------------------------
# standalone identities
# ---------------------------------------------------------------------------


def _simplex_nodes(n):
    """Stroud's rule T:2-1 for the uniform probability measure on the simplex
    ``{t >= 0, sum t = 1}`` in R^n: the n rows of the result, equally weighted,
    integrate every polynomial of degree <= 2 in t exactly.  Row k has
    ``t_k = r`` and every other coordinate ``s = (n+1 - sqrt(n+1)) / (n(n+1))``;
    neither is formed by cancellation, so each is within 7 u of exact."""
    root = np.sqrt(n + 1.0)
    t = np.full((n, n), (root - 1.0) / (n * root))
    np.fill_diagonal(t, (1.0 + (n - 1) / root) / n)
    return t


@dataclass(frozen=True)
class CubatureCheck:
    """An exact cubature ``lhs`` against its closed form ``rhs``.  ``std_error``
    bounds the rounding of both (to first order in the unit roundoff u =
    eps / 2), so the check passes when ``abs_err <= std_error``."""

    lhs: complex
    rhs: float
    std_error: float
    nodes: int
    rule: str

    @property
    def abs_err(self):
        return abs(self.lhs - self.rhs)

    @property
    def passed(self):
        return self.abs_err <= self.std_error


def fs_moment_check(n, indices):
    """Exact-cubature check of the unitary-invariant quartic sphere moment

        E[w_i conj(w_j) w_k conj(w_l)] = (d_ij d_kl + d_il d_kj) / (n (n+1))

    over the unit sphere in C^n (whose uniform measure pushes forward to the
    unit-volume Fubini-Study measure).  Indices are 1-based.

    As ``w_m = sqrt(t_m) e^{i theta_m}``, that measure is t uniform on the
    simplex times theta uniform on the torus.  The rule is ``_simplex_nodes``
    in t times 3 equispaced phases on each coordinate the indices touch, the
    first fixed at 0 as the integrand is invariant under a global phase: at
    most 27 n equally weighted nodes.  3 phases integrate ``e^{i p theta}``
    exactly for ``|p| <= 2``, and the phase average leaves ``t_i t_k`` (when
    ``{i, k} = {j, l}``) or 0, of degree <= 2 in t.
    """
    if n < 2:
        raise BadParams("the moment identity needs n >= 2")
    try:
        i, j, k, l = (int(v) for v in indices)
    except (TypeError, ValueError) as exc:
        raise BadIndices(f"indices must be a 4-tuple, got {indices!r}") from exc
    if not all(1 <= v <= n for v in (i, j, k, l)):
        raise BadIndices(f"indices {indices} out of range for n={n}")
    i, j, k, l = i - 1, j - 1, k - 1, l - 1
    target = (float(i == j) * float(k == l) + float(i == l) * float(k == j)) / (n * (n + 1))

    coords = sorted({i, j, k, l})
    phase = np.array([1.0, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5))])
    turns = np.array([(1.0, *p) for p in itertools.product(phase, repeat=len(coords) - 1)])
    w = (np.sqrt(_simplex_nodes(n)[:, coords])[:, None, :] * turns).reshape(-1, len(coords))
    a, b, c, d = (w[:, coords.index(v)] for v in (i, j, k, l))
    vals = a * np.conj(b) * c * np.conj(d)
    # Rounding: an entry of w is within 7 u of sqrt(t) e^{i theta} (t within 7 u,
    # halved by the sqrt; the sqrt, the phase and the product u each), and three
    # complex products add sqrt(5) u each: a node value f is within 35 u |f|.  The
    # mean of the N values adds (N - 1) u mean|f| (sum) and u (division), the
    # target u |target|: (N + 35) u mean|f| + u |target|, under the bound below.
    nodes = len(vals)
    return CubatureCheck(
        lhs=complex(np.mean(vals)),
        rhs=target,
        std_error=float((nodes + 18) * _EPS * np.mean(np.abs(vals)) + _EPS * target),
        nodes=nodes,
        rule="Stroud T:2-1 in |w|^2 x 3 phases per coordinate: exact to degree (2, 2)",
    )


def averaged_hsc_check(fm: FrameCurvatureMatrices, b):
    """Sphere average of the b-weighted curvature quartic vs its closed form.

    The average of ``sum R_{i jbar k lbar} b_i w_i b_j conj(w_j) b_k w_k
    b_l conj(w_l)`` over the unit sphere equals
    ``(1/(n(n+1))) sum_{ik} (R_mat + P_mat)_{ik} b_i^2 b_k^2``.  The integrand
    uses the diagonal-pair components, counting the all-equal-index entries
    once: ``q = R_mat + P_mat`` holds each of them twice on its diagonal, so
    half the diagonal is taken off.  It is quadratic in ``t = |w|^2`` alone,
    so the n nodes of ``_simplex_nodes`` integrate it exactly.
    """
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise BadIndices("b must be entrywise nonnegative")
    n = fm.dim
    if b.shape != (n,):
        raise BadIndices(f"b has shape {b.shape}, expected ({n},)")
    q = fm.q_mat()
    b2 = b**2
    y = b2 * _simplex_nodes(n)  # per node b_i^2 |w_i|^2
    half_diag = np.diag(q) / 2.0
    vals = np.sum((y @ q) * y, axis=1) - (y**2) @ half_diag
    # Rounding, with q and b^2 given: y is within 8 u, so a node's quadratic
    # form is within (2n + 16) u of y|q|y and its diagonal term within (n + 17) u
    # of y^2 |q_ii| / 2, a node value within (2n + 17) u of the sum F of both;
    # the mean adds n u mean F.  rhs is two n-term dot products and a division,
    # within (2n + 1) u of G = b^2 |q| b^2 / (n(n+1)): under (4n + 32) u (mean F + G).
    absq = np.abs(q)
    scale = np.mean(np.sum((y @ absq) * y, axis=1) + (y**2) @ np.abs(half_diag))
    return CubatureCheck(
        lhs=float(np.mean(vals)),
        rhs=float(b2 @ q @ b2) / (n * (n + 1)),
        std_error=float((2 * n + 16) * _EPS * (scale + b2 @ absq @ b2 / (n * (n + 1)))),
        nodes=n,
        rule="Stroud T:2-1 in |w|^2: exact to degree 2 in |w|^2",
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
