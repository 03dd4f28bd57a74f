"""Pointwise verification of Schwarz-type inequalities and the standalone
identities behind them.

Each Schwarz theorem is one row of ``THEOREMS``: its constants with every
sign rule stated once, the form inequalities (pencils) and cone hypotheses
that fit them, its pointwise left- and right-hand sides and its sup-energy
bound.  ``estimate_hypotheses`` reads a row to fit the constants a caller
leaves out, and ``schwarz_verify`` to check the inequality on a sample grid;
"global" means the sup over that grid, as every verdict records.

A Schwarz task is one ``SchwarzPass``, shared by both: the ``(P, n)`` grid
stack and every metric, map and curvature value read there, each evaluated
once and only when first read.  Every point keeps the bits it gets alone, a
failing check names the first failing point in grid order, and the cone
kappas take all points in one ``rbc_bounds`` call (exact for n <= 2, a
PSD-cone ascent above) or one ``sbc_bound`` call (a pair test and a descent
over PD matrices); neither takes a budget or a seed.  ``_READS`` says
where each hypothesis reads which metric's curvature, and
``estimate_hypotheses`` groups its reads by metric: one ``chern_curvature``
call per metric per pass (a self-map's grid and images in one), through
the pass's ``CurvatureStore`` (a scenario run's, shared by all its tasks).
Every verdict's worst point, the family's included, is
``SchwarzVerdict.worst()``.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .cones import rbc_bounds, sbc_along_map, sbc_bound
from .curvature import CurvatureStore, ricci
from .errors import (
    BadIndices,
    BadParams,
    ChernLabError,
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
    "THEOREMS",
    "averaged_hsc_check",
    "estimate_hypotheses",
    "fs_moment_check",
    "schwarz_verify",
    "theorem23_check",
]

EIG_TOL = 1e-7  # absolute tolerance on eigenvalues of difference forms
_EPS = np.finfo(float).eps  # 2 u, twice the unit roundoff
CONSTANT_NAMES = ("c1", "c2", "c3", "c4", "kappa", "kappa1", "kappa2", "r", "n")


@dataclass
class HypothesisConstants:
    """The constants (``values`` by name) of the Schwarz theorem ``theorem``,
    a key of ``THEOREMS``, with its family ``preset`` if any.  ``provenance``
    is "user" (given), "estimated" (fitted, or the shift constant of a fitted
    pencil, taken as 0) or "preset"; n, r and other shift constants have none.
    ``achieved_at`` holds the grid point where an estimated constant is tight."""

    theorem: str
    preset: str | None = None
    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    achieved_at: dict = field(default_factory=dict)

    def _set(self, name, value, how, at=None):
        self.values[name] = value
        self.provenance[name] = how
        if at is not None:
            self.achieved_at[name] = _z_list(at)


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
    verification share every metric, map and curvature value.  Curvature
    goes through ``curvatures``, the ``CurvatureStore`` of a scenario run
    (shared by all its tasks) or a fresh one.  Construction raises
    DimensionMismatch on dimensions that disagree and BadParams on an empty
    grid.
    """

    source: ChartedHermitianMetric
    target: ChartedHermitianMetric
    map: HolomorphicMapModel | None
    points: np.ndarray
    mu: ChartedHermitianMetric | None = None
    curvatures: CurvatureStore = field(default_factory=CurvatureStore, repr=False)
    _ric2: dict = field(default_factory=dict, init=False, repr=False)  # hypothesis -> the Ric2 of its read

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

    def full_rank_frames(self):
        """``frames``, after checking that the map has rank n at every grid
        point (RankDeficient names the first that does not)."""
        deficient = self.frames.rank < self.points.shape[1]
        if np.any(deficient):
            raise RankDeficient(f"map is rank-deficient at {self.points[np.argmax(deficient)]}")
        return self.frames

    @cached_property
    def g(self):
        """The source metric on the grid."""
        return self.source(self.points) if self.map is None else self.frames.metric

    @cached_property
    def image_points(self):
        """The map's values on the grid (without a map, the grid)."""
        return self.points if self.map is None else self.frames.image

    @cached_property
    def image_metric(self):
        """The target metric at the image points."""
        return self.target(self.points) if self.map is None else self.frames.image_metric

    @cached_property
    def inverse_pullback(self):
        """``(f^-1)* omega`` at the image points (without a map, the source
        metric); RankDeficient unless the map has rank n into dimension n."""
        if self.map is None:
            return self.g
        n, m = self.points.shape[1], self.target.dim
        if m != n:
            raise RankDeficient(f"(f^-1)* omega needs equal dimensions, got a map C^{n} -> C^{m}")
        jinvs = np.linalg.inv(self.full_rank_frames().jacobian)
        return np.swapaxes(jinvs, -1, -2) @ self.g @ np.conj(jinvs)

    @cached_property
    def mu_metric(self):
        """The auxiliary metric on the grid."""
        if self.mu is None:
            raise BadParams("the family theorem needs the auxiliary metric mu")
        return self.mu(self.points)

    def curvature(self, metric, points):
        """The Chern curvature tensors of ``metric``, one of the pass's
        metrics, at each of ``points``, as a new stack, from the pass's
        ``curvatures`` store; with ``prefetch``, one ``chern_curvature`` call
        per metric per pass, on the points the store has not seen."""
        return np.array([c.tensor for c in self.curvatures.at(metric, points)])

    def read(self, hypothesis):
        """The curvature tensors that ``hypothesis`` (a key of ``_READS``)
        reads and the metric's values at their points."""
        metric, points, values = _READS[hypothesis]
        if getattr(self, metric) is None:  # mu, the one metric a pass may lack
            raise BadParams("the family theorem needs the auxiliary metric mu")
        return self.curvature(getattr(self, metric), getattr(self, points)), getattr(self, values)

    def prefetch(self, hypotheses):
        """Compute the curvature that ``hypotheses`` (keys of ``_READS``) will
        read: one ``chern_curvature`` call per metric, on its points of all
        the reads in first-read order.  A ChernLabError is dropped (the store
        keeps only successes), so each read still raises where it does alone."""
        stacks = {}  # id(metric) -> (metric, [points of each read])
        with contextlib.suppress(ChernLabError):
            for hypothesis in hypotheses:
                metric, points = (getattr(self, name) for name in _READS[hypothesis][:2])
                if metric is not None:
                    stacks.setdefault(id(metric), (metric, []))[1].append(points)
            for metric, points in stacks.values():
                self.curvatures.at(metric, np.concatenate(points))

    def ric2(self, hypothesis):
        """Ric2 of the curvature that ``hypothesis`` reads, computed once."""
        if hypothesis not in self._ric2:
            self._ric2[hypothesis] = ricci(*self.read(hypothesis), 2)[0]
        return self._ric2[hypothesis]


# The curvature each hypothesis (a Pencil's Ric2, or a key of _CONES) reads, as
# SchwarzPass attributes: the metric, the points, and the metric's values there
_READS = {
    "source_ric2": ("source", "points", "g"),
    "target_ric2": ("target", "image_points", "image_metric"),
    "mu_ric2": ("mu", "points", "mu_metric"),
    "rbc": ("target", "image_points", "image_metric"),
    "sbc_along_map": ("source", "points", "g"),
    "sbc_full_cone": ("source", "points", "g"),
}


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


# ---------------------------------------------------------------------------
# hypotheses: form pencils and cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pencil:
    """The form inequality ``ricci >= -K base + S shifted`` (``<=`` when
    ``upper``) between forms of a ``SchwarzPass``, named by attribute paths
    (``ricci`` by the key of ``_READS`` whose Ric2 it is), that fits the
    constant ``fits`` (K) for a ``shift`` constant (S)."""

    fits: str
    shift: str
    ricci: str
    shifted: str
    base: str
    upper: bool
    text: str

    def _forms(self, sp):
        shifted = operator.attrgetter(self.shifted)(sp)  # first: the map's frames and their checks
        return sp.ric2(self.ricci), shifted, getattr(sp, self.base)

    def fit(self, sp, s):
        """The tightest K on the grid of ``sp`` for ``S = s``, and the first point where it is tight."""
        ricci_form, shifted, base = self._forms(sp)
        if self.upper:
            return _first_extreme(np.min(_gen_eigs(s * shifted - ricci_form, base), axis=-1), sp.points, -1)
        return _first_extreme(-np.min(_gen_eigs(ricci_form - s * shifted, base), axis=-1), sp.points)

    def slack(self, sp, k, s):
        """The least eigenvalue at each grid point of the form that the
        inequality with ``K = k`` and ``S = s`` says is semidefinite."""
        ricci_form, shifted, base = self._forms(sp)
        form = s * shifted - k * base - ricci_form if self.upper else ricci_form + k * base - s * shifted
        return np.min(np.linalg.eigvalsh(form), axis=-1)


def _kappa_rbc(sp):
    """kappa with RBC <= -kappa: minus the largest RBC sup over the image
    points of the pass ``sp``, from one ``rbc_bounds`` call (exact for
    n <= 2, a PSD-cone ascent for n >= 3)."""
    bounds = rbc_bounds(*sp.read("rbc"))
    sup, at = _first_extreme([b.sup for b in bounds], sp.image_points)
    return -sup, at


def _kappa_sbc_along_map(sp):
    """kappa with SBC_omega >= -kappa along the map: the sup over the grid
    of minus the pointwise curvature sum at the map's singular values, in
    the source singular frame."""
    sf = sp.full_rank_frames()
    fm = curvature_in_frame(sp.read("sbc_along_map")[0], sf.source_frame)
    values = [-sbc_along_map(r_mat, lambdas) for r_mat, lambdas in zip(fm.r_mat, sf.lambdas)]
    value, at = _first_extreme(values, sp.points)
    return max(0.0, value), at


def _kappa_sbc_full_cone(sp):
    """kappa with SBC_omega >= -kappa over the full ordered cone, every
    grid point solved in one ``sbc_bound`` call; raises
    UnboundedSbc with the divergence certificate of the first point, in
    grid order, where the infimum is -inf."""
    results = sbc_bound(*sp.read("sbc_full_cone"))
    for z, res in zip(sp.points, results):
        if res.status == "unbounded_below":
            raise UnboundedSbc(f"SBC unbounded below at {z}", certificate=res.divergence_certificate)
    value, at = _first_extreme([-res.inf_val for res in results], sp.points)
    return max(0.0, value), at


# cone hypothesis -> (kappa fit, its text); "sbc" is either SBC one, by kappa_mode
_CONES = {
    "rbc": (_kappa_rbc, "RBC_eta <= -kappa"),
    "sbc_along_map": (_kappa_sbc_along_map, "SBC_omega >= -kappa along the map"),
    "sbc_full_cone": (_kappa_sbc_full_cone, "SBC_omega >= -kappa on the full cone"),
}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _check_rules(c, rules, fitted_by):
    """Check every sign rule, like ``"kappa + c2 > 0"``, whose constants ``c``
    holds.  A broken rule is InfeasibleHypothesis when an estimated constant
    enters it and HypothesisSignError otherwise; ``fitted_by`` names the
    hypothesis each estimated constant was fitted to."""
    for rule in rules:
        *terms, op, _ = rule.split()
        names = terms[0::2]
        if not c.values.keys() >= set(names) or _OPS[op](sum(c.values[name] for name in names), 0):
            continue
        got = ", ".join(f"{name} = {c.values[name]:.6g}" for name in names)
        estimated = [name for name in names if c.provenance.get(name) == "estimated"]
        if estimated:
            sources = "; ".join(f"{name} from {fitted_by.get(name, 'a fit')}" for name in estimated)
            raise InfeasibleHypothesis(f"{c.theorem} needs {rule}, got {got} ({sources})")
        raise HypothesisSignError(f"{c.theorem} needs {rule}, got {got}")


def _require_finite(values):
    """HypothesisSignError naming the constants that are NaN or past the range of a double."""
    bad = [f"{name} = {value!r}" for name, value in values.items() if not abs(value) <= sys.float_info.max]
    if bad:
        raise HypothesisSignError(f"constants must be finite, got {', '.join(bad)}")


# ---------------------------------------------------------------------------
# the theorems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A corollary: constants it ``fixes`` before fitting and ``derives``
    after, its own sign ``rules``, ``checks`` ``(text, test(values, tol))``,
    the ``bound`` replacing the theorem's, and whether that bound is a
    ``contradiction`` (at most 0: no map has positive energy)."""

    fixes: dict = field(default_factory=dict)
    derives: dict = field(default_factory=dict)
    rules: tuple = ()
    checks: tuple = ()
    bound: Callable | None = None
    contradiction: bool = False


@dataclass(frozen=True)
class Theorem:
    """One Schwarz theorem as data.  ``pencils`` and ``cones`` (kappa name
    -> key of ``_CONES``, or "sbc") fit its constants; ``rules`` are its sign
    rules, ``"<name> [+ <name>...] <op> 0"``; r is the map's greatest rank
    when ``rank_of_map``, else n.  ``lhs(sp, values)`` gives per-point
    energies and left-hand sides, ``rhs(values, energy)`` the right-hand
    side of ``lhs >= rhs``, and ``strict_rhs`` a stronger one recorded beside
    it.  A verdict passes when every margin is within tol and the sup energy
    within ``bound``, unless ``upper``: then ``lhs <= rhs`` with ``rhs`` the
    bound itself, which the margins check alone."""

    pencils: tuple
    cones: dict
    rules: tuple
    rank_of_map: bool
    lhs: Callable
    rhs: Callable
    bound: Callable
    notes: Callable
    upper: bool = False
    strict_rhs: Callable | None = None
    presets: dict = field(default_factory=dict)


def _trace_lhs(sp, c):
    if sp.map is not None:
        raise BadParams("the trace bound compares the two metrics at one point; its pass has no map")
    traces = trace_form(sp.g, sp.image_metric).tolist()
    return traces, traces


_FAMILY_PENCILS = (
    Pencil("c1", "c2", "mu_ric2", "frames.pullback", "mu_metric", False, "Ric2_mu >= -C1 mu + C2 f*eta"),
    Pencil("c3", "c4", "mu_ric2", "g", "mu_metric", True, "Ric2_mu <= -C3 mu + C4 omega"),
)


def _family_lhs(sp, c):
    """Both family form inequalities at each grid point: the least
    eigenvalue of either; FormInequalityViolated if one is below -EIG_TOL."""
    lo, hi = (p.slack(sp, c[p.fits], c[p.shift]) for p in _FAMILY_PENCILS)
    slacks = [min(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    worst, at = _first_extreme(slacks, sp.points, -1)
    if worst < -EIG_TOL:
        raise FormInequalityViolated(f"Ric2_mu form inequality violated: min eigenvalue {worst:.6g} at {at}",
                                     point=_z_list(at), eigenvalue=worst)
    return sp.frames.energy.tolist(), slacks


def _family_notes(c, verdict):
    notes = {"min_form_eigenvalue": float(np.min([rec["margin"] for rec in verdict.records]))}
    if verdict.constants.preset:
        notes["preset"] = verdict.constants.preset
    if verdict.constants.preset == "liouville":
        notes["liouville_contradiction"] = True
    elif not verdict.passed:
        over = max(verdict.records, key=lambda rec: rec["energy"])
        notes["bound_violation"] = {"point": over["z"], "energy": over["energy"], "bound": verdict.bound}
    return notes


def _chen_cheng_lu_c1(c):
    return (c["kappa2"] + c["c2"]) / (c["kappa2"] * c["n"] * c["r"]) * c["c3"]


_RANKS = ("n > 0", "r > 0")

THEOREMS = {
    # Delta_omega log|df|^2 >= -C1 + (kappa + C2)|df|^2 / r, so |df|^2 <= C1 r / (kappa + C2);
    # the /r step uses sum lambda^4 >= (sum lambda^2)^2 / r, which needs kappa >= 0
    "chern_lu": Theorem(
        pencils=(Pencil("c1", "c2", "source_ric2", "frames.pullback", "g", False,
                        "Ric2 >= -C1 omega + C2 f*eta"),),
        cones={"kappa": "rbc"},
        rules=("c2 >= 0", "kappa >= 0", "kappa + c2 > 0", *_RANKS),
        rank_of_map=True,
        lhs=lambda sp, c: (sp.frames.energy.tolist(),
                           laplacian_log_energy(sp.map, sp.points, sp.source, sp.target, sp.frames).tolist()),
        rhs=lambda c, e: -c["c1"] + (c["kappa"] + c["c2"]) * e / c["r"],
        bound=lambda c: c["c1"] * c["r"] / (c["kappa"] + c["c2"]),
        notes=lambda c, v: {"bound_slack": v.bound - v.sup_energy},
    ),
    # Delta_eta |df|^2 >= C1 |df|^2 - n (C2 + kappa), so |df|^2 <= n (C2 + kappa) / C1; the
    # in-proof form C1 |df|^2 - n C2 - kappa is recorded beside it as margin_strict
    "aubin_yau": Theorem(
        pencils=(Pencil("c1", "c2", "target_ric2", "inverse_pullback", "image_metric", True,
                        "Ric2_eta <= -C1 eta + C2 (f^-1)* omega"),),
        cones={"kappa": "sbc"},
        rules=("c1 > 0", "kappa >= 0", *_RANKS),
        rank_of_map=False,
        lhs=lambda sp, c: (sp.frames.energy.tolist(),
                           laplacian_energy(sp.map, sp.points, sp.source, sp.target, sp.frames).tolist()),
        rhs=lambda c, e: c["c1"] * e - c["n"] * (c["c2"] + c["kappa"]),
        strict_rhs=lambda c, e: c["c1"] * e - c["n"] * c["c2"] - c["kappa"],
        bound=lambda c: c["n"] * (c["c2"] + c["kappa"]) / c["c1"],
        notes=lambda c, v: {"min_margin_strict": min(rec["margin_strict"] for rec in v.records)},
    ),
    # the identity between two metrics: tr_omega(eta) <= (kappa + n C2) / C1 at each point;
    # kappa <= -C2 flags that automorphisms are trivial (informational)
    "trace_bound": Theorem(
        pencils=(Pencil("c1", "c2", "target_ric2", "inverse_pullback", "image_metric", True,
                        "Ric2_eta <= -C1 eta + C2 omega"),),
        cones={"kappa": "sbc_full_cone"},
        rules=("c1 > 0", "kappa >= 0", *_RANKS),
        rank_of_map=False,
        lhs=_trace_lhs,
        rhs=lambda c, e: THEOREMS["trace_bound"].bound(c),
        bound=lambda c: (c["kappa"] + c["n"] * c["c2"]) / c["c1"],
        upper=True,
        notes=lambda c, v: {"aut_trivial_flag": bool(c["kappa"] <= -c["c2"] + 1e-12)},
    ),
    # -C1 mu + C2 f*eta <= Ric2_mu <= -C3 mu + C4 omega pointwise (the records' margins), then
    # |df|^2 <= C1 n r (kappa1 + C4) / (C3 (kappa2 + C2))
    "family": Theorem(
        pencils=_FAMILY_PENCILS,
        cones={"kappa1": "sbc_along_map", "kappa2": "rbc"},
        rules=("c2 >= 0", "c3 > 0", "kappa1 >= 0", "kappa2 >= 0", "kappa2 + c2 > 0", *_RANKS),
        rank_of_map=True,
        lhs=_family_lhs,
        rhs=lambda c, e: 0.0,
        bound=lambda c: (c["c1"] * c["n"] * c["r"] * (c["kappa1"] + c["c4"])
                         / (c["c3"] * (c["kappa2"] + c["c2"]))),
        notes=_family_notes,
        presets={
            # C1 = (kappa2 + C2) / (kappa2 n r) C3 and C4 = 0: |df|^2 <= kappa1 / kappa2
            "chen_cheng_lu": Preset(
                fixes={"c4": 0.0},
                derives={"c1": _chen_cheng_lu_c1},
                rules=("kappa2 > 0",),
                checks=(
                    ("C1 = (kappa2 + C2) / (kappa2 n r) C3", lambda c, tol: abs(
                        c["c1"] - _chen_cheng_lu_c1(c)) <= tol * max(1.0, abs(_chen_cheng_lu_c1(c)))),
                    ("C2 >= kappa2 (n r - 1)",
                     lambda c, tol: c["c2"] >= c["kappa2"] * (c["n"] * c["r"] - 1) - tol),
                ),
                bound=lambda c: c["kappa1"] / c["kappa2"],
            ),
            # n r (kappa1 + C4) <= kappa2 + C2: |df|^2 <= C1 / C3
            "ricci_only": Preset(
                checks=(("n r (kappa1 + C4) <= kappa2 + C2", lambda c, tol: c["n"] * c["r"] * (
                    c["kappa1"] + c["c4"]) <= c["kappa2"] + c["c2"] + tol),),
                bound=lambda c: c["c1"] / c["c3"],
            ),
            # C4 < 0 and kappa1 <= -C4 force the bound to be <= 0: no map has positive energy
            "liouville": Preset(rules=("c1 > 0", "c4 < 0", "kappa1 + c4 <= 0"), contradiction=True),
        },
    ),
}


def _row(theorem, preset):
    """The ``THEOREMS`` row and the ``Preset`` (an empty one for None), or BadParams."""
    if theorem not in THEOREMS:
        raise BadParams(f"unknown theorem {theorem!r} (expected one of {sorted(THEOREMS)})")
    row = THEOREMS[theorem]
    if preset is not None and preset not in row.presets:
        raise BadParams(f"theorem {theorem!r} has no preset {preset!r} (it has {sorted(row.presets)})")
    return row, row.presets[preset] if preset is not None else Preset()


def estimate_hypotheses(sp, theorem, fixed=None, kappa_mode=None, preset=None):
    """The constants of ``theorem`` (a key of ``THEOREMS``) on the pass
    ``sp``: ``fixed`` ones as given, those a ``preset`` fixes or derives, and
    the others fitted, tightest on the grid, so given constants evaluate
    nothing.  Shift constants (C2, C4) left out are 0, n is the source
    dimension and r the map's greatest rank (Chern-Lu, family) or n.
    ``kappa_mode`` takes the kappa of an ``"sbc"`` cone (Aubin-Yau's)
    ``"along_map"`` (None: the default) or on the ``"full_cone"``; it is
    BadParams for a theorem without one.  Broken sign rules raise
    HypothesisSignError for given constants and InfeasibleHypothesis for
    fitted ones; a full-cone kappa raises UnboundedSbc where the SBC is
    -inf."""
    row, spec = _row(theorem, preset)
    if kappa_mode is not None and "sbc" not in row.cones.values():
        readers = sorted(name for name, t in THEOREMS.items() if "sbc" in t.cones.values())
        raise BadParams(f"kappa_mode is read only by {', '.join(readers)}; {theorem} does not read it")
    if kappa_mode is None:
        kappa_mode = "along_map"
    if kappa_mode not in ("along_map", "full_cone"):
        raise BadParams(f"unknown kappa_mode {kappa_mode!r} (expected 'along_map' or 'full_cone')")
    c = HypothesisConstants(theorem, preset)
    for name, value in (fixed or {}).items():
        if name not in CONSTANT_NAMES:
            raise BadParams(f"unknown constant {name!r} (expected one of {CONSTANT_NAMES})")
        c._set(name, value, "user")
    _require_finite(c.values)
    for name, value in spec.fixes.items():
        if c.values.setdefault(name, value) != value:
            raise HypothesisSignError(f"{theorem}:{preset} needs {name} = {value}, got {c.values[name]}")
        c.provenance.setdefault(name, "preset")
    rules, fitted_by = row.rules + spec.rules, {}
    _check_rules(c, rules, fitted_by)
    cones = {name: f"sbc_{kappa_mode}" if cone == "sbc" else cone for name, cone in row.cones.items()}
    pencils = [p for p in row.pencils if p.fits not in c.values and p.fits not in spec.derives]
    sp.prefetch([p.ricci for p in pencils] + [cone for name, cone in cones.items() if name not in c.values])
    for pencil in pencils:
        if pencil.shift not in c.values:
            c._set(pencil.shift, 0.0, "estimated")
        value, at = pencil.fit(sp, c.values[pencil.shift])
        c._set(pencil.fits, value, "estimated", at)
        fitted_by[pencil.fits] = fitted_by[pencil.shift] = pencil.text
        _check_rules(c, rules, fitted_by)
    for name, cone in cones.items():
        if name not in c.values:
            fit, fitted_by[name] = _CONES[cone]
            value, at = fit(sp)
            c._set(name, value, "estimated", at)
            _check_rules(c, rules, fitted_by)
    for pencil in row.pencils:
        c.values.setdefault(pencil.shift, 0.0)
    c.values.setdefault("n", sp.source.dim)
    c.values.setdefault("r", max(1, int(np.max(sp.frames.rank))) if row.rank_of_map else c.values["n"])
    for name, derive in spec.derives.items():
        if name not in c.values:
            c._set(name, derive(c.values), "preset")
    return c


def schwarz_verify(sp, constants, tol=1e-6):
    """The verdict of the theorem of ``constants`` (from
    ``estimate_hypotheses``) on the pass ``sp``: one record per grid point
    and the sup-energy bound.  HypothesisSignError when a constant is
    missing, not finite or breaks a rule, BadParams for a non-finite tol."""
    row, spec = _row(constants.theorem, constants.preset)
    c = constants.values
    _require_finite(c)
    if not abs(tol) <= sys.float_info.max:
        raise BadParams(f"tol must be finite, got {tol!r}")
    missing = {"n", "r", *row.cones, *(name for p in row.pencils for name in (p.fits, p.shift))} - c.keys()
    if missing:
        raise HypothesisSignError(f"{constants.theorem} needs the constants {sorted(missing)}")
    _check_rules(constants, row.rules + spec.rules, {})
    for text, holds in spec.checks:
        if not holds(c, tol):
            raise HypothesisSignError(f"{constants.theorem}:{constants.preset} needs {text}")

    energies, lhss = row.lhs(sp, c)
    records = []
    for point, energy, lhs in zip(sp.points, energies, lhss):
        rhs = row.rhs(c, energy)
        rec = {"z": _z_list(point), "energy": energy, "lhs": lhs, "rhs": rhs,
               "margin": rhs - lhs if row.upper else lhs - rhs}
        if row.strict_rhs is not None:
            rec["margin_strict"] = lhs - row.strict_rhs(c, energy)
        records.append(rec)
    bound = (spec.bound or row.bound)(c)
    sup_energy = max(rec["energy"] for rec in records)
    passed = all(rec["margin"] >= -tol for rec in records)
    if spec.contradiction:
        passed = passed and bound <= tol
    elif not row.upper:
        passed = passed and sup_energy <= bound * (1 + tol)
    name = constants.theorem if constants.preset is None else f"{constants.theorem}:{constants.preset}"
    verdict = SchwarzVerdict(name, records, bound, sup_energy, passed, tol, constants)
    verdict.notes["worst_point"] = verdict.worst()["z"]
    verdict.notes["grid_semantics"] = "sup over sampled grid"
    verdict.notes.update(row.notes(c, verdict))
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
    so the n nodes of ``_simplex_nodes`` integrate it exactly.  A ``b`` so
    large that the quartic, its average or their rounding bound is not a
    finite double raises BadIndices.
    """
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise BadIndices("b must be entrywise nonnegative")
    n = fm.dim
    if b.shape != (n,):
        raise BadIndices(f"b has shape {b.shape}, expected ({n},)")
    q = fm.q_mat()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below, on the results
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
        lhs = float(np.mean(vals))
        rhs = float(b2 @ q @ b2) / (n * (n + 1))
        std_error = float((2 * n + 16) * _EPS * (scale + b2 @ absq @ b2 / (n * (n + 1))))
    if not np.all(np.isfinite([lhs, rhs, std_error, lhs - rhs])):
        raise BadIndices(f"the b-weighted curvature quartic is not finite for b = {b.tolist()}")
    return CubatureCheck(
        lhs=lhs,
        rhs=rhs,
        std_error=std_error,
        nodes=n,
        rule="Stroud T:2-1 in |w|^2: exact to degree 2 in |w|^2",
    )


def _theorem23_discrepancy(tensors):
    """Largest entry of ``sym(R_mat + P_mat) - Sigma`` and ``sym(R_mat) - Sigma/2``
    over one tensor or a stack ``(..., n, n, n, n)`` in the identity frame,
    with ``sym(M) = (M + M^t)/2`` and ``Sigma = diag(2 Re R_{k kbar k kbar})``:
    the quadratic forms ``v^t M v`` of these matrices agree on every vector
    exactly when their symmetric parts do."""
    tensors = np.asarray(tensors, dtype=complex)
    n = tensors.shape[-1]
    fm = curvature_in_frame(tensors, np.eye(n, dtype=complex))
    k = np.arange(n)
    sigma = np.zeros(tensors.shape[:-4] + (n, n))
    sigma[..., k, k] = 2.0 * tensors[..., k, k, k, k].real
    q, r = fm.q_mat(), fm.r_mat
    sym_q = (q + np.swapaxes(q, -1, -2)) / 2.0
    sym_r = (r + np.swapaxes(r, -1, -2)) / 2.0
    return float(max(np.max(np.abs(sym_q - sigma)), np.max(np.abs(sym_r - sigma / 2.0))))


def _theorem23_spanning_set(n):
    """Tensors whose real span holds every tensor that Theorem 2.3 is about,
    as far as ``r_mat``, ``p_mat`` and ``Sigma`` can see it: ``4n^2 - n`` of
    them, each on the two indices of its entries, ``(4n^2 - n, 2, 2, 2, 2)``.

    Those tensors are the conjugation-symmetric, pair-swap-antisymmetric
    projections of all tensors plus real multiples of the diagonal quartics
    ``E_{k kbar k kbar}``.  The positions ``(a, a, g, g)`` and ``(a, g, g, a)``
    that the frame matrices read are closed under both index swaps, so the
    projection of a unit tensor anywhere else is zero there; the set is the
    projections of the real and imaginary unit tensors at those ``2n^2 - n``
    positions, then the n diagonal quartics.  Each has its (at most 4)
    entries at indices a and g, the lesser first (and one more when a = g):
    its frame matrices vanish off that principal 2 x 2 block."""
    positions = sorted({(a, a, g, g) for a in range(n) for g in range(n)}
                       | {(a, g, g, a) for a in range(n) for g in range(n)})
    # (position, value, projected) of the one nonzero entry of each unit tensor
    units = ([(p, 1.0, True) for p in positions] + [(p, 1j, True) for p in positions]
             + [((k,) * 4, 1.0, False) for k in range(n)])
    where, values, projected = (np.array(column) for column in zip(*units))
    local = (where > np.min(where, axis=-1, keepdims=True)).astype(int)  # the lesser index is 0, the other 1
    t = np.zeros((len(units),) + (2,) * 4, dtype=complex)
    t[(np.arange(len(units)), *local.T)] = values
    s = t[projected]
    s = (s + np.conj(np.transpose(s, (0, 2, 1, 4, 3)))) / 2.0
    t[projected] = (s - np.transpose(s, (0, 3, 4, 1, 2))) / 2.0
    return t


def theorem23_check(n):
    """HSC/RBC coincidence under the pair-swap antisymmetry, checked exactly.

    For tensors with ``R(X,Xbar,Y,Ybar) = -R(Y,Ybar,X,Xbar)``, apart from
    real diagonal quartics ``R_{k kbar k kbar}``, the quadratic forms
    ``v^t (R_mat + P_mat) v`` and ``v^t Sigma v`` with
    ``Sigma = diag(2 R_{k kbar k kbar})`` coincide, and
    ``v^t R_mat v = v^t Sigma v / 2``.  Both statements are linear in R, so
    they hold for every such tensor once they hold on the spanning set of
    ``_theorem23_spanning_set``: ``4n^2 - n`` tensors, each contracted on the
    two indices that hold its entries, so memory grows like n^2.
    """
    if n < 2:
        raise BadParams("theorem23_check needs n >= 2")
    t = _theorem23_spanning_set(n)
    discrepancy = _theorem23_discrepancy(t)
    # Exact: every entry of the set is 0, +-1, +-1/2 or +-1/4 (times 1 or i)
    # and the frame's are 0 and 1, so each frame-matrix entry is one tensor
    # entry plus exact zeros, and the sums and halvings after it are of
    # dyadic rationals far inside the double range.  No rounding occurs, and
    # the identity holds exactly when the discrepancy is 0.0.
    return {"n": n, "tensors": len(t), "max_discrepancy": discrepancy, "passed": discrepancy == 0.0}
