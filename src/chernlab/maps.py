"""Holomorphic maps between charted Hermitian manifolds.

Jacobians use complex-direction central differences (valid by holomorphy,
guarded by a Cauchy-Riemann residual check); the energy density is the
metric trace of the pullback ``tr_omega(f* eta)``; singular values and
frames come from a generalized SVD whitened by the two Cholesky factors.

Map evaluators, Jacobians, energy densities, singular frames and both
Schwarz Laplacians act on stacks of points ``(..., n)``; a single point is
the stack of one.  Each point of a stack gets the bits it gets alone, so a
finite-difference stencil is one evaluator call instead of one call per
sample, and the Laplacians of a whole grid take a fixed number of calls on
the stencils of all its points.  A check that fails on a stack names its
first failing point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadParams,
    DimensionMismatch,
    DomainMarginError,
    NearCriticalPoint,
    NotHolomorphicAtPoint,
    RankDeficient,
    ResidueTooLarge,
    UnknownCatalogName,
)
from .fd import D1_OFFSETS, D1_WEIGHTS, wirtinger_hessian
from .metrics import Domain, point_norms
from .tensors import cholesky_factor, hermitize, trace_form

__all__ = [
    "HolomorphicMapModel",
    "SingularFrameData",
    "catalog_map",
    "energy_density",
    "jacobian",
    "laplacian_energy",
    "laplacian_log_energy",
    "map_compose",
    "map_identity",
    "map_linear",
    "map_mobius",
    "map_power",
    "map_product",
    "map_scaling",
    "map_in_frames",
    "pullback_metric",
    "singular_frames",
]


@dataclass(frozen=True)
class HolomorphicMapModel:
    """A holomorphic map ``f: C^n -> C^m`` between charts.

    ``evaluator`` maps a stack of points ``(..., n)`` to ``(..., m)`` and
    must broadcast over the leading axes.
    """

    source_dim: int
    target_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    domain: Domain | None = None

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(self.evaluator(z), dtype=complex)
        expected = z.shape[:-1] + (self.target_dim,)
        if w.shape != expected:
            raise DimensionMismatch(f"map returned shape {w.shape}, expected {expected}")
        return w


def map_identity(n):
    return HolomorphicMapModel(n, n, lambda z: z.copy(), "identity")


def map_scaling(c, n=1):
    c = complex(c)
    if c == 0:
        raise BadParams("scaling factor must be nonzero")
    return HolomorphicMapModel(n, n, lambda z: c * z, f"scaling({c})")


def _row_times(z, b):
    """``z @ b`` with each point of the stack ``z`` as its own row vector,
    so that a stack of points rounds as each point does alone."""
    return np.matmul(z[..., None, :], b)[..., 0, :]


def map_linear(a):
    try:
        a = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BadParams("linear map expects a matrix with rows of one length") from exc
    if a.ndim != 2:
        raise BadParams("linear map expects a matrix")
    m, n = a.shape
    return HolomorphicMapModel(n, m, lambda z: _row_times(z, a.T), "linear")


def map_power(k):
    k = int(k)
    if k < 1:
        raise BadParams("power exponent must be a positive integer")
    return HolomorphicMapModel(1, 1, lambda z: z**k, f"power({k})")


def map_mobius(a):
    """Disk automorphism ``z -> (z + a) / (1 + conj(a) z)``, |a| < 1."""
    a = complex(a)
    if abs(a) >= 1:
        raise BadParams("mobius parameter must satisfy |a| < 1")
    ac = a.conjugate()

    def ev(z):
        return (z + a) / (1.0 + ac * z)

    return HolomorphicMapModel(1, 1, ev, f"mobius({a})", domain=Domain(center=(0.0,), radius=1.0))


def map_product(factors):
    """Product map acting blockwise: ``(z_1, ..) -> (f_1(z_1), ..)``."""
    factors = list(factors)
    n = sum(f.source_dim for f in factors)
    m = sum(f.target_dim for f in factors)

    def ev(z):
        out, pos = [], 0
        for f in factors:
            out.append(f(z[..., pos : pos + f.source_dim]))
            pos += f.source_dim
        return np.concatenate(out, axis=-1)

    return HolomorphicMapModel(n, m, ev, "product")


def map_compose(outer, inner):
    """Composition ``outer o inner`` (target of inner feeds outer)."""
    if inner.target_dim != outer.source_dim:
        raise DimensionMismatch("composition dimensions do not match")
    return HolomorphicMapModel(
        inner.source_dim,
        outer.target_dim,
        lambda z: outer(inner(z)),
        f"{outer.label}o{inner.label}",
        domain=inner.domain,
    )


def catalog_map(kind, **params):
    """Scenario-facing dispatcher for the map catalog."""
    if kind == "identity":
        return map_identity(int(params["dim"]))
    if kind == "scaling":
        return map_scaling(params.get("c", 1.0), int(params.get("dim", 1)))
    if kind == "linear":
        return map_linear(params["matrix"])
    if kind == "power":
        return map_power(params.get("k", 1))
    if kind == "mobius":
        return map_mobius(params.get("a", 0.0))
    if kind == "product":
        return map_product(params["factors"])
    raise UnknownCatalogName(f"unknown catalog map {kind!r}")


def _first(mask):
    """Index of the first true entry of the boolean array ``mask``."""
    return np.unravel_index(np.argmax(mask), np.shape(mask))


def jacobian(f: HolomorphicMapModel, z, h=None, cr_tol=1e-5):
    """Jacobian ``J[..., a, i] = d f^a / d z_i`` by 4th-order complex stencils.

    ``z`` is one point or a stack ``(..., n)``; one map call samples the 8n
    stencil points of every point.  Holomorphy is checked by comparing
    real-direction and rotated (imaginary-direction) difference quotients;
    a Cauchy-Riemann residual above ``cr_tol`` at any point raises
    NotHolomorphicAtPoint.  The default step is ``1e-3 max(1, |z|)`` per
    point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = f.source_dim
    if z.shape[-1] != n:
        raise DimensionMismatch(f"point shape {z.shape} vs source dim {n}")
    if h is None:
        h = 1e-3 * np.maximum(1.0, point_norms(z))
    h = np.broadcast_to(np.asarray(h, dtype=float), z.shape[:-1])[..., None]
    if f.domain is not None:
        outside = ~f.domain.contains(z, margin=4.0 * h[..., 0])
        if np.any(outside):
            bad = z[_first(outside)]
            raise DomainMarginError(f"point {bad} too close to the map's domain boundary")

    eye = np.eye(n, dtype=complex)
    steps = []
    for i in range(n):
        steps += [off * h * eye[i] for off in D1_OFFSETS]
        steps += [off * 1j * h * eye[i] for off in D1_OFFSETS]
    samples = f(z[..., None, :] + np.stack(steps, axis=-2))

    jac = np.empty(z.shape[:-1] + (f.target_dim, n), dtype=complex)
    residual = np.zeros(z.shape[:-1])
    for i in range(n):
        real, rot = samples[..., 8 * i : 8 * i + 4, :], samples[..., 8 * i + 4 : 8 * i + 8, :]
        d_real = sum(w * real[..., k, :] for k, w in enumerate(D1_WEIGHTS)) / h
        d_rot = sum(w * rot[..., k, :] for k, w in enumerate(D1_WEIGHTS)) / (1j * h)
        residual = np.maximum(residual, np.max(np.abs(d_real - d_rot), axis=-1))
        jac[..., i] = (d_real + d_rot) / 2.0
    if np.any(residual > cr_tol):
        bad = _first(residual > cr_tol)
        raise NotHolomorphicAtPoint(
            f"Cauchy-Riemann residual {residual[bad]:.3e} exceeds {cr_tol:.1e} at {z[bad]}"
        )
    return jac


def _image_metric(f, z, target_metric):
    """The target metric at ``f(z)``; DomainMarginError if ``f(z)`` leaves the
    target's domain at any point of the stack."""
    w = f(z)
    outside = ~target_metric.domain.contains(w)
    if np.any(outside):
        raise DomainMarginError(f"image point {w[_first(outside)]} is outside the target's domain")
    return target_metric(w)


def _pullback(jac, h_w):
    return hermitize(np.swapaxes(jac, -1, -2) @ h_w @ np.conj(jac))[0]


def _energy(g, pull):
    value = np.maximum(trace_form(g, pull), 0.0)
    return float(value) if value.ndim == 0 else value


def pullback_metric(f, z, target_metric, jac=None):
    """Pullback form ``(f* eta)_{i jbar} = h_{a bbar} f_i^a conj(f_j^b)`` at
    one point or at each point of a stack: ``J^T h conj(J)`` per point.

    Raises DomainMarginError if ``f(z)`` leaves the target metric's domain
    at any point of the stack.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if jac is None:
        jac = jacobian(f, z)
    return _pullback(jac, _image_metric(f, z, target_metric))


def energy_density(f, z, source_metric, target_metric, jac=None):
    """Energy density ``|df|^2 = tr_omega(f* eta)`` (real, nonnegative): a
    float at one point, an array over a stack ``(..., n)``.

    Raises NotPositiveDefinite if the source metric is not positive-definite
    at any point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if jac is None:
        jac = jacobian(f, z)
    return _energy(source_metric(z), pullback_metric(f, z, target_metric, jac=jac))


@dataclass(frozen=True)
class SingularFrameData:
    """Singular values of the differential with realizing unitary frames, at
    one point or at each point of a stack (then every field is stacked).

    ``lambdas`` are non-increasing; ``rank`` counts those above tolerance;
    ``energy`` is the energy density ``sum(lambdas^2)`` as ``energy_density``
    gives it.  The stored frames satisfy ``e^dag g e = I`` (resp. with the
    target metric), diagonalize the pullback form, and realize the normal
    form through ``map_in_frames``.
    """

    lambdas: np.ndarray
    rank: int | np.ndarray
    source_frame: np.ndarray
    target_frame: np.ndarray
    energy: float | np.ndarray


def map_in_frames(jac, source_frame, target_frame):
    """Component matrix of the differential in the given unitary frames.

    With frames from ``singular_frames`` this is ``diag(lambdas)`` up to
    roundoff: ``conj(target_frame)^-1 @ jac @ conj(source_frame)``.
    """
    return np.linalg.solve(np.conj(target_frame), jac @ np.conj(source_frame))


def singular_frames(f, z, source_metric, target_metric, rank_tol=1e-9):
    """Generalized SVD of the differential with respect to the two metrics,
    at one point or at each point of a stack ``(..., n)``.

    Whitens by the transposed Cholesky factors, takes an ordinary SVD, and
    un-whitens.  ``sum(lambdas^2)`` equals the energy density (enforced at
    every point), which comes from the same Jacobian and metric values: two
    map and two metric calls in all.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    jac = jacobian(f, z)
    g = source_metric(z)
    h_mat = _image_metric(f, z, target_metric)
    low_g = cholesky_factor(g, "source metric")
    low_h = cholesky_factor(h_mat, "target metric")
    inv_low_g = np.linalg.inv(low_g)
    white = np.swapaxes(low_h, -1, -2) @ jac @ np.swapaxes(inv_low_g, -1, -2)
    u, s, vh = np.linalg.svd(white)

    src_frame = np.conj(np.swapaxes(inv_low_g, -1, -2)) @ np.swapaxes(vh, -1, -2)
    tgt_frame = np.conj(np.swapaxes(np.linalg.inv(low_h), -1, -2)) @ np.conj(u)

    energy = _energy(g, _pullback(jac, h_mat))
    sum_sq = np.sum(s**2, axis=-1)
    off = np.abs(sum_sq - energy) > 1e-8 * np.maximum(1.0, energy)
    if np.any(off):
        bad = _first(off)
        raise ResidueTooLarge(f"singular values inconsistent with energy at {z[bad]}: "
                              f"{sum_sq[bad]:.12g} vs {np.asarray(energy)[bad]:.12g}")
    rank = np.sum(s > rank_tol * np.maximum(1.0, s[..., :1]), axis=-1)
    return SingularFrameData(s, int(rank) if rank.ndim == 0 else rank, src_frame, tgt_frame, energy)


def _energy_hessian(f, z, source_metric, target_metric, h, field, energy):
    """Complex Hessian of ``field(|df|^2)`` at each point of ``z``, at the
    default step ``5e-3 max(1, |z|)`` per point.  The stencil energies are
    evaluated 16 samples of every point at a time, whatever the grid size:
    the Jacobians of a whole stencil at once would hold 8n map samples for
    each of its 113 (n = 2) samples of every point, about 3 MB for 16 points."""
    if h is None:
        h = 5e-3 * np.maximum(1.0, point_norms(z))

    def stencil(zz):
        blocks = [zz[..., k : k + 16, :] for k in range(0, zz.shape[-2], 16)]
        return np.concatenate([field(energy_density(f, b, source_metric, target_metric)) for b in blocks], -1)

    return wirtinger_hessian(stencil, z, h, None if energy is None else field(energy))


def laplacian_log_energy(f, z, source_metric, target_metric, h=None, critical_tol=1e-10, energy=None):
    """Source-trace Laplacian ``Delta_omega log |df|^2`` at ``z``, one point or
    each point of a stack ``(..., n)``.

    The Hessian stencils of all points are evaluated together, in energy
    calls whose number does not grow with the stack; ``energy``, the energy
    density at ``z`` when the caller has it, is not evaluated again.  Away from critical points only: energy
    below ``critical_tol`` raises NearCriticalPoint naming the first such
    point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if energy is None:
        energy = energy_density(f, z, source_metric, target_metric)
    low = np.asarray(energy) <= critical_tol
    if np.any(low):
        bad = _first(low)
        raise NearCriticalPoint(
            f"energy {np.asarray(energy)[bad]:.3e} at {z[bad]} is below {critical_tol:.1e}"
        )
    hess = _energy_hessian(f, z, source_metric, target_metric, h, np.log, energy)
    return trace_form(source_metric(z), hess)


def laplacian_energy(f, z, source_metric, target_metric, h=None, rank_tol=1e-9, energy=None):
    """Target-trace Laplacian ``Delta_eta |df|^2`` at ``z``, one point or each
    point of a stack ``(..., n)``.

    For a local biholomorphism ``(Delta_eta u) o f = Delta_{f* eta} (u o f)``,
    so this is the same source-coordinate stencil as ``laplacian_log_energy``,
    on the energy itself and traced with the pullback form ``f* eta`` in
    place of ``g``; ``energy`` at ``z``, when the caller has it, spares the
    stencil centres.  Requires equal dimensions and a full-rank Jacobian at
    every point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if f.source_dim != f.target_dim:
        raise RankDeficient("target-trace Laplacian needs equal dimensions")
    jac0 = jacobian(f, z)
    s = np.linalg.svd(jac0, compute_uv=False)
    deficient = s[..., -1] <= rank_tol * np.maximum(1.0, s[..., 0])
    if np.any(deficient):
        raise RankDeficient(f"differential is rank-deficient at {z[_first(deficient)]}")
    hess = _energy_hessian(f, z, source_metric, target_metric, h, np.asarray, energy)
    return trace_form(pullback_metric(f, z, target_metric, jac=jac0), hess)
