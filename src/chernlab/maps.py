"""Holomorphic maps between charted Hermitian manifolds.

Every map carries its differential in closed form, so Jacobians are exact;
the energy density is the metric trace of the pullback ``tr_omega(f* eta)``;
singular values and frames come from a generalized SVD whitened by the two
Cholesky factors.  The two Schwarz Laplacians are the complex Hessian of the
energy, taken by ``fd.wirtinger_hessian`` in source coordinates.

Map evaluators, differentials, energy densities, singular frames and both
Laplacians act on stacks of points ``(..., n)``; a single point is the stack
of one.  Each point of a stack gets the bits it gets alone.  The Laplacians
take the singular frames of their points, whose energies are the stencil
centres and whose metric values and pullbacks are the traces, and make one
energy call on the other samples of all the stencils that the complex
Hessian reads (80 a point for n = 2).  A check that fails on a stack names
its first failing point.
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
    RankDeficient,
    ResidueTooLarge,
    UnknownCatalogName,
)
from .fd import wirtinger_hessian
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
    "pullback_metric",
    "singular_frames",
]


@dataclass(frozen=True)
class HolomorphicMapModel:
    """A holomorphic map ``f: C^n -> C^m`` between charts.

    ``evaluator`` maps a stack of points ``(..., n)`` to ``(..., m)``, and
    ``differential`` maps it to the Jacobians ``(..., m, n)``,
    ``J[..., a, i] = d f^a / d z_i``, in closed form; both must broadcast
    over the leading axes.
    """

    source_dim: int
    target_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    differential: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    domain: Domain | None = None

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(self.evaluator(z), dtype=complex)
        expected = z.shape[:-1] + (self.target_dim,)
        if w.shape != expected:
            raise DimensionMismatch(f"map returned shape {w.shape}, expected {expected}")
        return w


def _constant(a):
    """The differential of a linear map: the matrix ``a`` at every point."""
    return lambda z: np.broadcast_to(a, z.shape[:-1] + a.shape).copy()


def map_identity(n):
    return HolomorphicMapModel(n, n, lambda z: z.copy(), _constant(np.eye(n, dtype=complex)), "identity")


def map_scaling(c, n=1):
    c = complex(c)
    if c == 0:
        raise BadParams("scaling factor must be nonzero")
    return HolomorphicMapModel(n, n, lambda z: c * z, _constant(c * np.eye(n)), f"scaling({c})")


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
    return HolomorphicMapModel(n, m, lambda z: _row_times(z, a.T), _constant(a), "linear")


def map_power(k):
    k = int(k)
    if k < 1:
        raise BadParams("power exponent must be a positive integer")
    return HolomorphicMapModel(1, 1, lambda z: z**k, lambda z: (k * z ** (k - 1))[..., None], f"power({k})")


def map_mobius(a):
    """Disk automorphism ``z -> (z + a) / (1 + conj(a) z)``, |a| < 1, with
    derivative ``(1 - |a|^2) / (1 + conj(a) z)^2``."""
    a = complex(a)
    if abs(a) >= 1:
        raise BadParams("mobius parameter must satisfy |a| < 1")
    ac, scale = a.conjugate(), 1.0 - abs(a) ** 2

    def ev(z):
        return (z + a) / (1.0 + ac * z)

    def diff(z):
        return (scale / (1.0 + ac * z) ** 2)[..., None]

    return HolomorphicMapModel(1, 1, ev, diff, f"mobius({a})", domain=Domain(center=(0.0,), radius=1.0))


def map_product(factors):
    """Product map acting blockwise: ``(z_1, ..) -> (f_1(z_1), ..)``, with
    the block-diagonal differential."""
    factors = list(factors)
    n = sum(f.source_dim for f in factors)
    m = sum(f.target_dim for f in factors)

    def blocks():
        row = col = 0
        for f in factors:
            yield f, slice(row, row + f.target_dim), slice(col, col + f.source_dim)
            row, col = row + f.target_dim, col + f.source_dim

    def ev(z):
        return np.concatenate([f(z[..., cols]) for f, _, cols in blocks()], axis=-1)

    def diff(z):
        jac = np.zeros(z.shape[:-1] + (m, n), dtype=complex)
        for f, rows, cols in blocks():
            jac[..., rows, cols] = _differential(f, z[..., cols])
        return jac

    return HolomorphicMapModel(n, m, ev, diff, "product")


def map_compose(outer, inner):
    """Composition ``outer o inner`` (target of inner feeds outer), with the
    chain rule ``J_outer(inner(z)) @ J_inner(z)``."""
    if inner.target_dim != outer.source_dim:
        raise DimensionMismatch("composition dimensions do not match")
    return HolomorphicMapModel(
        inner.source_dim,
        outer.target_dim,
        lambda z: outer(inner(z)),
        lambda z: _differential(outer, inner(z)) @ _differential(inner, z),
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


def _differential(f, z):
    """``f.differential`` on the stack ``z``, checked for its shape."""
    jac = np.asarray(f.differential(z), dtype=complex)
    expected = z.shape[:-1] + (f.target_dim, f.source_dim)
    if jac.shape != expected:
        raise DimensionMismatch(f"differential returned shape {jac.shape}, expected {expected}")
    return jac


def jacobian(f: HolomorphicMapModel, z):
    """Jacobian ``J[..., a, i] = d f^a / d z_i`` at one point or at each
    point of a stack ``(..., n)``: the map's closed-form ``differential``.

    Raises DimensionMismatch for a point or a differential of the wrong
    shape and DomainMarginError naming the first point outside the map's
    domain.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape[-1] != f.source_dim:
        raise DimensionMismatch(f"point shape {z.shape} vs source dim {f.source_dim}")
    if f.domain is not None:
        outside = ~f.domain.contains(z)
        if np.any(outside):
            raise DomainMarginError(f"point {z[_first(outside)]} is outside the map's domain")
    return _differential(f, z)


def _image(f, z, target_metric):
    """``f(z)`` and the target metric there; DomainMarginError if ``f(z)``
    leaves the target's domain at any point of the stack."""
    w = f(z)
    outside = ~target_metric.domain.contains(w)
    if np.any(outside):
        raise DomainMarginError(f"image point {w[_first(outside)]} is outside the target's domain")
    return w, target_metric(w)


def _pullback(jac, h_w):
    form = np.swapaxes(jac, -1, -2) @ h_w @ np.conj(jac)
    del jac, h_w  # freed before symmetrizing, when the caller holds no other reference
    return hermitize(form)[0]


def _energy(g, pull):
    value = np.maximum(trace_form(g, pull), 0.0)
    return float(value) if value.ndim == 0 else value


def pullback_metric(f, z, target_metric):
    """Pullback form ``(f* eta)_{i jbar} = h_{a bbar} f_i^a conj(f_j^b)`` at
    one point or at each point of a stack: ``J^T h conj(J)`` per point.

    Raises DomainMarginError if ``f(z)`` leaves the target metric's domain
    at any point of the stack.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return _pullback(jacobian(f, z), _image(f, z, target_metric)[1])


def energy_density(f, z, source_metric, target_metric):
    """Energy density ``|df|^2 = tr_omega(f* eta)`` (real, nonnegative): a
    float at one point, an array over a stack ``(..., n)``.

    Raises NotPositiveDefinite if the source metric is not positive-definite
    at any point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    pull = pullback_metric(f, z, target_metric)
    return _energy(source_metric(z), pull)


@dataclass(frozen=True)
class SingularFrameData:
    """Singular values of the differential with realizing unitary frames, at
    one point or at each point of a stack (then every field is stacked).

    ``lambdas`` are non-increasing; ``rank`` counts those above tolerance;
    ``energy`` is the energy density ``sum(lambdas^2)`` as ``energy_density``
    gives it.  The stored frames satisfy ``e^dag g e = I`` (resp. with the
    target metric) and diagonalize the pullback form.  ``jacobian``,
    ``metric`` (the source metric at z), ``image`` (the map's values
    ``f(z)``) and ``image_metric`` (the target metric there) are the values
    they were computed from, and ``pullback`` the form ``f* eta`` as
    ``pullback_metric`` gives it.
    """

    lambdas: np.ndarray
    rank: int | np.ndarray
    source_frame: np.ndarray
    target_frame: np.ndarray
    energy: float | np.ndarray
    jacobian: np.ndarray
    metric: np.ndarray
    image: np.ndarray
    image_metric: np.ndarray
    pullback: np.ndarray


def singular_frames(f, z, source_metric, target_metric):
    """Generalized SVD of the differential with respect to the two metrics,
    at one point or at each point of a stack ``(..., n)``.

    Whitens by the transposed Cholesky factors, takes an ordinary SVD, and
    un-whitens.  ``sum(lambdas^2)`` equals the energy density (enforced at
    every point), which comes from the same Jacobian and metric values: one
    map and two metric calls in all.  The rank counts the singular values
    above ``1e-9 max(1, lambda_1)``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    jac = jacobian(f, z)
    g = source_metric(z)
    image, h_mat = _image(f, z, target_metric)
    low_g = cholesky_factor(g, "source metric")
    pull = _pullback(jac, h_mat)  # before the target's factor: a non-finite pullback is NonFiniteSample
    low_h = cholesky_factor(h_mat, "target metric")
    inv_low_g = np.linalg.inv(low_g)
    white = np.swapaxes(low_h, -1, -2) @ jac @ np.swapaxes(inv_low_g, -1, -2)
    u, s, vh = np.linalg.svd(white)

    src_frame = np.conj(np.swapaxes(inv_low_g, -1, -2)) @ np.swapaxes(vh, -1, -2)
    tgt_frame = np.conj(np.swapaxes(np.linalg.inv(low_h), -1, -2)) @ np.conj(u)

    energy = _energy(g, pull)
    sum_sq = np.sum(s**2, axis=-1)
    off = np.abs(sum_sq - energy) > 1e-8 * np.maximum(1.0, energy)
    if np.any(off):
        bad = _first(off)
        raise ResidueTooLarge(f"singular values inconsistent with energy at {z[bad]}: "
                              f"{sum_sq[bad]:.12g} vs {np.asarray(energy)[bad]:.12g}")
    rank = np.sum(s > 1e-9 * np.maximum(1.0, s[..., :1]), axis=-1)
    return SingularFrameData(
        s, int(rank) if rank.ndim == 0 else rank, src_frame, tgt_frame, energy, jac, g, image, h_mat, pull
    )


def _energy_hessian(f, z, source_metric, target_metric, field, energy):
    """Complex Hessian of ``field(|df|^2)`` at each point of ``z``, where the
    energy is ``energy``, at the step ``5e-3 max(1, |z|)`` per point: one
    energy call on the other stencil samples of every point that the
    Hessian reads."""

    def stencil(zz):
        return field(energy_density(f, zz, source_metric, target_metric))

    return wirtinger_hessian(stencil, z, 5e-3 * np.maximum(1.0, point_norms(z)), field(energy))


def laplacian_log_energy(f, z, source_metric, target_metric, frames, critical_tol=1e-10):
    """Source-trace Laplacian ``Delta_omega log |df|^2`` at ``z``, one point or
    each point of a stack ``(..., n)``, whose ``singular_frames`` are ``frames``.

    The energy and the source metric at ``z`` are those of ``frames``; the
    other Hessian stencil samples of all points are evaluated together, in
    one energy call.  Away from critical points only: energy below
    ``critical_tol`` raises NearCriticalPoint naming the first such point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    energy = np.asarray(frames.energy)
    low = energy <= critical_tol
    if np.any(low):
        bad = _first(low)
        raise NearCriticalPoint(f"energy {energy[bad]:.3e} at {z[bad]} is below {critical_tol:.1e}")
    hess = _energy_hessian(f, z, source_metric, target_metric, np.log, frames.energy)
    return trace_form(frames.metric, hess)


def laplacian_energy(f, z, source_metric, target_metric, frames):
    """Target-trace Laplacian ``Delta_eta |df|^2`` at ``z``, one point or each
    point of a stack ``(..., n)``, whose ``singular_frames`` are ``frames``.

    For a local biholomorphism ``(Delta_eta u) o f = Delta_{f* eta} (u o f)``,
    so this is the same source-coordinate stencil as ``laplacian_log_energy``,
    on the energy itself and traced with the pullback form ``f* eta`` of
    ``frames`` in place of ``g``.  Requires equal dimensions and full rank at
    every point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if f.source_dim != f.target_dim:
        raise RankDeficient("target-trace Laplacian needs equal dimensions")
    deficient = np.asarray(frames.rank) < f.source_dim
    if np.any(deficient):
        raise RankDeficient(f"differential is rank-deficient at {z[_first(deficient)]}")
    hess = _energy_hessian(f, z, source_metric, target_metric, np.asarray, frames.energy)
    return trace_form(frames.pullback, hess)
