"""Chern curvature tensor, Ricci traces, scalar curvatures, and HSC.

The curvature of the Chern connection in chart coordinates is

    R_{i jbar k lbar} = - d^2 g_{k lbar} / dz_i dzbar_j
                        + g^{p qbar} (d g_{k qbar} / dz_i)(d g_{p lbar} / dzbar_j)

assembled from finite-difference metric derivatives.  A ``CurvatureStore``
keeps the tensor, metric value and FD error estimate of each (metric, point)
it has computed, so that a scenario run computes each of them once.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DimensionMismatch, ResidueTooLarge, ZeroVector
from .metrics import ChartedHermitianMetric, first_failing_point, metric_derivatives
from .tensors import hermitian_inverse, hermitize, pair_matrix, symmetrize_curvature, trace_form

__all__ = [
    "CurvatureReport",
    "CurvatureStore",
    "PointCurvature",
    "chern_curvature",
    "curvature_report",
    "hsc",
    "kahler_symmetry_check",
    "ricci",
]


def assemble_chern_tensor(g, dg, dbar_g, ddbar_g):
    """Curvature tensor from a metric value and its Wirtinger derivatives,
    at one point or at each point of a stack."""
    n = g.shape[-1]
    ginv = hermitian_inverse(g)
    # g^{p qbar} = ginv[q, p]: sum_pq dg[i, k, q] ginv[q, p] dbar_g[j, p, l]
    # as the matrix [(i, k), (j, l)] of dg[(i, k), q] @ ginv @ dbar_g[p, (j, l)]
    left = dg.reshape(dg.shape[:-3] + (n * n, n)) @ ginv
    right = np.moveaxis(dbar_g, -2, -3).reshape(dbar_g.shape[:-3] + (n, n * n))
    second = np.swapaxes((left @ right).reshape(left.shape[:-2] + (n,) * 4), -3, -2)
    return -ddbar_g + second


@first_failing_point
def chern_curvature(metric: ChartedHermitianMetric, z, return_derivs=False):
    """Chern curvature tensor of a charted metric at ``z``, one point or
    each point of a stack ``(P, n)`` (one metric call per stencil offset
    for the whole stack, each point with the bits it gets alone).

    The raw finite-difference tensor is symmetrized to enforce the
    conjugation symmetry; a symmetrization residue above 100x the
    finite-difference error estimate fails loudly (it indicates a wrong
    stencil, not noise).  A stack raises what its first failing point
    raises alone.
    """
    md = metric_derivatives(metric, z)
    raw = assemble_chern_tensor(md.g, md.dg, md.dbar_g, md.ddbar_g)
    tensor, residue = symmetrize_curvature(raw)
    scale = np.maximum(1.0, np.max(np.abs(tensor), axis=(-4, -3, -2, -1)))
    loud = np.atleast_1d(residue > 100.0 * md.error_estimate * scale)
    if np.any(loud):
        k = int(np.argmax(loud))
        residue, estimate, scale = (np.atleast_1d(a)[k] for a in (residue, md.error_estimate, scale))
        raise ResidueTooLarge(
            f"conjugation-symmetry residue {residue:.3e} exceeds "
            f"100x FD error estimate {estimate:.3e} (scale {scale:.1e})"
        )
    if return_derivs:
        return tensor, md
    return tensor


PointCurvature = namedtuple("PointCurvature", "tensor g error_estimate")
PointCurvature.__doc__ = """The Chern curvature tensor of a metric at a point, the metric value there
and the FD error estimate, as ``chern_curvature(..., return_derivs=True)`` gives them."""


class CurvatureStore:
    """The curvature of each (metric, point) it is asked for, computed once.

    Keyed by the metric object and the bytes of the point; the store holds
    each metric it has seen, so no key outlives its metric.  It keeps only
    successes, as read-only arrays: a point whose curvature fails raises
    again when asked again.
    """

    def __init__(self):
        self._held = {}  # id(metric) -> (metric, {point bytes: PointCurvature})

    def at(self, metric, points):
        """The ``PointCurvature`` of ``metric`` at each point of the stack
        ``points`` ``(P, n)``: one ``chern_curvature`` call on the stack of
        the points not seen yet, each with the bits it gets alone.  A failing
        stack raises what its first failing point raises alone."""
        points = np.asarray(points, dtype=complex)
        if points.shape[-1] != metric.dim:
            raise DimensionMismatch(f"point shape {points.shape[1:]} does not match dim {metric.dim}")
        _, held = self._held.setdefault(id(metric), (metric, {}))
        keys = [z.tobytes() for z in points]
        unseen = {key: z for key, z in zip(keys, points) if key not in held}
        if unseen:
            tensor, md = chern_curvature(metric, np.array(list(unseen.values())), return_derivs=True)
            for a in (tensor, md.g, md.error_estimate):
                a.setflags(write=False)
            held.update(zip(unseen, map(PointCurvature, tensor, md.g, md.error_estimate)))
        return [held[key] for key in keys]


def ricci(r, g, kind):
    """One of the three Chern Ricci traces of the curvature tensor.

    kind 1 traces the last index pair (``g^{k lbar} R_{i jbar k lbar}``),
    kind 2 the first (``g^{i jbar} R_{i jbar k lbar}``), and kind 3 the
    outer pair (``g^{i lbar} R_{i jbar k lbar}``).  ``r`` and ``g`` may be
    stacks ``(..., n, n, n, n)`` and ``(..., n, n)``.  The result is
    Hermitian-symmetrized with the residue recorded.
    """
    if kind not in (1, 2, 3):
        raise BadParams("kind must be 1, 2 or 3")
    r = np.asarray(r, dtype=complex)
    g = np.asarray(g, dtype=complex)
    n = g.shape[-1]
    if r.shape != g.shape[:-2] + (n,) * 4:
        raise DimensionMismatch(f"tensor shape {r.shape} vs metric dim {n}")
    # trace[(a, b)] = g^{a bbar} = ginv[b, a], as a row vector
    trace = np.swapaxes(hermitian_inverse(g), -1, -2).reshape(g.shape[:-2] + (1, n * n))
    if kind == 1:
        raw = pair_matrix(r) @ np.swapaxes(trace, -1, -2)
    elif kind == 2:
        raw = trace @ pair_matrix(r)
    else:
        # R[i, j, k, l] as [(i, l), (k, j)]; the result is indexed [k, j]
        raw = trace @ pair_matrix(np.swapaxes(r, -3, -1))
    herm, residue = hermitize(raw.reshape(g.shape))
    return herm, residue


def hsc(r, g, v):
    """Holomorphic sectional curvature in the direction ``v``.

    ``HSC(v) = |v|_g^{-4} sum R_{i jbar k lbar} v_i conj(v_j) v_k conj(v_l)``;
    scale-invariant in ``v``.  The imaginary residue of the numerator is
    checked (it vanishes for conjugation-symmetric tensors) and discarded.
    """
    r = np.asarray(r, dtype=complex)
    g = np.asarray(g, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if v.shape != (g.shape[0],):
        raise DimensionMismatch(f"vector shape {v.shape} vs metric dim {g.shape[0]}")
    norm_sq = float(np.real(v @ g @ np.conj(v)))
    if norm_sq <= 0.0 or np.max(np.abs(v)) == 0.0:
        raise ZeroVector("hsc requires a nonzero direction")
    # pair vector u[(i, j)] = v_i conj(v_j); the numerator is u^T R u
    u = (v[..., :, None] * np.conj(v)[..., None, :]).reshape(v.shape[:-1] + (1, v.shape[-1] ** 2))
    quartic = complex((u @ pair_matrix(r) @ np.swapaxes(u, -1, -2))[..., 0, 0])
    if abs(quartic.imag) > 1e-9 * max(1.0, abs(quartic.real)):
        raise ResidueTooLarge(f"HSC numerator imaginary residue {quartic.imag:.3e}")
    return quartic.real / norm_sq**2


def kahler_symmetry_check(r, tol):
    """Whether the tensor has the Kaehler symmetries, plus the residue.

    Checks ``R_{i jbar k lbar} = R_{k jbar i lbar}`` (swap of unbarred
    indices) and ``R_{i jbar k lbar} = R_{i lbar k jbar}`` (barred swap).
    """
    r = np.asarray(r, dtype=complex)
    res_unbarred = float(np.max(np.abs(r - np.transpose(r, (2, 1, 0, 3)))))
    res_barred = float(np.max(np.abs(r - np.transpose(r, (0, 3, 2, 1)))))
    residue = max(res_unbarred, res_barred)
    return residue < tol, residue


@dataclass(frozen=True)
class CurvatureReport:
    """Tensor plus all traced invariants at one point."""

    point: np.ndarray
    tensor: np.ndarray
    g: np.ndarray
    ric1: np.ndarray
    ric2: np.ndarray
    ric3: np.ndarray
    scal: float
    scal_tilde: float
    kahler_symmetric: bool
    kahler_residue: float
    fd_error_estimate: float
    hermitian_residues: tuple


def curvature_report(metric: ChartedHermitianMetric, z, kahler_tol=1e-6, store=None):
    """Full curvature report at a point: tensor, three Ricci traces,
    both scalar curvatures, and the Kaehler-symmetry classification.

    The curvature comes from ``store``, a ``CurvatureStore`` that computes it
    unless it holds it already (a fresh store when None)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    tensor, g, error_estimate = (store or CurvatureStore()).at(metric, z[None])[0]
    ric = {}
    residues = []
    for kind in (1, 2, 3):
        ric[kind], res = ricci(tensor, g, kind)
        residues.append(res)
    scal = trace_form(g, ric[1])
    scal_tilde = trace_form(g, ric[3])
    is_kahler, k_res = kahler_symmetry_check(tensor, kahler_tol)
    return CurvatureReport(
        point=z,
        tensor=tensor,
        g=g,
        ric1=ric[1],
        ric2=ric[2],
        ric3=ric[3],
        scal=scal,
        scal_tilde=scal_tilde,
        kahler_symmetric=is_kahler,
        kahler_residue=k_res,
        fd_error_estimate=float(error_estimate),
        hermitian_residues=tuple(residues),
    )
