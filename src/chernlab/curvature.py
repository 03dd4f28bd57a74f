"""Chern curvature tensor, Ricci traces, scalar curvatures, and HSC.

The curvature of the Chern connection in chart coordinates is

    R_{i jbar k lbar} = - d^2 g_{k lbar} / dz_i dzbar_j
                        + g^{p qbar} (d g_{k qbar} / dz_i)(d g_{p lbar} / dzbar_j)

assembled from finite-difference metric derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DimensionMismatch, ResidueTooLarge, ZeroVector
from .metrics import ChartedHermitianMetric, metric_derivatives
from .tensors import hermitian_inverse, hermitize, pair_matrix, symmetrize_curvature, trace_form

__all__ = [
    "CurvatureReport",
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


def chern_curvature(metric: ChartedHermitianMetric, z, h=None, return_derivs=False):
    """Chern curvature tensor of a charted metric at ``z``.

    The raw finite-difference tensor is symmetrized to enforce the
    conjugation symmetry; a symmetrization residue above 100x the
    finite-difference error estimate fails loudly (it indicates a wrong
    stencil, not noise).
    """
    md = metric_derivatives(metric, z, h=h)
    raw = assemble_chern_tensor(md.g, md.dg, md.dbar_g, md.ddbar_g)
    tensor, residue = symmetrize_curvature(raw)
    scale = max(1.0, float(np.max(np.abs(tensor))))
    if residue > 100.0 * md.error_estimate * scale:
        raise ResidueTooLarge(
            f"conjugation-symmetry residue {residue:.3e} exceeds "
            f"100x FD error estimate {md.error_estimate:.3e} (scale {scale:.1e})"
        )
    if return_derivs:
        return tensor, md
    return tensor


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


def curvature_report(metric: ChartedHermitianMetric, z, kahler_tol=1e-6):
    """Full curvature report at a point: tensor, three Ricci traces,
    both scalar curvatures, and the Kaehler-symmetry classification."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    tensor, md = chern_curvature(metric, z, return_derivs=True)
    ric = {}
    residues = []
    for kind in (1, 2, 3):
        ric[kind], res = ricci(tensor, md.g, kind)
        residues.append(res)
    scal = trace_form(md.g, ric[1])
    scal_tilde = trace_form(md.g, ric[3])
    is_kahler, k_res = kahler_symmetry_check(tensor, kahler_tol)
    return CurvatureReport(
        point=z,
        tensor=tensor,
        g=md.g,
        ric1=ric[1],
        ric2=ric[2],
        ric3=ric[3],
        scal=scal,
        scal_tilde=scal_tilde,
        kahler_symmetric=is_kahler,
        kahler_residue=k_res,
        fd_error_estimate=md.error_estimate,
        hermitian_residues=tuple(residues),
    )
