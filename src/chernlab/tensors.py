"""Complex dense linear algebra for Chern curvature tensors and unitary frames.

Conventions, fixed once for the whole package:

* metric matrices ``g`` have entries ``g[i, j] = g_{i jbar}``; Hermitian
  positive-definite where flagged;
* the inverse pairing is ``g^{i jbar} = inv(g)[j, i]`` (transpose of the
  matrix inverse), so traces of Hermitian forms are ``trace(inv(g) @ a)``;
* rank-4 curvature arrays are indexed ``R[i, j, k, l]`` meaning
  ``R_{i jbar k lbar}`` with conjugation symmetry
  ``conj(R[i, j, k, l]) = R[j, i, l, k]``;
* frame matrices hold frame vectors as columns and satisfy
  ``e^dag g e = I``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "FrameCurvatureMatrices",
    "check_finite",
    "curvature_in_frame",
    "curvature_symmetry_residue",
    "frame_residue",
    "gram_unitary_frame",
    "hermitian_inverse",
    "hermitize",
    "symmetrize_curvature",
    "trace_form",
]


_EINSUM_PATHS = {}  # (subscripts, operand shapes) -> contraction path


def contract(subscripts, *operands):
    """``np.einsum(subscripts, *operands, optimize=True)`` with the path planned once.

    The contraction path depends only on the subscripts and the operand
    shapes, so it is planned on the first call with those and reused after;
    the result is bit-for-bit the one ``optimize=True`` gives.
    """
    key = (subscripts, tuple(np.shape(op) for op in operands))
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = _EINSUM_PATHS[key] = np.einsum_path(subscripts, *operands, optimize=True)[0]
    return np.einsum(subscripts, *operands, optimize=path)


def check_finite(a, what="array"):
    """Reject NaN/Inf entries on construction paths."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def hermitize(a):
    """Return the Hermitian part of ``a`` and the pre-symmetrization residue.

    Finite-difference output is only approximately Hermitian; constructors
    take ``(a + a^dag)/2`` and keep ``max|a - a^dag|`` for diagnostics.
    """
    a = check_finite(np.asarray(a, dtype=complex), "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    residue = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    return (a + a.conj().T) / 2.0, residue


def hermitian_inverse(g):
    """Inverse of a Hermitian positive-definite matrix via Cholesky.

    Raises NotPositiveDefinite when the Cholesky factorization fails; the
    result is re-symmetrized so it is Hermitian to machine precision.
    """
    g = np.asarray(g, dtype=complex)
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky factorization failed") from exc
    inv_low = scipy.linalg.solve_triangular(low, np.eye(g.shape[0]), lower=True)
    inv = inv_low.conj().T @ inv_low
    return (inv + inv.conj().T) / 2.0


def trace_form(g, form):
    """Metric trace ``g^{i jbar} a_{i jbar}`` of a Hermitian form matrix."""
    return float(np.real(np.trace(hermitian_inverse(g) @ form)))


def gram_unitary_frame(g):
    """One unitary frame for ``g``: columns ``e`` with ``e^dag g e = I``.

    Uses the inverse conjugate-transpose of the lower-triangular Cholesky
    factor, so ``gram_unitary_frame(diag(d)) = diag(1/sqrt(d))``.
    """
    g = np.asarray(g, dtype=complex)
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky factorization failed") from exc
    n = g.shape[0]
    return scipy.linalg.solve_triangular(low.conj().T, np.eye(n), lower=False)


def frame_residue(e, g):
    """max|e^dag g e - I|, the unitarity defect of a frame."""
    e = np.asarray(e, dtype=complex)
    g = np.asarray(g, dtype=complex)
    n = e.shape[0]
    return float(np.max(np.abs(e.conj().T @ g @ e - np.eye(n))))


def curvature_symmetry_residue(r):
    """max|R[i,j,k,l] - conj(R[j,i,l,k])| over all indices."""
    r = np.asarray(r, dtype=complex)
    return float(np.max(np.abs(r - np.conj(np.transpose(r, (1, 0, 3, 2))))))


def symmetrize_curvature(r):
    """Enforce conjugation symmetry on a rank-4 array; return (tensor, residue)."""
    r = check_finite(np.asarray(r, dtype=complex), "curvature tensor")
    if r.ndim != 4 or len(set(r.shape)) != 1:
        raise DimensionMismatch(f"expected an n^4 array, got shape {r.shape}")
    residue = curvature_symmetry_residue(r)
    sym = (r + np.conj(np.transpose(r, (1, 0, 3, 2)))) / 2.0
    return sym, residue


@dataclass(frozen=True)
class FrameCurvatureMatrices:
    """Real matrices of diagonal-pair curvature components in a fixed frame.

    ``r_mat[a, g] = Re R_{a abar g gbar}`` and ``p_mat[a, g] = Re R_{a gbar g abar}``;
    the discarded imaginary residue is recorded in ``imag_residue``.
    """

    r_mat: np.ndarray
    p_mat: np.ndarray
    imag_residue: float

    @property
    def dim(self):
        return self.r_mat.shape[0]

    def q_mat(self):
        """Quadratic-form matrix ``R_mat + P_mat`` controlling the HSC sign."""
        return self.r_mat + self.p_mat


def curvature_in_frame(r, e, imag_tol=1e-6):
    """Contract a curvature tensor into its frame matrices.

    Parameters
    ----------
    r : (n,n,n,n) complex array, indexed R_{i jbar k lbar}.
    e : (n,n) complex frame matrix, columns are frame vectors, normalized
        by ``e^dag g e = I``.
    imag_tol : loud-failure threshold on the imaginary residue of the
        diagonal-pair components (they are real in exact arithmetic).

    Notes
    -----
    Under the index pairing ``<u, v> = u^t g vbar`` the genuinely
    g-orthonormal vectors are the entrywise conjugates of the stored
    columns, so the contraction places ``conj(e)`` on unbarred slots and
    ``e`` on barred ones.  (Contracting the stored columns directly breaks
    frame-invariance of constant-curvature tensors wherever g has complex
    entries; both readings coincide for real g.)
    """
    r = np.asarray(r, dtype=complex)
    e = np.asarray(e, dtype=complex)
    n = e.shape[0]
    if r.shape != (n, n, n, n):
        raise DimensionMismatch(
            f"tensor shape {r.shape} does not match frame dimension {n}"
        )
    ec = np.conj(e)
    r_full = contract("ijkl,ia,ja,kg,lg->ag", r, ec, e, ec, e)
    p_full = contract("ijkl,ia,jg,kg,la->ag", r, ec, e, ec, e)
    # conjugation symmetry forces R_mat entrywise real but only forces P_mat
    # Hermitian; real v only sees Re(P), so the Hermitian defect is the residue
    residue = float(
        max(
            np.max(np.abs(r_full.imag)),
            np.max(np.abs(p_full - p_full.conj().T)) / 2.0,
            np.max(np.abs(np.diag(p_full).imag)),
        )
    )
    if residue > imag_tol:
        raise ValueError(
            f"frame components have imaginary residue {residue:.3e} > {imag_tol:.1e}"
        )
    return FrameCurvatureMatrices(
        r_mat=np.ascontiguousarray(r_full.real),
        p_mat=np.ascontiguousarray(p_full.real),
        imag_residue=residue,
    )
