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

Kernels are plain numpy, with no einsum or scipy: matmuls on rank-4 arrays
read as ``n^2 x n^2`` matrices ``R[(i, j), (k, l)]``, and inverses of lower
Cholesky factors.  Each takes stacks ``(..., n, n)`` and gives every matrix
of a stack the bits it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteSample, NotPositiveDefinite, ResidueTooLarge

# loud-failure threshold of ``curvature_in_frame`` on the imaginary residue of
# the diagonal-pair components (real in exact arithmetic)
IMAG_TOL = 1e-6

__all__ = [
    "FrameCurvatureMatrices",
    "check_finite",
    "curvature_in_frame",
    "gram_unitary_frame",
    "hermitian_inverse",
    "hermitize",
    "symmetrize_curvature",
    "trace_form",
]


def pair_matrix(r):
    """A rank-4 array, or a stack of them, as the matrix ``R[(i, j), (k, l)]``."""
    n = r.shape[-1]
    return r.reshape(r.shape[:-4] + (n * n, n * n))


def check_finite(a, what="array"):
    """Reject NaN/Inf entries on construction paths."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise NonFiniteSample(f"{what} contains non-finite entries")
    return a


def _dagger(a):
    """Conjugate transpose of each matrix of a stack ``(..., n, n)``."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitize(a):
    """Return the Hermitian part of ``a`` and the pre-symmetrization residue.

    ``a`` is one square matrix or a stack of them.  Finite-difference output
    is only approximately Hermitian; constructors take ``(a + a^dag)/2``
    and keep ``max|a - a^dag|`` (over the whole stack) for diagnostics.
    """
    a = check_finite(np.asarray(a, dtype=complex), "matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    residue = float(np.max(np.abs(a - _dagger(a)))) if a.size else 0.0
    return (a + _dagger(a)) / 2.0, residue


def cholesky_factor(g, what="matrix"):
    """Lower Cholesky factor of each matrix of ``g``, one or a stack ``(..., n, n)``.

    Raises NotPositiveDefinite when an entry is not finite (Cholesky does
    not reject those by itself) or a factorization fails.
    """
    g = np.asarray(g, dtype=complex)
    if not np.all(np.isfinite(g)):
        raise NotPositiveDefinite(f"{what} has non-finite entries")
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what} is not positive-definite") from exc


def hermitian_inverse(g):
    """Inverse of a Hermitian positive-definite matrix via Cholesky.

    ``g`` is one matrix or a stack ``(..., n, n)``, each inverted on its
    own as ``inv(L)^dag inv(L)``.  Raises NotPositiveDefinite as
    ``cholesky_factor`` does; the result is re-symmetrized so it is
    Hermitian to machine precision.
    """
    inv = np.linalg.inv(cholesky_factor(g))
    inv = _dagger(inv) @ inv
    return (inv + _dagger(inv)) / 2.0


def trace_form(g, form):
    """Metric trace ``g^{i jbar} a_{i jbar} = Re sum (L^-1 a) * conj(L^-1)``, ``g = L L^dag``, of a
    Hermitian form matrix: a float for one matrix, an array over a stack ``(..., n, n)``."""
    inv_low = np.linalg.inv(cholesky_factor(g))
    value = np.sum(np.real((inv_low @ form) * np.conj(inv_low)), axis=(-2, -1))
    return float(value) if value.ndim == 0 else value


def gram_unitary_frame(g):
    """One unitary frame for ``g``: columns ``e`` with ``e^dag g e = I``.

    The inverse conjugate-transpose of the lower-triangular Cholesky
    factor, so ``gram_unitary_frame(diag(d)) = diag(1/sqrt(d))``.
    """
    return _dagger(np.linalg.inv(cholesky_factor(g)))


def symmetrize_curvature(r):
    """Enforce conjugation symmetry on a rank-4 array, or on each of a stack
    ``(..., n, n, n, n)``; return (tensor, residue), the residue
    ``max|R[i,j,k,l] - conj(R[j,i,l,k])|`` a float for one array and one per
    array of a stack."""
    r = check_finite(np.asarray(r, dtype=complex), "curvature tensor")
    if r.ndim < 4 or len(set(r.shape[-4:])) != 1:
        raise DimensionMismatch(f"expected an n^4 array, got shape {r.shape}")
    swapped = np.conj(np.swapaxes(np.swapaxes(r, -4, -3), -2, -1))  # conj(R[j, i, l, k]) at [i, j, k, l]
    residue = np.max(np.abs(r - swapped), axis=(-4, -3, -2, -1))
    return (r + swapped) / 2.0, float(residue) if residue.ndim == 0 else residue


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
        return self.r_mat.shape[-1]

    def q_mat(self):
        """Quadratic-form matrix ``R_mat + P_mat`` controlling the HSC sign."""
        return self.r_mat + self.p_mat


def curvature_in_frame(r, e):
    """Contract a curvature tensor into its frame matrices.

    Parameters
    ----------
    r : (..., n,n,n,n) complex array, indexed R_{i jbar k lbar}.
    e : (..., n,n) complex frame matrix, columns are frame vectors,
        normalized by ``e^dag g e = I``.  Stacks of ``r`` and ``e``
        broadcast against each other.

    Raises ResidueTooLarge if the imaginary residue of the diagonal-pair
    components, taken over the whole stack, exceeds ``IMAG_TOL``.

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
    n = e.shape[-1]
    if r.shape[-4:] != (n,) * 4:
        raise DimensionMismatch(
            f"tensor shape {r.shape} does not match frame dimension {n}"
        )
    # pair matrix m[(i, j), a] = conj(e[i, a]) e[j, a]; R as R[(i, j), (k, l)]
    # gives r_full, and R transposed to R[(i, l), (j, k)] gives p_full
    m = (np.conj(e)[..., :, None, :] * e[..., None, :, :]).reshape(e.shape[:-2] + (n * n, n))
    m_t = np.swapaxes(m, -1, -2)
    r_full = m_t @ pair_matrix(r) @ m
    p_full = m_t @ pair_matrix(np.moveaxis(r, -1, -3)) @ np.conj(m)
    # conjugation symmetry forces R_mat entrywise real but only forces P_mat
    # Hermitian; real v only sees Re(P), so the Hermitian defect is the residue
    residue = float(
        max(
            np.max(np.abs(r_full.imag)),
            np.max(np.abs(p_full - _dagger(p_full))) / 2.0,
            np.max(np.abs(np.diagonal(p_full, axis1=-2, axis2=-1).imag)),
        )
    )
    if residue > IMAG_TOL:
        raise ResidueTooLarge(
            f"frame components have imaginary residue {residue:.3e} > {IMAG_TOL:.1e}"
        )
    return FrameCurvatureMatrices(
        r_mat=np.ascontiguousarray(r_full.real),
        p_mat=np.ascontiguousarray(p_full.real),
        imag_residue=residue,
    )
