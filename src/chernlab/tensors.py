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

from .errors import DimensionMismatch, NonFiniteSample, NotPositiveDefinite

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


_EINSUM_PATHS = {}  # (subscripts, operand shapes) -> (einsum subscripts, contraction path)


def contract(subscripts, *operands):
    """``np.einsum(subscripts, *operands, optimize=True)`` with the path planned once.

    The contraction path depends only on the subscripts and the operand
    shapes, so it is planned on the first call with those and reused after;
    the result is bit-for-bit the one ``optimize=True`` gives.  Operands
    may carry leading stack axes in front of their subscripted ones: the
    path is planned for one point and replayed over the stack, so each
    point of a stack gets the bits it gets alone.
    """
    key = (subscripts, tuple(np.shape(op) for op in operands))
    plan = _EINSUM_PATHS.get(key)
    if plan is None:
        plan = _EINSUM_PATHS[key] = _plan(subscripts, operands)
    return np.einsum(plan[0], *operands, optimize=plan[1])


def _plan(subscripts, operands):
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    stack_dims = [np.ndim(op) - len(term) for op, term in zip(operands, terms)]
    points = [op[(0,) * d] for op, d in zip(operands, stack_dims)]
    path = np.einsum_path(subscripts, *points, optimize=True)[0]
    if not any(stack_dims):
        return subscripts, path
    return ",".join("..." + term for term in terms) + "->..." + output, path


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


def hermitian_inverse(g):
    """Inverse of a Hermitian positive-definite matrix via Cholesky.

    ``g`` is one matrix or a stack ``(..., n, n)``, each inverted on its
    own.  Raises NotPositiveDefinite when an entry is not finite or a
    Cholesky factorization fails; the result is re-symmetrized so it is
    Hermitian to machine precision.
    """
    g = np.asarray(g, dtype=complex)
    if not np.all(np.isfinite(g)):
        raise NotPositiveDefinite("matrix has non-finite entries")
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky factorization failed") from exc
    eye = np.broadcast_to(np.eye(g.shape[-1]), g.shape)
    inv_low = scipy.linalg.solve_triangular(low, eye, lower=True)
    inv = _dagger(inv_low) @ inv_low
    return (inv + _dagger(inv)) / 2.0


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
