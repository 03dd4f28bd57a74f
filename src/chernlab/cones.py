"""Cone-constrained extrema of curvature quadratic forms.

Two objects drive the Schwarz-type estimates: the real bisectional
curvature (RBC), the Rayleigh quotient ``v^t R v / v^t v`` of the frame
matrix over the nonnegative orthant, and the SBC, the generalized quotient
``u_v^t R v`` with ``u_v`` the Hadamard inverse of ``v`` over the ordered
cone ``v_1 >= ... >= v_n > 0``.  Both are further extremized over the
unitary frame bundle.

Weights ``v`` on the columns of a frame ``e0 @ U`` are the PSD Hermitian
matrix ``X = U diag(v) U^dag``, with ``|X|_F = |v|``, so the RBC extrema
over all frames are those of one real quadratic form over the PSD cone.  At
n = 2 that cone is a Lorentz cone and the extrema are solved exactly
(``_rbc_two``); at every other n a shifted projected power ascent
(``_rbc_ascent``) climbs the form from fixed starts.  The SBC over all
frames is unbounded exactly when some orthonormal pair has ``R(u, ubar, w,
wbar) < 0``, and otherwise is the infimum of ``B(A^-1, A)`` over
positive-definite A; one Armijo descent (``_descend``) finds each, with
every (point, start) of a stack a row that gets the bits it gets alone.
The module needs numpy only: the SBC in one frame is decided at the
vertices of its gap box and solved by exact coordinate minimization.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParams, DimensionMismatch, ZeroSingularValue
from .tensors import curvature_in_frame, gram_unitary_frame, pair_matrix

__all__ = [
    "DivergenceCertificate",
    "RbcBounds",
    "SbcResult",
    "rbc_bounds",
    "sbc_along_map",
    "sbc_bound",
    "sbc_infimum",
    "sbc_value",
]

_GAP_MAX = 40.0  # cap on gap coordinates: exp(40) ratios are past any double-precision need
_ZERO_TOL = 1e-8  # frame-matrix entries within this share of max|R| of zero are zero
_MARGINAL_TOL = 1e-6  # a finite SBC whose least gap coefficient is below this is marginal
_SWEEPS = 1000  # cap on the coordinate sweeps of the SBC inner solve
_STEP_TOL = 1e-12  # the sweeps stop once no gap coordinate moves by more
_ASCENT_TOL = 1e-10  # an RBC ascent row stops once its unit iterate moves by no more
_ASCENT_GAIN = 1e-15  # ... or once a step raises its value by no more than this share
_ASCENT_CAP = 1000  # ... or after this many steps
_DESCENT_TOL = 1e-12  # an SBC descent row stops once a step lowers it by no more than this share
_DESCENT_STEP = 1e-14  # ... once a trial moves it by less
_DESCENT_CAP = 2000  # ... or after this many trials


# ---------------------------------------------------------------------------
# SBC: generalized Rayleigh quotient over the ordered cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceCertificate:
    """One-parameter family driving the SBC objective to -inf.

    Scaling the first ``gap_index + 1`` entries of ``base`` by ``exp(t)``
    stays in the ordered cone and the objective's leading coefficient is
    negative, so the objective decreases without bound as t grows.
    """

    gap_index: int
    base: np.ndarray
    leading_coefficient: float

    def family(self, t):
        v = np.array(self.base, dtype=float)
        v[: self.gap_index + 1] *= np.exp(t)
        return v


@dataclass(frozen=True)
class SbcResult:
    """Outcome of the ordered-cone infimum of ``u_v^t R v``."""

    status: str  # "finite" | "unbounded_below"
    inf_val: float | None = None
    arg: np.ndarray | None = None
    divergence_certificate: DivergenceCertificate | None = None
    marginal: bool = False
    margin: float | None = None
    frame: np.ndarray | None = None


def sbc_value(rm, v):
    """Evaluate ``u_v^t R v = sum_{a,g} R[a,g] v_g / v_a`` at ``v`` (all v_i > 0)."""
    rm = np.asarray(rm, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(np.sum(rm * (v[None, :] / v[:, None])))


def _gaps_to_v(s):
    """Ordered vectors from gap coordinates ``(..., n-1)``: v_i = exp(sum_{j>=i} s_j), v_n = 1."""
    tail = np.cumsum(s[..., ::-1], axis=-1)[..., ::-1]
    return np.exp(np.concatenate([tail, np.zeros(tail.shape[:-1] + (1,))], axis=-1))


def _gap_coefficients(rm, v):
    """``c_j(v) = sum_{g<=j<a} R[a,g] v_g/v_a`` of every gap j, ``(n-1, ...)``
    for one vector or a stack ``(..., n)``."""
    ratio = rm * (v[..., None, :] / v[..., :, None])
    return np.array([np.sum(ratio[..., j + 1 :, : j + 1], axis=(-2, -1)) for j in range(len(rm) - 1)])


def _coordinate_minimum(rm, s):
    """Gap coordinates of a minimum of ``u_v^t R v`` by exact coordinate
    minimization from the gaps ``s``.

    Scaling gap j by ``e^t`` leaves ``A e^t + B e^-t + C`` with ``A = c_j(v)``
    and ``B`` the same sum of ``R^t`` at ``1/v``.  Each step takes the least
    of its values at ``t = 0``, at both ends of the box and, when A and B
    are positive, at ``e^t = sqrt(B / A)`` clipped to the box.  The sweeps
    stop when no gap moves.
    """
    s = s.copy()
    for _ in range(_SWEEPS):
        moved = 0.0
        for j in range(len(s)):
            v = _gaps_to_v(s)
            a, b = _gap_coefficients(rm, v)[j], _gap_coefficients(rm.T, 1.0 / v)[j]
            steps = [0.0, -s[j], _GAP_MAX - s[j]]
            if a > 0.0 and b > 0.0:
                steps.append(np.clip(0.5 * np.log(b / a), -s[j], _GAP_MAX - s[j]))
            t = min(steps, key=lambda t: a * np.exp(t) + b * np.exp(-t))
            s[j] = np.clip(s[j] + t, 0.0, _GAP_MAX)
            moved = max(moved, abs(t))
        if moved <= _STEP_TOL:
            break
    return s


def sbc_infimum(rm):
    """Infimum of ``u_v^t R v`` over the ordered cone, with divergence detection.

    Scale invariance fixes ``v_n = 1``; gap coordinates ``s_j >= 0`` with
    ``v_i = exp(sum_{j>=i} s_j)`` turn the cone into a box, capped at
    ``_GAP_MAX``.  Scaling gap j by ``exp(t)`` splits the objective into
    ``A e^t + B e^-t + C`` with leading coefficient
    ``A = c_j(v) = sum_{g<=j<a} R[a,g] v_g/v_a``.

    Entries of ``R`` within ``_ZERO_TOL * max|R|`` of zero are taken as zero
    (the noise of a vanishing curvature component).  Each ``c_j`` is
    multilinear in the ``e^{s_k}``, so its minimum over the box lies at a
    vertex.  A vertex coefficient below ``-_ZERO_TOL * max|R|`` times its
    weights (the ``v_g/v_a`` it sums) certifies the objective unbounded
    below; the most negative is returned as the certificate ``(j, v)``.
    Otherwise ``_coordinate_minimum`` runs from ``v = 1``, and from every
    vertex when a negative entry off the diagonal leaves the objective
    nonconvex in the gaps; ``margin`` is the least vertex coefficient, and
    one below ``_MARGINAL_TOL`` flags the result "finite (marginal)".
    """
    rm = np.asarray(rm, dtype=float)
    if rm.ndim != 2 or rm.shape[0] != rm.shape[1] or rm.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {rm.shape}")
    n = rm.shape[0]
    if n == 1:
        return SbcResult(status="finite", inf_val=float(rm[0, 0]), arg=np.array([1.0]))

    tol = _ZERO_TOL * float(np.max(np.abs(rm)))
    rm = np.where(np.abs(rm) <= tol, 0.0, rm)
    gaps = np.array(list(itertools.product((0.0, _GAP_MAX), repeat=n - 1)))  # v = 1 first
    v = _gaps_to_v(gaps)
    coef = _gap_coefficients(rm, v)
    certified = np.where(coef < -tol * _gap_coefficients(np.ones((n, n)), v), coef, np.inf)
    if np.isfinite(np.min(certified)):
        j, k = np.unravel_index(np.argmin(certified), certified.shape)
        cert = DivergenceCertificate(gap_index=int(j), base=v[k], leading_coefficient=float(coef[j, k]))
        return SbcResult(status="unbounded_below", divergence_certificate=cert)

    margin = float(np.min(coef))
    convex = np.all(rm[~np.eye(n, dtype=bool)] >= 0.0)
    args = [_gaps_to_v(_coordinate_minimum(rm, s)) for s in (gaps[:1] if convex else gaps)]
    arg = min(args, key=lambda u: sbc_value(rm, u))
    return SbcResult(status="finite", inf_val=sbc_value(rm, arg), arg=arg,
                     marginal=margin < _MARGINAL_TOL, margin=margin)


def sbc_along_map(rm, lambdas):
    """Pointwise curvature sum ``sum_{i,k} R[i,k] lambda_i^2 / lambda_k^2``.

    ``lambdas`` must be the non-increasing positive singular values of a
    full-rank differential; rank-deficient maps are rejected.
    """
    rm = np.asarray(rm, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if rm.shape[0] != lam.shape[0]:
        raise DimensionMismatch(
            f"matrix dim {rm.shape[0]} does not match {lam.shape[0]} singular values"
        )
    if np.any(lam <= 0.0):
        raise ZeroSingularValue("all singular values must be positive")
    if np.any(np.diff(lam) > 0.0):
        raise BadParams("singular values must be non-increasing")
    lam2 = lam**2
    return float(np.sum(rm * (lam2[:, None] / lam2[None, :])))


# ---------------------------------------------------------------------------
# RBC over all frames: one quadratic form on the PSD cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RbcBounds:
    """Bounds for the real bisectional curvature over all frames: exact
    unless ``heuristic`` (an ascent's, for n >= 3), with the frames
    attaining them."""

    inf: float
    sup: float
    inf_frame: np.ndarray
    sup_frame: np.ndarray
    heuristic: bool


@functools.cache
def _hermitian_basis(n):
    """A Frobenius-orthonormal basis ``(n^2, n, n)`` of the n x n Hermitian
    matrices: I / sqrt(n); for each pair p < q, (E_pq + E_qp) / sqrt(2) and
    i (E_qp - E_pq) / sqrt(2); then diag(1, ..., 1, -k, 0, ...) / sqrt(k (k+1))
    with k ones, for k = 1 .. n-1.  At n = 2 it is (I, sigma_x, sigma_y,
    sigma_z) / sqrt(2)."""
    basis = [np.eye(n) / np.sqrt(n)]
    for p, q in itertools.combinations(range(n), 2):
        for upper, lower in ((1, 1), (-1j, 1j)):
            b = np.zeros((n, n), dtype=complex)
            b[p, q], b[q, p] = upper, lower
            basis.append(b / np.sqrt(2.0))
    for k in range(1, n):
        b = np.zeros((n, n), dtype=complex)
        b[range(k), range(k)], b[k, k] = 1, -k
        basis.append(b / np.sqrt(k * (k + 1.0)))
    basis = np.array(basis)
    basis.flags.writeable = False  # one cached array for every caller
    return basis


def _frame_points(r, g):
    """One point's ``(r, g)``, or stacks ``(P, n, n, n, n)`` and ``(P, n, n)``,
    as the tensor stack with the Gram frames ``(P, n, n)`` of the metrics:
    ``(r, e0, single)``."""
    r = np.asarray(r, dtype=complex)
    g = np.asarray(g, dtype=complex)
    single = g.ndim == 2
    if single:
        r, g = r[None], g[None]
    n = g.shape[-1]
    if g.ndim != 3 or r.shape != g.shape[:1] + (n,) * 4:
        raise DimensionMismatch(
            f"tensors of shape {r.shape} do not match metrics of shape {g.shape}"
        )
    return r, gram_unitary_frame(g), single


def _rbc_form(r, e0):
    """The RBC of a stack ``(P, n, n, n, n)`` of tensors with Gram frames
    ``e0`` as real symmetric forms M ``(P, n^2, n^2)``.

    Weights ``v`` on the columns of a frame ``e0 @ U`` are the PSD Hermitian
    ``A = U diag(v) U^dag``, with ``|A|_F = |v|``, so RBC is ``c^t M c / |c|^2``
    over the coordinates ``c`` of A in ``_hermitian_basis(n)``.
    """
    p, n = e0.shape[:2]
    # v^t R_mat v = sum R[i, j, k, l] X[i, j] X[k, l] with X = conj(e0 A e0^dag)
    x = np.conj(e0[:, None] @ _hermitian_basis(n) @ np.conj(np.swapaxes(e0, -1, -2))[:, None])
    x = x.reshape(p, n * n, n * n)
    m = (x @ r.reshape(p, n * n, n * n) @ np.swapaxes(x, -1, -2)).real
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def _rbc_two(m):
    """Exact RBC extrema of a stack ``(P, 4, 4)`` of n = 2 forms
    (``_rbc_form``): per point ``((inf, U), (sup, U))`` with the unitaries U
    that attain them on the Gram frame.

    PSD is the Lorentz cone ``c_0 >= |(c_1, c_2, c_3)|`` in the coordinates
    of ``_hermitian_basis(2)``.  An extremum lies at an eigenvector of M
    inside the cone, or at an extremum of ``m00 + 2 b.u + u^t C u`` on the
    sphere ``|u| = 1`` of the cone's boundary ``c = (1, u)``.  On the sphere
    the least (greatest) value solves ``(C - lam) u = -b`` at ``lam`` below
    (above) every eigenvalue ``d`` of C, the secular equation
    ``sum beta_i^2 / (d_i - lam)^2 = 1`` in C's eigenbasis, which is bisected
    on ``|lam - d| <= |b|``; or, in the hard case, ``lam = d_k`` and the
    component of u on the k-th eigenvector fills the unit norm, with
    eigen-gaps of C within ``_ZERO_TOL * max|M|`` taken as zero.  Every
    candidate is a point of the cone scored by its own quotient, so a missed
    candidate can only narrow the range, never leave it.
    """
    p = len(m)
    b, c = m[:, 1:, 0], m[:, 1:, 1:]
    inner = np.swapaxes(np.linalg.eigh(m)[1], -1, -2)
    inner *= np.where(inner[..., :1] < 0.0, -1.0, 1.0)

    d, w = np.linalg.eigh(c)
    beta = (b[:, None, :] @ w)[:, :1]
    gaps = np.stack([d - d[:, :1], d[:, 2:] - d], axis=1)  # to the least and the greatest d
    high = np.sqrt(np.sum(b * b, axis=-1))[:, None, None] * np.ones((1, 2, 1))
    high[high == 0.0] = 1.0
    low = np.zeros_like(high)
    for _ in range(64):  # mu = |lam - d| in (0, |b|], to 2^-64 |b|
        mu = (low + high) / 2.0
        outside = ((beta / (gaps + mu)) ** 2).sum(axis=-1, keepdims=True) > 1.0
        low, high = np.where(outside, mu, low), np.where(outside, high, mu)
    secular = beta / (gaps + mu) * np.array([[-1.0], [1.0]])
    gap = d[:, None, :] - d[:, :, None]  # [k, i]: d_i - d_k
    free = np.abs(gap) > _ZERO_TOL * np.max(np.abs(m), axis=(-2, -1))[:, None, None]
    y = np.where(free, -beta / np.where(free, gap, 1.0), 0.0)
    fill = np.sqrt(np.clip(1.0 - np.sum(y * y, axis=-1), 0.0, None))[..., None] * np.eye(3)
    u = np.concatenate([secular, y + fill, y - fill], axis=1) @ np.swapaxes(w, -1, -2)
    norm = np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
    boundary = np.concatenate([np.where(norm > 0.0, norm, 1.0), u], axis=-1)  # u = 0: A = I
    cand = np.concatenate([inner, boundary], axis=1)

    inside = np.ones(cand.shape[:2], dtype=bool)
    inside[:, :4] = inner[..., 0] > np.sqrt(np.sum(inner[..., 1:] ** 2, axis=-1))
    value = ((cand[..., None, :] @ m[:, None]) @ cand[..., :, None])[..., 0, 0]
    value /= np.sum(cand * cand, axis=-1)
    each = np.arange(p)
    lo = np.argmin(np.where(inside, value, np.inf), axis=-1)
    hi = np.argmax(np.where(inside, value, -np.inf), axis=-1)
    best = np.stack([cand[each, lo], cand[each, hi]], axis=1)
    frames = np.linalg.eigh(np.sum(best[..., None, None] * _hermitian_basis(2), axis=-3))[1]
    return [((float(a), u), (float(b), v)) for a, b, (u, v) in zip(value[each, lo], value[each, hi], frames)]


def _fixed_vectors(n):
    """Four unit vectors ``(k + j + 2) e^{i (j + 1) k}``, j < 4: none real or in a coordinate subspace."""
    j, k = np.indices((4, n))
    w = (k + j + 2.0) * np.exp(1j * (j + 1.0) * k)
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def _rbc_ascent(r, e0, m):
    """RBC extrema of a stack of tensors ``r`` with Gram frames ``e0`` and
    forms ``m`` (``_rbc_form``) by a shifted projected power ascent: per
    point ``((inf, U), (sup, U))``, as ``_rbc_two`` gives them.

    The sup maximizes ``c^t S c`` over unit coordinates c of PSD matrices,
    with ``S = M + sigma I`` and ``sigma = max(0, -lambda_min(M))``, which
    makes the form convex; the inf does the same with -M.  A step
    ``c <- Pi(S c) / |Pi(S c)|`` maximizes the form's linear minorant at c
    over the cone and the unit ball: the PSD cone is self-dual, so that
    maximizer is the normalized projection Pi onto the cone, one ``eigh``.
    The value therefore never decreases; a projection of 0 leaves c where it
    is.  Every point runs from I / sqrt(n), each E_kk and the rank-one
    11^t / n and w w^dag (w the first ``_fixed_vectors`` vector), for both
    senses, as one stack of rows.  A start in a subspace that the form and the projection
    keep (the diagonal matrices of a product of discs, the real matrices of
    a real form) never leaves it; the last two lie in neither.  Each step
    normalizes, so the starts need not.  A row stops once a step moves c by
    at most ``_ASCENT_TOL`` or raises the form's quotient by at most
    ``_ASCENT_GAIN`` of it (as on an extremal orbit), or after
    ``_ASCENT_CAP`` steps, and reads only its own values, so a point gets
    the bits it gets alone.

    A sense takes the first best start.  Its value is the RBC on the frame
    of the eigenvectors U of the final matrix, weighted by its eigenvalues:
    a feasible point, so a row that stops at the cap still gives a bound.
    """
    p, k = m.shape[:2]
    n = e0.shape[-1]
    flat = _hermitian_basis(n).reshape(k, k)  # row b: the entries of basis matrix b
    w = np.array([np.ones(n), _fixed_vectors(n)[0]])
    rank_one = (np.conj(flat) @ (w[:, :, None] * np.conj(w[:, None])).reshape(2, k, 1))[..., 0].real
    starts = np.concatenate([np.eye(k)[:1], _hermitian_basis(n)[:, range(n), range(n)].real.T, rank_one])
    point, sense, start = (a.ravel() for a in np.indices((p, 2, len(starts))))
    signed = m[:, None] * np.array([-1.0, 1.0])[:, None, None]
    shift = np.maximum(0.0, -np.linalg.eigvalsh(signed)[..., 0])
    forms = (signed + shift[..., None, None] * np.eye(k)).reshape(2 * p, k, k)[2 * point + sense]

    c = starts[start]
    rows = np.arange(len(c))
    value = np.full(len(c), -np.inf)
    for _ in range(_ASCENT_CAP):
        y = forms[rows] @ c[rows, :, None]
        gained = (c[rows, None, :] @ y)[:, 0, 0] / np.sum(c[rows] * c[rows], axis=-1)  # the form's quotient at c
        climbing = gained - value[rows] > _ASCENT_GAIN * np.abs(gained)
        value[rows] = gained
        rows, y = rows[climbing], y[climbing]
        if not len(rows):
            break
        w, v = np.linalg.eigh((np.swapaxes(y, -1, -2) @ flat).reshape(-1, n, n))
        proj = (v * np.maximum(w, 0.0)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
        y = (np.conj(flat) @ proj.reshape(-1, k, 1)).real  # the projection's coordinates
        norm = np.sqrt(np.swapaxes(y, -1, -2) @ y)[:, 0]
        new = np.where(norm > 0.0, y[..., 0] / np.where(norm > 0.0, norm, 1.0), c[rows])
        moved = new - c[rows]
        c[rows] = new
        rows = rows[np.sqrt(moved[:, None, :] @ moved[:, :, None])[:, 0, 0] > _ASCENT_TOL]
        if not len(rows):
            break

    w, u = np.linalg.eigh((c[:, None, :] @ flat).reshape(-1, n, n))
    lam = np.maximum(w, 0.0)[:, None, :]
    rm = curvature_in_frame(r[point], e0[point] @ u).r_mat
    value = ((lam @ rm @ np.swapaxes(lam, -1, -2)) / (lam @ np.swapaxes(lam, -1, -2)))[:, 0, 0]
    value, u = value.reshape(p, 2, len(starts)), u.reshape(p, 2, len(starts), n, n)
    lo, hi = np.argmin(value[:, 0], axis=-1), np.argmax(value[:, 1], axis=-1)
    return [((float(v[0, a]), f[0, a]), (float(v[1, b]), f[1, b])) for v, f, a, b in zip(value, u, lo, hi)]


def rbc_bounds(r, g):
    """Bounds on the real bisectional curvature of a tensor over all frames.

    At n = 2 the extrema are solved exactly (``_rbc_two``); at every other n
    they are climbed by the projected power ascent over the PSD cone
    (``_rbc_ascent``), exact at n = 1, where the cone is a ray, and flagged
    heuristic for n >= 3, where the ascent may stop short of the extremum
    (the answer is still a value attained on the returned frame).  No call
    takes a budget or warns.

    ``r`` and ``g`` are one point's tensor and metric, or stacks
    ``(P, n, n, n, n)`` and ``(P, n, n)`` solved as one stack; a stack gives
    a list of P bounds, each with the bits its point gets alone.
    """
    r, e0, single = _frame_points(r, g)
    n = e0.shape[-1]
    m = _rbc_form(r, e0)
    found = _rbc_two(m) if n == 2 else _rbc_ascent(r, e0, m)
    bounds = [
        RbcBounds(inf=lo, sup=hi, inf_frame=e @ lo_u, sup_frame=e @ hi_u, heuristic=n >= 3)
        for e, ((lo, lo_u), (hi, hi_u)) in zip(e0, found)
    ]
    return bounds[0] if single else bounds


# ---------------------------------------------------------------------------
# SBC over all frames: an orthonormal-pair test, then a descent over PD matrices
# ---------------------------------------------------------------------------


def _frame_tensor(t, u):
    """Pair matrices ``t`` ``(P, n^2, n^2)`` of tensors in the frames ``u``,
    contracted as ``curvature_in_frame`` does: ``T[(a, a), (g, g)]`` is its
    ``r_mat[a, g]``."""
    n = u.shape[-1]
    k = (np.conj(u)[..., :, None, :, None] * u[..., None, :, None, :]).reshape(-1, n * n, n * n)
    return np.swapaxes(k, -1, -2) @ t @ k


def _outer(v):
    return v[..., :, None] * np.conj(v[..., None, :])


def _descend(values, retract, x, cap, scale):
    """Armijo descent of each row of ``x``: ``values(rows, x)`` gives
    (value, gradient, feasible), ``retract(x, d)`` moves x by -d.  A trial
    moves a row by step times gradient, at most ``cap``; a trial that lowers
    the value by less than 1e-4 of the first-order decrease, or is not
    feasible, halves the step, and an accepted one takes the Barzilai-Borwein
    step (or doubles it).  A row stops once a step lowers it by at most
    ``_DESCENT_TOL`` of its value or ``scale``, once a trial moves it by less
    than ``_DESCENT_STEP``, or after ``_DESCENT_CAP`` trials."""
    rows = np.arange(len(x))
    value, grad, _ = values(rows, x)
    step = np.ones(len(x))
    for _ in range(_DESCENT_CAP):
        size = np.sqrt(np.sum(np.abs(grad[rows]) ** 2, axis=(-2, -1)))
        move = np.minimum(step[rows] * size, cap)
        d = (move / np.where(size > 0.0, size, 1.0))[:, None, None] * grad[rows]
        trial = retract(x[rows], d)
        new, new_grad, feasible = values(rows, trial)
        accept = (new <= value[rows] - 1e-4 * move * size) & feasible
        settled = accept & (value[rows] - new <= _DESCENT_TOL * np.maximum(np.abs(value[rows]), scale[rows]))
        curve = np.sum(np.real(np.conj(d) * (grad[rows] - new_grad)), axis=(-2, -1))
        bb = np.sum(np.abs(d) ** 2, axis=(-2, -1)) / np.where(curve > 0.0, curve, 1.0)
        step[rows] = np.where(accept, np.where(curve > 0.0, bb, 2.0 * step[rows]), step[rows] / 2.0)
        kept = rows[accept]
        x[kept], value[kept], grad[kept] = trial[accept], new[accept], new_grad[accept]
        rows = rows[~settled & (move >= _DESCENT_STEP)]
        if not len(rows):
            break
    return x, value


def _pair_values(t, x):
    """``R(u, ubar, w, wbar) = u^dag G_w u`` of orthonormal pairs ``x = [w, u]``
    ``(P, n, 2)`` for Gram-frame pair matrices ``t``, with ``G_w[a, b] =
    sum T[(a, b), (c, d)] conj(w_c) w_d``, and its gradient Z in the
    rotations ``x -> e^{-iZ} x``: ``i ([u u^dag, G_w] + [w w^dag, G_u])``."""
    n = x.shape[1]
    pw, pu = _outer(x[..., 0]), _outer(x[..., 1])
    gw = (t @ np.conj(pw).reshape(-1, n * n, 1)).reshape(-1, n, n)
    gu = (np.swapaxes(t, -1, -2) @ np.conj(pu).reshape(-1, n * n, 1)).reshape(-1, n, n)
    value = np.sum(np.conj(x[..., 1]) * (gw @ x[..., 1:])[..., 0], axis=-1).real
    return value, 1j * (pu @ gw - gw @ pu + pw @ gu - gu @ pw), True


def _rotated(x, z):
    """``e^{-iZ} x`` for a stack of Hermitian Z."""
    lam, vec = np.linalg.eigh(z)
    return (vec * np.exp(-1j * lam)[:, None, :]) @ (np.conj(np.swapaxes(vec, -1, -2)) @ x)


def _least_pairs(t):
    """Frames ``(P, n, n)``, w first and u last, of the least ``R(u, ubar, w,
    wbar)`` over orthonormal pairs for Gram-frame pair matrices ``t``: the
    first least row of a descent over rotations of the pair, by at most pi,
    from every ordered pair of Gram-frame vectors and the QR pairs of
    consecutive ``_fixed_vectors``."""
    p, k = t.shape[:2]
    n = math.isqrt(k)
    u = _fixed_vectors(n)
    starts = np.concatenate([np.eye(n)[:, list(itertools.permutations(range(n), 2))].transpose(1, 0, 2),
                             np.linalg.qr(np.stack([np.roll(u, -1, axis=0), u], axis=-1))[0]])
    point = np.repeat(np.arange(p), len(starts))
    pairs, value = _descend(lambda rows, x: _pair_values(t[point[rows]], x), _rotated, np.tile(starts, (p, 1, 1)),
                            np.pi, np.max(np.abs(t), axis=(-2, -1))[point])
    best = np.argmin(value.reshape(p, -1), axis=-1) + np.arange(p) * len(starts)
    return np.linalg.eigh(_outer(pairs[best, :, 0]) - _outer(pairs[best, :, 1]))[1][..., ::-1]


def _descent_values(t, h):
    """``F(H) = B(e^{-H}, e^{H}) = sum_{a, g} r_mat[a, g] e^{l_g - l_a}`` in
    H's eigenframe V, for Gram-frame pair matrices ``t`` and Hermitian H;
    its gradient, Daleckii-Krein's ``V (D_- o G_- + D_+ o G_+) V^dag`` with the
    divided differences ``D_+-[a, b] = +-e^{+-m} sinh(d) / d`` of ``e^{+-x}``
    at ``m +- d = l_a, l_b`` (every weight the exponential of a difference
    of eigenvalues, so no large terms cancel); and whether H's eigenvalues
    spread by at most the gap box, ``(n-1) _GAP_MAX``."""
    n = h.shape[-1]
    lam, vec = np.linalg.eigh(h)
    ends = _frame_tensor(t, vec).reshape((-1,) + (n,) * 4)
    right = np.diagonal(ends, axis1=3, axis2=4)  # [a, b, g]: R(a, b, g, g)
    left = np.moveaxis(np.diagonal(ends, axis1=1, axis2=2), -1, 1)  # [g, a, b]: R(g, g, a, b)
    across = np.diagonal(right, axis1=1, axis2=2).real  # [g, a]: r_mat[a, g]
    value = np.sum(across * np.exp(lam[:, :, None] - lam[:, None, :]), axis=(-2, -1))
    mid, half = (lam[:, :, None] + lam[:, None, :]) / 2.0, (lam[:, :, None] - lam[:, None, :]) / 2.0
    sinhc = np.where(half == 0.0, 1.0, np.sinh(half) / np.where(half == 0.0, 1.0, half))
    grad = sinhc * (np.sum(left * np.exp(mid[:, None] - lam[:, :, None, None]), axis=1)
                    - np.sum(right * np.exp(lam[:, None, None, :] - mid[..., None]), axis=-1))
    grad = vec @ ((grad + np.conj(np.swapaxes(grad, -1, -2))) / 2.0) @ np.conj(np.swapaxes(vec, -1, -2))
    return value, grad, lam[:, -1] - lam[:, 0] <= (n - 1) * _GAP_MAX


def sbc_bound(r, g):
    """Infimum of the SBC over all frames, with no budget and no warning.

    ``sbc_infimum`` solves the Gram frame, the answer at n = 1.  Above, the
    SBC is unbounded in some frame exactly when an orthonormal pair has
    ``R(u, ubar, w, wbar) < 0`` beyond the zero tolerance: in the frame of w
    first and u last it leads the gap-0 coefficient at the vertex of every
    gap at ``_GAP_MAX``, and no frame is certified while every such entry is
    >= 0.  So the least pair's frame (``_least_pairs``) is solved next.
    Weights v on a frame U are the PD matrix ``A = U diag(v) U^dag``, where
    the SBC is ``B(A^-1, A)`` for the curvature's bilinear form B.  Where
    both frames are finite, a descent over ``A = e^H`` from H = 0,
    +-diag(0, ..., n-1), 2 w w^dag and -2 11^t / n finds the infimum, and
    ``sbc_infimum`` solves each final eigenframe.  A point takes the first
    least of its frames, an unbounded one first; ``r`` and ``g`` are one
    point or stacks, as for ``rbc_bounds``, each point with its bits alone.
    """
    r, e0, single = _frame_points(r, g)
    n = e0.shape[-1]
    results = [None] * len(e0)

    def keep_least(points, frames):
        for p, rm, f in zip(points, curvature_in_frame(r[points], frames).r_mat, frames):
            res, best = replace(sbc_infimum(rm), frame=f), results[p]
            if best is None or best.status == "finite" and (res.status != "finite" or res.inf_val < best.inf_val):
                results[p] = res

    keep_least(np.arange(len(e0)), e0)
    todo = np.array([p for p, res in enumerate(results) if n > 1 and res.status == "finite"], dtype=int)
    if len(todo):
        t = _frame_tensor(pair_matrix(r[todo]), e0[todo])
        keep_least(todo, e0[todo] @ _least_pairs(t))
        finite = np.array([results[p].status == "finite" for p in todo], dtype=bool)
        todo, t = todo[finite], t[finite]
    if len(todo):
        w, ramp = _outer(_fixed_vectors(n)[0]), np.diag(np.arange(n, dtype=complex))
        starts = np.array([np.zeros_like(ramp), ramp, -ramp, 2.0 * w, -2.0 * np.ones((n, n)) / n])
        point = np.repeat(np.arange(len(todo)), len(starts))
        h, _ = _descend(lambda rows, h: _descent_values(t[point[rows]], h), lambda h, d: h - d,
                        np.tile(starts, (len(todo), 1, 1)), _GAP_MAX, np.max(np.abs(t), axis=(-2, -1))[point])
        keep_least(todo[point], e0[todo[point]] @ np.linalg.eigh(h)[1][..., ::-1])  # by decreasing eigenvalue
    return results[0] if single else results
