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
(``_rbc_ascent``) climbs the form from fixed starts.  The SBC is searched by
a seeded multistart coordinate descent on skew-Hermitian generators, one
array descent over every (point, start) row whose trial frames are
exponentiated, contracted and solved as one stack; each start visits the
frames, with the same bits, that it visits alone.  The module needs numpy
only: the SBC inner problem is decided at the vertices of its gap box and
solved by exact coordinate minimization.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParams, DimensionMismatch, SearchBudgetExhausted, ZeroSingularValue
from .tensors import curvature_in_frame, gram_unitary_frame

__all__ = [
    "DivergenceCertificate",
    "FrameSearchConfig",
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
_ASCENT_CAP = 1000  # ... or after this many steps


@dataclass(frozen=True)
class FrameSearchConfig:
    """Multistart budget for the SBC frame search."""

    n_starts: int = 8
    max_iter: int = 40
    step_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise BadParams("n_starts must be >= 1")
        if self.max_iter < 1:
            raise BadParams("max_iter must be >= 1")
        if not (np.isfinite(self.step_tol) and self.step_tol > 0.0):
            raise BadParams(f"step_tol must be finite and positive, got {self.step_tol!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise BadParams(f"seed must be an integer >= 0, got {self.seed!r}")


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
    11^t / n and w w^dag, ``w_k = (k + 2) e^{ik}``, for both senses, as one
    stack of rows.  A start in a subspace that the form and the projection
    keep (the diagonal matrices of a product of discs, the real matrices of
    a real form) never leaves it; the last two lie in neither.  Each step
    normalizes, so the starts need not.  A row stops once a step moves c by
    at most ``_ASCENT_TOL``, or after ``_ASCENT_CAP`` steps, and reads only
    its own values, so a point gets the bits it gets alone.

    A sense takes the first best start.  Its value is the RBC on the frame
    of the eigenvectors U of the final matrix, weighted by its eigenvalues:
    a feasible point, so a row that stops at the cap still gives a bound.
    """
    p, k = m.shape[:2]
    n = e0.shape[-1]
    flat = _hermitian_basis(n).reshape(k, k)  # row b: the entries of basis matrix b
    w = np.array([np.ones(n), (np.arange(n) + 2.0) * np.exp(1j * np.arange(n))])
    rank_one = (np.conj(flat) @ (w[:, :, None] * np.conj(w[:, None])).reshape(2, k, 1))[..., 0].real
    starts = np.concatenate([np.eye(k)[:1], _hermitian_basis(n)[:, range(n), range(n)].real.T, rank_one])
    point, sense, start = (a.ravel() for a in np.indices((p, 2, len(starts))))
    signed = m[:, None] * np.array([-1.0, 1.0])[:, None, None]
    shift = np.maximum(0.0, -np.linalg.eigvalsh(signed)[..., 0])
    forms = (signed + shift[..., None, None] * np.eye(k)).reshape(2 * p, k, k)[2 * point + sense]

    c = starts[start]
    rows = np.arange(len(c))
    for _ in range(_ASCENT_CAP):
        y = forms[rows] @ c[rows, :, None]
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
# SBC over all frames: a frame search over the unitary bundle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _upper_triangle(n):
    """Row and column indices of the strict upper triangle of an n x n matrix."""
    return np.triu_indices(n, 1)


def _generators(params, n):
    """Skew-Hermitian matrices ``(K, n, n)`` from a stack ``(K, n(n-1))`` of
    strict-upper-triangle real parameters, (re, im) per entry in row order.

    Diagonal phase generators are omitted: column phases cancel in the
    diagonal-pair curvature components.
    """
    rows, cols = _upper_triangle(n)
    a = np.zeros((len(params), n, n), dtype=complex)
    a[:, rows, cols] = params[:, 0::2] + 1j * params[:, 1::2]
    a[:, cols, rows] = -np.conj(a[:, rows, cols])
    return a


def _exp_skew(generators):
    """``exp`` of each skew-Hermitian matrix ``A`` of a stack ``(K, n, n)``:
    ``V diag(e^{i lam}) V^dag`` from the eigenpairs of the Hermitian ``-iA``.
    Each matrix of the stack gets the bits it gets alone."""
    lam, vecs = np.linalg.eigh(-1j * generators)
    return (vecs * np.exp(1j * lam)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))


def _frame_search(evaluate, n_points, n, cfg):
    """Multistart coordinate descent over unitary-frame generators that
    minimizes an objective, as one masked array descent.

    There is one search per point, each from the same ``cfg.n_starts``
    seeded starts, and every (point, start) is a row of
    ``params``/``val``/``step``/``iters``.  A sweep walks the parameters in
    order, trying ``+step`` then ``-step`` on each; at every such micro-step
    the running rows' trial frames are evaluated as one stack,
    ``evaluate(owners, frames)`` with the point index of each frame and the
    unitaries of their generators (one ``_exp_skew``), which returns one
    objective per frame.  A row keeps a trial that improves on it by more
    than 1e-14, halves its step after a sweep without one, and stops once its
    step falls to ``cfg.step_tol`` or after ``cfg.max_iter`` sweeps.  A row's
    descent only reads its own values, so it gets the bits of its start run
    alone.

    An objective of ``-inf`` (an unbounded frame) cannot be improved on: it
    stops its row, and the later starts of its point, whose answer is then
    the first start in start order to reach one.

    Returns, per point, ``(objective, U)`` for the first best start.  Every
    start that ran out of ``cfg.max_iter`` before its step fell below
    ``cfg.step_tol`` warns SearchBudgetExhausted, in (point, start) order,
    up to the start that ended its search.
    """
    n_params = n * (n - 1)
    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(n_params)]
    if n_params:
        starts += [rng.normal(scale=0.5, size=n_params) for _ in range(cfg.n_starts - 1)]
    n_starts = len(starts)
    point, start = (a.ravel() for a in np.indices((n_points, n_starts)))
    cut = np.full(n_points, n_starts)  # per point: the first start at -inf

    def objectives(rows, trial):
        frames = _exp_skew(_generators(trial, n))
        return np.asarray(evaluate(point[rows], frames), dtype=float), frames

    def running(rows):
        """The rows still running; a row at -inf cuts its later starts."""
        hit = rows[val[rows] == -np.inf]
        np.minimum.at(cut, point[hit], start[hit])
        return rows[(val[rows] != -np.inf) & (start[rows] <= cut[point[rows]])]

    params = np.array(starts)[start]
    val, frames = objectives(np.arange(len(start)), params)
    step, iters = np.full(len(start), 0.4), np.zeros(len(start), dtype=int)
    rows = running(np.arange(len(start)))
    while n_params and len(rows := rows[(step[rows] > cfg.step_tol) & (iters[rows] < cfg.max_iter)]):
        improved = np.zeros(len(start), dtype=bool)
        for k, sign in itertools.product(range(n_params), (1.0, -1.0)):
            if not len(rows):
                break
            trial = params[rows]
            trial[:, k] += sign * step[rows]
            tval, tframes = objectives(rows, trial)
            better = tval < val[rows] - 1e-14
            kept = rows[better]
            params[kept], val[kept], frames[kept] = trial[better], tval[better], tframes[better]
            improved[kept] = True
            rows = running(rows)
        step[rows[~improved[rows]]] *= 0.5
        iters[rows] += 1

    exhausted = (iters >= cfg.max_iter) & (step > cfg.step_tol)
    found = []
    for p in range(n_points):
        best = None
        for r in range(p * n_starts, (p + 1) * n_starts):  # up to the first start at -inf
            if val[r] == -np.inf:
                best = r
                break
            if exhausted[r]:
                warnings.warn("frame search hit iteration budget", SearchBudgetExhausted)
            if best is None or val[r] < val[best]:
                best = r
        found.append((float(val[best]), frames[best]))
    return found


def sbc_bound(r, g, cfg=FrameSearchConfig()):
    """Frame-searched infimum of the SBC.

    Each visited frame runs its own ``sbc_infimum``.  Unbounded in any
    visited frame means unbounded overall: the search stops at the first
    such frame in start order and returns it with its divergence
    certificate.  ``r`` and ``g`` are one point or stacks, as for
    ``rbc_bounds``; a stack gives a list of P results.
    """
    r, e0, single = _frame_points(r, g)
    n = e0.shape[-1]

    def r_mats(owners, frames):
        return curvature_in_frame(r[owners], e0[owners] @ frames).r_mat

    def evaluate(owners, frames):
        inner = (sbc_infimum(rm) for rm in r_mats(owners, frames))
        return [-np.inf if res.status == "unbounded_below" else res.inf_val for res in inner]

    best = np.array([u for _, u in _frame_search(evaluate, len(e0), n, cfg)])
    results = [
        replace(sbc_infimum(rm), frame=e @ u)
        for rm, e, u in zip(r_mats(np.arange(len(e0)), best), e0, best)
    ]
    return results[0] if single else results
