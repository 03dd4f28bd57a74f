"""Cone-constrained extrema of curvature quadratic forms.

Two objects drive the Schwarz-type estimates: the Rayleigh quotient
``v^t R v / v^t v`` of the frame matrix over the nonnegative orthant (RBC)
and the generalized quotient ``u_v^t R v`` with ``u_v`` the Hadamard inverse
of ``v`` over the ordered cone ``v_1 >= ... >= v_n > 0`` (SBC).  Both are
further extremized over the unitary frame bundle by a seeded multistart
search on skew-Hermitian generators.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import DimensionMismatch, SearchBudgetExhausted, ZeroSingularValue
from .tensors import curvature_in_frame, gram_unitary_frame

__all__ = [
    "DivergenceCertificate",
    "FrameSearchConfig",
    "OrthantExtremum",
    "RbcBounds",
    "SbcResult",
    "orthant_rayleigh_extrema",
    "rbc_bounds",
    "sbc_along_map",
    "sbc_bound",
    "sbc_infimum",
    "sbc_value",
]

_GAP_MAX = 40.0  # cap on gap coordinates: exp(40) ratios are past any double-precision need


@dataclass(frozen=True)
class FrameSearchConfig:
    """Multistart budget for the unitary frame search."""

    n_starts: int = 8
    max_iter: int = 40
    step_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


@dataclass(frozen=True)
class OrthantExtremum:
    """Extrema of ``v^t M v`` over unit vectors in the nonnegative orthant.

    ``certificate`` holds the active-face index sets of the arg points
    (coordinates with nonzero entries), ``(min_face, max_face)``.
    """

    min_val: float
    max_val: float
    argmin: np.ndarray
    argmax: np.ndarray
    certificate: tuple


@functools.lru_cache(maxsize=None)
def _faces(n):
    """Index data of every nonempty coordinate face of R^n.

    One ``(sub-matrix index, face, off-face indices, face tuple)`` per face,
    in the order of the face bitmasks 1 .. 2^n - 1.
    """
    faces = []
    for mask in range(1, 1 << n):
        face = [i for i in range(n) if mask >> i & 1]
        off = np.array([i for i in range(n) if not mask >> i & 1], dtype=int)
        faces.append((np.ix_(face, face), np.array(face), off, tuple(face)))
    return tuple(faces)


def _face_candidates(sym, kkt_tol):
    """KKT-feasible stationary points of the orthant Rayleigh quotient.

    For every coordinate face, eigenvectors of the restricted matrix with
    uniform sign are stationary on the face's relative interior; the KKT
    sign of the off-face gradient decides min vs max feasibility.
    """
    n = sym.shape[0]
    mins, maxs = [], []
    for sub_index, face, off, face_key in _faces(n):
        vals, vecs = np.linalg.eigh(sym[sub_index])
        for k in range(len(face)):
            w = vecs[:, k]
            if np.all(w >= -1e-12):
                pass
            elif np.all(w <= 1e-12):
                w = -w
            else:
                continue
            x = np.zeros(n)
            x[face] = np.clip(w, 0.0, None)
            nrm = np.linalg.norm(x)
            if nrm == 0.0:
                continue
            x /= nrm
            grad_off = (sym @ x)[off]
            value = float(x @ sym @ x)
            if grad_off.size == 0 or np.all(grad_off >= -kkt_tol):
                mins.append((value, x, face_key))
            if grad_off.size == 0 or np.all(grad_off <= kkt_tol):
                maxs.append((value, x, face_key))
    return mins, maxs


def orthant_rayleigh_extrema(m):
    """Extrema of the Rayleigh quotient of ``m`` over the nonnegative orthant.

    Only the symmetric part of ``m`` matters (the quotient annihilates the
    antisymmetric part).  The answer is exact for every n, by facial
    enumeration of KKT points: every extremum is a uniform-sign eigenvector
    of the matrix restricted to some coordinate face.  The cost is one
    symmetric eigendecomposition per nonempty face, 2^n - 1 of them.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    sym = (m + m.T) / 2.0
    scale = max(1.0, float(np.max(np.abs(sym))))
    mins, maxs = _face_candidates(sym, kkt_tol=1e-10 * scale)
    min_val, argmin, min_face = min(mins, key=lambda t: t[0])
    max_val, argmax, max_face = max(maxs, key=lambda t: t[0])
    return OrthantExtremum(
        min_val=min_val,
        max_val=max_val,
        argmin=argmin,
        argmax=argmax,
        certificate=(min_face, max_face),
    )


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
    """Ordered vector from gap coordinates: v_i = exp(sum_{j>=i} s_j), v_n = 1."""
    tail = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])
    return np.exp(tail)


def _objective_and_grad(rm, s):
    n = rm.shape[0]
    v = _gaps_to_v(s)
    ratio = rm * (v[None, :] / v[:, None])  # entry (a, g) carries weight v_g / v_a
    val = float(np.sum(ratio))
    grad = np.empty(n - 1)
    for j in range(n - 1):
        # d/ds_j multiplies entries with g <= j < a by +1 and a <= j < g by -1
        grad[j] = float(np.sum(ratio[j + 1 :, : j + 1]) - np.sum(ratio[: j + 1, j + 1 :]))
    return val, grad


def _gap_coefficient_and_grad(rm, s, j):
    n = rm.shape[0]
    v = _gaps_to_v(s)
    ratio = rm * (v[None, :] / v[:, None])
    block = ratio[j + 1 :, : j + 1]  # rows a > j, cols g <= j
    val = float(np.sum(block))
    grad = np.empty(n - 1)
    for k in range(n - 1):
        plus = np.sum(ratio[j + 1 :, : min(k + 1, j + 1)])
        minus = np.sum(ratio[j + 1 : k + 1, : j + 1])
        grad[k] = float(plus - minus)
    return val, grad


def _multistart_lbfgs(fun, n_vars, rng, n_starts):
    starts = [np.zeros(n_vars)]
    starts += [rng.exponential(scale=1.0, size=n_vars) for _ in range(n_starts - 1)]
    best = None
    for s0 in starts:
        res = scipy.optimize.minimize(
            fun,
            np.clip(s0, 0.0, _GAP_MAX),
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, _GAP_MAX)] * n_vars,
        )
        if best is None or res.fun < best.fun:
            best = res
    return best


def sbc_infimum(rm, n_starts=8, seed=0, unbounded_tol=1e-8, marginal_tol=1e-6):
    """Infimum of ``u_v^t R v`` over the ordered cone, with divergence detection.

    Scale invariance fixes ``v_n = 1``; gap coordinates ``s_j >= 0`` with
    ``v_i = exp(sum_{j>=i} s_j)`` turn the cone into a box.  Scaling gap j by
    ``exp(t)`` splits the objective into ``A e^t + B e^-t + C`` with leading
    coefficient ``A = c_j(v) = sum_{g<=j<a} R[a,g] v_g/v_a``; if descent over
    bases drives any ``c_j`` below ``-unbounded_tol`` the objective is
    unbounded below and the certificate ``(j, v)`` is returned.  Otherwise a
    bounded multistart descent returns the best infimum found; a smallest gap
    coefficient below ``marginal_tol`` flags the result "finite (marginal)".
    """
    rm = np.asarray(rm, dtype=float)
    if rm.ndim != 2 or rm.shape[0] != rm.shape[1] or rm.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {rm.shape}")
    n = rm.shape[0]
    if n == 1:
        return SbcResult(status="finite", inf_val=float(rm[0, 0]), arg=np.array([1.0]))

    rng = np.random.default_rng(seed)
    worst = (np.inf, None, None)  # (coefficient, gap index, base)
    for j in range(n - 1):
        res = _multistart_lbfgs(
            lambda s, _j=j: _gap_coefficient_and_grad(rm, s, _j), n - 1, rng, n_starts
        )
        if res.fun < worst[0]:
            worst = (res.fun, j, _gaps_to_v(res.x))
    if worst[0] < -unbounded_tol:
        cert = DivergenceCertificate(
            gap_index=worst[1], base=worst[2], leading_coefficient=float(worst[0])
        )
        return SbcResult(status="unbounded_below", divergence_certificate=cert)

    res = _multistart_lbfgs(lambda s: _objective_and_grad(rm, s), n - 1, rng, n_starts)
    arg = _gaps_to_v(res.x)
    return SbcResult(
        status="finite",
        inf_val=sbc_value(rm, arg),
        arg=arg,
        marginal=bool(worst[0] < marginal_tol),
        margin=float(worst[0]),
    )


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
        raise ValueError("singular values must be non-increasing")
    lam2 = lam**2
    return float(np.sum(rm * (lam2[:, None] / lam2[None, :])))


# ---------------------------------------------------------------------------
# frame search over the unitary bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RbcBounds:
    """Search bounds for the real bisectional curvature over all frames."""

    inf: float
    sup: float
    inf_frame: np.ndarray
    sup_frame: np.ndarray
    heuristic: bool


def _generator_from_params(params, n):
    """Skew-Hermitian matrix from strict-upper-triangle real parameters.

    Diagonal phase generators are omitted: column phases cancel in the
    diagonal-pair curvature components.
    """
    a = np.zeros((n, n), dtype=complex)
    idx = 0
    for p in range(n):
        for q in range(p + 1, n):
            a[p, q] = params[idx] + 1j * params[idx + 1]
            a[q, p] = -np.conj(a[p, q])
            idx += 2
    return a


def _unitary(params, n):
    """The unitary ``expm`` of the generator with parameters ``params``."""
    return scipy.linalg.expm(_generator_from_params(params, n))


def _frame_search(value, n, cfg, sense):
    """Multistart + coordinate descent over unitary-frame generators.

    ``value(params)`` returns ``(objective, frame)`` for the generator
    parameters ``params``; ``frame`` is what the caller wants back for the
    best parameters, at least ``_unitary(params, n)``.  ``sense`` is +1 to
    maximize and -1 to minimize.  An objective of ``sense * inf`` (an
    unbounded frame) cannot be improved on, so the search returns at the
    first one.  Returns (best objective, its frame).
    """
    rng = np.random.default_rng(cfg.seed)
    n_params = n * (n - 1)
    if n_params == 0:
        return value(np.zeros(1))

    starts = [np.zeros(n_params)]
    starts += [rng.normal(scale=0.5, size=n_params) for _ in range(cfg.n_starts - 1)]
    best_val = best_u = None
    for s0 in starts:
        params = s0.copy()
        val, u = value(params)
        if sense * val == np.inf:
            return val, u
        step = 0.4
        iters = 0
        while step > cfg.step_tol and iters < cfg.max_iter:
            improved = False
            for k in range(n_params):
                for delta in (step, -step):
                    trial = params.copy()
                    trial[k] += delta
                    tval, tu = value(trial)
                    if sense * tval > sense * val + 1e-14:
                        if sense * tval == np.inf:
                            return tval, tu
                        params, val, u = trial, tval, tu
                        improved = True
            if not improved:
                step *= 0.5
            iters += 1
        if iters >= cfg.max_iter and step > cfg.step_tol:
            warnings.warn("frame search hit iteration budget", SearchBudgetExhausted)
        if best_u is None or sense * val > sense * best_val:
            best_val, best_u = val, u
    return best_val, best_u


def rbc_bounds(r, g, cfg=FrameSearchConfig()):
    """Search bounds on the real bisectional curvature of a tensor.

    Extremizes the orthant Rayleigh extrema of the frame matrix over
    unitary frames ``e0 @ exp(skew)``.  The min and max searches share
    their frame evaluations: each generator visited by either search is
    exponentiated, contracted and extremized once.  The orthant extrema in
    each frame are exact; the returned inf/sup are bounds of the search,
    flagged heuristic for n >= 2 (the quantifier over all frames is
    explored, not certified).
    """
    r = np.asarray(r, dtype=complex)
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    e0 = gram_unitary_frame(g)
    memo = {}  # generator parameter bytes -> (U, orthant extrema in the frame e0 @ U)

    def extrema(params):
        key = params.tobytes()
        if key not in memo:
            u = _unitary(params, n)
            memo[key] = (u, orthant_rayleigh_extrema(curvature_in_frame(r, e0 @ u).r_mat))
        return memo[key]

    def min_value(params):
        u, ext = extrema(params)
        return ext.min_val, u

    def max_value(params):
        u, ext = extrema(params)
        return ext.max_val, u

    inf_val, inf_u = _frame_search(min_value, n, cfg, sense=-1)
    sup_val, sup_u = _frame_search(max_value, n, cfg, sense=+1)
    return RbcBounds(
        inf=inf_val,
        sup=sup_val,
        inf_frame=e0 @ inf_u,
        sup_frame=e0 @ sup_u,
        heuristic=n >= 2,
    )


def sbc_bound(r, g, cfg=FrameSearchConfig(), inner_starts=4):
    """Frame-searched infimum of the SBC.

    Unbounded in any visited frame means unbounded overall: the search
    stops at the first such frame and returns it with its divergence
    certificate.
    """
    r = np.asarray(r, dtype=complex)
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    e0 = gram_unitary_frame(g)

    def value(params):
        u = _unitary(params, n)
        res = sbc_infimum(curvature_in_frame(r, e0 @ u).r_mat, n_starts=inner_starts, seed=cfg.seed)
        return (-np.inf if res.status == "unbounded_below" else res.inf_val), (u, res)

    _, (u, res) = _frame_search(value, n, cfg, sense=-1)
    if res.status == "unbounded_below":
        return SbcResult(
            status="unbounded_below",
            divergence_certificate=res.divergence_certificate,
            frame=e0 @ u,
        )
    return SbcResult(
        status="finite",
        inf_val=res.inf_val,
        arg=res.arg,
        marginal=res.marginal,
        margin=res.margin,
        frame=e0 @ u,
    )
