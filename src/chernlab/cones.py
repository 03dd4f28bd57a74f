"""Cone-constrained extrema of curvature quadratic forms.

Two objects drive the Schwarz-type estimates: the Rayleigh quotient
``v^t R v / v^t v`` of the frame matrix over the nonnegative orthant (RBC)
and the generalized quotient ``u_v^t R v`` with ``u_v`` the Hadamard inverse
of ``v`` over the ordered cone ``v_1 >= ... >= v_n > 0`` (SBC).  Both are
further extremized over the unitary frame bundle by a seeded multistart
coordinate descent on skew-Hermitian generators.

The frame search runs in lockstep: every start, sense (min, max) and
point of one ``rbc_bounds`` or ``sbc_bound`` call advances together, and
the frames they wait on are contracted and extremized as one stack (one
``expm`` per distinct frame).  Each start visits the frames of the starts
run one after another, with the same bits.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import BadParams, DimensionMismatch, SearchBudgetExhausted, ZeroSingularValue
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
            raise BadParams("n_starts must be >= 1")


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
def _face_slots(n):
    """Index data of the KKT candidate slots of R^n, one per (face, eigenvector).

    Slots run over the nonempty coordinate faces in the order of their
    bitmasks 1 .. 2^n - 1 and, within a face, over its eigenvectors in
    ``eigh`` order.  Returns the faces of each size as ``(rows, cols,
    slots)`` index arrays: ``cols[f, 0, :]`` (and ``rows[f, :, 0]``) the
    coordinates of face f, ``slots[f, :, 0]`` its slots; the off-face
    coordinate mask of every slot; and the face tuple of every slot.
    """
    faces = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]
    first = np.cumsum([0] + [len(face) for face in faces])
    by_size = []
    for size in range(1, n + 1):
        index = [k for k, face in enumerate(faces) if len(face) == size]
        cols = np.array([faces[k] for k in index])[:, None, :]
        slots = np.array([first[k] + np.arange(size) for k in index])[:, :, None]
        by_size.append((np.swapaxes(cols, 1, 2), cols, slots))
    slot_faces = tuple(face for face in faces for _ in face)
    off = np.array([[i not in face for i in range(n)] for face in slot_faces])
    return tuple(by_size), off, slot_faces


def orthant_rayleigh_extrema(m):
    """Extrema of the Rayleigh quotient of ``m`` over the nonnegative orthant.

    Only the symmetric part of ``m`` matters (the quotient annihilates the
    antisymmetric part).  The answer is exact for every n, by facial
    enumeration of KKT points: every extremum is a uniform-sign eigenvector
    of the matrix restricted to some coordinate face, and the KKT sign of
    the off-face gradient decides min vs max feasibility.  The cost is one
    symmetric eigendecomposition per nonempty face, 2^n - 1 of them, taken
    as one ``eigh`` per face size.

    ``m`` is one matrix or a stack ``(..., n, n)``; each matrix of a stack
    gets the bits it gets alone.  For a stack the values are arrays over
    the stack, the arg points ``(..., n)``, and ``certificate`` holds one
    ``(min_face, max_face)`` pair per matrix, in the stack's C order.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[-1]
    sym = ((m + np.swapaxes(m, -1, -2)) / 2.0).reshape(-1, n, n)
    kkt_tol = 1e-10 * np.maximum(1.0, np.max(np.abs(sym), axis=(-2, -1)))
    by_size, off, slot_faces = _face_slots(n)

    # every candidate as a vector of R^n, zero off its face: an eigenvector
    # of the face's sub-matrix, sign-flipped into the orthant if it can be
    x = np.zeros((len(sym), len(slot_faces), n))
    uniform = np.zeros(x.shape[:2], dtype=bool)
    for rows, cols, slots in by_size:
        w = np.swapaxes(np.linalg.eigh(sym[:, rows, cols])[1], -1, -2)
        pos, neg = np.all(w >= -1e-12, axis=-1), np.all(w <= 1e-12, axis=-1)
        x[:, slots, cols] = np.clip(np.where((neg & ~pos)[..., None], -w, w), 0.0, None)
        uniform[:, slots[..., 0]] = pos | neg
    # norms, gradients and values row by row, as numpy's 1-d dot and
    # matrix-vector products round them
    norm = np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0, 0]
    valid = uniform & (norm != 0.0)
    x /= np.where(valid, norm, 1.0)[..., None]
    grad = (sym[:, None] @ x[..., :, None])[..., 0]
    value = ((x[..., None, :] @ sym[:, None]) @ x[..., :, None])[..., 0, 0]
    tol = kkt_tol[:, None, None]
    min_ok = valid & np.all((grad >= -tol) | ~off, axis=-1)
    max_ok = valid & np.all((grad <= tol) | ~off, axis=-1)
    lo = np.argmin(np.where(min_ok, value, np.inf), axis=-1)
    hi = np.argmax(np.where(max_ok, value, -np.inf), axis=-1)
    each = np.arange(len(sym))
    lead = m.shape[:-2]
    min_val, max_val = value[each, lo].reshape(lead), value[each, hi].reshape(lead)
    argmin, argmax = x[each, lo].reshape(lead + (n,)), x[each, hi].reshape(lead + (n,))
    certificate = [(slot_faces[a], slot_faces[b]) for a, b in zip(lo.tolist(), hi.tolist())]
    if not lead:
        return OrthantExtremum(float(min_val), float(max_val), argmin, argmax, certificate[0])
    return OrthantExtremum(min_val, max_val, argmin, argmax, certificate)


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
        raise BadParams("singular values must be non-increasing")
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


def _descent(start, cfg, sense):
    """Coordinate descent from one start, as a generator.

    Yields trial generator parameters and is sent the objective of each;
    returns ``(params, objective, exhausted)`` for the best parameters it
    found.  ``sense`` is +1 to maximize and -1 to minimize; an objective of
    ``sense * inf`` (an unbounded frame) cannot be improved on and ends the
    descent at once.
    """
    params = start.copy()
    val = yield params
    if not len(params) or sense * val == np.inf:
        return params, val, False
    step, iters = 0.4, 0
    while step > cfg.step_tol and iters < cfg.max_iter:
        improved = False
        for k in range(len(params)):
            for delta in (step, -step):
                trial = params.copy()
                trial[k] += delta
                tval = yield trial
                if sense * tval > sense * val + 1e-14:
                    params, val, improved = trial, tval, True
                    if sense * val == np.inf:
                        return params, val, False
        if not improved:
            step *= 0.5
        iters += 1
    return params, val, iters >= cfg.max_iter and step > cfg.step_tol


def _frame_search(evaluate, n_points, n, cfg, senses, diverges=False):
    """Multistart coordinate descent over unitary-frame generators, in lockstep.

    There is one search per point and sense (+1 maximizes, -1 minimizes),
    each from the same ``cfg.n_starts`` seeded starts, and each start is a
    ``_descent``.  All of them advance together: at every step the frames
    they wait on are evaluated as one stack, ``evaluate(owners, frames)``
    with the point index of each frame and the unitaries ``expm`` of their
    generators (one ``expm`` per distinct frame of a point).  It returns
    the objectives, one row per frame and one column per sense, and an
    extra value per frame for the caller.  A point's frames are memoized and shared
    between its senses, and every search is resumed with its value, so each
    start visits the frames, and gets the bits, of the starts run in turn.

    An objective of ``sense * inf`` ends its search at the first such frame
    in start order: later starts are dropped.  When the objective can reach
    it (``diverges``), a start begins only once the one before it ended, so
    no frame is evaluated that the starts run in turn would not evaluate.

    Returns, per point, one ``(objective, U, extra)`` per sense, for the
    first best start.  Every start that ran out of ``cfg.max_iter`` before
    its step fell below ``cfg.step_tol`` warns SearchBudgetExhausted, in
    (point, sense, start) order, up to the start that ended its search.
    """
    n_params = n * (n - 1)
    rng = np.random.default_rng(cfg.seed)
    starts = [np.zeros(n_params)]
    if n_params:
        starts += [rng.normal(scale=0.5, size=n_params) for _ in range(cfg.n_starts - 1)]
    searches = [(p, j) for p in range(n_points) for j in range(len(senses))]
    memo = [{} for _ in range(n_points)]  # per point: params bytes -> (U, objectives, extra)
    ended = {}  # (search, start) -> (params, objective, exhausted)
    last_start = {}  # search -> the start that ended it on an unbounded frame

    def launch(s, i):
        run = _descent(starts[i], cfg, senses[searches[s][1]])
        return s, i, run, next(run)

    waiting = [launch(s, i) for s in range(len(searches))
               for i in range(1 if diverges else len(starts))]
    while waiting:
        fresh = {}
        for s, _, _, trial in waiting:
            p = searches[s][0]
            key = trial.tobytes()
            if key not in memo[p]:
                fresh.setdefault((p, key), trial)
        if fresh:
            owners = np.array([p for p, _ in fresh])
            generators = _generators(np.array(list(fresh.values())), n)
            frames = np.array([scipy.linalg.expm(a) for a in generators])
            values, extras = evaluate(owners, frames)
            for (p, key), u, vals, extra in zip(fresh, frames, np.asarray(values).tolist(), extras):
                memo[p][key] = (u, vals, extra)
        resumed = []
        for s, i, run, trial in waiting:  # grows as starts launch
            p, j = searches[s]
            if i > last_start.get(s, i):
                continue
            while (hit := memo[p].get(trial.tobytes())) is not None:
                try:
                    trial = run.send(hit[1][j])
                except StopIteration as stop:
                    ended[s, i] = stop.value
                    if senses[j] * stop.value[1] == np.inf:
                        last_start[s] = min(i, last_start.get(s, i))
                    elif diverges and i + 1 < len(starts):
                        waiting.append(launch(s, i + 1))
                    break
            else:
                resumed.append((s, i, run, trial))
        waiting = [w for w in resumed if w[1] <= last_start.get(w[0], w[1])]

    found = [[None] * len(senses) for _ in range(n_points)]
    for s, (p, j) in enumerate(searches):
        best = None
        for i in range(last_start.get(s, len(starts) - 1) + 1):
            params, val, exhausted = ended[s, i]
            if senses[j] * val == np.inf:
                best = (params, val)
                break
            if exhausted:
                warnings.warn("frame search hit iteration budget", SearchBudgetExhausted)
            if best is None or senses[j] * val > senses[j] * best[1]:
                best = (params, val)
        u, _, extra = memo[p][best[0].tobytes()]
        found[p][j] = (best[1], u, extra)
    return found


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


def rbc_bounds(r, g, cfg=FrameSearchConfig()):
    """Search bounds on the real bisectional curvature of a tensor.

    Extremizes the orthant Rayleigh extrema of the frame matrix over
    unitary frames ``e0 @ exp(skew)``.  The min and max searches share
    their frame evaluations: each generator visited by either search is
    exponentiated, contracted and extremized once.  The orthant extrema in
    each frame are exact; the returned inf/sup are bounds of the search,
    flagged heuristic for n >= 2 (the quantifier over all frames is
    explored, not certified).

    ``r`` and ``g`` are one point's tensor and metric, or stacks
    ``(P, n, n, n, n)`` and ``(P, n, n)`` whose searches all run in
    lockstep (``_frame_search``); a stack gives a list of P bounds, each
    with the bits its point gets alone.
    """
    r, e0, single = _frame_points(r, g)
    n = e0.shape[-1]

    def evaluate(owners, frames):
        ext = orthant_rayleigh_extrema(curvature_in_frame(r[owners], e0[owners] @ frames).r_mat)
        return np.stack([ext.min_val, ext.max_val], axis=-1), [None] * len(frames)

    found = _frame_search(evaluate, len(e0), n, cfg, senses=(-1, +1))
    bounds = [
        RbcBounds(inf=lo, sup=hi, inf_frame=e @ lo_u, sup_frame=e @ hi_u, heuristic=n >= 2)
        for e, ((lo, lo_u, _), (hi, hi_u, _)) in zip(e0, found)
    ]
    return bounds[0] if single else bounds


def sbc_bound(r, g, cfg=FrameSearchConfig(), inner_starts=4):
    """Frame-searched infimum of the SBC.

    Unbounded in any visited frame means unbounded overall: the search
    stops at the first such frame and returns it with its divergence
    certificate.  Each frame runs its own ``sbc_infimum``.  ``r`` and ``g``
    are one point or stacks, as for ``rbc_bounds``; a stack gives a list of
    P results.
    """
    r, e0, single = _frame_points(r, g)
    n = e0.shape[-1]

    def evaluate(owners, frames):
        r_mats = curvature_in_frame(r[owners], e0[owners] @ frames).r_mat
        inner = [sbc_infimum(rm, n_starts=inner_starts, seed=cfg.seed) for rm in r_mats]
        values = [[-np.inf if res.status == "unbounded_below" else res.inf_val] for res in inner]
        return values, inner

    found = _frame_search(evaluate, len(e0), n, cfg, (-1,), diverges=True)
    results = [replace(res, frame=e @ u) for e, ((_, u, res),) in zip(e0, found)]
    return results[0] if single else results
