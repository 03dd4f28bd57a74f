import dataclasses
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from chernlab import cones
from chernlab.cones import (
    FrameSearchConfig,
    RbcBounds,
    _frame_search,
    orthant_rayleigh_extrema,
    rbc_bounds,
    sbc_along_map,
    sbc_bound,
    sbc_infimum,
    sbc_value,
)
from chernlab.curvature import chern_curvature
from chernlab.errors import BadParams, DimensionMismatch, SearchBudgetExhausted, ZeroSingularValue
from chernlab.metrics import catalog_metric
from chernlab.tensors import curvature_in_frame, gram_unitary_frame
from test_tensors import fs_normal_form, rand_unitary


def simplex_lattice(n, resolution):
    """Unit-normalized points of the simplex lattice with ``resolution`` steps per edge."""
    pts = []
    for bars in itertools.combinations(range(resolution + n - 1), n - 1):
        edges = (-1,) + bars + (resolution + n - 1,)
        pts.append([edges[i + 1] - edges[i] - 1 for i in range(n)])
    x = np.array(pts, dtype=float)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def simplex_grid_extrema(sym, resolution=120):
    """Brute-force Rayleigh extrema over a simplex lattice (oracle)."""
    x = simplex_lattice(sym.shape[0], resolution)
    vals = np.einsum("pi,ij,pj->p", x, sym, x)
    return float(np.min(vals)), float(np.max(vals))


def polished_min(sym, x0):
    """Local minimum of the Rayleigh quotient on the simplex, by SLSQP from ``x0`` (oracle)."""
    res = scipy.optimize.minimize(
        lambda x: float(x @ sym @ x) / float(x @ x),
        x0 / np.sum(x0),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * len(x0),
        constraints=[{"type": "eq", "fun": lambda x: np.sum(x) - 1.0}],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    return float(res.fun)


class TestOrthantExtrema:
    def test_diagonal(self):
        ext = orthant_rayleigh_extrema(np.diag([1.0, -1.0]))
        assert ext.min_val == -1.0 and ext.max_val == 1.0
        assert np.allclose(ext.argmin, [0, 1]) and np.allclose(ext.argmax, [1, 0])

    def test_fs_frame_matrix(self):
        ext = orthant_rayleigh_extrema(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(ext.min_val - 2.0) < 1e-12
        assert abs(ext.max_val - 3.0) < 1e-12
        assert np.allclose(np.abs(ext.argmax), [1, 1] / np.sqrt(2))

    def test_negative_offdiagonal(self):
        # orthant min is -3 at (1,1)/sqrt2; max 0 on the axes (eigenvalue 3 unreachable)
        ext = orthant_rayleigh_extrema(np.array([[0.0, -3.0], [-3.0, 0.0]]))
        assert abs(ext.min_val + 3.0) < 1e-12
        assert abs(ext.max_val) < 1e-12

    def test_antisymmetric_part_annihilated(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            a = rng.standard_normal((3, 3))
            a = a - a.T
            base = orthant_rayleigh_extrema(m)
            shifted = orthant_rayleigh_extrema(m + a)
            assert abs(base.min_val - shifted.min_val) < 1e-12
            assert abs(base.max_val - shifted.max_val) < 1e-12

    def test_exact_vs_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = rng.standard_normal((3, 3))
            sym = (m + m.T) / 2
            ext = orthant_rayleigh_extrema(sym)
            grid_min, grid_max = simplex_grid_extrema(sym)
            assert ext.min_val <= grid_min + 1e-12
            assert ext.max_val >= grid_max - 1e-12
            assert grid_min - ext.min_val < 5e-3
            assert ext.max_val - grid_max < 5e-3

    def test_value_consistency_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            ext = orthant_rayleigh_extrema(m)
            sym = (m + m.T) / 2
            assert abs(float(ext.argmin @ sym @ ext.argmin) - ext.min_val) < 1e-10
            assert abs(float(ext.argmax @ sym @ ext.argmax) - ext.max_val) < 1e-10
            assert abs(np.linalg.norm(ext.argmin) - 1.0) < 1e-12
            assert np.all(ext.argmin >= 0) and np.all(ext.argmax >= 0)

    @pytest.mark.parametrize("n, resolution", [(5, 16), (6, 10)])
    def test_exact_above_four(self, n, resolution):
        rng = np.random.default_rng(3)
        lattice = simplex_lattice(n, resolution)
        for k in range(6):
            m = rng.standard_normal((n, n))
            # a negative all-ones shift pulls the minimizer onto the full face
            sym = (m + m.T) / 2 - (3.0 if k % 2 else 0.0) * np.ones((n, n))
            ext = orthant_rayleigh_extrema(sym)
            for val, arg in ((ext.min_val, ext.argmin), (ext.max_val, ext.argmax)):
                assert abs(float(arg @ sym @ arg) - val) < 1e-10
                assert abs(np.linalg.norm(arg) - 1.0) < 1e-12 and np.all(arg >= 0)
            eigs = np.linalg.eigvalsh(sym)
            assert eigs[0] - 1e-9 <= ext.min_val <= np.min(np.diag(sym)) + 1e-9
            assert np.max(np.diag(sym)) - 1e-9 <= ext.max_val <= eigs[-1] + 1e-9
            # no lattice point beats the extrema, and a local polish from the
            # best lattice points lands on them
            vals = np.einsum("pi,ij,pj->p", lattice, sym, lattice)
            assert ext.min_val <= np.min(vals) + 1e-12 and ext.max_val >= np.max(vals) - 1e-12
            assert abs(polished_min(sym, lattice[np.argmin(vals)]) - ext.min_val) < 1e-9
            assert abs(-polished_min(-sym, lattice[np.argmax(vals)]) - ext.max_val) < 1e-9

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatch):
            orthant_rayleigh_extrema(np.zeros((2, 3)))


class TestSbcInfimum:
    def test_scalar(self):
        res = sbc_infimum(np.array([[-2.0]]))
        assert res.status == "finite" and res.inf_val == -2.0

    def test_fs_matrix(self):
        res = sbc_infimum(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert res.status == "finite"
        assert abs(res.inf_val - 6.0) < 1e-8
        assert np.allclose(res.arg, [1.0, 1.0], atol=1e-5)

    def test_hyperbolic_unbounded(self):
        res = sbc_infimum(-np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert res.status == "unbounded_below"
        cert = res.divergence_certificate
        assert cert.gap_index == 0
        # certified family diverges: decreasing at t = 5, 10 and below -1e6 at 20
        rm = -np.array([[2.0, 1.0], [1.0, 2.0]])
        v5 = sbc_value(rm, cert.family(5.0))
        v10 = sbc_value(rm, cert.family(10.0))
        v20 = sbc_value(rm, cert.family(20.0))
        assert v10 < v5 < sbc_value(rm, cert.base)
        assert v20 < -1e6

    def test_unboundedness_soundness_random(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(30):
            rm = rng.standard_normal((3, 3))
            res = sbc_infimum(rm, seed=0)
            if res.status == "unbounded_below":
                hits += 1
                assert sbc_value(rm, res.divergence_certificate.family(20.0)) < -1e6
            else:
                assert res.inf_val is not None
                assert abs(sbc_value(rm, res.arg) - res.inf_val) < 1e-8
        assert hits > 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        rm = rng.standard_normal((3, 3))
        v = np.array([3.0, 2.0, 1.0])
        base = sbc_value(rm, v)
        for c in (1e-3, 1.0, 1e3):
            assert abs(sbc_value(rm, c * v) - base) < 1e-12 * max(1.0, abs(base))

    def test_ordered_arg(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rm = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            res = sbc_infimum(rm, seed=0)
            if res.status == "finite":
                assert np.all(np.diff(res.arg) <= 1e-12)
                assert res.arg[-1] == pytest.approx(1.0)


class TestSbcAlongMap:
    def test_constant_lambdas_full_sum(self):
        rng = np.random.default_rng(7)
        rm = rng.standard_normal((3, 3))
        assert abs(sbc_along_map(rm, [2.0, 2.0, 2.0]) - np.sum(rm)) < 1e-12

    def test_fs_values(self):
        rm = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert abs(sbc_along_map(rm, [2.0, 1.0]) - 8.25) < 1e-12

    def test_zero_matrix(self):
        assert sbc_along_map(np.zeros((2, 2)), [3.0, 1.0]) == 0.0

    def test_rejections(self):
        with pytest.raises(ZeroSingularValue):
            sbc_along_map(np.eye(2), [1.0, 0.0])
        with pytest.raises(BadParams):
            sbc_along_map(np.eye(2), [1.0, 2.0])

    def test_matches_transposed_sbc_value(self):
        rng = np.random.default_rng(8)
        rm = rng.standard_normal((3, 3))
        lam = np.array([2.0, 1.5, 0.5])
        assert abs(sbc_along_map(rm, lam) - sbc_value(rm.T, lam**2)) < 1e-12


class TestFrameSearch:
    def test_rbc_euclidean(self):
        m = catalog_metric("euclidean", (2,))
        r = chern_curvature(m, [0.1, 0.2j])
        with pytest.warns(SearchBudgetExhausted) as budget:
            res = rbc_bounds(r, m([0.1, 0.2j]), FrameSearchConfig(n_starts=2, max_iter=10))
        assert len(budget) == 4  # every start of both searches
        assert abs(res.inf) < 1e-8 and abs(res.sup) < 1e-8

    def test_rbc_model_values(self):
        cfg = FrameSearchConfig(n_starts=3, max_iter=15, seed=0)
        fs = catalog_metric("fubini_study", (2,))
        with pytest.warns(SearchBudgetExhausted) as budget:
            res = rbc_bounds(chern_curvature(fs, [0.0, 0.0]), np.eye(2), cfg)
        assert len(budget) == 1
        assert abs(res.inf - 2.0) < 1e-4 and abs(res.sup - 3.0) < 1e-4
        assert res.heuristic
        ch = catalog_metric("complex_hyperbolic", (2,))
        with pytest.warns(SearchBudgetExhausted) as budget:
            res = rbc_bounds(chern_curvature(ch, [0.0, 0.0]), np.eye(2), cfg)
        assert len(budget) == 1
        assert abs(res.inf + 3.0) < 1e-4 and abs(res.sup + 2.0) < 1e-4

    def test_rbc_fs_closed_form_n5(self):
        # fubini_study(5) at the origin: inf c = 2, sup c (n + 1) / 2 = 6
        fs = catalog_metric("fubini_study", (5,))
        z = np.zeros(5)
        with pytest.warns(SearchBudgetExhausted) as budget:
            res = rbc_bounds(chern_curvature(fs, z), fs(z), FrameSearchConfig(n_starts=1, max_iter=1))
        assert len(budget) == 2
        assert abs(res.inf - 2.0) < 1e-4 and abs(res.sup - 6.0) < 1e-4

    def test_frame_invariance_spread(self):
        # U(n)-invariant tensor: extrema identical across 50 random frames
        rng = np.random.default_rng(9)
        r = fs_normal_form(2)
        vals = []
        for _ in range(50):
            fm = curvature_in_frame(r, rand_unitary(2, rng))
            ext = orthant_rayleigh_extrema(fm.r_mat)
            vals.append((ext.min_val, ext.max_val))
        vals = np.array(vals)
        assert np.ptp(vals[:, 0]) < 1e-6 and np.ptp(vals[:, 1]) < 1e-6

    def test_sbc_bound_values(self):
        cfg = FrameSearchConfig(n_starts=3, max_iter=15, seed=0)
        eu = catalog_metric("euclidean", (2,))
        res = sbc_bound(chern_curvature(eu, [0.0, 0.0]), np.eye(2), cfg)
        assert res.status == "finite" and abs(res.inf_val) < 1e-6
        fs = catalog_metric("fubini_study", (2,))
        res = sbc_bound(chern_curvature(fs, [0.0, 0.0]), np.eye(2), cfg)
        assert res.status == "finite" and abs(res.inf_val - 6.0) < 1e-3
        ch = catalog_metric("complex_hyperbolic", (2,))
        res = sbc_bound(chern_curvature(ch, [0.0, 0.0]), np.eye(2), cfg)
        assert res.status == "unbounded_below"
        assert res.divergence_certificate is not None


def _unitary(params, n):
    """``expm`` of the skew-Hermitian generator with parameters ``params``,
    built one entry at a time as the sequential search built it."""
    a = np.zeros((n, n), dtype=complex)
    idx = 0
    for p in range(n):
        for q in range(p + 1, n):
            a[p, q] = params[idx] + 1j * params[idx + 1]
            a[q, p] = -np.conj(a[p, q])
            idx += 2
    return scipy.linalg.expm(a)


def fresh_value(objective, n):
    """Frame-search value of ``objective(U)``, sharing nothing between calls."""

    def value(params):
        u = _unitary(params, n)
        return objective(u), u

    return value


class TestFrameSearchWork:
    """Shared RBC evaluations and the SBC early exit give the same answers."""

    cfg = FrameSearchConfig(n_starts=4, max_iter=25, seed=7)

    @pytest.mark.parametrize(
        "name, point",
        [("fubini_study", [0.0, 0.0]), ("hopf", [1.0, 0.5]), ("complex_hyperbolic", [0.0, 0.0])],
    )
    def test_rbc_bounds_match_independent_searches(self, name, point):
        metric = catalog_metric(name, (2,))
        r, g = chern_curvature(metric, point), metric(point)
        e0 = gram_unitary_frame(g)

        def extrema(u):
            return orthant_rayleigh_extrema(curvature_in_frame(r, e0 @ u).r_mat)

        inf_val, inf_u = _sequential_frame_search(fresh_value(lambda u: extrema(u).min_val, 2), 2, self.cfg, -1)
        sup_val, sup_u = _sequential_frame_search(fresh_value(lambda u: extrema(u).max_val, 2), 2, self.cfg, +1)
        res = rbc_bounds(r, g, self.cfg)
        assert res.inf == inf_val and res.sup == sup_val
        assert np.array_equal(res.inf_frame, e0 @ inf_u)
        assert np.array_equal(res.sup_frame, e0 @ sup_u)

    def test_sbc_bound_stops_at_first_unbounded_frame(self, monkeypatch):
        metric = catalog_metric("complex_hyperbolic", (2,))
        r, g = chern_curvature(metric, [0.0, 0.0]), metric([0.0, 0.0])
        e0 = gram_unitary_frame(g)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sbc_infimum(*args, **kwargs)

        monkeypatch.setattr(cones, "sbc_infimum", counted)
        res = sbc_bound(r, g, self.cfg)
        monkeypatch.undo()
        assert len(calls) == 1

        # the search without the early exit: unbounded frames score a finite
        # -1e300, so it runs its whole budget and keeps the first hit
        hits = []

        def objective(u):
            inner = sbc_infimum(curvature_in_frame(r, e0 @ u).r_mat, n_starts=4, seed=self.cfg.seed)
            if inner.status == "unbounded_below":
                hits.append((inner.divergence_certificate, u))
                return -1e300
            return inner.inf_val

        _sequential_frame_search(fresh_value(objective, 2), 2, self.cfg, -1)
        assert len(hits) > 1
        cert, u = hits[0]
        assert res.status == "unbounded_below"
        assert res.divergence_certificate.gap_index == cert.gap_index
        assert np.array_equal(res.divergence_certificate.base, cert.base)
        assert np.array_equal(res.frame, e0 @ u)


# ---------------------------------------------------------------------------
# the frame search as it ran one start after another, kept for reference
# ---------------------------------------------------------------------------


def _sequential_frame_search(value, n, cfg, sense):
    """One start after another: ``value(params)`` gives ``(objective, frame)``."""
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


def _orthant_loop(m):
    """Orthant extrema one face and one eigenvector at a time: (min, max)."""
    sym = (m + m.T) / 2.0
    n = sym.shape[0]
    kkt_tol = 1e-10 * max(1.0, float(np.max(np.abs(sym))))
    mins, maxs = [], []
    for mask in range(1, 1 << n):
        face = [i for i in range(n) if mask >> i & 1]
        off = [i for i in range(n) if not mask >> i & 1]
        vecs = np.linalg.eigh(sym[np.ix_(face, face)])[1]
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
                mins.append((value, x, tuple(face)))
            if grad_off.size == 0 or np.all(grad_off <= kkt_tol):
                maxs.append((value, x, tuple(face)))
    return min(mins, key=lambda t: t[0]), max(maxs, key=lambda t: t[0])


def _rbc_reference(r, g, cfg):
    """``rbc_bounds`` of one point with the sequential search and face loop."""
    n = g.shape[0]
    e0 = gram_unitary_frame(g)
    memo = {}

    def extrema(params):
        key = params.tobytes()
        if key not in memo:
            u = _unitary(params, n)
            memo[key] = (u, _orthant_loop(curvature_in_frame(r, e0 @ u).r_mat))
        return memo[key]

    inf_val, inf_u = _sequential_frame_search(lambda p: (extrema(p)[1][0][0], extrema(p)[0]), n, cfg, -1)
    sup_val, sup_u = _sequential_frame_search(lambda p: (extrema(p)[1][1][0], extrema(p)[0]), n, cfg, +1)
    return RbcBounds(inf_val, sup_val, e0 @ inf_u, e0 @ sup_u, n >= 2)


def _sbc_reference(r, g, cfg, inner_starts):
    """``sbc_bound`` of one point with the sequential search."""
    n = g.shape[0]
    e0 = gram_unitary_frame(g)

    def value(params):
        u = _unitary(params, n)
        res = sbc_infimum(curvature_in_frame(r, e0 @ u).r_mat, n_starts=inner_starts, seed=cfg.seed)
        return (-np.inf if res.status == "unbounded_below" else res.inf_val), (u, res)

    _, (u, res) = _sequential_frame_search(value, n, cfg, -1)
    return dataclasses.replace(res, frame=e0 @ u)


def _budget_warnings(fn):
    """``fn()`` and the number of SearchBudgetExhausted warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SearchBudgetExhausted)
        out = fn()
    return out, sum(issubclass(w.category, SearchBudgetExhausted) for w in caught)


def _same(a, b):
    """Bit-identical field by field (arrays, floats, nested dataclasses)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return type(a) is type(b) and (a == b or np.asarray(a).tobytes() == np.asarray(b).tobytes())


MODELS = {
    "fubini_study": lambda n: (n,),
    "complex_hyperbolic": lambda n: (n,),
    "hopf": lambda n: (n,),
    "polydisk": lambda n: (1.0,) * n,
}


def _two_points(name, n, seed):
    """Tensors and metrics of ``name`` at two seeded points, as stacks."""
    metric = catalog_metric(name, MODELS[name](n))
    rng = np.random.default_rng(seed)
    z = 0.3 * (rng.random((2, n)) + 1j * rng.random((2, n)))
    if name == "hopf":
        z += 0.5
    return np.array([chern_curvature(metric, p) for p in z]), metric(z)


class TestOrthantStack:
    def test_matches_face_loop(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 4):
            ms = rng.standard_normal((40, n, n))
            ms[::5] = np.round(ms[::5])  # ties between faces
            ms[::9] = 0.0
            stacked = orthant_rayleigh_extrema(ms)
            for k, m in enumerate(ms):
                (lo, lo_x, lo_face), (hi, hi_x, hi_face) = _orthant_loop(m)
                alone = orthant_rayleigh_extrema(m)
                assert _same(alone.min_val, lo) and _same(alone.max_val, hi)
                assert _same(alone.argmin, lo_x) and _same(alone.argmax, hi_x)
                assert alone.certificate == (lo_face, hi_face) == stacked.certificate[k]
                assert _same(stacked.min_val[k], np.float64(lo))
                assert _same(stacked.max_val[k], np.float64(hi))
                assert _same(stacked.argmin[k], lo_x) and _same(stacked.argmax[k], hi_x)


class TestLockstepSearch:
    """The lockstep search against the sequential search it replaced."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rbc_matches_sequential(self, name, n, seed):
        r, g = _two_points(name, n, seed)
        cfg = FrameSearchConfig(n_starts=3, max_iter=12 if n == 2 else 5, seed=seed)
        stacked, warned = _budget_warnings(lambda: rbc_bounds(r, g, cfg))
        alone = [_budget_warnings(lambda p=p: rbc_bounds(r[p], g[p], cfg)) for p in range(2)]
        ref = [_budget_warnings(lambda p=p: _rbc_reference(r[p], g[p], cfg)) for p in range(2)]
        for p in range(2):
            assert _same(stacked[p], ref[p][0]) and _same(alone[p][0], ref[p][0])
            assert alone[p][1] == ref[p][1]
        assert warned == ref[0][1] + ref[1][1]

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sbc_matches_sequential(self, name, n, seed):
        r, g = _two_points(name, n, seed)
        cfg = FrameSearchConfig(n_starts=2, max_iter=4 if n == 2 else 1, seed=seed)
        stacked, warned = _budget_warnings(lambda: sbc_bound(r, g, cfg, inner_starts=2))
        ref = [_budget_warnings(lambda p=p: _sbc_reference(r[p], g[p], cfg, 2)) for p in range(2)]
        for p in range(2):
            assert _same(stacked[p], ref[p][0])
        alone, alone_warned = _budget_warnings(lambda: sbc_bound(r[1], g[1], cfg, inner_starts=2))
        assert _same(alone, stacked[1]) and alone_warned == ref[1][1]
        assert warned == ref[0][1] + ref[1][1]

    def test_one_expm_per_distinct_frame(self, monkeypatch):
        # the traced frame-evaluation count is the number of expm calls:
        # the distinct frames of each point, shared by its min and max searches
        r, g = _two_points("hopf", 2, 4)
        cfg = FrameSearchConfig(n_starts=3, max_iter=10, seed=4)
        calls = []

        def counted(a, _expm=scipy.linalg.expm):
            calls.append(a.tobytes())
            return _expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        for p in range(2):
            _budget_warnings(lambda p=p: _rbc_reference(r[p], g[p], cfg))
        sequential, calls[:] = len(calls), []
        _budget_warnings(lambda: rbc_bounds(r, g, cfg))
        # the two points visit the same generators, each exponentiated per point
        assert len(calls) == sequential and len(set(calls)) < len(calls)

    @pytest.mark.parametrize("diverges", [False, True])
    def test_later_start_diverging_first_loses_to_earlier_start(self, diverges):
        # each start visits 25 frames under this finite objective; making
        # frame 2 of start 2 and frame 20 of start 1 unbounded, start 2 hits
        # first in lockstep, but start 1's hit is the one sequential order
        # returns
        cfg = FrameSearchConfig(n_starts=3, max_iter=6, seed=5)

        def objective(u):
            return float(np.real(u[0, 1]) + np.imag(u[1, 0]) ** 2)

        visits = []
        _, warned = _budget_warnings(lambda: _sequential_frame_search(
            lambda p: (objective(_unitary(p, 2)), visits.append(p)), 2, cfg, -1))
        assert len(visits) == 75 and warned == 3
        marked = {_unitary(visits[25 + 20], 2).tobytes(), _unitary(visits[50 + 2], 2).tobytes()}

        def value(params):
            u = _unitary(params, 2)
            return (-np.inf if u.tobytes() in marked else objective(u)), u

        seen = []

        def evaluate(owners, frames):
            seen.extend(u.tobytes() for u in frames)
            values = [[-np.inf if u.tobytes() in marked else objective(u)] for u in frames]
            return values, [None] * len(frames)

        want_val, want_u = value(visits[45])
        # start 0 runs out of budget before start 1 diverges, in both orders
        got, warned = _budget_warnings(lambda: _sequential_frame_search(value, 2, cfg, -1))
        assert got[1].tobytes() == want_u.tobytes() and warned == 1
        found, warned = _budget_warnings(lambda: _frame_search(evaluate, 1, 2, cfg, (-1,), diverges))
        ((val, u, _),) = found[0]
        assert warned == 1
        assert val == want_val == -np.inf and _same(u, want_u)
        # lockstep saw start 2 diverge; with diverging objectives the starts
        # run in turn and evaluate only what the sequential search did
        sequential = {_unitary(p, 2).tobytes() for p in visits[:46]}
        assert (_unitary(visits[52], 2).tobytes() in seen) is not diverges
        if diverges:
            assert sorted(seen) == sorted(sequential)
