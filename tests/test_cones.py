import itertools

import numpy as np
import pytest
import scipy.optimize

from chernlab import cones
from chernlab.cones import (
    FrameSearchConfig,
    _frame_search,
    _unitary,
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
        res = rbc_bounds(r, m([0.1, 0.2j]), FrameSearchConfig(n_starts=2, max_iter=10))
        assert abs(res.inf) < 1e-8 and abs(res.sup) < 1e-8

    def test_rbc_model_values(self):
        cfg = FrameSearchConfig(n_starts=3, max_iter=15, seed=0)
        fs = catalog_metric("fubini_study", (2,))
        res = rbc_bounds(chern_curvature(fs, [0.0, 0.0]), np.eye(2), cfg)
        assert abs(res.inf - 2.0) < 1e-4 and abs(res.sup - 3.0) < 1e-4
        assert res.heuristic
        ch = catalog_metric("complex_hyperbolic", (2,))
        res = rbc_bounds(chern_curvature(ch, [0.0, 0.0]), np.eye(2), cfg)
        assert abs(res.inf + 3.0) < 1e-4 and abs(res.sup + 2.0) < 1e-4

    def test_rbc_fs_closed_form_n5(self):
        # fubini_study(5) at the origin: inf c = 2, sup c (n + 1) / 2 = 6
        fs = catalog_metric("fubini_study", (5,))
        z = np.zeros(5)
        with pytest.warns(SearchBudgetExhausted):
            res = rbc_bounds(chern_curvature(fs, z), fs(z), FrameSearchConfig(n_starts=1, max_iter=1))
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

        inf_val, inf_u = _frame_search(fresh_value(lambda u: extrema(u).min_val, 2), 2, self.cfg, -1)
        sup_val, sup_u = _frame_search(fresh_value(lambda u: extrema(u).max_val, 2), 2, self.cfg, +1)
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

        _frame_search(fresh_value(objective, 2), 2, self.cfg, -1)
        assert len(hits) > 1
        cert, u = hits[0]
        assert res.status == "unbounded_below"
        assert res.divergence_certificate.gap_index == cert.gap_index
        assert np.array_equal(res.divergence_certificate.base, cert.base)
        assert np.array_equal(res.frame, e0 @ u)
