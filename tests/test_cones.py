import dataclasses
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import oracles
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
from chernlab.metrics import catalog_metric, scale_metric
from chernlab.scenario import box_grid
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
            res = sbc_infimum(rm)
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
            res = sbc_infimum(rm)
            if res.status == "finite":
                assert np.all(np.diff(res.arg) <= 1e-12)
                assert res.arg[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the multistart L-BFGS-B inner solve that the exact one replaced, kept for reference
# ---------------------------------------------------------------------------


def _lbfgs_gaps_to_v(s):
    return np.exp(np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]]))


def _lbfgs_objective_and_grad(rm, s):
    v = _lbfgs_gaps_to_v(s)
    ratio = rm * (v[None, :] / v[:, None])
    grad = [np.sum(ratio[j + 1 :, : j + 1]) - np.sum(ratio[: j + 1, j + 1 :]) for j in range(len(s))]
    return float(np.sum(ratio)), np.array(grad)


def _lbfgs_gap_coefficient_and_grad(rm, s, j):
    v = _lbfgs_gaps_to_v(s)
    ratio = rm * (v[None, :] / v[:, None])
    grad = [np.sum(ratio[j + 1 :, : min(k + 1, j + 1)]) - np.sum(ratio[j + 1 : k + 1, : j + 1])
            for k in range(len(s))]
    return float(np.sum(ratio[j + 1 :, : j + 1])), np.array(grad)


def _lbfgs_reference(rm, n_starts=8, seed=0):
    """``(status, inf_val)`` of the ordered-cone infimum by multistart L-BFGS-B
    over the gap box: unbounded when a gap coefficient reaches -1e-8."""
    n = rm.shape[0]
    rng = np.random.default_rng(seed)

    def minimize(fun):
        starts = [np.zeros(n - 1)] + [rng.exponential(size=n - 1) for _ in range(n_starts - 1)]
        runs = [scipy.optimize.minimize(fun, np.clip(s0, 0.0, 40.0), jac=True, method="L-BFGS-B",
                                        bounds=[(0.0, 40.0)] * (n - 1)) for s0 in starts]
        return min(runs, key=lambda res: res.fun)

    coefficient = min(minimize(lambda s, j=j: _lbfgs_gap_coefficient_and_grad(rm, s, j)).fun
                      for j in range(n - 1))
    if coefficient < -1e-8:
        return "unbounded_below", None
    return "finite", minimize(lambda s: _lbfgs_objective_and_grad(rm, s)).fun


class TestExactInnerSolve:
    def test_two_by_two_closed_form(self):
        # v = (1, x) up to scale: c + R01 x + R10 / x over x in [e^-40, 1]
        rng = np.random.default_rng(20)
        hits = 0
        for k in range(200):
            rm = rng.standard_normal((2, 2))
            if k % 4 == 0:
                rm[rng.integers(2), 1 - rng.integers(2)] = 0.0
            res = sbc_infimum(rm)
            if rm[1, 0] < 0.0:
                assert res.status == "unbounded_below"
                hits += 1
                continue
            xs = [np.exp(-40.0), 1.0]
            if rm[0, 1] > 0.0 and rm[1, 0] > 0.0:
                xs.append(min(max(np.sqrt(rm[1, 0] / rm[0, 1]), np.exp(-40.0)), 1.0))
            want = min(np.trace(rm) + rm[0, 1] * x + rm[1, 0] / x for x in xs)
            assert res.status == "finite"
            assert abs(res.inf_val - want) <= 1e-12 * max(1.0, abs(want))
        assert 0 < hits < 200

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_lbfgs_reference(self, n):
        # plain, diagonally shifted and entrywise nonnegative matrices
        rng = np.random.default_rng(21 + n)
        unbounded = finite = 0
        for k in range(75):
            rm = rng.standard_normal((n, n))
            rm = [rm, rm + 3.0 * np.eye(n), np.abs(rm)][k % 3]
            res = sbc_infimum(rm)
            status, value = _lbfgs_reference(rm)
            assert res.status == status
            if status == "finite":
                finite += 1
                assert res.inf_val <= value + 1e-10 * max(1.0, abs(value))
                assert abs(sbc_value(rm, res.arg) - res.inf_val) <= 1e-12 * max(1.0, abs(value))
            else:
                unbounded += 1
                assert sbc_value(rm, res.divergence_certificate.family(20.0)) < -1e6
        assert unbounded and finite

    def test_noise_below_the_zero_tolerance_certifies_nothing(self):
        # hopf-like rows alpha_a with alpha_3 = 0, and noise of 1e-10 on the
        # last row: its gap coefficients vanish, so the infimum is finite and
        # marginal, at the boundary value (sum sqrt alpha)^2 = 4
        rm = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [-1e-10, 1e-10, -1e-10]])
        res = sbc_infimum(rm)
        assert res.status == "finite" and res.marginal and res.margin == 0.0
        assert abs(res.inf_val - 4.0) < 1e-12


class TestSbcOracles:
    """SBC of the homogeneous models, closed forms of ``tests/oracles.py``."""

    def test_hopf3_is_four_and_marginal(self):
        # SBC(hopf(n)) = (n - 1)^2, approached but not attained: in a unitary
        # frame R[a, g] = alpha_a with sum alpha = n - 1, and the bound is
        # reached as alpha -> (1, ..., 1, 0) and v_n -> 0
        metric = catalog_metric("hopf", (3,))
        z = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.3j, 0.7, -0.2]])
        r = np.array([chern_curvature(metric, p) for p in z])
        warned = 0
        for seed in range(3):
            cfg = FrameSearchConfig(n_starts=6, seed=seed)
            found, count = _budget_warnings(lambda: sbc_bound(r, metric(z), cfg))
            warned += count
            for res in found:
                assert res.status == "finite" and res.marginal
                assert abs(res.inf_val - 4.0) < 1e-6
        assert warned == 1

    def test_fubini_study3_is_twelve(self):
        # SBC(fubini_study(n)) = n (n + 1), attained at v = 1 in every frame
        metric = catalog_metric("fubini_study", (3,))
        z = np.zeros(3)
        res = sbc_bound(chern_curvature(metric, z), metric(z))
        assert res.status == "finite" and not res.marginal
        assert abs(res.inf_val - 12.0) < 1e-8


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
    # RBC searches its frames for n >= 3 only, so its search cases run at n = 3

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_config_rejects_a_bad_seed(self, seed):
        # a negative seed used to pass the config and fail in numpy's
        # generator, as a bare ValueError, once a search started
        with pytest.raises(BadParams, match="seed must be an integer >= 0"):
            FrameSearchConfig(seed=seed)
        assert FrameSearchConfig(seed=np.int64(3)).seed == 3

    def test_negative_seed_never_reaches_a_search(self):
        fs = catalog_metric("fubini_study", (3,))
        with pytest.raises(BadParams):
            sbc_bound(chern_curvature(fs, np.zeros(3)), fs(np.zeros(3)), FrameSearchConfig(seed=-1))

    def test_rbc_euclidean(self):
        m = catalog_metric("euclidean", (3,))
        z = [0.1, 0.2j, -0.3]
        with pytest.warns(SearchBudgetExhausted) as budget:
            res = rbc_bounds(chern_curvature(m, z), m(z), FrameSearchConfig(n_starts=2, max_iter=10))
        assert len(budget) == 4  # every start of both searches
        assert abs(res.inf) < 1e-8 and abs(res.sup) < 1e-8

    def test_rbc_model_values(self):
        # at the origin of fubini_study(3) RBC spans [2, 4], of complex_hyperbolic(3) [-4, -2]
        cfg = FrameSearchConfig(n_starts=3, max_iter=15, seed=0)
        fs = catalog_metric("fubini_study", (3,))
        with pytest.warns(SearchBudgetExhausted) as budget:
            res = rbc_bounds(chern_curvature(fs, np.zeros(3)), np.eye(3), cfg)
        assert len(budget) == 2
        assert abs(res.inf - 2.0) < 1e-4 and abs(res.sup - 4.0) < 1e-4
        assert res.heuristic
        ch = catalog_metric("complex_hyperbolic", (3,))
        with pytest.warns(SearchBudgetExhausted) as budget:
            res = rbc_bounds(chern_curvature(ch, np.zeros(3)), np.eye(3), cfg)
        assert len(budget) == 2
        assert abs(res.inf + 4.0) < 1e-4 and abs(res.sup + 2.0) < 1e-4

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


def _witnessed(r, res):
    """The orthant extrema in the witness frames of ``res``: (inf, sup)."""
    lo = orthant_rayleigh_extrema(curvature_in_frame(r, res.inf_frame).r_mat).min_val
    hi = orthant_rayleigh_extrema(curvature_in_frame(r, res.sup_frame).r_mat).max_val
    return lo, hi


class TestExactRbcTwo:
    """RBC at n = 2: one Lorentz-cone solve per point, with no frame search."""

    @pytest.mark.parametrize(
        "tensor, metric, point, want",
        [
            # at both fubini_study points the sphere problem is the hard case
            (oracles.fs_tensor, oracles.fs_metric, [0.0, 0.0], (2.0, 3.0)),
            (oracles.fs_tensor, oracles.fs_metric, [0.3 + 0.1j, -0.2], (2.0, 3.0)),
            (oracles.hyperbolic_tensor, oracles.hyperbolic_metric, [0.3 + 0.1j, -0.2], (-3.0, -2.0)),
            (oracles.hopf_tensor, oracles.hopf_metric, [1.0, 0.5], (0.0, (1.0 + np.sqrt(2.0)) / 2.0)),
        ],
    )
    def test_closed_forms(self, tensor, metric, point, want):
        z = np.asarray(point, dtype=complex)
        r = tensor(z)
        res = rbc_bounds(r, metric(z))
        assert not res.heuristic
        assert abs(res.inf - want[0]) < 1e-12 and abs(res.sup - want[1]) < 1e-12
        lo, hi = _witnessed(r, res)
        assert abs(lo - res.inf) < 1e-12 and abs(hi - res.sup) < 1e-12

    def test_hard_case_off_the_secular_roots(self):
        # in the frame coordinates c of A = (c0 I + c.sigma) / sqrt(2), RBC is
        # c^t M c / |c|^2; on the cone's boundary c = (1, u) with b = (0, .2, .3)
        # orthogonal to the least eigenvector of C = diag(0, 1, 2), the least
        # value 1/2 (m00 - .2^2 / 1 - .3^2 / 2) lies at u = (+-sqrt(.9375), -.2, -.15),
        # which no root of the secular equation gives
        pauli = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        m = np.array([[1.0, 0.0, 0.2, 0.3], [0.0, 0.0, 0.0, 0.0], [0.2, 0.0, 1.0, 0.0], [0.3, 0.0, 0.0, 2.0]])
        r = np.einsum("ab,aij,bkl->ijkl", m, pauli, pauli) / 2.0
        res = rbc_bounds(r, np.eye(2))
        assert abs(res.inf - 0.4575) < 1e-12
        assert abs(_witnessed(r, res)[0] - res.inf) < 1e-12

    def test_scaled_polydisk(self):
        # 3 polydisk(1, 1): RBC spans [-2/3, -1/3]; the tensor comes from the FD stencils
        metric = scale_metric(catalog_metric("polydisk", (1.0, 1.0)), 3.0)
        z = [0.1, -0.2j]
        res = rbc_bounds(chern_curvature(metric, z), metric(z))
        assert abs(res.inf + 2.0 / 3.0) < 1e-8 and abs(res.sup + 1.0 / 3.0) < 1e-8

    def test_random_tensors_bracket_the_search(self):
        # conjugation-symmetric tensors with random metrics: the search only
        # reaches values the exact solve brackets, and comes within 1e-7
        rng = np.random.default_rng(16)
        shape = (300, 2, 2, 2, 2)
        r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        r = (r + np.conj(np.transpose(r, (0, 2, 1, 4, 3)))) / 2.0
        a = rng.standard_normal((300, 2, 2)) + 1j * rng.standard_normal((300, 2, 2))
        g = a @ np.conj(np.swapaxes(a, -1, -2)) + 0.5 * np.eye(2)
        exact = rbc_bounds(r, g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SearchBudgetExhausted)
            searched = _searched_rbc(r, g, FrameSearchConfig())
        for tensor, res, found in zip(r, exact, searched):
            scale = np.max(np.abs(tensor))
            assert -1e-12 * scale <= found.inf - res.inf <= 1e-7 * scale
            assert -1e-12 * scale <= res.sup - found.sup <= 1e-7 * scale
            lo, hi = _witnessed(tensor, res)
            assert abs(lo - res.inf) <= 1e-12 * scale and abs(hi - res.sup) <= 1e-12 * scale

    def test_stack_matches_each_point_alone(self):
        metric = catalog_metric("hopf", (2,))
        z = box_grid([0.6, 0.4j], 0.2, 2)
        r, g = np.array([chern_curvature(metric, p) for p in z]), metric(z)
        stacked = rbc_bounds(r, g)
        assert len(stacked) == 16
        for p in range(16):
            assert _same(stacked[p], rbc_bounds(r[p], g[p]))

    def test_heuristic_only_where_searched(self):
        # the exact solve takes no search budget; n = 3 still searches
        z = np.array([0.3 + 0.1j, -0.2])
        r, g = oracles.fs_tensor(z), oracles.fs_metric(z)
        res = rbc_bounds(r, g, FrameSearchConfig(n_starts=1, max_iter=1))
        assert not res.heuristic and _same(res, rbc_bounds(r, g))
        z = np.append(z, 0.1j)
        with pytest.warns(SearchBudgetExhausted):
            res = rbc_bounds(oracles.fs_tensor(z), oracles.fs_metric(z), FrameSearchConfig(n_starts=1, max_iter=1))
        assert res.heuristic


def _unitary(params, n):
    """The package's exponential of the skew-Hermitian generator with
    parameters ``params``, built one entry at a time as the sequential
    search built it."""
    a = np.zeros((n, n), dtype=complex)
    idx = 0
    for p in range(n):
        for q in range(p + 1, n):
            a[p, q] = params[idx] + 1j * params[idx + 1]
            a[q, p] = -np.conj(a[p, q])
            idx += 2
    return cones._exp_skew(a[None])[0]


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
        [("fubini_study", [0.0, 0.0, 0.0]), ("hopf", [1.0, 0.5, 0.2j]), ("complex_hyperbolic", [0.0, 0.0, 0.0])],
    )
    def test_rbc_bounds_match_independent_searches(self, name, point):
        metric = catalog_metric(name, (3,))
        r, g = chern_curvature(metric, point), metric(point)
        e0 = gram_unitary_frame(g)

        def extrema(u):
            return orthant_rayleigh_extrema(curvature_in_frame(r, e0 @ u).r_mat)

        with warnings.catch_warnings():  # the hopf searches run out of budget
            warnings.simplefilter("ignore", SearchBudgetExhausted)
            inf_val, inf_u = _sequential_frame_search(fresh_value(lambda u: extrema(u).min_val, 3), 3, self.cfg, -1)
            sup_val, sup_u = _sequential_frame_search(fresh_value(lambda u: extrema(u).max_val, 3), 3, self.cfg, +1)
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
        # every start's first frame, then the answer's frame once more: the
        # identity start is unbounded, which stops the later starts at once
        assert len(calls) <= self.cfg.n_starts + 1

        # the search without the early exit: unbounded frames score a finite
        # -1e300, so it runs its whole budget and keeps the first hit
        hits = []

        def objective(u):
            inner = sbc_infimum(curvature_in_frame(r, e0 @ u).r_mat)
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


def _searched_rbc(r, g, cfg):
    """RBC bounds by the frame search at any n >= 2: ``cones._frame_search``
    over the orthant extrema, as ``rbc_bounds`` runs it for n >= 3."""
    r, e0, single = cones._frame_points(r, g)

    def evaluate(owners, frames):
        ext = orthant_rayleigh_extrema(curvature_in_frame(r[owners], e0[owners] @ frames).r_mat)
        return np.stack([ext.min_val, ext.max_val], axis=-1)

    found = _frame_search(evaluate, len(e0), e0.shape[-1], cfg, (-1, +1))
    bounds = [RbcBounds(lo, hi, e @ lo_u, e @ hi_u, True) for e, ((lo, lo_u), (hi, hi_u)) in zip(e0, found)]
    return bounds[0] if single else bounds


def _sbc_reference(r, g, cfg):
    """``sbc_bound`` of one point with the sequential search."""
    n = g.shape[0]
    e0 = gram_unitary_frame(g)

    def value(params):
        u = _unitary(params, n)
        res = sbc_infimum(curvature_in_frame(r, e0 @ u).r_mat)
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


class TestExpSkew:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_expm_and_is_unitary(self, n):
        rng = np.random.default_rng(30 + n)
        a = cones._generators(rng.normal(size=(50, n * (n - 1))), n)
        u = cones._exp_skew(a)
        for ak, uk in zip(a, u):
            assert np.max(np.abs(uk - scipy.linalg.expm(ak))) < 1e-14
            assert np.max(np.abs(np.conj(uk.T) @ uk - np.eye(n))) < 1e-14
            assert np.array_equal(cones._exp_skew(ak[None])[0], uk)


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
    """The array descent against the sequential search it replaced."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rbc_matches_sequential(self, name, n, seed):
        # rbc_bounds searches at n = 3; at n = 2, where it is exact, the same
        # descent runs as _searched_rbc and stays within the exact bounds
        search = rbc_bounds if n >= 3 else _searched_rbc
        r, g = _two_points(name, n, seed)
        cfg = FrameSearchConfig(n_starts=3, max_iter=12 if n == 2 else 5, seed=seed)
        stacked, warned = _budget_warnings(lambda: search(r, g, cfg))
        alone = [_budget_warnings(lambda p=p: search(r[p], g[p], cfg)) for p in range(2)]
        ref = [_budget_warnings(lambda p=p: _rbc_reference(r[p], g[p], cfg)) for p in range(2)]
        for p in range(2):
            assert _same(stacked[p], ref[p][0]) and _same(alone[p][0], ref[p][0])
            assert alone[p][1] == ref[p][1]
        assert warned == ref[0][1] + ref[1][1]
        if n == 2:
            for exact, found, tensor in zip(rbc_bounds(r, g), stacked, r):
                slack = 1e-12 * np.max(np.abs(tensor))
                assert exact.inf <= found.inf + slack and exact.sup >= found.sup - slack

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sbc_matches_sequential(self, name, n, seed):
        r, g = _two_points(name, n, seed)
        cfg = FrameSearchConfig(n_starts=2, max_iter=4 if n == 2 else 1, seed=seed)
        stacked, warned = _budget_warnings(lambda: sbc_bound(r, g, cfg))
        ref = [_budget_warnings(lambda p=p: _sbc_reference(r[p], g[p], cfg)) for p in range(2)]
        for p in range(2):
            assert _same(stacked[p], ref[p][0])
        alone, alone_warned = _budget_warnings(lambda: sbc_bound(r[1], g[1], cfg))
        assert _same(alone, stacked[1]) and alone_warned == ref[1][1]
        assert warned == ref[0][1] + ref[1][1]

    def test_grid_stack_matches_each_point_alone(self):
        # 16 points of n = 3 are 96 RBC rows, and 16 points of n = 2 are 48
        # SBC rows, of one descent each
        cfg = FrameSearchConfig(n_starts=3, max_iter=5, seed=2)
        hopf3 = catalog_metric("hopf", (3,))
        z = box_grid([0.6, 0.4j, 0.3], 0.2, 2)[::4]
        r, g = np.array([chern_curvature(hopf3, p) for p in z]), hopf3(z)
        rbc, rbc_warned = _budget_warnings(lambda: rbc_bounds(r, g, cfg))
        rbc_ref = [_budget_warnings(lambda p=p: _rbc_reference(r[p], g[p], cfg)) for p in range(16)]
        hopf2 = catalog_metric("hopf", (2,))
        z = box_grid([0.6, 0.4j], 0.2, 2)
        r, g = np.array([chern_curvature(hopf2, p) for p in z]), hopf2(z)
        sbc, sbc_warned = _budget_warnings(lambda: sbc_bound(r, g, cfg))
        sbc_ref = [_budget_warnings(lambda p=p: _sbc_reference(r[p], g[p], cfg)) for p in range(16)]
        assert len(rbc) == len(sbc) == 16
        for p in range(16):
            assert _same(rbc[p], rbc_ref[p][0]) and _same(sbc[p], sbc_ref[p][0])
        assert rbc_warned == sum(w for _, w in rbc_ref)
        assert sbc_warned == sum(w for _, w in sbc_ref)

    def test_one_expm_per_running_row_per_micro_step(self, monkeypatch):
        # the first evaluation exponentiates every (point, sense, start) row,
        # each later one at most the rows still running: a stopped row stays
        # stopped, and a row runs at most max_iter sweeps of 2 n(n-1) steps
        n = 3
        r, g = _two_points("hopf", n, 4)
        cfg = FrameSearchConfig(n_starts=3, max_iter=10, seed=4)
        sizes, owners = [], []

        def counted(generators, _exp=cones._exp_skew):
            sizes.append(len(generators))
            return _exp(generators)

        def evaluate(points, frames):
            owners.append(len(points))
            return np.zeros((len(frames), 2))

        monkeypatch.setattr(cones, "_exp_skew", counted)
        _budget_warnings(lambda: rbc_bounds(r, g, cfg))
        assert sizes[0] == 2 * 2 * 3
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) <= 1 + 2 * n * (n - 1) * cfg.max_iter
        # one evaluated frame per exponentiated one
        sizes[:] = []
        _budget_warnings(lambda: cones._frame_search(evaluate, 2, n, cfg, (-1, +1)))
        assert sizes == owners and sizes[0] == 12

    @pytest.mark.parametrize("with_finite_point", [False, True])
    def test_later_start_diverging_first_loses_to_earlier_start(self, with_finite_point):
        # each start visits 25 frames under this finite objective; making
        # frame 2 of start 2 and frame 20 of start 1 unbounded, start 2 hits
        # first when the starts run together, but start 1's hit is the one
        # sequential order returns; a second point whose objective stays
        # finite, in the same descent, changes neither answer
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

        def evaluate(owners, frames):
            return [
                [-np.inf if p == 0 and u.tobytes() in marked else objective(u)]
                for p, u in zip(owners, frames)
            ]

        want_val, want_u = value(visits[45])
        # start 0 runs out of budget before start 1 diverges, in both orders
        got, warned = _budget_warnings(lambda: _sequential_frame_search(value, 2, cfg, -1))
        assert got[1].tobytes() == want_u.tobytes() and warned == 1
        n_points = 2 if with_finite_point else 1
        found, warned = _budget_warnings(lambda: _frame_search(evaluate, n_points, 2, cfg, (-1,)))
        ((val, u),) = found[0]
        assert val == want_val == -np.inf and _same(u, want_u)
        if with_finite_point:
            # the finite point runs all three starts out of budget
            (plain, plain_warned) = _budget_warnings(lambda: _sequential_frame_search(
                lambda p: (objective(_unitary(p, 2)), _unitary(p, 2)), 2, cfg, -1))
            ((val, u),) = found[1]
            assert plain_warned == 3 and val == plain[0] and _same(u, plain[1])
        assert warned == 1 + 3 * with_finite_point
