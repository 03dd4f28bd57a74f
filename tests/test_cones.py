import collections
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
    rbc_bounds,
    sbc_along_map,
    sbc_bound,
    sbc_infimum,
    sbc_value,
)
from chernlab.curvature import chern_curvature
from chernlab.errors import BadParams, ZeroSingularValue
from chernlab.metrics import catalog_metric, scale_metric
from chernlab.scenario import box_grid
from chernlab.tensors import curvature_in_frame, frame_residue, gram_unitary_frame, pair_matrix
from test_tensors import fs_normal_form, rand_unitary


Extremum = collections.namedtuple("Extremum", "min_val max_val argmin argmax")
# the budget of the seeded frame search that sbc_bound ran before its pair test
# and PD-cone descent, kept as a reference (``_sequential_frame_search``)
Budget = collections.namedtuple("Budget", "n_starts max_iter step_tol seed", defaults=(8, 40, 1e-4, 0))


def orthant_extrema(m):
    """Extrema of the Rayleigh quotient of ``m`` over the nonnegative orthant,
    by face enumeration one face and one eigenvector at a time: every
    extremum is a uniform-sign eigenvector of the symmetric part restricted
    to some coordinate face, whose off-face gradient has the KKT sign.  The
    reference for the orthant extrema of a frame matrix, as RBC in one frame."""
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
                mins.append((value, x))
            if grad_off.size == 0 or np.all(grad_off <= kkt_tol):
                maxs.append((value, x))
    (lo, argmin), (hi, argmax) = min(mins, key=lambda t: t[0]), max(maxs, key=lambda t: t[0])
    return Extremum(lo, hi, argmin, argmax)


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
    """The face-enumeration reference of the RBC witness checks against
    brute force, SLSQP polish and closed forms."""

    def test_diagonal(self):
        ext = orthant_extrema(np.diag([1.0, -1.0]))
        assert ext.min_val == -1.0 and ext.max_val == 1.0
        assert np.allclose(ext.argmin, [0, 1]) and np.allclose(ext.argmax, [1, 0])

    def test_fs_frame_matrix(self):
        ext = orthant_extrema(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(ext.min_val - 2.0) < 1e-12
        assert abs(ext.max_val - 3.0) < 1e-12
        assert np.allclose(np.abs(ext.argmax), [1, 1] / np.sqrt(2))

    def test_negative_offdiagonal(self):
        # orthant min is -3 at (1,1)/sqrt2; max 0 on the axes (eigenvalue 3 unreachable)
        ext = orthant_extrema(np.array([[0.0, -3.0], [-3.0, 0.0]]))
        assert abs(ext.min_val + 3.0) < 1e-12
        assert abs(ext.max_val) < 1e-12

    def test_antisymmetric_part_annihilated(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            a = rng.standard_normal((3, 3))
            a = a - a.T
            base = orthant_extrema(m)
            shifted = orthant_extrema(m + a)
            assert abs(base.min_val - shifted.min_val) < 1e-12
            assert abs(base.max_val - shifted.max_val) < 1e-12

    def test_exact_vs_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = rng.standard_normal((3, 3))
            sym = (m + m.T) / 2
            ext = orthant_extrema(sym)
            grid_min, grid_max = simplex_grid_extrema(sym)
            assert ext.min_val <= grid_min + 1e-12
            assert ext.max_val >= grid_max - 1e-12
            assert grid_min - ext.min_val < 5e-3
            assert ext.max_val - grid_max < 5e-3

    def test_value_consistency_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            ext = orthant_extrema(m)
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
            ext = orthant_extrema(sym)
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


def _polydisk(z, scales=None):
    """The exact tensor and metric at z of a product of Poincare discs of
    ``scales`` (all 1 by default): the tensor has only its R[a, a, a, a]
    entries, -2 / c_a in a unit frame."""
    n = len(z)
    r = np.zeros((n,) * 4, dtype=complex)
    g = np.zeros((n, n), dtype=complex)
    for a, (za, c) in enumerate(zip(z, scales or (1.0,) * n)):
        r[a, a, a, a] = oracles.poincare_tensor([za], c)[0, 0, 0, 0]
        g[a, a] = oracles.poincare_metric([za], c)[0, 0]
    return r, g


def _assert_in_frame(r, g, res, status):
    """``res`` has ``status`` and is the ``sbc_infimum`` of its frame, a
    g-unitary one; an unbounded one decreases along its certified family."""
    assert res.status == status and frame_residue(res.frame, g) < 1e-10
    rm = curvature_in_frame(r, res.frame).r_mat
    assert _same(sbc_infimum(rm), dataclasses.replace(res, frame=None))
    if status == "unbounded_below":
        cert = res.divergence_certificate
        assert sbc_value(rm, cert.family(20.0)) < sbc_value(rm, cert.family(10.0)) < sbc_value(rm, cert.base)


class TestSbcOracles:
    """SBC of the homogeneous models, closed forms of ``tests/oracles.py``."""

    def test_hopf3_is_four_and_marginal(self):
        # SBC(hopf(n)) = (n - 1)^2, approached but not attained: in a unitary
        # frame R[a, g] = alpha_a with sum alpha = n - 1, and the bound is
        # reached as alpha -> (1, ..., 1, 0) and v_n -> 0
        metric = catalog_metric("hopf", (3,))
        z = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.3j, 0.7, -0.2]])
        r = np.array([chern_curvature(metric, p) for p in z])
        for tensor, metric_z, res in zip(r, metric(z), _no_warnings(lambda: sbc_bound(r, metric(z)))):
            assert res.marginal and abs(res.inf_val - 4.0) < 1e-7
            _assert_in_frame(tensor, metric_z, res, "finite")

    def test_fubini_study3_is_twelve(self):
        # SBC(fubini_study(n)) = n (n + 1), attained at v = 1 in every frame
        metric = catalog_metric("fubini_study", (3,))
        z = np.zeros(3)
        res = sbc_bound(chern_curvature(metric, z), metric(z))
        assert res.status == "finite" and not res.marginal
        assert abs(res.inf_val - 12.0) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_forms(self, n):
        # on the exact tensors: fubini_study(n) is n (n + 1), not marginal;
        # hopf(n) is (n - 1)^2, marginal; complex_hyperbolic(n) and
        # polydisk(n) are unbounded, certified in the frame returned
        rng = np.random.default_rng(n)
        for z in (np.zeros(n, dtype=complex), 0.3 * (rng.random(n) + 1j * rng.random(n))):
            r, g = oracles.fs_tensor(z), oracles.fs_metric(z)
            res = _no_warnings(lambda: sbc_bound(r, g))
            assert not res.marginal and abs(res.inf_val - n * (n + 1)) < 1e-10
            _assert_in_frame(r, g, res, "finite")
            r, g = oracles.hopf_tensor(z + 0.5), oracles.hopf_metric(z + 0.5)
            res = _no_warnings(lambda: sbc_bound(r, g))
            assert res.marginal and abs(res.inf_val - (n - 1) ** 2) < 1e-7
            _assert_in_frame(r, g, res, "finite")
            for r, g in ((oracles.hyperbolic_tensor(z), oracles.hyperbolic_metric(z)), _polydisk(z)):
                _assert_in_frame(r, g, _no_warnings(lambda: sbc_bound(r, g)), "unbounded_below")


def _fourier(n):
    """The unitary discrete Fourier matrix: every entry of modulus 1 / sqrt(n)."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


class TestSbcPairs:
    """The SBC is unbounded in some frame exactly when some orthonormal pair
    has R(u, ubar, w, wbar) < 0."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_planted_negative_pair_is_unbounded(self, n):
        # fubini_study(n) at 0 is 1 on every orthonormal pair; -3 u u^dag (x)
        # w w^dag on the first two Fourier vectors takes 3 |u^dag u'|^2
        # |w^dag w'|^2 off the pair (u', w'), so the least pair is (u, w) at
        # -2, while every Gram-frame entry stays >= 1 - 3 / n^2 > 0 and the
        # Gram frame is finite
        u, w = _fourier(n)[:, 0], _fourier(n)[:, 1]
        r = oracles.fs_tensor(np.zeros(n)) - 3.0 * np.einsum("i,j,k,l->ijkl", u, np.conj(u), w, np.conj(w))
        g = np.eye(n)
        assert sbc_infimum(curvature_in_frame(r, gram_unitary_frame(g)).r_mat).status == "finite"
        frame = cones._least_pairs(cones._frame_tensor(pair_matrix(r)[None], gram_unitary_frame(g)[None]))[0]
        assert abs(curvature_in_frame(r, frame).r_mat[-1, 0] + 2.0) < 1e-12
        _assert_in_frame(r, g, _no_warnings(lambda: sbc_bound(r, g)), "unbounded_below")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nonnegative_pairs_are_finite(self, n):
        # sum_m s_m x_m x_m^dag (x) y_m y_m^dag with s_m > 0 is sum_m s_m
        # |x_m^dag u|^2 |y_m^dag w|^2 >= 0 on every pair, and -2 g_il g_kj adds
        # -2 |u^dag w|^2: 0 on orthonormal pairs, -2 on u = w.  No entry off
        # the diagonal is negative in any frame, so the SBC is finite
        rng = np.random.default_rng(80 + n)
        x, y = rng.standard_normal((2, 5, n)) + 1j * rng.standard_normal((2, 5, n))
        r = np.einsum("m,mi,mj,mk,ml->ijkl", rng.random(5), x, np.conj(x), y, np.conj(y))
        r -= 2.0 * np.einsum("il,kj->ijkl", np.eye(n), np.eye(n))
        g = np.eye(n)
        res = _no_warnings(lambda: sbc_bound(r, g))
        _assert_in_frame(r, g, res, "finite")
        ref = _sbc_reference(r, g, Budget(n_starts=3, max_iter=10))
        assert ref.status == "finite" and res.inf_val <= ref.inf_val + 1e-10 * max(1.0, abs(ref.inf_val))


def _random_sbc_set(n, mix):
    """Conjugation-symmetric tensors ``mix S + (g (x) g + g (x) g)``, with S
    complex Gaussian and g = a a^dag + I / 2 (``R[i, j, k, l] = mix S[i, j, k,
    l] + g_ij g_kl + g_il g_kj``), and their metrics g: 60, 40 and 8 tensors at
    n = 2, 3 and 4, seeded by 7 n + 10 mix."""
    count = {2: 60, 3: 40, 4: 8}[n]
    rng = np.random.default_rng(int(7 * n + 10 * mix))
    shape = (count,) + (n,) * 4
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = (s + np.conj(np.transpose(s, (0, 2, 1, 4, 3)))) / 2.0
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    g = a @ np.conj(np.swapaxes(a, -1, -2)) + 0.5 * np.eye(n)
    fs = g[:, :, :, None, None] * g[:, None, None] + np.einsum("pil,pkj->pijkl", g, g)
    return mix * s + fs, g


class TestSbcRandom:
    @pytest.mark.parametrize("n, mix", list(itertools.product((2, 3, 4), (0.5, 1.0, 2.0))))
    def test_against_the_reference_search(self, n, mix):
        # every point the sequential frame search finds unbounded is
        # unbounded, and no finite value is above the search's; the search
        # runs a small budget here (at its default one, the new values were
        # never above it either, and were below it by up to 4.6e-2)
        r, g = _random_sbc_set(n, mix)
        found = _no_warnings(lambda: sbc_bound(r, g))
        budget = Budget(n_starts=2, max_iter={2: 6, 3: 2, 4: 1}[n])
        for tensor, metric, res in zip(r, g, found):
            ref = _sbc_reference(tensor, metric, budget)
            _assert_in_frame(tensor, metric, res, res.status)
            if res.status == "finite":
                assert ref.status == "finite"
                assert res.inf_val <= ref.inf_val + 1e-10 * max(1.0, abs(ref.inf_val))


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
    # RBC and SBC over all frames on FD tensors, where no budget is given and
    # no call warns: the PSD-cone ascent at n >= 3 and the SBC at n = 2

    def test_rbc_euclidean(self):
        # a flat tensor: every step of the ascent projects to 0, so every row
        # stays at its start, with no budget and no warning
        m = catalog_metric("euclidean", (3,))
        z = [0.1, 0.2j, -0.3]
        res = _no_warnings(lambda: rbc_bounds(chern_curvature(m, z), m(z)))
        assert abs(res.inf) < 1e-8 and abs(res.sup) < 1e-8

    def test_rbc_model_values(self):
        # at the origin of fubini_study(3) RBC spans [2, 4], of
        # complex_hyperbolic(3) [-4, -2]; the FD tensors are good to about 1e-9
        fs = catalog_metric("fubini_study", (3,))
        res = _no_warnings(lambda: rbc_bounds(chern_curvature(fs, np.zeros(3)), np.eye(3)))
        assert abs(res.inf - 2.0) < 1e-8 and abs(res.sup - 4.0) < 1e-8
        assert res.heuristic
        ch = catalog_metric("complex_hyperbolic", (3,))
        res = _no_warnings(lambda: rbc_bounds(chern_curvature(ch, np.zeros(3)), np.eye(3)))
        assert abs(res.inf + 4.0) < 1e-8 and abs(res.sup + 2.0) < 1e-8

    def test_rbc_fs_closed_form_n5(self):
        # fubini_study(5) at the origin: inf c = 2, sup c (n + 1) / 2 = 6
        fs = catalog_metric("fubini_study", (5,))
        z = np.zeros(5)
        res = _no_warnings(lambda: rbc_bounds(chern_curvature(fs, z), fs(z)))
        assert abs(res.inf - 2.0) < 1e-8 and abs(res.sup - 6.0) < 1e-8

    def test_frame_invariance_spread(self):
        # U(n)-invariant tensor: extrema identical across 50 random frames
        rng = np.random.default_rng(9)
        r = fs_normal_form(2)
        vals = []
        for _ in range(50):
            fm = curvature_in_frame(r, rand_unitary(2, rng))
            ext = orthant_extrema(fm.r_mat)
            vals.append((ext.min_val, ext.max_val))
        vals = np.array(vals)
        assert np.ptp(vals[:, 0]) < 1e-6 and np.ptp(vals[:, 1]) < 1e-6

    def test_sbc_bound_values(self):
        eu = catalog_metric("euclidean", (2,))
        res = _no_warnings(lambda: sbc_bound(chern_curvature(eu, [0.0, 0.0]), np.eye(2)))
        assert res.status == "finite" and abs(res.inf_val) < 1e-6
        fs = catalog_metric("fubini_study", (2,))
        res = _no_warnings(lambda: sbc_bound(chern_curvature(fs, [0.0, 0.0]), np.eye(2)))
        assert res.status == "finite" and abs(res.inf_val - 6.0) < 1e-8
        ch = catalog_metric("complex_hyperbolic", (2,))
        res = _no_warnings(lambda: sbc_bound(chern_curvature(ch, [0.0, 0.0]), np.eye(2)))
        assert res.status == "unbounded_below"
        assert res.divergence_certificate is not None


def _witnessed(r, res):
    """The orthant extrema in the witness frames of ``res``, by face
    enumeration: (inf, sup)."""
    lo = orthant_extrema(curvature_in_frame(r, res.inf_frame).r_mat).min_val
    hi = orthant_extrema(curvature_in_frame(r, res.sup_frame).r_mat).max_val
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
        # conjugation-symmetric tensors with random metrics: the PSD-cone
        # ascent, run at n = 2 where rbc_bounds solves exactly, only reaches
        # values the exact solve brackets, and comes within 1e-12
        r, g = _random_tensors(np.random.default_rng(16), 300, 2)
        exact = rbc_bounds(r, g)
        for tensor, res, (lo, hi) in zip(r, exact, _ascended_rbc(r, g)):
            scale = np.max(np.abs(tensor))
            assert -1e-12 * scale <= lo - res.inf <= 1e-12 * scale
            assert -1e-12 * scale <= res.sup - hi <= 1e-12 * scale
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
        # n = 1 (one ray) and n = 2 (the Lorentz cone) are exact; the ascent
        # at n = 3 may stop short of the extremum
        z = np.array([0.3 + 0.1j])
        assert not rbc_bounds(oracles.poincare_tensor(z), oracles.poincare_metric(z)).heuristic
        z = np.append(z, -0.2)
        assert not rbc_bounds(oracles.fs_tensor(z), oracles.fs_metric(z)).heuristic
        z = np.append(z, 0.1j)
        assert rbc_bounds(oracles.fs_tensor(z), oracles.fs_metric(z)).heuristic


def _ascended_rbc(r, g):
    """RBC bounds by the PSD-cone ascent at any n, as ``rbc_bounds`` runs it
    for n != 2: (inf, sup) per point of the stacks ``r`` and ``g``."""
    r, e0, _ = cones._frame_points(r, g)
    return [(lo, hi) for (lo, _), (hi, _) in cones._rbc_ascent(r, e0, cones._rbc_form(r, e0))]


def _no_warnings(fn):
    """``fn()``, failing on any warning it gives (the RBC never warns)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    assert not caught, [str(w.message) for w in caught]
    return out


def _random_tensors(rng, count, n):
    """Conjugation-symmetric tensors ``(count, n, n, n, n)`` and random metrics."""
    shape = (count,) + (n,) * 4
    r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = (r + np.conj(np.transpose(r, (0, 2, 1, 4, 3)))) / 2.0
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return r, a @ np.conj(np.swapaxes(a, -1, -2)) + 0.5 * np.eye(n)


class TestRbcAscent:
    """RBC at every n != 2: a shifted projected power ascent on the PSD cone."""

    def test_hermitian_basis(self):
        # orthonormal Hermitian at every n, I / sqrt(n) first; at n = 2 the
        # Pauli basis bit for bit
        pauli = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]) / np.sqrt(2.0)
        assert cones._hermitian_basis(2).tobytes() == pauli.tobytes()
        for n in (1, 2, 3, 4):
            basis = cones._hermitian_basis(n)
            flat = basis.reshape(n * n, n * n)
            assert np.max(np.abs(np.conj(flat) @ flat.T - np.eye(n * n))) < 1e-15
            assert np.array_equal(basis, np.conj(np.swapaxes(basis, -1, -2)))
            assert np.array_equal(basis[0], np.eye(n) / np.sqrt(n))

    @pytest.mark.parametrize(
        "tensor, metric, n, want",
        [
            (oracles.fs_tensor, oracles.fs_metric, 3, (2.0, 4.0)),
            (oracles.fs_tensor, oracles.fs_metric, 4, (2.0, 5.0)),
            (oracles.hyperbolic_tensor, oracles.hyperbolic_metric, 3, (-4.0, -2.0)),
            # 3 B^3: the metric of complex_hyperbolic(3) scaled by 3
            (lambda z: 3.0 * oracles.hyperbolic_tensor(z), lambda z: 3.0 * oracles.hyperbolic_metric(z), 3,
             (-4.0 / 3.0, -2.0 / 3.0)),
        ],
        ids=["fubini_study3", "fubini_study4", "complex_hyperbolic3", "3B3"],
    )
    def test_closed_forms(self, tensor, metric, n, want):
        rng = np.random.default_rng(n)
        for z in (np.zeros(n, dtype=complex), 0.3 * (rng.random(n) + 1j * rng.random(n))):
            r = tensor(z)
            res = _no_warnings(lambda: rbc_bounds(r, metric(z)))
            assert abs(res.inf - want[0]) < 1e-12 and abs(res.sup - want[1]) < 1e-12
            lo, hi = _witnessed(r, res)
            assert abs(lo - res.inf) < 1e-12 and abs(hi - res.sup) < 1e-12

    @pytest.mark.parametrize(
        "scales", [(1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 0.5)]
    )
    def test_polydisk_closed_forms(self, scales):
        # a product of discs of scales c_a: the tensor has only its R[a, a, a, a]
        # entries, -2/c_a in a unit frame, so the form never couples diagonal
        # and off-diagonal matrices and an ascent from a diagonal start stays
        # diagonal, at -2 / max c_a; the sup -2 / sum c_a lies at the rank-one
        # weights |v_a|^2 = c_a, off the diagonal.  The negated tensor has
        # [2 / sum c_a, 2 / min c_a]
        n = len(scales)
        for z in (np.zeros(n), 0.3 * np.exp(1j * np.arange(n))):
            r, g = _polydisk(z, scales)
            for sign in (1.0, -1.0):
                res = _no_warnings(lambda: rbc_bounds(sign * r, g))
                want = sorted((-2.0 * sign / min(scales), -2.0 * sign / sum(scales)))
                assert abs(res.inf - want[0]) < 1e-12 and abs(res.sup - want[1]) < 1e-12
                lo, hi = _witnessed(sign * r, res)
                assert abs(lo - res.inf) < 1e-12 and abs(hi - res.sup) < 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_psd_points_are_bracketed(self, n):
        # RBC at 2000 random PSD matrices, each a random frame with random
        # nonnegative weights, lies within the bounds of each of 100 tensors
        rng = np.random.default_rng(40 + n)
        r, g = _random_tensors(rng, 100, n)
        bounds = _no_warnings(lambda: rbc_bounds(r, g))
        e0 = gram_unitary_frame(g)
        for tensor, e, res in zip(r, e0, bounds):
            q, _ = np.linalg.qr(rng.standard_normal((2000, n, n)) + 1j * rng.standard_normal((2000, n, n)))
            lam = rng.random((2000, n)) * (rng.random((2000, n)) < 0.8)
            lam[:, 0] += 1e-3  # no zero weight vector
            rm = curvature_in_frame(tensor, e @ q).r_mat
            value = np.einsum("pa,pab,pb->p", lam, rm, lam) / np.sum(lam * lam, axis=-1)
            slack = 1e-12 * np.max(np.abs(tensor))
            assert res.inf - slack <= np.min(value) and np.max(value) <= res.sup + slack

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_witness_frames_attain_the_bounds(self, n):
        # in the frames rbc_bounds returns, the orthant extrema of the frame
        # matrix (by face enumeration) are the bounds themselves
        r, g = _random_tensors(np.random.default_rng(50 + n), 20, n)
        for tensor, res in zip(r, rbc_bounds(r, g)):
            lo, hi = _witnessed(tensor, res)
            scale = np.max(np.abs(tensor))
            assert abs(lo - res.inf) <= 1e-12 * scale and abs(hi - res.sup) <= 1e-12 * scale

    def test_n1_is_the_frame_matrix(self):
        # at n = 1 the cone is a ray: both bounds are the one frame-matrix
        # entry, with the bits curvature_in_frame gives it in the Gram frame
        z = box_grid([0.0], 0.4, 5)
        r, g = oracles.poincare_tensor(z[0]), oracles.poincare_metric(z[0])
        res = rbc_bounds(r, g)
        want = curvature_in_frame(r, gram_unitary_frame(g)).r_mat[0, 0]
        assert res.inf == res.sup == want and not res.heuristic

    def test_no_call_warns(self):
        # rows that reach the step cap (polydisk(3), whose extrema are not
        # isolated) leave feasible witnesses and give no warning either
        pd = catalog_metric("polydisk", (1.0, 1.0, 1.0))
        z = np.array([[0.1, 0.2j, -0.1], [0.3, 0.0, 0.2j]])
        res = _no_warnings(lambda: rbc_bounds(chern_curvature(pd, z), pd(z)))
        for tensor, bounds in zip(chern_curvature(pd, z), res):
            assert abs(bounds.inf + 2.0) < 1e-8 and abs(bounds.sup + 2.0 / 3.0) < 1e-8
        r, g = _random_tensors(np.random.default_rng(60), 10, 4)
        _no_warnings(lambda: rbc_bounds(r, g))


def _skew(params, n):
    """The skew-Hermitian generator with strict-upper-triangle parameters
    ``params``, (re, im) per entry in row order, built one entry at a time."""
    a = np.zeros((n, n), dtype=complex)
    idx = 0
    for p in range(n):
        for q in range(p + 1, n):
            a[p, q] = params[idx] + 1j * params[idx + 1]
            a[q, p] = -np.conj(a[p, q])
            idx += 2
    return a


def _exp_skew(generators):
    """``exp`` of each skew-Hermitian matrix A of a stack ``(K, n, n)``:
    ``V diag(e^{i lam}) V^dag`` from the eigenpairs of the Hermitian ``-iA``."""
    lam, vecs = np.linalg.eigh(-1j * generators)
    return (vecs * np.exp(1j * lam)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))


def _unitary(params, n):
    """The unitary frame of the parameters ``params``, as the sequential
    search exponentiated them."""
    return _exp_skew(_skew(params, n)[None])[0]


def fresh_value(objective, n):
    """Frame-search value of ``objective(U)``, sharing nothing between calls."""

    def value(params):
        u = _unitary(params, n)
        return objective(u), u

    return value


class TestFrameSearchWork:
    """The RBC ascent against an independent frame search, and the SBC early
    exit, give the same answers."""

    budget = Budget(n_starts=4, max_iter=25, seed=7)

    @pytest.mark.parametrize(
        "name, point",
        [("fubini_study", [0.0, 0.0, 0.0]), ("hopf", [1.0, 0.5, 0.2j]), ("complex_hyperbolic", [0.0, 0.0, 0.0])],
    )
    def test_rbc_bounds_match_independent_searches(self, name, point):
        # the sequential frame search over face-enumerated orthant extrema, as
        # RBC was searched before the ascent: the ascent's bounds are at least
        # as wide, up to the FD noise that the search's frames sample
        metric = catalog_metric(name, (3,))
        r, g = chern_curvature(metric, point), metric(point)
        e0 = gram_unitary_frame(g)

        def extrema(u):
            return orthant_extrema(curvature_in_frame(r, e0 @ u).r_mat)

        inf_val, _ = _sequential_frame_search(fresh_value(lambda u: extrema(u).min_val, 3), 3, self.budget, -1)
        sup_val, _ = _sequential_frame_search(fresh_value(lambda u: extrema(u).max_val, 3), 3, self.budget, +1)
        res = _no_warnings(lambda: rbc_bounds(r, g))
        assert res.inf <= inf_val + 1e-9 and res.sup >= sup_val - 1e-9
        lo, hi = _witnessed(r, res)
        assert abs(lo - res.inf) < 1e-9 and abs(hi - res.sup) < 1e-9

    def test_sbc_bound_stops_at_first_unbounded_frame(self, monkeypatch):
        # complex_hyperbolic(2) is unbounded in its Gram frame, the first
        # frame sbc_bound solves: it returns that frame after one sbc_infimum
        # call, with the certificate that the sequential search returned from
        # the first frame of its first start
        metric = catalog_metric("complex_hyperbolic", (2,))
        r, g = chern_curvature(metric, [0.0, 0.0]), metric([0.0, 0.0])
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sbc_infimum(*args, **kwargs)

        monkeypatch.setattr(cones, "sbc_infimum", counted)
        res = sbc_bound(r, g)
        monkeypatch.undo()
        assert len(calls) == 1 and np.array_equal(res.frame, gram_unitary_frame(g))
        ref = _sbc_reference(r, g, self.budget)
        assert res.status == ref.status == "unbounded_below"
        assert res.divergence_certificate.gap_index == ref.divergence_certificate.gap_index
        assert np.array_equal(res.divergence_certificate.base, ref.divergence_certificate.base)


# ---------------------------------------------------------------------------
# the seeded frame search that sbc_bound ran before its pair test and PD-cone
# descent, one start after another, kept for reference
# ---------------------------------------------------------------------------

def _sequential_frame_search(value, n, cfg, sense):
    """Multistart coordinate descent over unitary-frame generators, one start
    after another from ``cfg.n_starts`` seeded starts (a ``Budget``): each
    sweep tries +-step on every parameter, keeps a trial better by more than
    1e-14, halves its step after a sweep without one, and stops once the
    step falls to ``cfg.step_tol`` or after ``cfg.max_iter`` sweeps; an
    objective of +-inf in the direction of ``sense`` ends the search.
    ``value(params)`` gives ``(objective, frame)``."""
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
        if best_u is None or sense * val > sense * best_val:
            best_val, best_u = val, u
    return best_val, best_u


def _sbc_reference(r, g, cfg):
    """The SBC of one point as the sequential frame search found it, with
    the budget ``cfg``: what ``sbc_bound`` returned before its pair test and
    PD-cone descent."""
    n = g.shape[0]
    e0 = gram_unitary_frame(g)

    def value(params):
        u = _unitary(params, n)
        res = sbc_infimum(curvature_in_frame(r, e0 @ u).r_mat)
        return (-np.inf if res.status == "unbounded_below" else res.inf_val), (u, res)

    _, (u, res) = _sequential_frame_search(value, n, cfg, -1)
    return dataclasses.replace(res, frame=e0 @ u)


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
        # the reference search's frames: exp of the generator, unitary, and
        # the same bits in a stack as alone
        rng = np.random.default_rng(30 + n)
        a = np.array([_skew(p, n) for p in rng.normal(size=(50, n * (n - 1)))])
        u = _exp_skew(a)
        for ak, uk in zip(a, u):
            assert np.max(np.abs(uk - scipy.linalg.expm(ak))) < 1e-14
            assert np.max(np.abs(np.conj(uk.T) @ uk - np.eye(n))) < 1e-14
            assert np.array_equal(_exp_skew(ak[None])[0], uk)


class TestLockstepSearch:
    """Stacks of points against one point at a time, and the SBC against the
    sequential frame search it replaced."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rbc_matches_sequential(self, name, n, seed):
        # two points stacked get the bits each gets alone, from the exact
        # solve at n = 2 and the ascent at n = 3; the ascent run at n = 2
        # stays within the exact bounds
        r, g = _two_points(name, n, seed)
        stacked = _no_warnings(lambda: rbc_bounds(r, g))
        for p in range(2):
            assert _same(stacked[p], rbc_bounds(r[p], g[p]))
        if n == 2:
            for exact, (lo, hi), tensor in zip(stacked, _ascended_rbc(r, g), r):
                slack = 1e-12 * np.max(np.abs(tensor))
                assert exact.inf - slack <= lo <= exact.inf + 1e-9
                assert exact.sup - 1e-9 <= hi <= exact.sup + slack

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sbc_matches_sequential(self, name, n, seed):
        # two points stacked get the bits each gets alone; each is unbounded
        # where the sequential search finds it unbounded, and otherwise no
        # higher than the search, up to the FD error of these tensors
        r, g = _two_points(name, n, seed)
        stacked = _no_warnings(lambda: sbc_bound(r, g))
        for p in range(2):
            assert _same(stacked[p], sbc_bound(r[p], g[p]))
            ref = _sbc_reference(r[p], g[p], Budget(n_starts=2, max_iter=4 if n == 2 else 1, seed=seed))
            if ref.status == "unbounded_below":
                _assert_in_frame(r[p], g[p], stacked[p], "unbounded_below")
            elif stacked[p].status == "finite":
                assert stacked[p].inf_val <= ref.inf_val + 1e-7

    def test_grid_stack_matches_each_point_alone(self):
        # 16 points of hopf(3) are 128 RBC ascent rows of one stack, and 80
        # SBC descent rows of another
        hopf3 = catalog_metric("hopf", (3,))
        z = box_grid([0.6, 0.4j, 0.3], 0.2, 2)[::4]
        r, g = np.array([chern_curvature(hopf3, p) for p in z]), hopf3(z)
        rbc = _no_warnings(lambda: rbc_bounds(r, g))
        sbc = _no_warnings(lambda: sbc_bound(r, g))
        assert len(rbc) == len(sbc) == 16
        for p in range(16):
            assert _same(rbc[p], rbc_bounds(r[p], g[p])) and _same(sbc[p], sbc_bound(r[p], g[p]))

    def test_one_expm_per_running_row_per_micro_step(self, monkeypatch):
        # the descent's first evaluation exponentiates every (point, start)
        # row, each later one at most the rows still running: a stopped row
        # stays stopped, and no row runs past _DESCENT_CAP trials
        r, g = _two_points("hopf", 3, 4)
        sizes = []

        def counted(t, h, _values=cones._descent_values):
            sizes.append(len(h))
            return _values(t, h)

        monkeypatch.setattr(cones, "_descent_values", counted)
        _no_warnings(lambda: sbc_bound(r, g))
        assert sizes[0] == 2 * 5
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) <= 1 + cones._DESCENT_CAP
