import numpy as np
import pytest

from chernlab.errors import (
    BadParams,
    DimensionMismatch,
    DomainMarginError,
    NearCriticalPoint,
    NotPositiveDefinite,
    RankDeficient,
)
from chernlab.maps import (
    HolomorphicMapModel,
    energy_density,
    jacobian,
    laplacian_energy,
    laplacian_log_energy,
    map_compose,
    map_identity,
    map_linear,
    map_mobius,
    map_power,
    map_product,
    map_scaling,
    pullback_metric,
    singular_frames,
)
from chernlab.metrics import ChartedHermitianMetric, catalog_metric, scale_metric
from chernlab.scenario import box_grid
from test_tensors import frame_residue


def map_in_frames(jac, source_frame, target_frame):
    """Component matrix of the differential in unitary frames,
    ``conj(target_frame)^-1 @ jac @ conj(source_frame)``: ``diag(lambdas)``
    up to roundoff for the frames of ``singular_frames``."""
    return np.linalg.solve(np.conj(target_frame), jac @ np.conj(source_frame))


class TestJacobian:
    def test_identity(self):
        f = map_identity(3)
        z = np.array([0.2, -0.1j, 0.4 + 0.4j])
        assert np.max(np.abs(jacobian(f, z) - np.eye(3))) < 1e-11

    def test_scaling(self):
        f = map_scaling(2.0 - 1.0j, 2)
        jac = jacobian(f, np.array([0.1, 0.2]))
        assert np.max(np.abs(jac - (2.0 - 1.0j) * np.eye(2))) < 1e-11

    def test_power_derivative(self):
        f = map_power(2)
        jac = jacobian(f, np.array([0.3]))
        assert abs(jac[0, 0] - 0.6) < 1e-14

    def test_mobius_derivative(self):
        a = 0.3 + 0.1j
        f = map_mobius(a)
        z = np.array([0.2 - 0.1j])
        expected = (1 - abs(a) ** 2) / (1 + np.conj(a) * z[0]) ** 2
        assert abs(jacobian(f, z)[0, 0] - expected) < 1e-14

    def test_bad_params(self):
        with pytest.raises(BadParams):
            map_scaling(0.0)
        with pytest.raises(BadParams):
            map_power(0)
        with pytest.raises(BadParams):
            map_mobius(1.5)

    def test_ragged_linear_matrix(self):
        with pytest.raises(BadParams):
            map_linear([[1.0, 2.0], [3.0]])
        with pytest.raises(BadParams):
            map_linear([[1.0 + 0j, 2.0 + 0j], [3.0 + 0j]])


class TestEnergyDensity:
    def test_identity_same_metric(self):
        fs = catalog_metric("fubini_study", (2,))
        f = map_identity(2)
        assert abs(energy_density(f, [0.3, 0.2j], fs, fs) - 2.0) < 1e-10

    def test_conformal_ratio_constant(self):
        # the identity into c g has energy c n; a product of Moebius maps, an
        # isometry of the polydisk, has energy n; both to rounding everywhere
        p1 = catalog_metric("poincare_disk", (1.0,))
        pd = catalog_metric("polydisk", (1.0, 1.0))
        mobius2 = map_product([map_mobius(0.1 + 0.2j), map_mobius(-0.2 + 0.05j)])
        grid = box_grid([0.05 - 0.1j, 0.1 + 0.02j], 0.25, 2)
        cases = [
            (map_identity(1), p1, scale_metric(p1, 2.5), [[0.0], [0.4 - 0.2j], [0.1 + 0.6j]], 2.5),
            (map_identity(2), pd, scale_metric(pd, 3.0), grid, 6.0),
            (mobius2, pd, pd, grid, 2.0),
        ]
        for f, src, tgt, z, expected in cases:
            energy = energy_density(f, z, src, tgt)
            assert np.max(np.abs(energy / expected - 1.0)) <= 1e-14, f.label

    def test_scaling_euclidean(self):
        eu = catalog_metric("euclidean", (1,))
        f = map_scaling(1.5 + 2.0j)
        assert abs(energy_density(f, [0.3], eu, eu) - abs(1.5 + 2.0j) ** 2) < 1e-10


class TestPullback:
    def test_identity(self):
        ch = catalog_metric("complex_hyperbolic", (2,))
        z = np.array([0.2 + 0.1j, -0.3j])
        assert np.max(np.abs(pullback_metric(map_identity(2), z, ch) - ch(z))) < 1e-10

    def test_scaling_euclidean(self):
        eu = catalog_metric("euclidean", (2,))
        pull = pullback_metric(map_scaling(2j, 2), [0.1, 0.2], eu)
        assert np.max(np.abs(pull - 4.0 * np.eye(2))) < 1e-10

    def test_power_pointwise(self):
        eu = catalog_metric("euclidean", (1,))
        pull = pullback_metric(map_power(2), [0.3], eu)
        assert abs(pull[0, 0] - 0.36) < 1e-10


class TestSingularFrames:
    def test_identity_euclidean(self):
        eu = catalog_metric("euclidean", (2,))
        sf = singular_frames(map_identity(2), [0.1, 0.2], eu, eu)
        assert np.allclose(sf.lambdas, [1.0, 1.0], atol=1e-10)
        assert sf.rank == 2

    def test_linear_diagonal(self):
        eu = catalog_metric("euclidean", (2,))
        sf = singular_frames(map_linear(np.diag([2.0, 1.0])), [0.0, 0.0], eu, eu)
        assert np.allclose(sf.lambdas, [2.0, 1.0], atol=1e-10)

    def test_metric_ratio(self):
        eu = catalog_metric("euclidean", (1,))
        p1 = catalog_metric("poincare_disk", (1.0,))
        sf = singular_frames(map_identity(1), [0.5], eu, p1)
        assert abs(sf.lambdas[0] - 4.0 / 3.0) < 1e-8

    def test_energy_identity_and_normal_form_complex_metrics(self):
        fs = catalog_metric("fubini_study", (2,))
        ch = catalog_metric("complex_hyperbolic", (2,))
        f = map_identity(2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z *= 0.3 / np.linalg.norm(z)
            sf = singular_frames(f, z, fs, ch)
            energy = energy_density(f, z, fs, ch)
            assert abs(np.sum(sf.lambdas**2) - energy) < 1e-8
            assert frame_residue(sf.source_frame, fs(z)) < 1e-10
            assert frame_residue(sf.target_frame, ch(z)) < 1e-10
            t = map_in_frames(jacobian(f, z), sf.source_frame, sf.target_frame)
            off = t - np.diag(np.diag(t))
            assert np.max(np.abs(off)) < 1e-8
            assert np.max(np.abs(np.diag(t) - sf.lambdas)) < 1e-8

    def test_pullback_diagonalized(self):
        fs = catalog_metric("fubini_study", (2,))
        ch = catalog_metric("complex_hyperbolic", (2,))
        z = np.array([0.25 + 0.1j, -0.2 + 0.05j])
        f = map_identity(2)
        sf = singular_frames(f, z, fs, ch)
        pull = pullback_metric(f, z, ch)
        diag = sf.source_frame.conj().T @ pull @ sf.source_frame
        assert np.max(np.abs(diag - np.diag(sf.lambdas**2))) < 1e-8


class TestComposition:
    def test_energy_submultiplicative_through_euclidean(self):
        # |d(g o f)|^2 <= |df|^2 |dg|^2 when the middle chart is euclidean
        p1 = catalog_metric("poincare_disk", (1.0,))
        eu = catalog_metric("euclidean", (1,))
        inner = map_mobius(0.3 + 0.2j)
        outer = map_power(2)
        comp = map_compose(outer, inner)
        for z in ([0.1], [0.2 - 0.3j], [0.4j]):
            z = np.asarray(z, dtype=complex)
            total = energy_density(comp, z, p1, eu)
            first = energy_density(inner, z, p1, eu)
            second = energy_density(outer, inner(z), eu, eu)
            assert total <= first * second + 1e-8


class TestLaplacians:
    def test_log_energy_conformal_identity(self):
        p1 = catalog_metric("poincare_disk", (1.0,))
        pk = scale_metric(p1, 2.0)
        val = laplacian_log_energy(map_identity(1), [0.2 + 0.1j], p1, pk,
                                   singular_frames(map_identity(1), [0.2 + 0.1j], p1, pk))
        assert abs(val) < 1e-5

    def test_log_energy_power_map_harmonic(self):
        eu = catalog_metric("euclidean", (1,))
        val = laplacian_log_energy(map_power(2), [0.5], eu, eu, singular_frames(map_power(2), [0.5], eu, eu))
        assert abs(val) < 1e-5

    def test_log_energy_scaling_flat(self):
        eu = catalog_metric("euclidean", (2,))
        val = laplacian_log_energy(map_scaling(3.0, 2), [0.1, 0.2], eu, eu,
                                   singular_frames(map_scaling(3.0, 2), [0.1, 0.2], eu, eu))
        assert abs(val) < 1e-8

    def test_near_critical_guard(self):
        eu = catalog_metric("euclidean", (1,))
        tiny = map_linear(np.array([[1e-9]]))
        with pytest.raises(NearCriticalPoint):
            laplacian_log_energy(tiny, [0.0], eu, eu, singular_frames(tiny, [0.0], eu, eu))

    def test_target_trace_identity_poincare(self):
        p1 = catalog_metric("poincare_disk", (1.0,))
        val = laplacian_energy(map_identity(1), [0.2 - 0.3j], p1, p1,
                               singular_frames(map_identity(1), [0.2 - 0.3j], p1, p1))
        assert abs(val) < 1e-5

    def test_target_trace_rank_deficient(self):
        eu = catalog_metric("euclidean", (1,))
        with pytest.raises(RankDeficient):
            laplacian_energy(map_power(2), [0.0], eu, eu, singular_frames(map_power(2), [0.0], eu, eu))

    def test_target_trace_closed_form_power_mobius(self):
        # power(2) x mobius(a), polydisk(1, 1) -> euclidean(2): in target
        # coordinates w the energy is 4|w1| (1 - |w1|)^2 + (1 - |w2|^2)^2, whose
        # flat Laplacian is 1/|w1| - 8 + 9|w1| - 2 + 4|w2|^2; |w1| = |z1|^2 = 1/4
        pd = catalog_metric("polydisk", (1.0, 1.0))
        eu = catalog_metric("euclidean", (2,))
        a = 0.2 + 0.1j
        f = map_product([map_power(2), map_mobius(a)])
        z = np.array([0.4 + 0.3j, 0.1 - 0.2j])
        w2 = (z[1] + a) / (1.0 + np.conj(a) * z[1])
        expected = -3.75 + 4.0 * abs(w2) ** 2
        assert abs(expected + 3.35099750623) < 1e-10
        assert abs(laplacian_energy(f, z, pd, eu, singular_frames(f, z, pd, eu)) - expected) < 1e-7


class TestProductMap:
    def test_blockwise_action(self):
        f = map_product([map_power(2), map_scaling(3.0, 1)])
        z = np.array([0.5, 0.2 + 0.1j])
        w = f(z)
        assert abs(w[0] - 0.25) < 1e-15
        assert abs(w[1] - 3.0 * z[1]) < 1e-15

    def test_jacobian_block_diagonal(self):
        f = map_product([map_power(2), map_scaling(3.0, 1)])
        jac = jacobian(f, np.array([0.5, 0.2]))
        assert abs(jac[0, 0] - 1.0) < 1e-10
        assert abs(jac[1, 1] - 3.0) < 1e-10
        assert abs(jac[0, 1]) < 1e-12 and abs(jac[1, 0]) < 1e-12


def stack_maps():
    mobius = map_mobius(0.3 - 0.2j)
    return [
        map_identity(2),
        map_scaling(2.0 - 1.0j, 2),
        map_linear(np.array([[1.0, 2.0j], [0.5 - 1.0j, 3.0]])),
        map_linear(np.array([[1.0, 2.0j], [0.5 - 1.0j, 3.0], [0.0, -1.0]])),
        map_power(3),
        mobius,
        map_product([map_power(2), mobius]),
        map_product([mobius, map_scaling(3.0, 1)]),
        map_compose(map_power(2), mobius),
    ]


def _points(n, count=40, seed=3):
    rng = np.random.default_rng(seed)
    return 0.6 * (rng.uniform(-1, 1, (count, n)) + 1j * rng.uniform(-1, 1, (count, n))) / np.sqrt(2)


class TestStackEvaluation:
    @pytest.mark.parametrize("f", stack_maps(), ids=lambda f: f"{f.label}-{f.target_dim}")
    def test_stack_equals_points_bit_for_bit(self, f):
        z = _points(f.source_dim)
        w = f(z)
        assert np.array_equal(w, np.array([f(p) for p in z]))
        assert np.array_equal(f(z.reshape(4, 10, -1)).reshape(w.shape), w)

    def test_wrong_shape_rejected(self):
        def flat(z):
            return np.zeros(2, dtype=complex)

        bad = HolomorphicMapModel(2, 2, flat, flat, "no-stack")
        with pytest.raises(DimensionMismatch, match=r"map returned shape \(2,\)"):
            bad(np.zeros((3, 2), dtype=complex))
        with pytest.raises(DimensionMismatch, match=r"differential returned shape \(2,\)"):
            jacobian(bad, np.zeros((3, 2), dtype=complex))

    @pytest.mark.parametrize("f", stack_maps(), ids=lambda f: f"{f.label}-{f.target_dim}")
    def test_jacobian_and_energy_equal_their_points(self, f):
        z = _points(f.source_dim, count=12)
        jac = jacobian(f, z)
        assert jac.shape == (12, f.target_dim, f.source_dim)
        assert np.array_equal(jac, np.array([jacobian(f, p) for p in z]))
        src = catalog_metric("polydisk", (1.0,) * f.source_dim)
        tgt = catalog_metric("fubini_study", (f.target_dim,))
        energy = energy_density(f, z, src, tgt)
        assert energy.shape == (12,)
        assert np.array_equal(energy, [energy_density(f, p, src, tgt) for p in z])

    def test_errors_name_the_first_failing_point(self):
        eu = catalog_metric("euclidean", (1,))
        with pytest.raises(DomainMarginError, match=r"point \[1\.0001\+0\.j\] "):
            jacobian(map_mobius(0.1), np.array([[0.1], [0.9999], [1.0001], [1.5]]))
        flipped = ChartedHermitianMetric(
            1, eu.domain, lambda z: np.where(z.real[..., None] > 0.5, -1.0, 1.0) + 0j, "flipped"
        )
        with pytest.raises(NotPositiveDefinite):
            energy_density(map_identity(1), np.array([[0.1], [0.7]]), flipped, eu)
        assert abs(energy_density(map_identity(1), [0.1], flipped, eu) - 1.0) < 1e-10


def _central_difference(f, z, h=1e-5):
    """``(f(z + h e_i) - f(z - h e_i)) / 2h`` for each source axis ``i``: the
    derivative of a holomorphic map along a real step, stacked as ``J``."""
    return np.stack([(f(z + h * e) - f(z - h * e)) / (2.0 * h) for e in np.eye(f.source_dim)], axis=-1)


def differential_maps():
    mobius = map_mobius(0.3 - 0.2j)
    return [
        map_identity(2),
        map_scaling(2.0 - 1.0j, 2),
        map_linear(np.array([[1.0, 2.0j], [0.5 - 1.0j, 3.0], [0.0, -1.0]])),
        map_linear(np.array([[1.0, 2.0j, -0.5 + 0.5j]])),
        map_power(1),
        map_power(3),
        mobius,
        map_product([map_power(2), mobius, map_scaling(3.0, 1)]),
        map_compose(map_power(2), mobius),
        map_compose(map_linear(np.array([[1.0, 2.0j], [0.5, -1.0]])), map_product([map_power(3), mobius])),
    ]


class TestDifferential:
    @pytest.mark.parametrize(
        "f", differential_maps(), ids=lambda f: f"{f.label}-{f.target_dim}x{f.source_dim}"
    )
    def test_matches_central_difference(self, f):
        z = _points(f.source_dim, count=12).reshape(3, 4, -1)
        jac = jacobian(f, z)
        assert jac.shape == (3, 4, f.target_dim, f.source_dim)
        assert np.max(np.abs(jac - _central_difference(f, z))) < 1e-8
