import numpy as np
import pytest

import oracles
from chernlab.errors import (
    BadParams,
    DimensionMismatch,
    DomainMarginError,
    NonFiniteSample,
    UnknownCatalogName,
)
from chernlab.fd import wirtinger_hessian
from chernlab.exprparse import parse_metric_expression
from chernlab.metrics import (
    ChartedHermitianMetric,
    Domain,
    catalog_metric,
    metric_derivatives,
    scale_metric,
)


def _ball_points(rng, count, dim, radius):
    out = []
    while len(out) < count:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        r = np.linalg.norm(z)
        out.append(z / r * radius * rng.uniform(0.1, 1.0))
    return out


def interior_points(name, rng, count):
    """Random points safely interior to each catalog domain."""
    if name in ("euclidean", "fubini_study"):
        return _ball_points(rng, count, 2, 1.5)
    if name in ("complex_hyperbolic", "polydisk"):
        return _ball_points(rng, count, 2, 0.6)
    if name == "poincare_disk":
        return _ball_points(rng, count, 1, 0.7)
    # hopf: annulus 0.5 <= |z| <= 2
    out = []
    while len(out) < count:
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out.append(z / np.linalg.norm(z) * rng.uniform(0.8, 1.6))
    return out


class TestCatalog:
    def test_euclidean(self):
        m = catalog_metric("euclidean", (2,))
        assert np.allclose(m([0.3 + 1j, -2.0]), np.eye(2))
        assert m.kahler is True

    def test_poincare_values(self):
        m = catalog_metric("poincare_disk", (1.0,))
        assert np.allclose(m([0.0]), [[1.0]])
        assert np.allclose(m([0.5]), [[16.0 / 9.0]])

    def test_hopf_unit_circle(self):
        m = catalog_metric("hopf", (2,))
        assert np.allclose(m([1.0, 0.0]), np.eye(2))
        assert m.kahler is False

    def test_fubini_study_formula(self):
        m = catalog_metric("fubini_study", (2,))
        z = np.array([0.3 + 0.2j, -0.1j])
        q = 1 + np.vdot(z, z).real
        expected = np.eye(2) / q - np.outer(np.conj(z), z) / q**2
        assert np.max(np.abs(m(z) - expected)) < 1e-14

    def test_polydisk(self):
        m = catalog_metric("polydisk", (1.0, 4.0))
        g = m([0.0, 0.5])
        assert np.allclose(g, np.diag([1.0, 4.0 / (0.75) ** 2]))

    def test_errors(self):
        with pytest.raises(UnknownCatalogName):
            catalog_metric("esoteric", (2,))
        with pytest.raises(BadParams):
            catalog_metric("poincare_disk", (-1.0,))
        with pytest.raises(BadParams):
            catalog_metric("polydisk", ())

    def test_positive_definite_on_samples(self):
        rng = np.random.default_rng(10)
        for name in ("fubini_study", "complex_hyperbolic", "hopf"):
            m = catalog_metric(name, (2,))
            for z in interior_points(name, rng, 10):
                vals = np.linalg.eigvalsh(m(z))
                assert np.min(vals) > 0


class TestDerivatives:
    def test_euclidean_zero(self):
        m = catalog_metric("euclidean", (2,))
        md = metric_derivatives(m, [0.3 + 0.1j, -0.2])
        assert np.max(np.abs(md.dg)) < 1e-12
        assert np.max(np.abs(md.ddbar_g)) < 1e-12

    def test_poincare_at_origin(self):
        m = catalog_metric("poincare_disk", (1.0,))
        md = metric_derivatives(m, [0.0])
        assert np.max(np.abs(md.dg)) < 1e-8
        assert abs(md.ddbar_g[0, 0, 0, 0] - 2.0) < 1e-8

    def test_hopf_first_derivative(self):
        m = catalog_metric("hopf", (2,))
        md = metric_derivatives(m, [1.0, 0.0])
        expected = oracles.hopf_dg(np.array([1.0, 0.0]))
        assert np.max(np.abs(md.dg - expected)) < 1e-7

    def test_closed_form_oracles(self):
        rng = np.random.default_rng(11)
        cases = [
            ("poincare_disk", (1.0,), oracles.poincare_dg, oracles.poincare_ddg),
            ("fubini_study", (2,), oracles.fs_dg, oracles.fs_ddg),
            ("complex_hyperbolic", (2,), oracles.hyperbolic_dg, oracles.hyperbolic_ddg),
            ("hopf", (2,), oracles.hopf_dg, oracles.hopf_ddg),
        ]
        for name, params, dg_fn, ddg_fn in cases:
            m = catalog_metric(name, params)
            for z in interior_points(name, rng, 5):
                md = metric_derivatives(m, z)
                assert np.max(np.abs(md.dg - dg_fn(z))) < 1e-6
                assert np.max(np.abs(md.ddbar_g - ddg_fn(z))) < 1e-5

    def test_hermitian_consistency(self):
        # dbar_g[j, k, l] = conj(dg[j, l, k]) since g is Hermitian
        rng = np.random.default_rng(12)
        for name, params in (
            ("fubini_study", (2,)),
            ("complex_hyperbolic", (2,)),
            ("hopf", (2,)),
            ("poincare_disk", (2.0,)),
        ):
            m = catalog_metric(name, params)
            for z in interior_points(name, rng, 5):
                md = metric_derivatives(m, z)
                residue = np.max(np.abs(md.dbar_g - np.conj(np.swapaxes(md.dg, 1, 2))))
                assert residue < 10.0 * md.error_estimate

    def test_kahler_condition_detector(self):
        # d_i g_{k jbar} symmetric in (i, k) for the Kaehler members, not for hopf
        rng = np.random.default_rng(13)
        for name, params in (
            ("fubini_study", (2,)),
            ("complex_hyperbolic", (2,)),
            ("polydisk", (1.0, 2.0)),
        ):
            m = catalog_metric(name, params)
            for z in interior_points(name if name != "polydisk" else "complex_hyperbolic", rng, 5):
                md = metric_derivatives(m, z)
                assert np.max(np.abs(md.dg - np.swapaxes(md.dg, 0, 1))) < 1e-7
        hopf = catalog_metric("hopf", (2,))
        md = metric_derivatives(hopf, [1.0, 0.5])
        assert np.max(np.abs(md.dg - np.swapaxes(md.dg, 0, 1))) > 1e-3

    def test_richardson_estimate_bounds_truth(self):
        rng = np.random.default_rng(14)
        cases = [
            ("poincare_disk", (1.0,), oracles.poincare_dg, oracles.poincare_ddg),
            ("fubini_study", (2,), oracles.fs_dg, oracles.fs_ddg),
            ("complex_hyperbolic", (2,), oracles.hyperbolic_dg, oracles.hyperbolic_ddg),
            ("hopf", (2,), oracles.hopf_dg, oracles.hopf_ddg),
        ]
        covered = total = 0
        for name, params, dg_fn, ddg_fn in cases:
            m = catalog_metric(name, params)
            for z in interior_points(name, rng, 10):
                md = metric_derivatives(m, z)
                true_err = max(
                    float(np.max(np.abs(md.dg - dg_fn(z)))),
                    float(np.max(np.abs(md.ddbar_g - ddg_fn(z)))),
                )
                total += 1
                covered += true_err <= md.error_estimate
        assert covered / total >= 0.95

    def test_domain_margin_error(self):
        m = catalog_metric("poincare_disk", (1.0,))
        with pytest.raises(DomainMarginError):
            metric_derivatives(m, [0.9999])

    def test_non_finite_sample(self):
        dom = Domain(center=(0.0,), radius=10.0)
        bad = ChartedHermitianMetric(
            1,
            dom,
            lambda z: np.array([[np.inf if z[0].real > 0.5005 else 1.0]]),
            "singular",
        )
        with pytest.raises(NonFiniteSample):
            metric_derivatives(bad, [0.5 + 0.0j])


# every entry function of the expression language, a negative power and a
# conjugate-default off-diagonal entry; positive-definite on the 0.9-ball
_EXPR_TABLE = "\n".join(
    [
        "g[1][1] = 2 + abs2(z1) + re(z2)^2 + (2 + abs2(z1))^-1",
        "g[1][2] = exp(z1) * conj(z2) / 10",
        "g[2][2] = 3 + im(z1) + log(2 + z2 * conj(z2))",
    ]
)


def stack_metrics():
    """Every catalog metric, an expression metric and a rescaled metric, each
    with a stack of interior points."""
    rng = np.random.default_rng(11)
    cases = [
        (catalog_metric("euclidean", (2,)), 1.5),
        (catalog_metric("fubini_study", (2,)), 1.5),
        (catalog_metric("fubini_study", (3,)), 1.5),
        (catalog_metric("complex_hyperbolic", (3,)), 0.6),
        (catalog_metric("poincare_disk", (1.5,)), 0.7),
        (catalog_metric("polydisk", (1.0, 2.0)), 0.6),
        (catalog_metric("hopf", (2,)), None),
        (parse_metric_expression(_EXPR_TABLE, 2), 0.8),
        (scale_metric(catalog_metric("complex_hyperbolic", (2,)), 3.0), 0.6),
    ]
    out = []
    for metric, radius in cases:
        if radius is None:
            points = interior_points("hopf", rng, 40)
        else:
            points = _ball_points(rng, 40, metric.dim, radius)
        out.append(pytest.param(metric, np.array(points), id=metric.label))
    return out


class TestStackEvaluation:
    @pytest.mark.parametrize("metric, points", stack_metrics())
    def test_stack_equals_points_bit_for_bit(self, metric, points):
        single = np.array([metric(z) for z in points])
        assert np.array_equal(metric(points), single)
        # any number of leading axes
        stacked = metric(points.reshape(4, 10, metric.dim))
        assert np.array_equal(stacked.reshape(single.shape), single)

    def test_wrong_shape_rejected(self):
        bad = ChartedHermitianMetric(2, Domain((0.0, 0.0), 1.0), lambda z: np.eye(2), "no-stack")
        with pytest.raises(DimensionMismatch, match=r"returned shape \(2, 2\)"):
            bad(np.zeros((3, 2), dtype=complex))

    def test_domain_contains_each_point(self):
        dom = Domain(center=(0.0, 0.0), radius=1.0, inner_radius=0.2, norm="max")
        z = np.array([[0.5, 0.0], [0.1, 0.1j], [0.95, 0.5], [1.2, 0.0]])
        assert dom.contains(z).tolist() == [True, False, True, False]
        assert dom.contains(z, margin=np.array([0.0, 0.0, 0.1, 0.0])).tolist() == [
            True, False, False, False
        ]
        assert [dom.contains(p) for p in z] == [True, False, True, False]


class TestWirtingerHessian:
    def test_closed_form_quadratic(self):
        # |z1|^2 + 2|z2|^2 + Re(z1 conj z2) has complex Hessian [[1, 1/2], [1/2, 2]]
        stacks = []

        def u(z):
            stacks.append(z.copy())
            z1, z2 = z[:, 0], z[:, 1]
            return np.abs(z1) ** 2 + 2.0 * np.abs(z2) ** 2 + (z1 * np.conj(z2)).real

        z1, z2 = 0.3 - 0.2j, 0.1 + 0.4j
        centre = abs(z1) ** 2 + 2.0 * abs(z2) ** 2 + (z1 * np.conj(z2)).real
        hess = wirtinger_hessian(u, [z1, z2], 1e-3, centre)
        assert np.max(np.abs(hess - np.array([[1.0, 0.5], [0.5, 2.0]]))) < 1e-8
        # the field is called once, on the stack of every stencil point but the given centre
        assert len(stacks) == 1
        samples = {tuple(row) for row in stacks[0]}
        # 4 same-axis and 16 mixed offsets per real axis pair: 4 * 4 + 6 * 16
        assert len(samples) == 112 == len(stacks[0])


class TestDomain:
    def test_ball_margin(self):
        d = Domain(center=(0.0,), radius=1.0)
        assert d.contains([0.5])
        assert not d.contains([0.99], margin=0.02)

    def test_annulus(self):
        d = Domain(center=(0.0, 0.0), radius=2.0, inner_radius=0.5)
        assert d.contains([1.0, 0.0])
        assert not d.contains([0.1, 0.0])

    def test_max_norm(self):
        d = Domain(center=(0.0, 0.0), radius=1.0, norm="max")
        assert d.contains([0.9, 0.9j])
        assert not d.contains([1.1, 0.0])
