import numpy as np
import pytest

import oracles
from chernlab.curvature import (
    chern_curvature,
    curvature_report,
    hsc,
    kahler_symmetry_check,
    ricci,
)
from chernlab.errors import ZeroVector
from chernlab.metrics import ChartedHermitianMetric, catalog_metric
from chernlab.tensors import curvature_in_frame, hermitian_inverse, trace_form
from test_metrics import interior_points


class TestChernCurvature:
    def test_euclidean_flat(self):
        m = catalog_metric("euclidean", (2,))
        r = chern_curvature(m, [0.7 - 0.2j, 1.5j])
        assert np.max(np.abs(r)) < 1e-10

    def test_poincare_closed_form(self):
        m = catalog_metric("poincare_disk", (1.0,))
        r = chern_curvature(m, [0.0])
        assert abs(r[0, 0, 0, 0] + 2.0) < 1e-7
        rng = np.random.default_rng(0)
        for z in interior_points("poincare_disk", rng, 5):
            r = chern_curvature(m, z)
            exact = oracles.poincare_tensor(z)
            assert np.max(np.abs(r - exact)) / np.max(np.abs(exact)) < 1e-6

    def test_hopf_closed_form_at_unit_point(self):
        m = catalog_metric("hopf", (2,))
        r = chern_curvature(m, [1.0, 0.0])
        exact = oracles.hopf_tensor(np.array([1.0, 0.0]))
        assert np.max(np.abs(r - exact)) < 1e-6
        assert abs(r[0, 0, 0, 0]) < 1e-6
        assert abs(r[1, 1, 0, 0] - 1.0) < 1e-6

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(1)
        for name, params in (("fubini_study", (2,)), ("hopf", (2,))):
            m = catalog_metric(name, params)
            for z in interior_points(name, rng, 3):
                r = chern_curvature(m, z)
                residue = np.max(np.abs(r - np.conj(np.transpose(r, (1, 0, 3, 2)))))
                assert residue < 1e-10 * max(1.0, np.max(np.abs(r)))


class TestEvaluationCounts:
    @pytest.mark.parametrize("n, calls", [(1, 41), (2, 193), (3, 457), (4, 833)])
    def test_one_metric_call_per_curvature_sample(self, n, calls):
        # the curvature stencil evaluates the metric once per distinct sample;
        # the benchmark's traced run holds chern_curvature to these counts
        base = catalog_metric("complex_hyperbolic", (n,))
        seen = []

        def counted(z):
            seen.append(np.shape(z))
            return base.evaluator(z)

        metric = ChartedHermitianMetric(n, base.domain, counted, "counted", True, (n,))
        r = chern_curvature(metric, np.zeros(n, dtype=complex))
        assert len(seen) == calls
        assert set(seen) == {(n,)}
        assert np.array_equal(r, chern_curvature(base, np.zeros(n, dtype=complex)))


class TestRicci:
    def test_zero_tensor(self):
        z = np.zeros((2, 2, 2, 2), dtype=complex)
        for kind in (1, 2, 3):
            out, _ = ricci(z, np.eye(2), kind)
            assert np.all(out == 0)

    def test_hopf_second_ricci(self):
        m = catalog_metric("hopf", (2,))
        z = np.array([1.0, 0.0], dtype=complex)
        r = chern_curvature(m, z)
        ric2, _ = ricci(r, m(z), 2)
        # Ric^(2) = (n-1) g for this chart metric
        assert np.max(np.abs(ric2 - m(z))) < 1e-6

    def test_poincare_all_traces_coincide(self):
        m = catalog_metric("poincare_disk", (1.0,))
        z = np.array([0.0], dtype=complex)
        r = chern_curvature(m, z)
        for kind in (1, 2, 3):
            out, _ = ricci(r, m(z), kind)
            assert abs(out[0, 0] + 2.0) < 1e-7

    def test_kahler_trace_collapse(self):
        rng = np.random.default_rng(2)
        for name, params in (
            ("fubini_study", (2,)),
            ("complex_hyperbolic", (2,)),
            ("poincare_disk", (1.0,)),
            ("polydisk", (1.0, 2.0)),
        ):
            m = catalog_metric(name, params)
            pts = interior_points(name if name != "polydisk" else "complex_hyperbolic", rng, 5)
            for z in pts:
                r = chern_curvature(m, z)
                rics = [ricci(r, m(z), kind)[0] for kind in (1, 2, 3)]
                assert np.max(np.abs(rics[0] - rics[1])) < 1e-6
                assert np.max(np.abs(rics[0] - rics[2])) < 1e-6

    def test_hopf_non_kahler_witness(self):
        m = catalog_metric("hopf", (2,))
        z = np.array([0.9 + 0.3j, 0.5 - 0.2j])
        r = chern_curvature(m, z)
        ric1, _ = ricci(r, m(z), 1)
        ric2, _ = ricci(r, m(z), 2)
        distinct = np.max(np.abs(ric1 - ric2)) > 1e-3
        symmetric, _ = kahler_symmetry_check(r, 1e-6)
        assert distinct or not symmetric


class TestHsc:
    def test_model_values(self):
        rng = np.random.default_rng(3)
        fs = catalog_metric("fubini_study", (2,))
        ch = catalog_metric("complex_hyperbolic", (2,))
        for z in interior_points("complex_hyperbolic", rng, 3):
            r_fs = chern_curvature(fs, z)
            r_ch = chern_curvature(ch, z)
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert abs(hsc(r_fs, fs(z), v) - 2.0) < 1e-7
            assert abs(hsc(r_ch, ch(z), v) + 2.0) < 1e-7

    def test_hopf_directions(self):
        m = catalog_metric("hopf", (2,))
        z = np.array([1.0, 0.0], dtype=complex)
        r = chern_curvature(m, z)
        assert abs(hsc(r, m(z), np.array([1.0, 0.0]))) < 1e-6
        assert abs(hsc(r, m(z), np.array([0.0, 1.0])) - 1.0) < 1e-6

    def test_scale_invariance(self):
        m = catalog_metric("fubini_study", (2,))
        z = np.array([0.3 + 0.1j, -0.2j])
        r = chern_curvature(m, z)
        v = np.array([1.0 - 0.5j, 0.7 + 0.2j])
        base = hsc(r, m(z), v)
        for c in (0.1, 0.5 - 0.5j, 3.0, 10.0):
            assert abs(hsc(r, m(z), c * v) - base) < 1e-10

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            hsc(np.zeros((2, 2, 2, 2)), np.eye(2), np.zeros(2))


class TestKahlerSymmetry:
    def test_fubini_study_symmetric(self):
        m = catalog_metric("fubini_study", (2,))
        ok, _ = kahler_symmetry_check(chern_curvature(m, [0.2, 0.1j]), 1e-6)
        assert ok

    def test_hopf_fails_at_generic_point(self):
        m = catalog_metric("hopf", (2,))
        ok, residue = kahler_symmetry_check(chern_curvature(m, [1.0, 0.5]), 1e-6)
        assert not ok
        assert residue > 1e-2

    def test_zero_tensor(self):
        ok, residue = kahler_symmetry_check(np.zeros((2, 2, 2, 2)), 1e-6)
        assert ok and residue == 0.0


class TestAlteredHscMatrix:
    def test_fs_normal_form(self):
        fs = catalog_metric("fubini_study", (2,))
        fm = curvature_in_frame(chern_curvature(fs, [0.0, 0.0]), np.eye(2))
        q = fm.q_mat()
        assert np.max(np.abs(q - 2.0 * (1.0 + np.eye(2)))) < 1e-6

    def test_zero(self):
        fm = curvature_in_frame(np.zeros((2, 2, 2, 2)), np.eye(2))
        assert np.all(fm.q_mat() == 0)

    def test_poincare(self):
        m = catalog_metric("poincare_disk", (1.0,))
        fm = curvature_in_frame(chern_curvature(m, [0.0]), np.eye(1))
        assert abs(fm.q_mat()[0, 0] + 4.0) < 1e-6

    def test_hsc_matches_adapted_frame_diagonal(self):
        # rotate v to the first frame vector: hsc(v) = Q[0,0]/2 in that frame
        rng = np.random.default_rng(4)
        fs = catalog_metric("fubini_study", (2,))
        r = chern_curvature(fs, [0.0, 0.0])
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = v / np.linalg.norm(v)
            q_mat, _ = np.linalg.qr(np.column_stack([v, rng.standard_normal(2) + 0j]))
            q_mat[:, 0] *= np.vdot(q_mat[:, 0], v)  # align first column with v
            fm = curvature_in_frame(r, q_mat)
            assert abs(hsc(r, np.eye(2), v) - fm.q_mat()[0, 0] / 2.0) < 1e-8


class TestCurvatureReport:
    def test_scalar_consistency(self):
        m = catalog_metric("fubini_study", (2,))
        rep = curvature_report(m, [0.1 + 0.2j, -0.3])
        # independent recomputation of both scalar traces
        scal = trace_form(rep.g, rep.ric1)
        scal_tilde = trace_form(rep.g, rep.ric3)
        assert abs(rep.scal - scal) < 1e-9
        assert abs(rep.scal_tilde - scal_tilde) < 1e-9
        # FS at any point: Scal = n(n+1) with the HSC = +2 normalization
        assert abs(rep.scal - 6.0) < 1e-5
        assert rep.kahler_symmetric

    def test_hopf_report(self):
        m = catalog_metric("hopf", (2,))
        rep = curvature_report(m, [1.0, 0.5])
        assert not rep.kahler_symmetric
        assert rep.kahler_residue > 1e-2
