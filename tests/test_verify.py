import numpy as np
import pytest

from chernlab.cones import FrameSearchConfig
from chernlab.curvature import chern_curvature
from chernlab.errors import (
    BadIndices,
    BadParams,
    FormInequalityViolated,
    HypothesisSignError,
    InfeasibleHypothesis,
    UnboundedSbc,
)
from chernlab.maps import map_identity
from chernlab.metrics import catalog_metric, scale_metric
from chernlab.tensors import curvature_in_frame
from chernlab.verify import (
    HypothesisConstants,
    aubin_yau_verify,
    averaged_hsc_check,
    chern_lu_verify,
    estimate_hypotheses,
    family_verify,
    fs_moment_check,
    theorem23_check,
    trace_bound_verify,
)

CFG = FrameSearchConfig(n_starts=3, max_iter=15, seed=0)


def disk_grid(half=0.3, per_axis=3):
    return [
        np.array([x + 1j * y])
        for x in np.linspace(-half, half, per_axis)
        for y in np.linspace(-half, half, per_axis)
    ]


@pytest.fixture(scope="module")
def poincare():
    return catalog_metric("poincare_disk", (1.0,))


class TestEstimateHypotheses:
    def test_chern_lu_poincare(self, poincare):
        c = estimate_hypotheses(poincare, poincare, map_identity(1), disk_grid(), "chern_lu", frame_cfg=CFG)
        assert abs(c.c1 - 2.0) < 1e-6
        assert c.c2 == 0.0
        assert abs(c.kappa - 2.0) < 1e-6
        assert c.r == 1
        assert c.provenance["c1"] == "estimated"
        assert "c1" in c.achieved_at

    def test_flat_case_infeasible(self):
        eu = catalog_metric("euclidean", (1,))
        with pytest.raises(InfeasibleHypothesis):
            estimate_hypotheses(eu, eu, map_identity(1), disk_grid(), "chern_lu", frame_cfg=CFG)

    def test_positive_rbc_infeasible(self):
        fs = catalog_metric("fubini_study", (2,))
        with pytest.raises(InfeasibleHypothesis):
            estimate_hypotheses(fs, fs, map_identity(2), [np.zeros(2)], "chern_lu", frame_cfg=CFG)

    def test_full_cone_kappa_unbounded(self):
        ch = catalog_metric("complex_hyperbolic", (2,))
        with pytest.raises(UnboundedSbc):
            estimate_hypotheses(
                ch, ch, map_identity(2), [np.zeros(2)], "aubin_yau",
                frame_cfg=CFG, kappa_mode="full_cone",
            )

    def test_unknown_kappa_mode(self, poincare):
        with pytest.raises(BadParams):
            estimate_hypotheses(poincare, poincare, map_identity(1), disk_grid(), "aubin_yau", kappa_mode="auto")

    def test_aubin_yau_along_map_kappa(self, poincare):
        c = estimate_hypotheses(poincare, poincare, map_identity(1), disk_grid(), "aubin_yau")
        assert abs(c.c1 - 2.0) < 1e-6
        assert abs(c.kappa - 2.0) < 1e-6

    def test_user_constants_kept(self, poincare):
        c = estimate_hypotheses(
            poincare, poincare, map_identity(1), disk_grid(), "chern_lu",
            fixed={"c2": 0.0, "kappa": 2.0}, frame_cfg=CFG,
        )
        assert c.provenance["kappa"] == "user"
        assert abs(c.c1 - 2.0) < 1e-6


class TestChernLu:
    def test_conformal_equality_case(self, poincare):
        p3 = scale_metric(poincare, 3.0)
        grid = disk_grid()
        c = estimate_hypotheses(poincare, p3, map_identity(1), grid, "chern_lu", frame_cfg=CFG)
        v = chern_lu_verify(poincare, p3, map_identity(1), c, grid)
        assert v.passed
        assert abs(v.bound - 3.0) < 1e-4
        assert abs(v.sup_energy - 3.0) < 1e-8
        assert all(abs(rec["margin"]) < 1e-5 for rec in v.records)

    def test_same_metric(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(poincare, poincare, map_identity(1), grid, "chern_lu", frame_cfg=CFG)
        v = chern_lu_verify(poincare, poincare, map_identity(1), c, grid)
        assert v.passed and abs(v.bound - 1.0) < 1e-4

    def test_critical_point_guard(self, poincare):
        from chernlab.errors import NearCriticalPoint
        from chernlab.maps import map_linear

        eu = catalog_metric("euclidean", (1,))
        near_constant = map_linear(np.array([[1e-9]]))
        c = HypothesisConstants(c1=2.0, c2=0.0, kappa=2.0, r=1, n=1)
        with pytest.raises(NearCriticalPoint):
            chern_lu_verify(eu, poincare, near_constant, c, disk_grid())

    def test_sign_errors(self, poincare):
        with pytest.raises(HypothesisSignError):
            chern_lu_verify(
                poincare, poincare, map_identity(1),
                HypothesisConstants(c1=2.0, c2=-1.0, kappa=2.0), disk_grid(),
            )
        with pytest.raises(HypothesisSignError):
            chern_lu_verify(
                poincare, poincare, map_identity(1),
                HypothesisConstants(c1=2.0, c2=0.0, kappa=0.0), disk_grid(),
            )


class TestAubinYau:
    def test_equality_case(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(poincare, poincare, map_identity(1), grid, "aubin_yau")
        v = aubin_yau_verify(poincare, poincare, map_identity(1), c, grid)
        assert v.passed
        assert abs(v.bound - 1.0) < 1e-4
        assert abs(v.sup_energy - 1.0) < 1e-8
        # both margins recorded; the strict one is no larger than the displayed one
        for rec in v.records:
            assert rec["margin_strict"] <= rec["margin"] + 1e-12

    def test_flat_infeasible(self):
        eu = catalog_metric("euclidean", (1,))
        with pytest.raises(InfeasibleHypothesis):
            estimate_hypotheses(eu, eu, map_identity(1), disk_grid(), "aubin_yau")

    def test_flat_source_with_c2(self, poincare):
        # flat source: kappa = 0; constants fit with C2 > 0 against the omega
        # form; the differential inequality holds pointwise (the global bound
        # is a compactness statement and the open chart may miss it, which the
        # verdict reports honestly)
        eu2 = scale_metric(catalog_metric("euclidean", (1,)), 2.0)
        grid = disk_grid()
        c = estimate_hypotheses(eu2, poincare, map_identity(1), grid, "aubin_yau", fixed={"c2": 1.0})
        assert abs(c.kappa) < 1e-8
        assert c.c1 > 0
        v = aubin_yau_verify(eu2, poincare, map_identity(1), c, grid)
        assert all(rec["margin"] >= -1e-5 for rec in v.records)
        assert all(rec["margin_strict"] >= -1e-5 for rec in v.records)
        assert v.notes["grid_semantics"] == "sup over sampled grid"


class TestFamily:
    def test_poincare_equality(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(
            poincare, poincare, map_identity(1), grid, "family", mu=poincare, frame_cfg=CFG
        )
        v = family_verify(poincare, poincare, poincare, map_identity(1), c, grid)
        assert v.passed
        assert abs(v.bound - 1.0) < 1e-4

    def test_chen_cheng_lu_preset(self, poincare):
        c = HypothesisConstants(c2=0.0, c3=2.0, kappa1=2.0, kappa2=2.0, n=1, r=1)
        v = family_verify(
            poincare, poincare, poincare, map_identity(1), c, disk_grid(), preset="chen_cheng_lu"
        )
        assert v.passed
        assert abs(v.bound - 1.0) < 1e-12
        assert abs(v.constants.c1 - 2.0) < 1e-12

    def test_ricci_only_preset(self, poincare):
        c = HypothesisConstants(c1=2.0, c2=0.0, c3=2.0, c4=0.0, kappa1=2.0, kappa2=2.0, n=1, r=1)
        v = family_verify(
            poincare, poincare, poincare, map_identity(1), c, disk_grid(), preset="ricci_only"
        )
        assert v.passed and abs(v.bound - 1.0) < 1e-12

    def test_ricci_only_constraint_violated(self, poincare):
        c = HypothesisConstants(c1=2.0, c2=0.0, c3=2.0, c4=5.0, kappa1=2.0, kappa2=2.0, n=1, r=1)
        with pytest.raises(HypothesisSignError):
            family_verify(
                poincare, poincare, poincare, map_identity(1), c, disk_grid(), preset="ricci_only"
            )

    def test_liouville_contradiction_flag(self, poincare):
        c = HypothesisConstants(c1=2.0, c2=0.0, c3=1.0, c4=-1.0, kappa1=1.0, kappa2=2.0, n=1, r=1)
        v = family_verify(
            poincare, poincare, poincare, map_identity(1), c, disk_grid(), preset="liouville"
        )
        assert v.passed
        assert v.bound <= 0.0
        assert v.notes["liouville_contradiction"]

    def test_form_inequality_violated(self, poincare):
        # C3 too large: Ric2_mu <= -C3 mu fails pointwise
        c = HypothesisConstants(c1=2.0, c2=0.0, c3=5.0, c4=0.0, kappa1=2.0, kappa2=2.0, n=1, r=1)
        with pytest.raises(FormInequalityViolated) as info:
            family_verify(poincare, poincare, poincare, map_identity(1), c, disk_grid())
        assert info.value.point is not None
        assert info.value.eigenvalue < 0


class TestTraceBound:
    def test_equality_case(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(poincare, poincare, map_identity(1), grid, "trace_bound", frame_cfg=CFG)
        v = trace_bound_verify(poincare, poincare, c, grid)
        assert v.passed
        assert abs(v.bound - 1.0) < 1e-4
        assert abs(v.sup_energy - 1.0) < 1e-10

    def test_half_target(self, poincare):
        half = scale_metric(poincare, 0.5)
        grid = disk_grid()
        c = estimate_hypotheses(poincare, half, map_identity(1), grid, "trace_bound", frame_cfg=CFG)
        v = trace_bound_verify(poincare, half, c, grid)
        assert v.passed
        assert abs(v.sup_energy - 0.5) < 1e-10

    def test_flat_target_infeasible(self, poincare):
        eu = catalog_metric("euclidean", (1,))
        with pytest.raises(InfeasibleHypothesis):
            estimate_hypotheses(poincare, eu, map_identity(1), disk_grid(), "trace_bound", frame_cfg=CFG)


class TestNegativeDiscipline:
    """Deliberately violated hypotheses must fail with a localized worst point."""

    def test_stale_constants_after_rescale(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(
            poincare, scale_metric(poincare, 1.0), map_identity(1), grid, "chern_lu", frame_cfg=CFG
        )
        v = chern_lu_verify(poincare, scale_metric(poincare, 4.0), map_identity(1), c, grid)
        assert not v.passed
        assert v.sup_energy > v.bound
        assert v.notes["worst_point"] is not None

    def test_stale_trace_bound(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(poincare, poincare, map_identity(1), grid, "trace_bound", frame_cfg=CFG)
        v = trace_bound_verify(poincare, scale_metric(poincare, 2.0), c, grid)
        assert not v.passed
        worst = v.worst()
        assert worst["margin"] < 0

    def test_monotonicity_under_refit(self, poincare):
        # scaling eta -> c*eta scales energy by c; after refit the ratio
        # energy/bound is invariant
        grid = disk_grid()
        f = map_identity(1)
        ratios = []
        for c_scale in (1.0, 2.0):
            target = scale_metric(poincare, c_scale)
            c = estimate_hypotheses(poincare, target, f, grid, "chern_lu", frame_cfg=CFG)
            v = chern_lu_verify(poincare, target, f, c, grid)
            assert v.passed
            ratios.append(v.sup_energy / v.bound)
        assert abs(ratios[0] - ratios[1]) < 1e-6


class TestNonIdentityMaps:
    def test_mobius_isometry_sharpness(self, poincare):
        # disk automorphisms are isometries of the disk metric: energy = 1,
        # both Schwarz bounds are attained
        from chernlab.maps import map_mobius

        f = map_mobius(0.3 + 0.1j)
        grid = disk_grid(half=0.25)
        c = estimate_hypotheses(poincare, poincare, f, grid, "chern_lu", frame_cfg=CFG)
        v = chern_lu_verify(poincare, poincare, f, c, grid)
        assert v.passed
        assert abs(v.sup_energy - 1.0) < 1e-8
        assert abs(v.bound - 1.0) < 1e-4
        c_ay = estimate_hypotheses(poincare, poincare, f, grid, "aubin_yau")
        v_ay = aubin_yau_verify(poincare, poincare, f, c_ay, grid)
        assert v_ay.passed
        assert abs(v_ay.bound - 1.0) < 1e-4

    def test_square_map_schwarz_pick(self, poincare):
        # z -> z^2 between disk metrics is distance-decreasing: energy < 1,
        # bound 1, strict pointwise margins
        from chernlab.maps import map_power

        f = map_power(2)
        grid = [np.array([0.35 + x * 0.05 + 1j * y * 0.05]) for x in range(3) for y in range(3)]
        c = estimate_hypotheses(poincare, poincare, f, grid, "chern_lu", frame_cfg=CFG)
        v = chern_lu_verify(poincare, poincare, f, c, grid)
        assert v.passed
        assert v.sup_energy < 1.0
        assert abs(v.bound - 1.0) < 1e-4
        assert all(rec["margin"] >= -1e-6 for rec in v.records)

    def test_family_two_dimensional(self):
        # identity of the complex-hyperbolic ball: kappa1 from the along-map
        # certification, kappa2 from the frame search, bound not sharp
        ch = catalog_metric("complex_hyperbolic", (2,))
        f = map_identity(2)
        grid = [np.array([x + 0.1j * y, 0.05 * y - 0.1j * x]) for x in (-0.2, 0.0, 0.2) for y in (-1.0, 1.0)]
        c = estimate_hypotheses(ch, ch, f, grid, "family", mu=ch, frame_cfg=CFG)
        assert abs(c.c1 - 3.0) < 1e-3  # Ric2 = -(n+1) mu for this model
        assert abs(c.c3 - 3.0) < 1e-3
        assert abs(c.kappa2 - 2.0) < 1e-3
        assert c.kappa1 >= 0
        v = family_verify(ch, ch, ch, f, c, grid)
        assert v.passed
        assert v.sup_energy <= v.bound


class TestFsMoment:
    def test_model_values(self):
        res = fs_moment_check(2, (1, 1, 1, 1), n_samples=200_000, seed=0)
        assert abs(res.target - 1.0 / 3.0) < 1e-15
        assert res.abs_err <= 3 * res.std_error
        res = fs_moment_check(2, (1, 1, 2, 2), n_samples=200_000, seed=0)
        assert abs(res.target - 1.0 / 6.0) < 1e-15
        assert res.abs_err <= 3 * res.std_error

    def test_phase_symmetric_zero(self):
        res = fs_moment_check(3, (1, 2, 1, 2), n_samples=100_000, seed=1)
        assert res.target == 0.0
        assert res.abs_err <= 4 * res.std_error

    def test_mc_convergence_rate(self):
        # quadrupling samples halves the error on average across seeds
        errs_small, errs_big = [], []
        for seed in range(20):
            errs_small.append(fs_moment_check(2, (1, 1, 1, 1), n_samples=10_000, seed=seed).abs_err)
            errs_big.append(fs_moment_check(2, (1, 1, 1, 1), n_samples=40_000, seed=seed).abs_err)
        assert np.mean(errs_big) < 0.75 * np.mean(errs_small)

    def test_bad_inputs(self):
        with pytest.raises(BadParams):
            fs_moment_check(1, (1, 1, 1, 1))
        with pytest.raises(BadParams):
            fs_moment_check(2, (1, 1, 1, 1), n_samples=100)
        with pytest.raises(BadIndices):
            fs_moment_check(2, (1, 1, 3, 1))
        with pytest.raises(BadIndices):
            fs_moment_check(2, (1, 1))


class TestAveragedHsc:
    def test_zero_tensor(self):
        fm = curvature_in_frame(np.zeros((2, 2, 2, 2)), np.eye(2))
        res = averaged_hsc_check(fm, np.array([1.0, 1.0]), n_samples=10_000, seed=0)
        assert res.lhs == 0.0 and res.rhs == 0.0

    def test_fs_normal_form(self):
        fs = catalog_metric("fubini_study", (2,))
        fm = curvature_in_frame(chern_curvature(fs, [0.0, 0.0]), np.eye(2))
        res = averaged_hsc_check(fm, np.array([1.0, 1.0]), n_samples=50_000, seed=0)
        assert abs(res.rhs - 2.0) < 1e-6
        assert res.abs_err <= 3 * res.std_error + 1e-9

    def test_single_axis_reduction(self):
        # b = e1: both sides reduce to 2 R_1111 / (n(n+1))
        fs = catalog_metric("fubini_study", (2,))
        fm = curvature_in_frame(chern_curvature(fs, [0.0, 0.0]), np.eye(2))
        res = averaged_hsc_check(fm, np.array([1.0, 0.0]), n_samples=100_000, seed=3)
        assert abs(res.rhs - 2.0 / 3.0) < 1e-6
        assert res.abs_err <= 3 * res.std_error


class TestTheorem23:
    def test_explicit_decomposition_example(self):
        # Sigma = diag(2, -4), antisymmetric Lambda: both quotients coincide
        sigma = np.diag([2.0, -4.0])
        lam = np.array([[0.0, 5.0], [-5.0, 0.0]])
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.random(2)
            q_sum = float(v @ (sigma + lam) @ v)
            q_sigma = float(v @ sigma @ v)
            assert abs(q_sum - q_sigma) < 1e-12

    def test_zero_tensor(self):
        rep = theorem23_check(2, trials=1, seed=0)
        assert rep["passed"]

    def test_property_batch(self):
        rep = theorem23_check(3, trials=100, seed=0)
        assert rep["max_discrepancy"] < 1e-10
        assert rep["passed"]

    def test_unknown_diagonal(self):
        with pytest.raises(BadParams):
            theorem23_check(3, trials=1, diagonal="bogus")

    def test_random_diagonal_structure(self):
        rep = theorem23_check(3, trials=50, seed=1, diagonal="random")
        assert rep["max_vs_sigma"] < 1e-10
        assert rep["max_rbc_vs_half_sigma"] < 1e-10
        assert rep["passed"]
