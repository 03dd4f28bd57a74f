import dataclasses
import itertools
import tracemalloc

import numpy as np
import oracles
import pytest

from chernlab.curvature import chern_curvature
from chernlab.errors import (
    BadIndices,
    BadParams,
    FormInequalityViolated,
    HypothesisSignError,
    InfeasibleHypothesis,
    UnboundedSbc,
)
from chernlab.maps import map_identity, map_linear
from chernlab.metrics import catalog_metric, scale_metric
from chernlab.scenario import box_grid
from chernlab.tensors import curvature_in_frame
from chernlab.verify import (
    SchwarzPass,
    SchwarzVerdict,
    averaged_hsc_check,
    estimate_hypotheses,
    fs_moment_check,
    schwarz_verify,
    theorem23_check,
)
from chernlab.verify import _theorem23_discrepancy, _theorem23_spanning_set



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
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, map_identity(1), disk_grid()), "chern_lu")
        assert abs(c.values["c1"] - 2.0) < 1e-6
        assert c.values["c2"] == 0.0
        assert abs(c.values["kappa"] - 2.0) < 1e-6
        assert c.values["r"] == 1
        assert c.provenance["c1"] == "estimated"
        assert "c1" in c.achieved_at

    def test_flat_case_infeasible(self):
        eu = catalog_metric("euclidean", (1,))
        with pytest.raises(InfeasibleHypothesis):
            estimate_hypotheses(SchwarzPass(eu, eu, map_identity(1), disk_grid()), "chern_lu")

    def test_positive_rbc_infeasible(self):
        fs = catalog_metric("fubini_study", (2,))
        with pytest.raises(InfeasibleHypothesis):
            estimate_hypotheses(SchwarzPass(fs, fs, map_identity(2), [np.zeros(2)]), "chern_lu")

    def test_full_cone_kappa_unbounded(self):
        ch = catalog_metric("complex_hyperbolic", (2,))
        with pytest.raises(UnboundedSbc):
            estimate_hypotheses(
                SchwarzPass(ch, ch, map_identity(2), [np.zeros(2)]), "aubin_yau",
                kappa_mode="full_cone",
            )

    def test_unknown_kappa_mode(self, poincare):
        with pytest.raises(BadParams):
            estimate_hypotheses(SchwarzPass(poincare, poincare, map_identity(1), disk_grid()), "aubin_yau",
                                kappa_mode="auto")

    def test_aubin_yau_along_map_kappa(self, poincare):
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, map_identity(1), disk_grid()), "aubin_yau")
        assert abs(c.values["c1"] - 2.0) < 1e-6
        assert abs(c.values["kappa"] - 2.0) < 1e-6

    def test_user_constants_kept(self, poincare):
        c = estimate_hypotheses(
            SchwarzPass(poincare, poincare, map_identity(1), disk_grid()), "chern_lu",
            fixed={"c2": 0.0, "kappa": 2.0},
        )
        assert c.provenance["kappa"] == "user"
        assert abs(c.values["c1"] - 2.0) < 1e-6

    def test_given_r_is_kept(self):
        # r and n given are kept; r left out is the map's greatest rank on the grid
        pd = catalog_metric("polydisk", (1.0, 1.0))
        grid = [np.array([0.1, -0.2j]), np.array([0.2j, 0.1])]
        for theorem, mu in (("chern_lu", None), ("family", pd)):
            c = estimate_hypotheses(SchwarzPass(pd, pd, map_identity(2), grid, mu), theorem,
                                    fixed={"r": 1, "n": 3})
            assert (c.values["r"], c.values["n"]) == (1, 3)
            assert c.provenance["r"] == c.provenance["n"] == "user"
            c = estimate_hypotheses(SchwarzPass(pd, pd, map_identity(2), grid, mu), theorem)
            assert (c.values["r"], c.values["n"]) == (2, 2) and "r" not in c.provenance

    def test_r_of_a_map_of_rank_one(self):
        # (z1, z2) -> (z1, 0) has rank 1 at every point: r = 1, not n = 2
        pd = catalog_metric("polydisk", (1.0, 1.0))
        grid = [np.array([0.1, -0.2j]), np.array([0.2j, 0.1])]
        sp = SchwarzPass(pd, pd, map_linear(np.array([[1.0, 0.0], [0.0, 0.0]])), grid)
        c = estimate_hypotheses(sp, "chern_lu", fixed={"c1": 2.0, "c2": 0.0, "kappa": 1.0})
        assert c.values["r"] == 1 and c.values["n"] == 2
        v = schwarz_verify(sp, c)
        assert abs(v.bound - 2.0) < 1e-12 and v.passed

    def test_unknown_names(self, poincare):
        sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid())
        for args, message in (
            (("bogus",), "unknown theorem 'bogus'"),
            (("chern_lu", {"c5": 1.0}), "unknown constant 'c5'"),
            (("chern_lu", None, "along_map", "liouville"), "theorem 'chern_lu' has no preset 'liouville'"),
            (("family", None, "along_map", "bogus"), "theorem 'family' has no preset 'bogus'"),
        ):
            with pytest.raises(BadParams, match=message):
                estimate_hypotheses(sp, *args)


class TestChernLu:
    def test_conformal_equality_case(self, poincare):
        p3 = scale_metric(poincare, 3.0)
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, p3, map_identity(1), grid), "chern_lu")
        v = schwarz_verify(SchwarzPass(poincare, p3, map_identity(1), grid), c)
        assert v.passed
        assert abs(v.bound - 3.0) < 1e-4
        assert abs(v.sup_energy - 3.0) < 1e-8
        assert all(abs(rec["margin"]) < 1e-5 for rec in v.records)

    def test_same_metric(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, map_identity(1), grid), "chern_lu")
        v = schwarz_verify(SchwarzPass(poincare, poincare, map_identity(1), grid), c)
        assert v.passed and abs(v.bound - 1.0) < 1e-4

    def test_critical_point_guard(self, poincare):
        from chernlab.errors import NearCriticalPoint
        from chernlab.maps import map_linear

        eu = catalog_metric("euclidean", (1,))
        near_constant = map_linear(np.array([[1e-9]]))
        sp = SchwarzPass(eu, poincare, near_constant, disk_grid())
        c = estimate_hypotheses(sp, "chern_lu", {"c1": 2.0, "c2": 0.0, "kappa": 2.0, "r": 1, "n": 1})
        with pytest.raises(NearCriticalPoint):
            schwarz_verify(sp, c)

    def test_sign_errors(self, poincare):
        sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid())
        with pytest.raises(HypothesisSignError, match="needs c2 >= 0"):
            estimate_hypotheses(sp, "chern_lu", {"c1": 2.0, "c2": -1.0, "kappa": 2.0})
        with pytest.raises(HypothesisSignError, match="needs kappa \\+ c2 > 0"):
            estimate_hypotheses(sp, "chern_lu", {"c1": 2.0, "c2": 0.0, "kappa": 0.0})
        # the /r step of the right-hand side needs kappa >= 0, whatever C2 is
        with pytest.raises(HypothesisSignError, match="needs kappa >= 0, got kappa = -0.5"):
            estimate_hypotheses(sp, "chern_lu", {"c1": 2.0, "c2": 1.0, "kappa": -0.5})
        # the verifier states the same rules for constants changed after the estimate
        c = estimate_hypotheses(sp, "chern_lu", {"c1": 2.0, "c2": 1.0, "kappa": 0.5})
        c.values["kappa"] = -0.5
        with pytest.raises(HypothesisSignError, match="needs kappa >= 0"):
            schwarz_verify(sp, c)
        del c.values["kappa"]
        with pytest.raises(HypothesisSignError, match="needs the constants \\['kappa'\\]"):
            schwarz_verify(sp, c)


class TestAubinYau:
    def test_equality_case(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, map_identity(1), grid), "aubin_yau")
        v = schwarz_verify(SchwarzPass(poincare, poincare, map_identity(1), grid), c)
        assert v.passed
        assert abs(v.bound - 1.0) < 1e-4
        assert abs(v.sup_energy - 1.0) < 1e-8
        # both margins recorded; the strict one is no larger than the displayed one
        for rec in v.records:
            assert rec["margin_strict"] <= rec["margin"] + 1e-12

    def test_flat_infeasible(self):
        eu = catalog_metric("euclidean", (1,))
        with pytest.raises(InfeasibleHypothesis):
            estimate_hypotheses(SchwarzPass(eu, eu, map_identity(1), disk_grid()), "aubin_yau")

    def test_flat_source_with_c2(self, poincare):
        # flat source: kappa = 0; constants fit with C2 > 0 against the omega
        # form; the differential inequality holds pointwise (the global bound
        # is a compactness statement and the open chart may miss it, which the
        # verdict reports honestly)
        eu2 = scale_metric(catalog_metric("euclidean", (1,)), 2.0)
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(eu2, poincare, map_identity(1), grid), "aubin_yau",
                                fixed={"c2": 1.0})
        assert abs(c.values["kappa"]) < 1e-8
        assert c.values["c1"] > 0
        v = schwarz_verify(SchwarzPass(eu2, poincare, map_identity(1), grid), c)
        assert all(rec["margin"] >= -1e-5 for rec in v.records)
        assert all(rec["margin_strict"] >= -1e-5 for rec in v.records)
        assert v.notes["grid_semantics"] == "sup over sampled grid"


class TestFamily:
    def test_poincare_equality(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, map_identity(1), grid, poincare), "family")
        v = schwarz_verify(SchwarzPass(poincare, poincare, map_identity(1), grid, poincare), c)
        assert v.passed
        assert abs(v.bound - 1.0) < 1e-4

    def test_chen_cheng_lu_preset(self, poincare):
        # the preset derives C1 = (kappa2 + C2) / (kappa2 n r) C3 and fixes C4 = 0
        sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid(), poincare)
        c = _family(sp, "chen_cheng_lu", c2=0.0, c3=2.0, kappa1=2.0, kappa2=2.0, n=1, r=1)
        v = schwarz_verify(sp, c)
        assert v.passed and v.theorem == "family:chen_cheng_lu"
        assert abs(v.bound - 1.0) < 1e-12
        assert abs(v.constants.values["c1"] - 2.0) < 1e-12
        assert c.provenance["c1"] == c.provenance["c4"] == "preset"
        with pytest.raises(HypothesisSignError, match="needs c4 = 0.0"):
            _family(sp, "chen_cheng_lu", c2=0.0, c3=2.0, c4=1.0, kappa1=2.0, kappa2=2.0)
        with pytest.raises(HypothesisSignError, match="needs C1 = "):
            schwarz_verify(sp, _family(sp, "chen_cheng_lu", c1=1.0, c2=0.0, c3=2.0, kappa1=2.0, kappa2=2.0))

    def test_chen_cheng_lu_fits_what_is_left_out(self, poincare):
        # C3, kappa1 and kappa2 are fitted with C4 = 0, then C1 derived, not
        # fitted; C2, the shift of C1's pencil, is 0 and was not fitted either
        sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid(), poincare)
        c = estimate_hypotheses(sp, "family", preset="chen_cheng_lu")
        assert c.provenance == {"c1": "preset", "c3": "estimated", "c4": "preset",
                                "kappa1": "estimated", "kappa2": "estimated"}
        assert c.values["c2"] == 0.0
        assert abs(c.values["c1"] - 2.0) < 1e-6
        assert schwarz_verify(sp, c).passed

    def test_ricci_only_preset(self, poincare):
        sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid(), poincare)
        v = schwarz_verify(sp, _family(sp, "ricci_only", c1=2.0, c2=0.0, c3=2.0, c4=0.0, kappa1=2.0,
                                       kappa2=2.0, n=1, r=1))
        assert v.passed and abs(v.bound - 1.0) < 1e-12

    def test_ricci_only_constraint_violated(self, poincare):
        sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid(), poincare)
        c = _family(sp, "ricci_only", c1=2.0, c2=0.0, c3=2.0, c4=5.0, kappa1=2.0, kappa2=2.0, n=1, r=1)
        with pytest.raises(HypothesisSignError, match="needs n r"):
            schwarz_verify(sp, c)

    def test_liouville_contradiction_flag(self, poincare):
        sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid(), poincare)
        v = schwarz_verify(sp, _family(sp, "liouville", c1=2.0, c2=0.0, c3=1.0, c4=-1.0, kappa1=1.0,
                                       kappa2=2.0, n=1, r=1))
        assert v.passed
        assert v.bound <= 0.0
        assert v.notes["liouville_contradiction"]
        with pytest.raises(HypothesisSignError, match="needs kappa1 \\+ c4 <= 0"):
            _family(sp, "liouville", c1=2.0, c2=0.0, c3=1.0, c4=-1.0, kappa1=1.5, kappa2=2.0)

    def test_form_inequality_violated(self, poincare):
        # C3 too large: Ric2_mu <= -C3 mu fails pointwise
        sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid(), poincare)
        c = _family(sp, None, c1=2.0, c2=0.0, c3=5.0, c4=0.0, kappa1=2.0, kappa2=2.0, n=1, r=1)
        with pytest.raises(FormInequalityViolated) as info:
            schwarz_verify(sp, c)
        assert info.value.point is not None
        assert info.value.eigenvalue < 0


def _family(sp, preset, **fixed):
    return estimate_hypotheses(sp, "family", fixed, preset=preset)


class TestTraceBound:
    def test_equality_case(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, None, grid), "trace_bound")
        v = schwarz_verify(SchwarzPass(poincare, poincare, None, grid), c)
        assert v.passed
        assert abs(v.bound - 1.0) < 1e-4
        assert abs(v.sup_energy - 1.0) < 1e-10

    def test_half_target(self, poincare):
        half = scale_metric(poincare, 0.5)
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, half, None, grid), "trace_bound")
        v = schwarz_verify(SchwarzPass(poincare, half, None, grid), c)
        assert v.passed
        assert abs(v.sup_energy - 0.5) < 1e-10

    def test_flat_target_infeasible(self, poincare):
        eu = catalog_metric("euclidean", (1,))
        with pytest.raises(InfeasibleHypothesis):
            estimate_hypotheses(SchwarzPass(poincare, eu, None, disk_grid()), "trace_bound")


class TestNegativeDiscipline:
    """Deliberately violated hypotheses must fail with a localized worst point."""

    def test_stale_constants_after_rescale(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, scale_metric(poincare, 1.0), map_identity(1), grid), "chern_lu")
        v = schwarz_verify(SchwarzPass(poincare, scale_metric(poincare, 4.0), map_identity(1), grid), c)
        assert not v.passed
        assert v.sup_energy > v.bound
        assert v.notes["worst_point"] is not None

    def test_stale_trace_bound(self, poincare):
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, None, grid), "trace_bound")
        v = schwarz_verify(SchwarzPass(poincare, scale_metric(poincare, 2.0), None, grid), c)
        assert not v.passed
        worst = v.worst()
        assert worst["margin"] < 0

    def test_worst_point_ignores_margin_noise(self, poincare):
        # margins equal in exact arithmetic, jittered by FD-sized noise: the
        # worst point stays the first grid point; a margin lower by more than
        # tol is still found
        grid = disk_grid()
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, None, grid), "trace_bound")
        jitter = np.random.default_rng(0).uniform(-1e-9, 1e-9, len(grid))
        assert np.argmin(jitter) != 0
        records = [{"z": [[k, 0.0]], "energy": 1.0, "margin": 0.5 + e} for k, e in enumerate(jitter)]
        v = SchwarzVerdict("trace_bound", records, 1.0, 1.0, True, 1e-6, c)
        assert v.worst()["z"] == [[0, 0.0]]
        records[4]["margin"] = 0.5 - 1e-5
        assert v.worst()["z"] == [[4, 0.0]]
        # the verdict's worst_point note is that record
        v = schwarz_verify(SchwarzPass(poincare, scale_metric(poincare, 1.5), None, grid), c)
        assert v.notes["worst_point"] == v.worst()["z"]

    def test_family_worst_point_ignores_margin_noise(self):
        # the family margins of the identity polydisk(1,1) -> 3 polydisk(1,1)
        # (mu = polydisk(1,1)) are equal in exact arithmetic and differ by FD
        # noise: the worst point is the first grid point, by the rule every
        # theorem shares, and min_form_eigenvalue is still the least margin
        pd = catalog_metric("polydisk", (1.0, 1.0))
        sp = SchwarzPass(pd, scale_metric(pd, 3.0), map_identity(2), box_grid([0.1, -0.1j], 0.2, 2), pd)
        c = estimate_hypotheses(sp, "family", {"c1": 2.0, "c2": 0.0, "c3": 1.0, "kappa1": 0.0, "kappa2": 1.0})
        v = schwarz_verify(sp, c)
        margins = [rec["margin"] for rec in v.records]
        assert np.argmin(margins) != 0 and max(margins) - min(margins) < v.tol
        assert v.notes["worst_point"] == v.worst()["z"] == v.records[0]["z"]
        assert v.notes["min_form_eigenvalue"] == min(margins)

    def test_monotonicity_under_refit(self, poincare):
        # scaling eta -> c*eta scales energy by c; after refit the ratio
        # energy/bound is invariant
        grid = disk_grid()
        f = map_identity(1)
        ratios = []
        for c_scale in (1.0, 2.0):
            target = scale_metric(poincare, c_scale)
            c = estimate_hypotheses(SchwarzPass(poincare, target, f, grid), "chern_lu")
            v = schwarz_verify(SchwarzPass(poincare, target, f, grid), c)
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
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, f, grid), "chern_lu")
        v = schwarz_verify(SchwarzPass(poincare, poincare, f, grid), c)
        assert v.passed
        assert abs(v.sup_energy - 1.0) < 1e-8
        assert abs(v.bound - 1.0) < 1e-4
        c_ay = estimate_hypotheses(SchwarzPass(poincare, poincare, f, grid), "aubin_yau")
        v_ay = schwarz_verify(SchwarzPass(poincare, poincare, f, grid), c_ay)
        assert v_ay.passed
        assert abs(v_ay.bound - 1.0) < 1e-4

    def test_square_map_schwarz_pick(self, poincare):
        # z -> z^2 between disk metrics is distance-decreasing: energy < 1,
        # bound 1, strict pointwise margins
        from chernlab.maps import map_power

        f = map_power(2)
        grid = [np.array([0.35 + x * 0.05 + 1j * y * 0.05]) for x in range(3) for y in range(3)]
        c = estimate_hypotheses(SchwarzPass(poincare, poincare, f, grid), "chern_lu")
        v = schwarz_verify(SchwarzPass(poincare, poincare, f, grid), c)
        assert v.passed
        assert v.sup_energy < 1.0
        assert abs(v.bound - 1.0) < 1e-4
        assert all(rec["margin"] >= -1e-6 for rec in v.records)

    def test_family_two_dimensional(self):
        # identity of the complex-hyperbolic ball: kappa1 from the along-map
        # certification, kappa2 from the exact n = 2 RBC, bound not sharp
        ch = catalog_metric("complex_hyperbolic", (2,))
        f = map_identity(2)
        grid = [np.array([x + 0.1j * y, 0.05 * y - 0.1j * x]) for x in (-0.2, 0.0, 0.2) for y in (-1.0, 1.0)]
        c = estimate_hypotheses(SchwarzPass(ch, ch, f, grid, ch), "family")
        assert abs(c.values["c1"] - 3.0) < 1e-3  # Ric2 = -(n+1) mu for this model
        assert abs(c.values["c3"] - 3.0) < 1e-3
        assert abs(c.values["kappa2"] - 2.0) < 1e-3
        assert c.values["kappa1"] >= 0
        v = schwarz_verify(SchwarzPass(ch, ch, f, grid, ch), c)
        assert v.passed
        assert v.sup_energy <= v.bound


class TestFsMoment:
    def test_model_values(self):
        res = fs_moment_check(2, (1, 1, 1, 1))
        assert abs(res.rhs - 1.0 / 3.0) < 1e-15
        assert res.abs_err <= res.std_error and res.passed
        res = fs_moment_check(2, (1, 1, 2, 2))
        assert abs(res.rhs - 1.0 / 6.0) < 1e-15
        assert res.abs_err <= res.std_error and res.passed

    def test_phase_symmetric_zero(self):
        res = fs_moment_check(3, (1, 2, 1, 2))
        assert res.rhs == 0.0
        assert res.abs_err <= res.std_error and res.passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_index_tuple_is_exact(self, n):
        for indices in itertools.product(range(1, n + 1), repeat=4):
            res = fs_moment_check(n, indices)
            i, j, k, l = indices
            closed = ((i == j) * (k == l) + (i == l) * (k == j)) / (n * (n + 1))
            assert res.rhs == closed
            assert abs(res.lhs - closed) < 1e-14, indices
            assert 0.0 < res.std_error <= 1e-13 and res.passed, indices

    def test_shifted_target_fails(self):
        # the check resolves a wrong closed form far below the old Monte Carlo
        # standard error (3e-4 at 1e6 samples)
        for res in (fs_moment_check(2, (1, 1, 1, 1)), fs_moment_check(3, (1, 2, 2, 1))):
            shifted = dataclasses.replace(res, rhs=res.rhs + 1e-6)
            assert not shifted.passed
            assert shifted.abs_err > 5 * shifted.std_error

    def test_node_count(self):
        # a count, not a timing: 3 phases on 3 free touched coordinates per simplex node
        assert fs_moment_check(64, (1, 2, 3, 4)).nodes == 27 * 64
        assert fs_moment_check(64, (5, 5, 5, 5)).nodes == 64
        assert fs_moment_check(2, (1, 2, 2, 1)).nodes == 6

    def test_bad_inputs(self):
        with pytest.raises(BadParams):
            fs_moment_check(1, (1, 1, 1, 1))
        with pytest.raises(BadIndices):
            fs_moment_check(2, (1, 1, 3, 1))
        with pytest.raises(BadIndices):
            fs_moment_check(2, (1, 1))


class TestAveragedHsc:
    def test_zero_tensor(self):
        fm = curvature_in_frame(np.zeros((2, 2, 2, 2)), np.eye(2))
        res = averaged_hsc_check(fm, np.array([1.0, 1.0]))
        assert res.lhs == 0.0 and res.rhs == 0.0

    def test_fs_normal_form(self):
        fs = catalog_metric("fubini_study", (2,))
        fm = curvature_in_frame(chern_curvature(fs, [0.0, 0.0]), np.eye(2))
        res = averaged_hsc_check(fm, np.array([1.0, 1.0]))
        assert abs(res.rhs - 2.0) < 1e-6
        assert res.abs_err <= res.std_error and res.passed

    def test_single_axis_reduction(self):
        # b = e1: both sides reduce to 2 R_1111 / (n(n+1))
        fs = catalog_metric("fubini_study", (2,))
        fm = curvature_in_frame(chern_curvature(fs, [0.0, 0.0]), np.eye(2))
        res = averaged_hsc_check(fm, np.array([1.0, 0.0]))
        assert abs(res.rhs - 2.0 / 3.0) < 1e-6
        assert res.abs_err <= res.std_error and res.passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_conjugation_symmetric_tensors(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            t = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
            fm = curvature_in_frame((t + np.conj(np.transpose(t, (1, 0, 3, 2)))) / 2.0, np.eye(n))
            b2 = rng.random(n) * 2.0
            res = averaged_hsc_check(fm, np.sqrt(b2))
            closed = b2 @ fm.q_mat() @ b2 / (n * (n + 1))
            assert abs(res.lhs - closed) < 1e-13
            assert 0.0 < res.std_error <= 1e-13 and res.passed
            shifted = dataclasses.replace(res, rhs=res.rhs + 1e-6)
            assert not shifted.passed and shifted.abs_err > 5 * shifted.std_error


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
        assert _theorem23_discrepancy(np.zeros((2, 2, 2, 2))) == 0.0

    def test_property_batch(self):
        rep = theorem23_check(3)
        assert rep == {"n": 3, "tensors": 33, "max_discrepancy": 0.0, "passed": True}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exact_on_the_spanning_set(self, n):
        rep = theorem23_check(n)
        assert rep["tensors"] == 4 * n * n - n
        assert rep["max_discrepancy"] == 0.0 and rep["passed"]

    def test_memory_grows_like_n4(self):
        # the spanning set is contracted in batches of at most 2^18 entries: all 564 tensors of
        # n = 12 at once would hold 187 MB, and their contraction more
        tracemalloc.start()
        try:
            rep = theorem23_check(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep == {"n": 12, "tensors": 564, "max_discrepancy": 0.0, "passed": True}
        assert peak < 32 * 2**20

    def test_batches_cover_the_spanning_set(self):
        n = 4
        whole = _theorem23_spanning_set(n)
        batches = [_theorem23_spanning_set(n, slice(k, k + 16)) for k in range(0, len(whole), 16)]
        assert np.array_equal(np.concatenate(batches), whole)

    def test_spanning_set_is_admissible(self):
        # conjugation-symmetric, and pair-swap antisymmetric but for the real
        # diagonal quartics, which are its last n tensors
        n = 3
        t = _theorem23_spanning_set(n)
        assert np.array_equal(t, np.conj(np.transpose(t, (0, 2, 1, 4, 3))))
        k = np.arange(n)
        quartics = np.zeros_like(t)
        quartics[:, k, k, k, k] = t[:, k, k, k, k]
        assert np.array_equal(t - quartics, -np.transpose(t - quartics, (0, 3, 4, 1, 2)))
        assert np.array_equal(quartics[-n:], t[-n:]) and not np.any(quartics[:-n])

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_tensor_without_the_antisymmetry_fails(self, n):
        # Fubini-Study at 0 is pair-swap symmetric: sym(R_mat + P_mat) = 2 (J + I) is not Sigma = 4 I
        assert _theorem23_discrepancy(oracles.fs_tensor(np.zeros(n))) == 2.0
        # nor are the entrywise moduli of the spanning set, which are pair-swap symmetric
        t = _theorem23_spanning_set(n)
        assert _theorem23_discrepancy(np.abs(t)) > 0.0

    def test_each_statement_is_checked(self):
        # pair-swap symmetric (a, a, g, g) entries cancelled by (a, g, g, a) ones
        # break only sym(R_mat) = Sigma/2, and (a, g, g, a) ones alone only
        # sym(R_mat + P_mat) = Sigma
        swapped = np.zeros((2, 2, 2, 2))
        swapped[0, 1, 1, 0] = swapped[1, 0, 0, 1] = 1.0
        cancelled = -swapped
        cancelled[0, 0, 1, 1] = cancelled[1, 1, 0, 0] = 1.0
        assert _theorem23_discrepancy(cancelled) == 1.0
        assert _theorem23_discrepancy(swapped) == 1.0

    def test_unknown_diagonal(self):
        # the construction's settings are gone: the check takes n alone
        with pytest.raises(TypeError):
            theorem23_check(3, diagonal="random")
        with pytest.raises(BadParams):
            theorem23_check(1)

    def test_no_trials(self):
        # no random draws: one deterministic set, whatever the seed of a run
        with pytest.raises(TypeError):
            theorem23_check(3, trials=100)
        assert theorem23_check(4) == theorem23_check(4)

    def test_random_diagonal_structure(self):
        # random admissible tensors with random real diagonal quartics, the
        # old construction, agree with the spanning set to rounding
        rng = np.random.default_rng(1)
        n = 3
        t = rng.standard_normal((50,) + (n,) * 4) + 1j * rng.standard_normal((50,) + (n,) * 4)
        t = (t + np.conj(np.transpose(t, (0, 2, 1, 4, 3)))) / 2.0
        t = (t - np.transpose(t, (0, 3, 4, 1, 2))) / 2.0
        k = np.arange(n)
        t[:, k, k, k, k] = rng.standard_normal((50, n))
        assert _theorem23_discrepancy(t) < 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("name", ["c1", "c2", "kappa", "tol"])
def test_verifiers_refuse_non_finite_constants(poincare, name, value):
    # the estimator refuses a given constant, and the verifier a constant or
    # tol, that is NaN or past the range of a double before it is used
    sp = SchwarzPass(poincare, poincare, map_identity(1), disk_grid(), poincare)
    trace = SchwarzPass(poincare, poincare, None, disk_grid())
    base = dict(c1=2.0, c2=0.0, c3=2.0, c4=0.0, kappa=2.0, kappa1=2.0, kappa2=2.0, n=1, r=1)
    family = {"kappa": "kappa1"}.get(name, name)
    for theorem, pass_, key in (("chern_lu", sp, name), ("aubin_yau", sp, name),
                                ("family", sp, family), ("trace_bound", trace, name)):
        if name == "tol":
            with pytest.raises(BadParams, match="tol must be finite, got "):
                schwarz_verify(pass_, estimate_hypotheses(pass_, theorem, base), tol=value)
        else:
            with pytest.raises(HypothesisSignError, match=f"constants must be finite, got {key} = "):
                estimate_hypotheses(pass_, theorem, {**base, key: value})
            c = estimate_hypotheses(pass_, theorem, base)
            c.values[key] = value
            with pytest.raises(HypothesisSignError, match=f"constants must be finite, got {key} = "):
                schwarz_verify(pass_, c)
