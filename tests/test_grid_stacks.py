"""Grid stacks: every map-side kernel and every Schwarz verifier takes a stack
of points in one call, each point keeping the bits it gets alone."""

import json

import numpy as np
import pytest

from chernlab.errors import BadParams, NearCriticalPoint, NonFiniteSample, RankDeficient
from chernlab.exprparse import parse_metric_expression
from chernlab.fd import (
    D1_OFFSETS,
    D1_WEIGHTS,
    D2_OFFSETS,
    D2_WEIGHTS,
    wirtinger_derivatives,
    wirtinger_hessian,
)
from chernlab.maps import (
    HolomorphicMapModel,
    energy_density,
    laplacian_energy,
    laplacian_log_energy,
    map_identity,
    map_mobius,
    map_power,
    map_product,
    singular_frames,
)
from chernlab.metrics import ChartedHermitianMetric, catalog_metric, point_norms, scale_metric
from chernlab.scenario import box_grid
from chernlab.tensors import trace_form
from chernlab.verify import SchwarzPass, estimate_hypotheses, schwarz_verify

DISK = catalog_metric("poincare_disk", (1.0,))
PD = catalog_metric("polydisk", (1.0, 1.0))
EU1 = catalog_metric("euclidean", (1,))
DISK_EXPR = parse_metric_expression("1/(1-abs2(z1))^2", 1)
PD_EXPR = parse_metric_expression("g[1][1] = 1/(1-abs2(z1))^2\ng[2][2] = 1/(1-abs2(z2))^2", 2)
MOBIUS2 = map_product([map_mobius(0.1 + 0.2j), map_mobius(-0.2 + 0.05j)])

# (map, source, target, grid): catalog and expression metrics, identity,
# Moebius-product and power maps, n = 1 and 2
CASES = {
    "identity_disk": (map_identity(1), DISK, scale_metric(DISK, 3.0), box_grid([0.1 + 0.05j], 0.3, 3)),
    "identity_disk_expr": (map_identity(1), DISK_EXPR, DISK, box_grid([0.1 + 0.05j], 0.3, 3)),
    "power_disk": (map_power(3), DISK, EU1, box_grid([0.2 - 0.1j], 0.25, 3)),
    "identity_polydisk": (map_identity(2), PD, scale_metric(PD, 3.0), box_grid([0.05, 0.1j], 0.25, 2)),
    "mobius_polydisk_expr": (MOBIUS2, PD_EXPR, PD, box_grid([0.05 - 0.1j, 0.1 + 0.02j], 0.25, 2)),
}


def _derivatives_loop(fun, z, h):
    """The per-sample loops by which ``wirtinger_derivatives`` differenced
    its samples before it worked on arrays, kept as the reference: one call
    of ``fun`` per sample, at the point ``z`` with real coordinate ``axis``
    moved by ``delta`` for each ``(axis, delta)`` of the sample's offset."""
    z = np.asarray(z, dtype=complex)
    n, x0 = len(z), np.concatenate([z.real, z.imag])

    def at(offsets):
        x = x0.copy()
        for axis, delta in offsets:
            x[axis] += delta
        return np.asarray(fun(x[:n] + 1j * x[n:]))

    base = at(())

    def d1(axis):
        acc = 0.0
        for off, w in zip(D1_OFFSETS, D1_WEIGHTS):
            acc = acc + w * (at(((axis, off * h),)) - base)
        return acc / h

    def d2(u, v):
        u, v = min(u, v), max(u, v)
        acc = 0.0
        if u == v:
            for off, w in zip(D2_OFFSETS, D2_WEIGHTS):
                if off != 0:
                    acc = acc + w * (at(((u, off * h),)) - base)
        else:
            for a, w_a in zip(D1_OFFSETS, D1_WEIGHTS):
                for b, w_b in zip(D1_OFFSETS, D1_WEIGHTS):
                    acc = acc + w_a * w_b * (at(((u, a * h), (v, b * h))) - base)
        return acc / h**2

    shape = np.shape(base)
    dz, dzbar = np.empty((n,) + shape, dtype=complex), np.empty((n,) + shape, dtype=complex)
    dzzbar = np.empty((n, n) + shape, dtype=complex)
    for i in range(n):
        dz[i] = 0.5 * (d1(i) - 1j * d1(n + i))
        dzbar[i] = 0.5 * (d1(i) + 1j * d1(n + i))
        for j in range(n):
            dzzbar[i, j] = 0.25 * (d2(i, j) + 1j * d2(i, n + j) - 1j * d2(n + i, j) + d2(n + i, n + j))
    return dz, dzbar, dzzbar


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _stacked(values):
    return np.stack([np.asarray(v) for v in values])


@pytest.mark.parametrize("name", sorted(CASES))
class TestStackedKernels:
    def test_wirtinger_hessian(self, name):
        f, src, tgt, grid = CASES[name]

        def u(zz):
            return np.log(energy_density(f, zz, src, tgt))

        h = 5e-3 * np.maximum(1.0, point_norms(grid))
        stacked = wirtinger_hessian(u, grid, h, u(grid))
        # the per-point reference is the loop over the samples of each point
        ref = [_derivatives_loop(u, z, float(hz))[2] for z, hz in zip(grid, h)]
        assert _same(stacked, _stacked(ref))
        assert _same(stacked, _stacked(wirtinger_hessian(u, z, float(hz), u(z)) for z, hz in zip(grid, h)))
        centre = np.log(energy_density(f, grid, src, tgt))
        assert _same(wirtinger_hessian(u, grid, h, centre), stacked)
        # steps whose square h * h rounds differently from h**2
        odd = np.resize([0.00140125, 0.00143325], len(grid))
        ref = [_derivatives_loop(u, z, float(hz))[2] for z, hz in zip(grid, odd)]
        assert _same(wirtinger_hessian(u, grid, odd, u(grid)), _stacked(ref))

    def test_metric_derivatives_match_the_loop(self, name):
        # the curvature path: a matrix-valued field at steps h and h/2 from one table
        _, src, _, grid = CASES[name]
        # h * h rounds differently from h**2 (libm pow) at 0.00140125 and 0.00143325
        for h in (1e-3, 5e-4, 0.00140125, 0.00143325):
            centre, coarse, fine = wirtinger_derivatives(src, grid[0], h)
            assert _same(centre, src(grid[0]))
            assert all(_same(a, b) for a, b in zip(coarse, _derivatives_loop(src, grid[0], h)))
            assert all(_same(a, b) for a, b in zip(fine, _derivatives_loop(src, grid[0], h / 2.0)))

    def test_laplacians(self, name):
        f, src, tgt, grid = CASES[name]
        log_lap = laplacian_log_energy(f, grid, src, tgt, singular_frames(f, grid, src, tgt))
        assert _same(log_lap, [laplacian_log_energy(f, z, src, tgt, singular_frames(f, z, src, tgt))
                               for z in grid])
        lap = laplacian_energy(f, grid, src, tgt, singular_frames(f, grid, src, tgt))
        assert _same(lap, [laplacian_energy(f, z, src, tgt, singular_frames(f, z, src, tgt)) for z in grid])

    def test_singular_frames(self, name):
        f, src, tgt, grid = CASES[name]
        stacked = singular_frames(f, grid, src, tgt)
        alone = [singular_frames(f, z, src, tgt) for z in grid]
        for field in ("lambdas", "rank", "source_frame", "target_frame", "energy"):
            assert _same(getattr(stacked, field), _stacked(getattr(sf, field) for sf in alone)), field
        assert _same(stacked.energy, energy_density(f, grid, src, tgt))
        assert isinstance(alone[0].rank, int) and isinstance(alone[0].energy, float)

    def test_trace_form(self, name):
        _, src, _, grid = CASES[name]
        other = scale_metric(src, 2.5)
        stacked = trace_form(src(grid), other(grid))
        assert _same(stacked, [trace_form(src(z), other(z)) for z in grid])
        assert isinstance(trace_form(src(grid[0]), other(grid[0])), float)


def _verify(sp, theorem, constants):
    """The verdict on the pass ``sp`` with the given constants, estimating the ones left out."""
    return schwarz_verify(sp, estimate_hypotheses(sp, theorem, constants))


def _records_json(verdict):
    return json.dumps(verdict.records)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verifier_records_match_per_point_runs(name):
    f, src, tgt, grid = CASES[name]
    n = f.source_dim
    runs = {
        "chern_lu": lambda g: _verify(
            SchwarzPass(src, tgt, f, g), "chern_lu", dict(c1=2.0, c2=0.0, kappa=0.5, r=n, n=n),
        ),
        "aubin_yau": lambda g: _verify(
            SchwarzPass(src, tgt, f, g), "aubin_yau", dict(c1=1.0, c2=0.5, kappa=0.3, r=n, n=n),
        ),
        "trace_bound": lambda g: _verify(
            SchwarzPass(src, tgt, None, g), "trace_bound", dict(c1=1.0, c2=0.0, kappa=3.0, n=n),
        ),
        "family": lambda g: _verify(
            SchwarzPass(src, tgt, f, g, src), "family",
            dict(c1=5.0, c2=0.0, c3=0.1, c4=5.0, kappa1=0.0, kappa2=1.0),
        ),
    }
    for theorem, run in runs.items():
        if theorem == "trace_bound" and src.dim != tgt.dim:
            continue
        whole = run(grid)
        # a list of points and the stack give the same verdict
        assert _records_json(run(list(grid))) == _records_json(whole)
        per_point = sum((run([z]).records for z in grid), [])
        assert _records_json(whole) == json.dumps(per_point), theorem


# critical points at 0.1 and -0.2: f'(z) = 2 (z - 0.1)(z + 0.2)(2z + 0.1)
TWO_CRITICAL = HolomorphicMapModel(
    1,
    1,
    lambda z: (z - 0.1) ** 2 * (z + 0.2) ** 2,
    lambda z: (2.0 * (z - 0.1) * (z + 0.2) * (2.0 * z + 0.1))[..., None],
    "two_critical",
)
FAILING_GRID = [np.array([0.3 + 0.0j]), np.array([0.1 + 0.0j]), np.array([-0.2 + 0.0j])]


class TestFirstFailingPoint:
    def test_near_critical_point(self):
        with pytest.raises(NearCriticalPoint, match=r"at \[0\.1\+0\.j\]"):
            laplacian_log_energy(TWO_CRITICAL, FAILING_GRID, EU1, EU1,
                                 singular_frames(TWO_CRITICAL, FAILING_GRID, EU1, EU1))
        with pytest.raises(NearCriticalPoint, match=r"at \[0\.1\+0\.j\]"):
            _verify(SchwarzPass(EU1, EU1, TWO_CRITICAL, FAILING_GRID), "chern_lu", {"c1": 1.0, "kappa": 1.0})
        # the identity from the disk into C^1 has energy (1 - |z|^2)^2: 1, 0.5625, 0.4096
        with pytest.raises(NearCriticalPoint, match=r"at \[0\.5\+0\.j\]"):
            laplacian_log_energy(map_identity(1), [[0.0], [0.5], [0.6]], DISK, EU1,
                                 singular_frames(map_identity(1), [[0.0], [0.5], [0.6]], DISK, EU1),
                                 critical_tol=0.6)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient, match=r"at \[0\.1\+0\.j\]"):
            laplacian_energy(TWO_CRITICAL, FAILING_GRID, EU1, EU1,
                             singular_frames(TWO_CRITICAL, FAILING_GRID, EU1, EU1))
        with pytest.raises(RankDeficient, match=r"at \[0\.1\+0\.j\]"):
            _verify(SchwarzPass(EU1, EU1, TWO_CRITICAL, FAILING_GRID), "aubin_yau", {"c1": 1.0, "kappa": 1.0})

    def test_non_finite_sample(self):
        def u(zz):
            return np.where(zz[..., 0].real > 0.4, np.inf, np.abs(zz[..., 0]) ** 2)

        with pytest.raises(NonFiniteSample, match=r"of \[0\.5\+0\.j\]"):
            wirtinger_hessian(u, [[0.0], [0.5], [0.7]], 1e-3, u(np.array([[0.0], [0.5], [0.7]])))
        assert np.allclose(wirtinger_hessian(u, [[0.0], [0.1]], 1e-3, u(np.array([[0.0], [0.1]]))), 1.0)


class TestEmptyGrid:
    def test_verifiers_refuse_an_empty_grid(self):
        c = dict(c1=2.0, c2=0.0, kappa=2.0, c3=1.0, kappa1=0.0, kappa2=1.0)
        f = map_identity(1)
        for run in (
            lambda: _verify(SchwarzPass(DISK, DISK, f, []), "chern_lu", c),
            lambda: _verify(SchwarzPass(DISK, DISK, f, []), "aubin_yau", c),
            lambda: _verify(SchwarzPass(DISK, DISK, None, []), "trace_bound", c),
            lambda: _verify(SchwarzPass(DISK, DISK, f, [], DISK), "family", c),
        ):
            with pytest.raises(BadParams, match="sample grid is empty"):
                run()

    def test_box_grid_needs_a_point_per_axis(self):
        with pytest.raises(BadParams):
            box_grid([0j], 0.3, 0)


class TestEvaluatorCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"metric": 0, "map": 0}
        for owner, key in ((ChartedHermitianMetric, "metric"), (HolomorphicMapModel, "map")):
            original = owner.__call__

            def counted(self, z, _original=original, _key=key):
                counts[_key] += 1
                return _original(self, z)

            monkeypatch.setattr(owner, "__call__", counted)
        return counts

    def test_singular_frames_evaluates_each_model_once(self, calls):
        # the source metric at z, the map at z and the target metric at f(z)
        sf = singular_frames(map_identity(1), [0.1 + 0.2j], DISK, DISK)
        assert calls == {"metric": 2, "map": 1}
        assert sf.energy == energy_density(map_identity(1), [0.1 + 0.2j], DISK, DISK)

    @pytest.mark.parametrize("theorem", ["chern_lu", "aubin_yau", "trace_bound"])
    def test_verifier_calls_do_not_grow_with_the_grid(self, calls, theorem):
        f = MOBIUS2
        c = dict(c1=1.0, c2=0.0, kappa=1.0, r=2, n=2)
        runs = {
            "chern_lu": lambda g: _verify(SchwarzPass(PD, PD, f, g), "chern_lu", c),
            "aubin_yau": lambda g: _verify(SchwarzPass(PD, PD, f, g), "aubin_yau", c),
            "trace_bound": lambda g: _verify(SchwarzPass(PD, PD_EXPR, None, g), "trace_bound", c),
        }
        grid = box_grid([0.05 - 0.1j, 0.1 + 0.02j], 0.25, 2)
        seen = []
        for g in (grid[:1], grid):
            calls.update(metric=0, map=0)
            runs[theorem](g)
            seen.append(dict(calls))
        assert len(grid) == 16 and seen[0] == seen[1]
        # (metric, map) calls; each call of the product map calls its two
        # factors too, and its closed-form differential calls neither.  An
        # energy evaluation is (2, 1): the source metric, the map at z and
        # the target metric at f(z); the 80 stencil samples of every point
        # are one of them.  chern_lu and aubin_yau: the singular frames of
        # the pass (2, 1), whose energies are the record, the critical-point
        # check and the stencil centres, and whose source metric and pullback
        # are the traces, and the stencils less their centres.
        energy = (2, 1)
        expected = {
            "chern_lu": (2 + energy[0], 1 + energy[1]),
            "aubin_yau": (2 + energy[0], 1 + energy[1]),
            "trace_bound": (2, 0),
        }[theorem]
        assert (seen[0]["metric"], seen[0]["map"] // 3) == expected

    @pytest.mark.parametrize("theorem", ["chern_lu", "aubin_yau", "family"])
    def test_estimate_evaluates_the_map_once(self, calls, theorem):
        # the singular frames of the grid give every constant its Jacobians,
        # pullbacks, image points and target metric at f(z)
        grid = (0.05 * np.arange(6) + 0.02j)[:, None]
        estimate_hypotheses(SchwarzPass(DISK, scale_metric(DISK, 3.0), map_identity(1), grid,
                                        DISK if theorem == "family" else None), theorem=theorem)
        assert calls["map"] == 1

