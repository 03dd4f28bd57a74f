"""Stacked curvature stencils: ``chern_curvature`` and ``metric_derivatives``
on a ``(P, n)`` stack make one metric call per stencil offset, give every
point the bits it gets alone, and raise what the first failing point raises
alone."""

import numpy as np
import pytest

from chernlab.curvature import chern_curvature
from chernlab.errors import DomainMarginError, NonFiniteSample, ResidueTooLarge
from chernlab.exprparse import parse_metric_expression
from chernlab.fd import wirtinger_derivatives
from chernlab.metrics import ChartedHermitianMetric, Domain, catalog_metric, metric_derivatives
from test_grid_stacks import _derivatives_loop

# one-point metric calls of chern_curvature, which the benchmark's traced runs check
ONE_POINT_CALLS = {1: 41, 2: 193, 3: 457, 4: 833}


def _catalog(n):
    yield f"euclidean({n})", catalog_metric("euclidean", (n,)), 0.8, 0.0
    yield f"fubini_study({n})", catalog_metric("fubini_study", (n,)), 1.5, 0.0
    yield f"complex_hyperbolic({n})", catalog_metric("complex_hyperbolic", (n,)), 0.6, 0.0
    yield f"polydisk({n})", catalog_metric("polydisk", tuple(1.0 + 0.5 * k for k in range(n))), 0.5, 0.0
    yield f"hopf({n})", catalog_metric("hopf", (n,)), 1.5, 0.7
    if n == 1:
        yield "poincare_disk(2)", catalog_metric("poincare_disk", (2.0,)), 0.7, 0.0


EXPRESSION = parse_metric_expression(
    "g[1][1] = 2 + abs2(z1) + re(z2)^2\ng[2][2] = 1/(1-abs2(z2))^2\ng[1][2] = 0.1*z1*conj(z2)", 2)
CASES = {label: (metric, radius, inner) for n in (1, 2, 3) for label, metric, radius, inner in _catalog(n)}
CASES["expression(2)"] = (EXPRESSION, 0.5, 0.0)


def _points(metric, radius, inner, count=9, seed=3):
    """``count`` points of the metric's domain at norms up to ``radius`` (at
    least ``inner``), some with |z| > 1 so that the steps differ."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1, 1, (count, metric.dim)) + 1j * rng.uniform(-1, 1, (count, metric.dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True) * rng.uniform(max(inner, 0.05), radius, (count, 1))


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _counting(metric):
    """``metric`` with a counter of its evaluator calls."""
    calls = []

    def evaluator(z):
        calls.append(z.shape)
        return metric.evaluator(z)

    counted = ChartedHermitianMetric(metric.dim, metric.domain, evaluator, metric.label, metric.kahler)
    return counted, calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_stack_matches_each_point_alone(name):
    metric, radius, inner = CASES[name]
    points = _points(metric, radius, inner)
    tensors, md = chern_curvature(metric, points, return_derivs=True)
    for k, z in enumerate(points):
        tensor, alone = chern_curvature(metric, z, return_derivs=True)
        assert _same(tensors[k], tensor)
        for field in ("g", "dg", "dbar_g", "ddbar_g"):
            assert _same(getattr(md, field)[k], getattr(alone, field)), field
        assert md.error_estimate[k] == alone.error_estimate and md.step[k] == alone.step
    derivs = metric_derivatives(metric, points)
    for field in ("g", "dg", "dbar_g", "ddbar_g", "error_estimate"):
        assert _same(getattr(derivs, field), getattr(md, field)), field


@pytest.mark.parametrize("name", ["polydisk(2)", "hopf(3)", "expression(2)"])
def test_stacked_field_matches_the_sample_loop(name):
    # each point of a stacked field, with its own step, against the loop over
    # its samples alone at steps h and h/2; h * h rounds differently from
    # h**2 at these steps
    metric, radius, inner = CASES[name]
    points = _points(metric, radius, inner, count=4)
    steps = np.array([0.00140125, 0.00143325, 1e-3, 5e-4])
    centre, coarse, fine = wirtinger_derivatives(metric, points, steps)
    assert _same(centre, metric(points))
    for k, z in enumerate(points):
        for got, h in ((coarse, steps[k]), (fine, steps[k] / 2.0)):
            want = _derivatives_loop(metric, z, float(h))
            assert all(_same(a[k], b) for a, b in zip(got, want))


@pytest.mark.parametrize("n", sorted(ONE_POINT_CALLS))
@pytest.mark.parametrize("count", (1, 7))
def test_metric_calls_do_not_grow_with_the_stack(n, count):
    metric, calls = _counting(catalog_metric("complex_hyperbolic", (n,)))
    chern_curvature(metric, _points(metric, 0.5, 0.0, count))
    assert len(calls) == ONE_POINT_CALLS[n]
    assert set(calls) == {(count, n)}
    calls.clear()
    chern_curvature(metric, np.zeros(n, dtype=complex))
    assert len(calls) == ONE_POINT_CALLS[n]


def _infinite_where(bad):
    """A flat metric on the disk of radius 10 whose value is inf where ``bad(Re z1)``."""
    def evaluator(z):
        g = np.ones(z.shape[:-1] + (1, 1), dtype=complex)
        g[bad(z[..., 0].real)] = np.inf
        return g

    return ChartedHermitianMetric(1, Domain(center=(0.0,), radius=10.0), evaluator, "singular")


def _infinite_beyond(threshold):
    """A flat metric on the disk of radius 10 whose value is inf where Re z1 > threshold."""
    return _infinite_where(lambda x: x > threshold)


# inf at Re z1 = 0.2005, the sample (0, +h/2) of the point 0.2 (h = 1e-3)
# that the step-h stencil does not share, and beyond 0.5
FINE_ONLY = _infinite_where(lambda x: (0.2003 < x) & (x < 0.2007) | (x > 0.5))


def _skewed_right(indefinite_beyond=None):
    """On the bidisk: the polydisk metric plus the non-Hermitian term
    ``[[0, max(Re z1, 0)^3], [0, 0]]``, whose curvature fails the conjugation
    symmetry where Re z1 > 0 and is the disk's where Re z1 < -0.01; with
    ``indefinite_beyond``, also ``g_22 - 10`` (not positive-definite) where
    Re z2 exceeds it."""
    disk = catalog_metric("polydisk", (1.0, 1.0))

    def evaluator(z):
        g = disk.evaluator(z)
        g[..., 0, 1] += np.maximum(z[..., 0].real, 0.0) ** 3
        if indefinite_beyond is not None:
            g[..., 1, 1] -= 10.0 * (z[..., 1].real > indefinite_beyond)
        return g

    return ChartedHermitianMetric(2, disk.domain, evaluator, "skewed")


def _alone(metric, z):
    with pytest.raises(Exception) as alone:
        chern_curvature(metric, z)
    return alone.value


# stacks whose failing points are not the first; the index is the first failing point
FAILING_STACKS = {
    # a point outside the 4h margin after a passing one
    "domain_after_a_pass": (catalog_metric("poincare_disk", (1.0,)), [[0.2], [0.9999], [0.3]], 1,
                            DomainMarginError),
    # a non-finite sample at a late offset before one non-finite at its centre
    "non_finite_in_grid_order": (_infinite_beyond(0.5), [[0.0], [0.4995], [0.6]], 1, NonFiniteSample),
    "residue_after_a_pass": (_skewed_right(), [[-0.2, 0.1], [0.3, 0.1], [-0.3, 0.0]], 1, ResidueTooLarge),
    # two different failures: the residue of point 1 comes before the margin of point 2
    "residue_before_domain": (_skewed_right(), [[-0.2, 0.0], [0.3, 0.1], [0.9999, 0.0]], 1, ResidueTooLarge),
    # and the non-finite sample of point 0 before the margin of point 1
    "non_finite_before_domain": (_infinite_beyond(0.5), [[0.4995], [9.9999], [0.0]], 0, NonFiniteSample),
    # a non-finite h/2 sample of point 1 after the non-finite centre of point 2
    "non_finite_fine_only": (FINE_ONLY, [[0.0], [0.2], [0.6]], 1, NonFiniteSample),
    # the margin of point 1 before the non-finite sample of point 2
    "domain_before_non_finite": (_infinite_beyond(0.5), [[0.0], [9.9999], [0.6]], 1, DomainMarginError),
    # the residue of point 0 before the indefinite metric of point 1, which
    # the stacked inverse of every point's metric meets first
    "residue_before_indefinite": (_skewed_right(0.5), [[0.3, 0.1], [0.0, 0.7]], 0, ResidueTooLarge),
}


@pytest.mark.parametrize("name", sorted(FAILING_STACKS))
def test_stack_raises_the_first_failing_point(name):
    metric, points, first, kind = FAILING_STACKS[name]
    points = np.array(points, dtype=complex)
    for k in range(first):
        chern_curvature(metric, points[k])  # the points before it pass alone
    expected = _alone(metric, points[first])
    assert type(expected) is kind
    with pytest.raises(kind) as stacked:
        chern_curvature(metric, points)
    assert str(stacked.value) == str(expected)
    if kind is not ResidueTooLarge:
        with pytest.raises(kind) as derivs:
            metric_derivatives(metric, points)
        assert str(derivs.value) == str(expected)


def test_non_finite_at_a_sample_of_the_fine_step_alone():
    # the point 0.2 fails only at its h/2 sample (0, +h/2): alone, and as the
    # first failing point of a stack whose point 0.6 fails at its centre,
    # which the stack samples first
    message = "field evaluation not finite at offset ((0, 0.0005),)"
    points = np.array([[0.0], [0.2], [0.6]], dtype=complex)
    for z in (points[1], points[:2], points):
        with pytest.raises(NonFiniteSample) as derivs:
            metric_derivatives(FINE_ONLY, z)
        assert str(derivs.value) == message
    with pytest.raises(NonFiniteSample) as sampled:
        wirtinger_derivatives(FINE_ONLY, points[:2], np.array([1e-3, 1e-3]))
    assert str(sampled.value) == message
