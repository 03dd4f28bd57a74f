"""Model Hermitian metrics on coordinate charts and their numerical derivatives.

The catalog covers the standard constant-curvature models plus the
non-Kaehler chart metric ``delta_ij / |z|^2`` on an annulus.  Derivatives are
4th-order real central differences assembled into Wirtinger derivatives,
with a Richardson step-halving error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadParams, DimensionMismatch, DomainMarginError, UnknownCatalogName
from .fd import StencilField, wirtinger_derivatives

__all__ = [
    "ChartedHermitianMetric",
    "Domain",
    "MetricDerivatives",
    "catalog_metric",
    "metric_derivatives",
    "scale_metric",
]

@dataclass(frozen=True)
class Domain:
    """Ball/box/annulus constraint in C^n.

    ``norm`` selects how the distance from ``center`` is measured:
    ``"l2"`` is the Euclidean norm on C^n, ``"max"`` the per-coordinate
    modulus maximum (polydisks).  ``inner_radius > 0`` carves out an
    annulus (used by the hopf chart to exclude the singular origin).
    """

    center: tuple
    radius: float
    inner_radius: float = 0.0
    norm: str = "l2"

    def __post_init__(self):
        if self.norm not in ("l2", "max"):
            raise BadParams(f"unknown norm type {self.norm!r} (expected 'l2' or 'max')")
        if not 0.0 <= self.inner_radius < self.radius:
            raise BadParams(f"domain holds no point: inner_radius {self.inner_radius}, radius {self.radius}")

    def _dist(self, z):
        d = np.asarray(z, dtype=complex) - np.asarray(self.center, dtype=complex)
        if self.norm == "l2":
            return point_norms(d)
        return np.max(np.abs(d), axis=-1)

    def contains(self, z, margin=0.0):
        """Whether each point of the stack ``z`` is inside with ``margin``
        (one bool for one point; ``margin`` broadcasts against the stack)."""
        d = self._dist(z)
        inside = ~(d > self.radius - margin)
        if self.inner_radius > 0.0:
            inside &= ~(d < self.inner_radius + margin)
        return inside


def point_norms(z):
    """Euclidean norm of each point of a stack ``(..., n)``, with the bits of
    ``np.linalg.norm`` of that point (the same strided BLAS dot products)."""

    def dot(x):
        return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]

    return np.sqrt(dot(z.real) + dot(z.imag))


def _whole_space(n):
    return Domain(center=(0.0,) * n, radius=math.inf)


@dataclass(frozen=True)
class ChartedHermitianMetric:
    """A Hermitian metric field ``z -> g(z)`` on a chart of C^n.

    ``kahler`` is tri-state: True/False when known for the catalog entry,
    None for parsed user metrics.
    """

    dim: int
    domain: Domain
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    kahler: bool | None = None
    params: tuple = field(default_factory=tuple)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        g = np.asarray(self.evaluator(z), dtype=complex)
        expected = z.shape[:-1] + (self.dim, self.dim)
        if g.shape != expected:
            raise DimensionMismatch(
                f"metric evaluator returned shape {g.shape}, expected {expected}"
            )
        return g


def scale_metric(m: ChartedHermitianMetric, c: float) -> ChartedHermitianMetric:
    """Conformal rescaling ``c * g`` (c > 0) of a charted metric."""
    if c <= 0:
        raise BadParams("metric scale must be positive")
    return ChartedHermitianMetric(
        dim=m.dim,
        domain=m.domain,
        evaluator=lambda z, _m=m, _c=c: _c * _m.evaluator(z),
        label=f"{c}*{m.label}",
        kahler=m.kahler,
        params=m.params,
    )


# Evaluators map a stack of points ``(..., n)`` to a stack of matrices
# ``(..., n, n)``; a single point is the stack of one.  Every operation acts
# elementwise or per point, so each point of a stack gets the bits it gets
# alone.  fubini_study, complex_hyperbolic and poincare_disk square their
# per-point scalars by libm ``pow`` (``np.float_power``), which rounds
# differently from ``x * x`` in about one case in a thousand; their values
# are pinned to that rounding (polydisk squares by ``x * x``).


def _sq_norm(z):
    """``|z|^2`` per point, by the BLAS dot product that ``np.vdot`` uses."""
    return np.matmul(np.conj(z)[..., None, :], z[..., :, None])[..., 0, 0].real


def _outer(z):
    """``conj(z_i) z_j`` per point."""
    return np.conj(z)[..., :, None] * z[..., None, :]


def _diagonal(d):
    """Complex diagonal matrices with the last axis of ``d`` on the diagonal."""
    n = d.shape[-1]
    out = np.zeros(d.shape[:-1] + (n * n,), dtype=complex)
    out[..., :: n + 1] = d
    return out.reshape(d.shape + (n,))


def _euclidean(n):
    eye = np.eye(n, dtype=complex)
    return lambda z: np.broadcast_to(eye, z.shape[:-1] + (n, n)).copy()


def _fubini_study(n):
    def ev(z):
        q = (1.0 + _sq_norm(z))[..., None, None]
        return np.eye(n, dtype=complex) / q - _outer(z) / np.float_power(q, 2)

    return ev


def _complex_hyperbolic(n):
    def ev(z):
        u = (1.0 - _sq_norm(z))[..., None, None]
        return np.eye(n, dtype=complex) / u + _outer(z) / np.float_power(u, 2)

    return ev


def _poincare_disk(a):
    def ev(z):
        u = 1.0 - np.float_power(np.hypot(z.real, z.imag), 2)
        return _diagonal(a / np.float_power(u, 2))

    return ev


def _polydisk(scales):
    scales = np.asarray(scales, dtype=float)

    def ev(z):
        u = 1.0 - np.abs(z) ** 2
        return _diagonal(scales / u**2)

    return ev


def _hopf(n):
    def ev(z):
        s = _sq_norm(z)[..., None, None]
        return np.eye(n, dtype=complex) / s

    return ev


def catalog_metric(name, params=()):
    """Instantiate a model metric from the built-in catalog.

    Supported names and parameters:

    * ``euclidean(n)`` -- flat metric ``g = I`` on C^n;
    * ``fubini_study(n)`` -- the chart metric with constant HSC = +2;
    * ``complex_hyperbolic(n)`` -- unit-ball metric with constant HSC = -2;
    * ``poincare_disk(a)`` -- ``g = a (1-|z|^2)^{-2}`` on the unit disk, a > 0;
    * ``polydisk(a_1..a_n)`` -- product of scaled disk metrics;
    * ``hopf(n)`` -- ``g = delta_ij / |z|^2`` on the annulus 0.5 <= |z| <= 2
      (non-Kaehler; the origin is excluded because the metric blows up there).
    """
    params = tuple(params)
    if name == "euclidean":
        n = _dim_param(params)
        return ChartedHermitianMetric(n, _whole_space(n), _euclidean(n), "euclidean", True, params)
    if name == "fubini_study":
        n = _dim_param(params)
        return ChartedHermitianMetric(n, _whole_space(n), _fubini_study(n), "fubini_study", True, params)
    if name == "complex_hyperbolic":
        n = _dim_param(params)
        dom = Domain(center=(0.0,) * n, radius=1.0)
        return ChartedHermitianMetric(n, dom, _complex_hyperbolic(n), "complex_hyperbolic", True, params)
    if name == "poincare_disk":
        if len(params) != 1 or params[0] <= 0:
            raise BadParams("poincare_disk expects one positive scale parameter")
        dom = Domain(center=(0.0,), radius=1.0)
        return ChartedHermitianMetric(1, dom, _poincare_disk(float(params[0])), "poincare_disk", True, params)
    if name == "polydisk":
        if not params or any(a <= 0 for a in params):
            raise BadParams("polydisk expects positive per-factor scales")
        n = len(params)
        dom = Domain(center=(0.0,) * n, radius=1.0, norm="max")
        return ChartedHermitianMetric(n, dom, _polydisk(params), "polydisk", True, params)
    if name == "hopf":
        n = _dim_param(params)
        dom = Domain(center=(0.0,) * n, radius=2.0, inner_radius=0.5)
        return ChartedHermitianMetric(n, dom, _hopf(n), "hopf", False, params)
    raise UnknownCatalogName(f"unknown catalog metric {name!r}")


def _dim_param(params):
    if len(params) != 1 or int(params[0]) != params[0] or params[0] < 1:
        raise BadParams("expected a single positive integer dimension")
    return int(params[0])


@dataclass(frozen=True)
class MetricDerivatives:
    """Metric value and Wirtinger derivatives at a point.

    ``dg[i, k, l] = d g_{k lbar} / d z_i``,
    ``dbar_g[j, k, l] = d g_{k lbar} / d zbar_j``,
    ``ddbar_g[i, j, k, l] = d^2 g_{k lbar} / d z_i d zbar_j``.
    """

    g: np.ndarray
    dg: np.ndarray
    dbar_g: np.ndarray
    ddbar_g: np.ndarray
    step: float
    error_estimate: float


def metric_derivatives(metric, z, h=None):
    """Wirtinger derivatives of the metric field at ``z``.

    First derivatives use 4th-order central differences in each of the 2n
    real coordinates; mixed second derivatives use nested 4th-order stencils.
    The returned values are taken at step ``h/2`` and ``error_estimate``
    comes from the Richardson comparison of the ``h`` and ``h/2`` passes
    (with a small safety factor and a roundoff floor).

    Raises DomainMarginError unless ``z`` is interior with margin ``4*h`` and
    NonFiniteSample if the evaluator blows up on a stencil point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (metric.dim,):
        raise DimensionMismatch(f"point shape {z.shape} does not match dim {metric.dim}")
    if h is None:
        h = 1e-3 * max(1.0, float(np.linalg.norm(z)))
    if not metric.domain.contains(z, margin=4.0 * h):
        raise DomainMarginError(
            f"point {z} is not interior to the domain with margin {4 * h:.2e}"
        )

    field = StencilField(metric, z)
    g = field.at(())
    coarse = wirtinger_derivatives(field, h)
    fine = wirtinger_derivatives(field, h / 2.0)

    gscale = max(1.0, float(np.max(np.abs(g))))
    eps = np.finfo(float).eps
    est = 0.0
    for c, f, order in zip(coarse, fine, (1, 1, 2)):
        diff = float(np.max(np.abs(c - f))) / 15.0
        floor = 100.0 * eps * gscale / (h / 2.0) ** order
        est = max(est, 1.5 * diff + floor)

    dg, dbg, ddg = fine
    return MetricDerivatives(
        g=g, dg=dg, dbar_g=dbg, ddbar_g=ddg, step=h / 2.0, error_estimate=est
    )
