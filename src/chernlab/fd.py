"""Finite-difference stencils for Wirtinger derivatives of chart fields.

Metric derivatives (curvature) and energy Hessians (the Schwarz Laplacians)
are 4th-order central stencils in the 2n real coordinates of C^n, assembled
into Wirtinger derivatives ``d/dz = (d/dx - i d/dy)/2`` and ``d/dzbar =
(d/dx + i d/dy)/2``; the fields depend on z and zbar, so complex steps do
not apply.  Map differentials are each map's closed form, not stencils.

``wirtinger_hessian`` takes the field at a whole stack of points from its
caller (the Schwarz Laplacians of a grid, whose energies the map's singular
frames hold) and samples the rest of their stencils in one call of the
field; ``wirtinger_derivatives`` samples a ``StencilField`` one offset at a
time (the curvature stencils, whose metric calls stay one per sample).  Both
difference the samples with the same array code, so a point gets the same
bits either way.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NonFiniteSample

__all__ = ["StencilField", "wirtinger_derivatives", "wirtinger_hessian"]

# 4th-order central stencils on a uniform grid
D1_OFFSETS = (-2, -1, 1, 2)
D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
D2_OFFSETS = (-2, -1, 0, 1, 2)
D2_WEIGHTS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)


class StencilField:
    """Caches evaluations of ``fun: C^n -> array`` at real-coordinate
    offsets, one offset per call of ``fun``."""

    def __init__(self, fun, z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        self.fun = fun
        self.n = z.shape[0]
        self.x0 = np.concatenate([np.real(z), np.imag(z)])
        self.cache = {}

    def _point(self, offsets):
        x = self.x0.copy()
        for axis, delta in offsets:
            x[axis] += delta
        return x[: self.n] + 1j * x[self.n :]

    def at(self, offsets=()):
        key = tuple(offsets)
        if key not in self.cache:
            value = np.asarray(self.fun(self._point(key)))
            if not np.all(np.isfinite(value)):
                raise NonFiniteSample(f"field evaluation not finite at offset {key}")
            self.cache[key] = value
        return self.cache[key]


def wirtinger_derivatives(field: StencilField, h):
    """First and mixed-second Wirtinger derivatives of an array field.

    Returns ``(dz, dzbar, dz_dzbar)`` with derivative axes prepended:
    ``dz[i] = d(field)/dz_i`` etc.  The field is sampled one offset at a
    time, in the order of ``_stencil``.
    """
    keys = [tuple((axis, off * h) for axis, off in key) for key in _stencil(field.n)[0]]
    return _differences(np.stack([field.at(key) for key in keys]), field.n, h)


@functools.cache
def _stencil(n):
    """Unit offsets ``((axis, offset), ...)`` of the stencil samples in order:
    the center, four per real axis (shared by the first and same-axis second
    differences), sixteen per pair ``u < v`` of real axes; and the pairs."""
    keys = [()]
    for axis in range(2 * n):
        keys += [((axis, off),) for off in D1_OFFSETS]
    pairs = [(u, v) for u in range(2 * n) for v in range(u + 1, 2 * n)]
    for u, v in pairs:
        keys += [((u, a), (v, b)) for a in D1_OFFSETS for b in D1_OFFSETS]
    return tuple(keys), np.array(pairs).T


def _weighted_sum(diffs, weights):
    """``sum_k weights[k] diffs[:, k]``, added in order from 0.0."""
    acc = 0.0
    for k, w in enumerate(weights):
        acc = acc + w * diffs[:, k]
    return acc


def _differences(values, n, h):
    """``(dz, dzbar, dz_dzbar)`` from the samples ``values[k]`` of the stencil
    ``_stencil(n)`` at step ``h`` (which broadcasts against ``values[0]``).

    The base value is subtracted from every sample: the stencil weights sum
    to zero, so this changes nothing analytically but makes constant fields
    cancel exactly and trims roundoff for nearly-constant ones.  The center
    sample of the same-axis second difference has a vanishing difference and
    is skipped.
    """
    _, (u, v) = _stencil(n)
    diffs = values - values[0]
    same = diffs[1 : 1 + 8 * n].reshape((2 * n, 4) + values.shape[1:])
    mixed = diffs[1 + 8 * n :].reshape((len(u), 16) + values.shape[1:])
    h2 = np.float_power(h, 2)  # libm pow, as Python's h**2
    dx = _weighted_sum(same, D1_WEIGHTS) / h
    d2 = np.empty((2 * n, 2 * n) + values.shape[1:], dtype=diffs.dtype)
    d2[range(2 * n), range(2 * n)] = _weighted_sum(same, D2_WEIGHTS[:2] + D2_WEIGHTS[3:]) / h2
    d2[u, v] = d2[v, u] = _weighted_sum(mixed, [a * b for a in D1_WEIGHTS for b in D1_WEIGHTS]) / h2
    dz = 0.5 * (dx[:n] - 1j * dx[n:])
    dzbar = 0.5 * (dx[:n] + 1j * dx[n:])
    dzzbar = 0.25 * (d2[:n, :n] + 1j * d2[:n, n:] - 1j * d2[n:, :n] + d2[n:, n:])
    return dz, dzbar, dzzbar


def wirtinger_hessian(fun, z, h, centre):
    """Complex Hessian ``d^2 u / dz_i dzbar_j`` of a scalar field at one point
    or at each point of a stack ``(..., n)``, with step ``h`` per point.

    ``centre`` is the field at ``z``.  ``fun`` maps a stack of points
    ``(..., k, n)`` to ``(..., k)`` values; it is called once, on the other
    stencil samples of every point (112 each for n = 2).  Each point gets the
    bits of ``wirtinger_derivatives`` at that point alone; a non-finite
    sample raises NonFiniteSample naming the first such point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = z.shape[-1]
    keys, _ = _stencil(n)
    rows, axes, offsets = zip(*[(k, axis, off) for k, key in enumerate(keys) for axis, off in key])
    h = np.asarray(h, dtype=float)
    x = np.repeat(np.concatenate([z.real, z.imag], axis=-1)[..., None, :], len(keys) - 1, axis=-2)
    x[..., np.array(rows) - 1, axes] += np.array(offsets, dtype=float) * h[..., None]
    points = x[..., :n] + 1j * x[..., n:]
    del x  # freed before the field runs: on a grid's stencils its temporaries are the peak
    values = np.concatenate([np.asarray(centre)[..., None], fun(points)], axis=-1)
    finite = np.isfinite(values)
    if not np.all(finite):
        bad = tuple(np.argwhere(~finite)[0])
        raise NonFiniteSample(f"field evaluation not finite at stencil sample {bad[-1]} of {z[bad[:-1]]}")
    return np.moveaxis(_differences(np.moveaxis(values, -1, 0), n, h)[2], (0, 1), (-2, -1))
