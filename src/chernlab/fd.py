"""Finite-difference stencils for Wirtinger derivatives of chart fields.

All differentiation in the package goes through 4th-order central stencils
in the 2n real coordinates underlying C^n, assembled into Wirtinger
derivatives ``d/dz = (d/dx - i d/dy)/2`` and ``d/dzbar = (d/dx + i d/dy)/2``.
Complex-step differentiation is not applicable: the fields depend on both
z and zbar.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteSample

__all__ = ["StencilField", "wirtinger_derivatives", "wirtinger_hessian"]

# 4th-order central stencils on a uniform grid
D1_OFFSETS = (-2, -1, 1, 2)
D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
D2_OFFSETS = (-2, -1, 0, 1, 2)
D2_WEIGHTS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)


class StencilField:
    """Caches evaluations of ``fun: C^n -> array`` at real-coordinate offsets.

    ``at`` evaluates one offset per call; ``fill`` evaluates a list of
    offsets in one call of ``fun`` on the stack of their points.
    """

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

    def fill(self, keys):
        """Cache ``fun`` at each offset of ``keys`` from one call of ``fun``
        on the stack ``(len(keys), n)`` of their points."""
        x = np.tile(self.x0, (len(keys), 1))
        for row, key in enumerate(keys):
            for axis, delta in key:
                x[row, axis] += delta
        values = np.asarray(self.fun(x[:, : self.n] + 1j * x[:, self.n :]))
        finite = np.isfinite(values).reshape(len(keys), -1).all(axis=1)
        if not np.all(finite):
            bad = keys[np.argmin(finite)]
            raise NonFiniteSample(f"field evaluation not finite at offset {bad}")
        self.cache.update(zip(keys, values))

    # The base value is subtracted from every sample: the stencil weights sum
    # to zero, so this changes nothing analytically but makes constant fields
    # cancel exactly and trims roundoff for nearly-constant ones.

    def d1(self, axis, h):
        base = self.at(())
        acc = 0.0
        for off, w in zip(D1_OFFSETS, D1_WEIGHTS):
            acc = acc + w * (self.at(((axis, off * h),)) - base)
        return acc / h

    def d2_same(self, axis, h):
        # the center sample appears with offset 0: its difference vanishes
        base = self.at(())
        acc = 0.0
        for off, w in zip(D2_OFFSETS, D2_WEIGHTS):
            if off != 0:
                acc = acc + w * (self.at(((axis, off * h),)) - base)
        return acc / h**2

    def d2_mixed(self, axis_a, axis_b, h):
        base = self.at(())
        acc = 0.0
        for off_a, w_a in zip(D1_OFFSETS, D1_WEIGHTS):
            for off_b, w_b in zip(D1_OFFSETS, D1_WEIGHTS):
                acc = acc + w_a * w_b * (
                    self.at(((axis_a, off_a * h), (axis_b, off_b * h))) - base
                )
        return acc / h**2


def wirtinger_derivatives(field: StencilField, h):
    """First and mixed-second Wirtinger derivatives of an array field.

    Returns ``(dz, dzbar, dz_dzbar)`` with derivative axes prepended:
    ``dz[i] = d(field)/dz_i`` etc.
    """
    n = field.n
    dx = [field.d1(axis, h) for axis in range(2 * n)]
    d2 = {}
    for u in range(2 * n):
        for v in range(u, 2 * n):
            d2[(u, v)] = field.d2_same(u, h) if u == v else field.d2_mixed(u, v, h)
            d2[(v, u)] = d2[(u, v)]

    shape = np.asarray(field.at(())).shape
    dz = np.empty((n,) + shape, dtype=complex)
    dzbar = np.empty((n,) + shape, dtype=complex)
    dzzbar = np.empty((n, n) + shape, dtype=complex)
    for i in range(n):
        dz[i] = 0.5 * (dx[i] - 1j * dx[n + i])
        dzbar[i] = 0.5 * (dx[i] + 1j * dx[n + i])
    for i in range(n):
        for j in range(n):
            dzzbar[i, j] = 0.25 * (
                d2[(i, j)] + 1j * d2[(i, n + j)] - 1j * d2[(n + i, j)] + d2[(n + i, n + j)]
            )
    return dz, dzbar, dzzbar


def _stencil_offsets(n, h):
    """Every offset ``wirtinger_derivatives`` samples at step ``h``, in the
    order it asks for them: the center, four per real axis, and sixteen per
    pair of real axes (the same-axis second differences reuse the first's)."""
    keys = [()]
    for axis in range(2 * n):
        keys += [((axis, off * h),) for off in D1_OFFSETS]
    for u in range(2 * n):
        for v in range(u + 1, 2 * n):
            keys += [((u, a * h), (v, b * h)) for a in D1_OFFSETS for b in D1_OFFSETS]
    return keys


def wirtinger_hessian(fun, z, h):
    """Complex Hessian ``d^2 u / dz_i dzbar_j`` of a scalar field.

    ``fun`` maps a stack of points ``(k, n)`` to ``k`` values; it is called
    once, on the whole stencil (113 points for n = 2).
    """
    field = StencilField(fun, z)
    field.fill(_stencil_offsets(field.n, h))
    return wirtinger_derivatives(field, h)[2]
