"""Finite-difference stencils for Wirtinger derivatives of chart fields.

Metric derivatives (curvature) and energy Hessians (the Schwarz Laplacians)
are 4th-order central stencils in the 2n real coordinates of C^n, assembled
into Wirtinger derivatives ``d/dz = (d/dx - i d/dy)/2`` and ``d/dzbar =
(d/dx + i d/dy)/2``; the fields depend on z and zbar, so complex steps do
not apply.  Map differentials are each map's closed form, not stencils.

Both work on a point or a stack of points, each with its own step, and take
their samples from one table per dimension.  ``wirtinger_derivatives`` calls
the field once per table row on every point at once (the curvature stencils:
one metric call per sample offset, however many points) and differences
steps h and h/2 from those values; ``wirtinger_hessian`` takes the field at
its points from its caller (the Schwarz Laplacians, whose energies the map's
singular frames hold) and samples, in one call, the rest of their step-h
stencils that ``d^2/dz_i dzbar_j`` reads: not the mixed samples of the pairs
(x_i, y_i), whose terms cancel in ``d_i dbar_i = (d_xx + d_yy)/4``.  Both
difference with the same array code, so a point gets the same bits alone or
in a stack.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .errors import NonFiniteSample

__all__ = ["wirtinger_derivatives", "wirtinger_hessian"]

# 4th-order central stencils on a uniform grid
D1_OFFSETS = (-2, -1, 1, 2)
D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
D2_OFFSETS = (-2, -1, 0, 1, 2)
D2_WEIGHTS = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)


_Table = namedtuple("_Table", "samples rows axes halves coarse fine pairs hessian hessian_pairs")


@functools.cache
def _table(n):
    """The samples of the stencils at steps h and h/2, built on first use.

    A stencil takes the center, four samples per real axis (shared by the
    first and same-axis second differences) and sixteen per pair ``u < v``
    of real axes (the columns of ``pairs``), in that order; ``coarse`` and
    ``fine`` hold the row of each sample at steps h and h/2.  A row of
    ``samples`` is ``((axis, halves), ...)``: coordinate ``axis`` moves by
    ``halves * h/2`` (``rows``, ``axes`` and ``halves`` list the moves of
    all rows).  The rows are the distinct samples in the order of first use,
    step h first: 41, 193, 457 and 833 for n = 1..4.  ``hessian`` holds the
    rows of the step-h samples but those of the pairs (x_i, y_i), and
    ``hessian_pairs`` the columns of the other pairs: 81 rows for n = 2."""
    pairs = [(u, v) for u in range(2 * n) for v in range(u + 1, 2 * n)]
    keys = [()] + [((axis, off),) for axis in range(2 * n) for off in D1_OFFSETS]
    keys += [((u, a), (v, b)) for u, v in pairs for a in D1_OFFSETS for b in D1_OFFSETS]
    index = {}  # sample -> row; step h is two half-steps per unit offset, step h/2 one
    coarse, fine = [[index.setdefault(tuple((axis, scale * off) for axis, off in key), len(index)) for key in keys]
                    for scale in (2, 1)]
    rows, axes, halves = map(np.array, zip(*[(row, axis, m) for row, sample in enumerate(index) for axis, m in sample]))
    hessian = [row for row, key in zip(coarse, keys) if len(key) < 2 or key[1][0] != key[0][0] + n]
    hessian_pairs = np.array([(u, v) for u, v in pairs if v != u + n], dtype=int).reshape(-1, 2).T
    return _Table(tuple(index), rows, axes, halves.astype(float), np.array(coarse), np.array(fine), np.array(pairs).T,
                  np.array(hessian), hessian_pairs)


def _sample_points(z, h, count):
    """The first ``count`` rows of ``_table(n)`` around each point of ``z`` at
    step ``h`` per point, ``(count, ..., n)``; unmoved coordinates keep their bits."""
    n = z.shape[-1]
    table = _table(n)
    moved = table.rows < count
    x = np.repeat(np.concatenate([z.real, z.imag], axis=-1)[None], count, axis=0)
    x[table.rows[moved], ..., table.axes[moved]] += np.multiply.outer(table.halves[moved], h / 2.0)
    return x[..., :n] + 1j * x[..., n:]


def _weighted_sum(diffs, weights):
    """``sum_k weights[k] diffs[:, k]``, added in order from 0.0."""
    acc = 0.0
    for k, w in enumerate(weights):
        acc = acc + w * diffs[:, k]
    return acc


def _differences(values, n, h, pairs):
    """``(dz, dzbar, dz_dzbar)`` from the samples ``values[k]`` of the stencil
    of ``_table(n)`` at step ``h`` (which broadcasts against ``values[0]``):
    the center, the same-axis samples and the mixed samples of the real-axis
    ``pairs`` (columns ``(u, v)``), in table order.

    The base value is subtracted from every sample: the stencil weights sum
    to zero, so this changes nothing analytically but makes constant fields
    cancel exactly and trims roundoff for nearly-constant ones.  The center
    sample of the same-axis second difference has a vanishing difference and
    is skipped.  Second differences of pairs not given are taken as 0.
    """
    u, v = pairs
    diffs = values - values[0]
    same = diffs[1 : 1 + 8 * n].reshape((2 * n, 4) + values.shape[1:])
    mixed = diffs[1 + 8 * n :].reshape((len(u), 16) + values.shape[1:])
    h2 = np.float_power(h, 2)  # libm pow, as Python's h**2
    dx = _weighted_sum(same, D1_WEIGHTS) / h
    d2 = np.zeros((2 * n, 2 * n) + values.shape[1:], dtype=diffs.dtype)
    d2[range(2 * n), range(2 * n)] = _weighted_sum(same, D2_WEIGHTS[:2] + D2_WEIGHTS[3:]) / h2
    d2[u, v] = d2[v, u] = _weighted_sum(mixed, [a * b for a in D1_WEIGHTS for b in D1_WEIGHTS]) / h2
    dz = 0.5 * (dx[:n] - 1j * dx[n:])
    dzbar = 0.5 * (dx[:n] + 1j * dx[n:])
    dzzbar = 0.25 * (d2[:n, :n] + 1j * d2[:n, n:] - 1j * d2[n:, :n] + d2[n:, n:])
    return dz, dzbar, dzzbar


def wirtinger_derivatives(fun, z, h):
    """``(centre, coarse, fine)`` of an array field at one point ``(n,)`` or
    a stack ``(P, n)``, with step ``h`` per point (or one for all): the field
    at ``z``, then ``(dz, dzbar, dz_dzbar)`` at steps h and h/2, derivative
    axes prepended (``dz[i] = d(field)/dz_i`` etc.), point axis first for a
    stack.  ``fun`` maps points shaped like ``z`` to values and is called
    once per row of ``_table(n)``, in order; a non-finite value raises
    NonFiniteSample naming the offset of the first row with one.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    table = _table(n)
    h = np.broadcast_to(np.asarray(h, dtype=float), z.shape[:-1])
    values = np.stack([np.asarray(fun(p)) for p in _sample_points(z, h, len(table.samples))])
    finite = np.isfinite(values)
    if not np.all(finite):
        row, *point = np.argwhere(~finite)[0][: z.ndim]
        where = tuple((axis, float(m * (h / 2.0)[tuple(point)])) for axis, m in table.samples[row])
        raise NonFiniteSample(f"field evaluation not finite at offset {where}")
    h = h.reshape(h.shape + (1,) * (values.ndim - 1 - h.ndim))
    derivs = [_differences(values[rows], n, step, table.pairs)
              for rows, step in ((table.coarse, h), (table.fine, h / 2.0))]
    if z.ndim > 1:
        derivs = [[np.moveaxis(d, d.ndim - values.ndim + 1, 0) for d in pass_] for pass_ in derivs]
    return (values[0], *derivs)


def wirtinger_hessian(fun, z, h, centre):
    """Complex Hessian ``d^2 u / dz_i dzbar_j`` of a scalar field at one point
    or at each point of a stack ``(..., n)``, with step ``h`` per point.

    The field is real and ``centre`` is its value at ``z``.  ``fun`` maps a
    stack of points ``(..., k, n)`` to ``(..., k)`` values; it is called
    once, on the other step-h samples of every point that the Hessian reads
    (80 each for n = 2, 8 for n = 1).  Each point gets the coarse bits of
    ``wirtinger_derivatives`` at that point alone; a non-finite sample raises
    NonFiniteSample naming the first such point and its row of ``_table(n)``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = z.shape[-1]
    table = _table(n)
    h = np.broadcast_to(np.asarray(h, dtype=float), z.shape[:-1])
    points = np.ascontiguousarray(np.moveaxis(_sample_points(z, h, len(table.coarse))[table.hessian[1:]], 0, -2))
    values = np.concatenate([np.asarray(centre)[..., None], fun(points)], axis=-1)
    finite = np.isfinite(values)
    if not np.all(finite):
        bad = tuple(np.argwhere(~finite)[0])
        raise NonFiniteSample(f"field evaluation not finite at stencil sample {table.hessian[bad[-1]]} "
                              f"of {z[bad[:-1]]}")
    hess = _differences(np.moveaxis(values, -1, 0), n, h, table.hessian_pairs)[2]
    return np.moveaxis(hess, (0, 1), (-2, -1))
