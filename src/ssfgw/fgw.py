"""1D fused Gromov-Wasserstein on projected point clouds.

A point cloud is an (n, d) float array with implied uniform weights 1/n
(``as_point_cloud`` validates). ``project`` pushes a cloud onto a direction,
attaching the stable sorting permutation (``stable_sort_rows``: ties are
broken by point index); ``fgw_1d`` evaluates the fused cost

    (1-beta) * (1/n) * sum_i |x_(i) - y_(sigma(i))|^r
    + beta * (1/n^2) * sum_{ij} (|x_(i) - x_(j)|^r - |y_(sigma(i)) - y_(sigma(j))|^r)^2

minimized over the two monotone couplings sigma (sorted-ascending against
sorted-ascending, and against sorted-descending). That minimum is an upper
bound on the optimum over all permutations: Beinert, Heiss & Steidl (on
assignment problems related to Gromov-Wasserstein distances on the real line)
show that neither monotone coupling need be optimal in 1D.
``fgw_1d_grad`` differentiates the cost with the optimal monotone coupling
frozen (envelope gradient; r=2 only).

Sizes n and m may differ when one divides the other: sorted values are then
spread to the quantile function on max(n, m) cells (``spread_rows``) and
gradients summed back over the cells (``fold_rows``).

``fgw_1d`` and ``fgw_1d_grad`` evaluate the O(n^2) double sum
(``method="reference"``, the only method) through the kernel module's
reference entries, ``_kernels.pairwise_batch`` and ``_kernels.grad_batch``.
They are the reference against which the tests validate the O(n) r=2 route
of ``_kernels.cost_batch`` that the Monte Carlo engines run (from the
centered difference and sum of the paired values).
On clouds that nearly agree the double sum itself loses digits, so there the
tests check the kernel against exact rational arithmetic instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels


class MonotoneCoupling(Enum):
    """Which monotone coupling attained the minimum."""

    ASCENDING = "ascending"
    REVERSED = "reversed"


def _check_count(value, name: str, minimum: int = 1, below: str = ""):
    """``value`` as an int, if it is an int or a numpy integer (not a bool)
    of at least ``minimum``; ``below`` words the error for a smaller one. A
    count is never rounded: 2.5 draws is an error, not 2."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value < minimum:
        raise ValueError(below or f"{name} must be >= {minimum}")
    return int(value)


@dataclass(frozen=True)
class FgwConfig:
    """Fused-cost parameters: tradeoff beta in [0, 1] and integer exponent
    r >= 1 of the ground cost |x - y|^r."""

    beta: float = 0.1
    exponent: int = 2

    def __post_init__(self):
        beta = float(self.beta)
        if not np.isfinite(beta) or not 0.0 <= beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        r = _check_count(self.exponent, "exponent", 1, "exponent must be an integer >= 1")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "exponent", r)


@dataclass(frozen=True)
class Projected1D:
    """Projected values theta^T x_i plus the stable permutation sorting them
    ascending (ties keep input order)."""

    values: np.ndarray
    sort_permutation: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        perm = np.asarray(self.sort_permutation, dtype=np.int64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a nonempty 1D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if perm.shape != values.shape:
            raise ValueError("sort_permutation length must match values")
        if not np.array_equal(np.sort(perm), np.arange(values.size)):
            raise ValueError("sort_permutation is not a permutation")
        sorted_values = values[perm]
        if np.any(np.diff(sorted_values) < 0.0):
            raise ValueError("sort_permutation does not sort values ascending")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sort_permutation", perm)

    def __len__(self) -> int:
        return self.values.size

    def sorted_values(self) -> np.ndarray:
        return np.ascontiguousarray(self.values[self.sort_permutation])


def as_point_cloud(points) -> np.ndarray:
    """Validate and return an (n, d) float64 cloud: n >= 1, d >= 2, finite."""
    cloud = np.ascontiguousarray(points, dtype=np.float64)
    if cloud.ndim != 2:
        raise ValueError("point cloud must be a 2D (n, d) array")
    n, d = cloud.shape
    if n < 1:
        raise ValueError("point cloud needs at least one point")
    if d < 2:
        raise ValueError("point cloud dimension must be >= 2")
    if not np.all(np.isfinite(cloud)):
        raise ValueError("point cloud has non-finite entries")
    return cloud


def stable_sort_rows(values, out=None):
    """Sort each row of an (L, n) float64 array ascending; returns
    ``(sorted rows, order)``. ``order`` holds flat indices into ``values``:
    row l is ``np.argsort(values, axis=1, kind="stable")[l] + l * n``, so
    ties are broken by point index, NaNs go last, and
    ``values.reshape(-1)[order]`` gives the sorted rows. ``out`` may give the
    two (L, n) outputs, float64 and intp, which must not overlap ``values``.

    Each row is sorted once, as float64 keys built in the sorted-rows
    output: a key is the value with its low ``(n - 1).bit_length()`` bits
    replaced by the point index. The finite keys are distinct, so the order
    does not depend on numpy's sort algorithm; the low bits give the order,
    and the values are gathered through it. A row that comes out strictly
    increasing has distinct values and a single ascending permutation, the
    stable one. Only the other rows are argsorted again stably and gathered
    through that order: ties, signed zeros and NaN, and distinct values that
    agree in the bits the index leaves them. NaN values, and +-inf at a
    nonzero index, give NaN keys. The sort may write those back as a
    canonical NaN, whose index reads 0; such a row then repeats index 0 or
    holds a NaN, so it is redone.
    """
    L, n = values.shape
    ordered, order = out if out is not None else (
        np.empty(values.shape), np.empty(values.shape, dtype=np.intp))
    index_mask = (1 << (n - 1).bit_length()) - 1
    keys = ordered.view(np.int64)
    np.bitwise_and(values.view(np.int64), ~index_mask, out=keys)
    np.bitwise_or(keys, np.arange(n), out=keys)
    ordered.sort(axis=1)
    np.bitwise_and(keys, index_mask, out=order)
    order += np.arange(0, L * n, n)[:, None]
    # the flat indices are in range; mode="raise" would buffer the output
    np.take(values, order, out=ordered, mode="wrap")
    redo = ~(ordered[:, 1:] > ordered[:, :-1]).all(axis=1)
    if redo.any():
        stable = np.argsort(values[redo], axis=1, kind="stable")
        order[redo] = stable + np.flatnonzero(redo)[:, None] * n
        ordered[redo] = np.take_along_axis(values[redo], stable, axis=1)
    return ordered, order


def project(cloud, theta) -> Projected1D:
    """Push a cloud onto a direction: values[i] = theta^T x_i with the stable
    sort permutation attached (ties broken by point index, as in
    ``stable_sort_rows``)."""
    pts = as_point_cloud(cloud)
    direction = np.asarray(theta, dtype=np.float64)
    if direction.shape != (pts.shape[1],):
        raise ValueError(
            f"direction dimension {direction.shape} does not match cloud "
            f"dimension {pts.shape[1]}"
        )
    values = pts @ direction
    return Projected1D(values, stable_sort_rows(values[None, :])[1][0])


def common_size(n: int, m: int) -> int:
    """max(n, m) when one size divides the other; else ValueError."""
    if max(n, m) % min(n, m):
        raise ValueError(f"cloud sizes must be equal or one must divide the other, got {n} and {m}")
    return max(n, m)


def spread_rows(A, k: int):
    """Sorted (L, n) rows as (L, k): the cloud with each point k // n times."""
    return A if A.shape[1] == k else np.repeat(A, k // A.shape[1], axis=1)


def fold_rows(G, n: int):
    """Gradients wrt spread (L, k) rows summed back to the (L, n) rows."""
    return G if G.shape[1] == n else G.reshape(G.shape[0], n, -1).sum(axis=2)


def _paired_sorted(xs: Projected1D, ys: Projected1D, method: str):
    if method != "reference":
        raise ValueError(f"method must be 'reference', got {method!r}")
    k = common_size(len(xs), len(ys))
    return tuple(spread_rows(p.sorted_values()[None, :], k) for p in (xs, ys))


def fgw_1d(xs: Projected1D, ys: Projected1D, cfg: FgwConfig, method: str = "reference") -> float:
    """Fused 1D cost, minimized over the two monotone couplings."""
    a, b = _paired_sorted(xs, ys, method)
    costs, _ = _kernels.pairwise_batch(a, b, cfg.beta, cfg.exponent)
    return float(costs[0])


def fgw_1d_grad(xs: Projected1D, ys: Projected1D, cfg: FgwConfig, method: str = "reference"):
    """Gradient of ``fgw_1d`` wrt the (unsorted) projected values, with the
    optimal monotone coupling frozen (envelope differentiation).

    Returns ``(grad_xs, grad_ys, coupling)``; gradients are aligned with the
    input order of ``values``, not the sorted order. Requires r=2.
    """
    if cfg.exponent != 2:
        raise ValueError("fgw_1d_grad requires exponent r=2")
    a, b = _paired_sorted(xs, ys, method)
    _, orients = _kernels.pairwise_batch(a, b, cfg.beta, 2)
    ga, gb = _kernels.grad_batch(a, b, cfg.beta, orients)
    grad_xs = np.empty(len(xs))
    grad_ys = np.empty(len(ys))
    grad_xs[xs.sort_permutation] = fold_rows(ga, len(xs))[0]
    grad_ys[ys.sort_permutation] = fold_rows(gb, len(ys))[0]
    coupling = MonotoneCoupling.REVERSED if orients[0] else MonotoneCoupling.ASCENDING
    return grad_xs, grad_ys, coupling
