"""Hot kernels for the 1D fused Gromov-Wasserstein objective on sorted values.

Vectorized numpy over the batch axis. ``cost_batch`` and ``grad_batch`` are
the entry points the engines call (and the layer boundaries the benchmark
traces).

Conventions
-----------
A, B : (L, n) float64 arrays of projected values, each row sorted ascending.
orientation : per-row tag; 0 pairs both rows ascending, 1 pairs the first row
    ascending against the second descending (the two monotone couplings).
use_moments : evaluate the r=2 cost in O(n) through the identity below
    instead of the O(n^2) double sum. Callers must pass use_moments=True only
    for r=2; the two routes are validated against each other in the tests.
    A pair of equal distances adds exactly 0 to the double sum, even if their powers overflow.

The per-row cost is

    (1-beta) * (1/n) * sum_i |a_i - b_{sigma(i)}|^r
    + beta * (1/n^2) * sum_{ij} (|a_i - a_j|^r - |b_{sigma(i)} - b_{sigma(j)}|^r)^2

minimized over the two monotone couplings sigma. Ties prefer Ascending.

The r=2 route: with b in pairing order, delta = a - b and s = a + b,
(a_i - a_j)^2 - (b_i - b_j)^2 = (delta_i - delta_j)(s_i - s_j), which no
shift of delta or s changes. So with delta and s centered and u = delta * s,

    W  = (1/n) sum delta^2 + mean(delta)^2
    GW = (2/n) sum u^2 + (2/n^2) sum delta^2 sum s^2 + (4/n^2) (sum u)^2

(cross terms vanish as sum delta = sum s = 0): sums of nonnegative terms, 0
exactly on identical rows. With the coupling frozen, d/da = g_s + g_delta and
d/db = g_s - g_delta, where g_delta carries W's (1-beta)(2/n) raw delta and

    g_delta = beta (4/n^2) centered(n u s + delta sum s^2 + 2 s sum u)
    g_s     = beta (4/n^2) centered(n u delta + s sum delta^2 + 2 delta sum u).

delta is formed before it is centered: on nearly-agreeing clouds it is orders
of magnitude below a and b, and centering a and b apart would leave the
rounding of their means, on the scale of a and b, in delta.

Exact swap symmetry
-------------------
`cost_batch(A, B) == cost_batch(B, A)` holds bit for bit (the public
discrepancies promise exact symmetry), by one pairing rule: on the reversed
coupling the lexicographically larger row runs backwards (``_flipped``), so
either argument order sums the same pairs in the same order. A swap then
negates delta, u, mean(delta) and sum u exactly (y-x is -(x-y)) and keeps s:
every cost term is even in them, g_delta is negated and g_s kept, which
exchanges the two gradients as floats (with beta = 0 a zero gradient may be
-0.0 one way and +0.0 the other). The pairwise route is symmetric elementwise.
"""

from __future__ import annotations

import numpy as np

def _row_dot(X, Y):
    return np.einsum("ij,ij->i", X, Y)


def _center_rows(X):
    # Centers each row of X in place and returns the row means.
    m = X.sum(axis=1) / X.shape[1]
    X -= m[:, None]
    return m


def _flipped(X, rows):
    # X with the marked rows reversed (X itself if none is, a view if all are)
    if rows.all():
        return X[:, ::-1]
    if not rows.any():
        return X
    return np.where(rows[:, None], X[:, ::-1], X)


# Row blocks in the O(n^2) route keep scratch matrices near this many entries.
_PAIRWISE_BLOCK_ENTRIES = 2_000_000


def _cost_pairwise_np(P, Q, beta, r):
    L, n = P.shape
    w = g = 0.0
    if beta != 1.0:
        w = np.sum(np.abs(P - Q) ** r, axis=1) / n
    if beta != 0.0:
        g = np.zeros(L)
        block = max(1, _PAIRWISE_BLOCK_ENTRIES // n)
        for l, (p, q) in enumerate(zip(P, Q)):
            for i0 in range(0, n, block):
                sl = slice(i0, min(i0 + block, n))
                ea, eb = np.abs(p[sl, None] - p[None, :]), np.abs(q[sl, None] - q[None, :])
                dd = ea ** r - eb ** r
                term = float(np.sum(dd * dd))
                if not np.isfinite(term):  # inf - inf where equal distances overflow
                    dd[ea == eb] = 0.0
                    term = float(np.sum(dd * dd))
                g[l] += term
        g /= n * n
    return (1.0 - beta) * w + beta * g


def _cost_ds_np(P, Q, beta):
    n = P.shape[1]
    d = P - Q
    m = _center_rows(d)
    s_dd = _row_dot(d, d)
    c = (1.0 - beta) * (s_dd / n + m * m)
    if beta != 0.0:
        s = P + Q
        _center_rows(s)
        s_ss = _row_dot(s, s)
        u = np.multiply(d, s, out=s)
        s_u = u.sum(axis=1)
        c += beta * (
            2.0 * _row_dot(u, u) / n
            + 2.0 * (s_dd * s_ss) / (n * n)
            + 4.0 * (s_u * s_u) / (n * n)
        )
    return c


def _b_lead_rows(A, B):
    # Rows where B is lexicographically smaller than A.
    differs = A != B
    first = np.argmax(differs, axis=1)
    rows = np.arange(A.shape[0])
    return differs.any(axis=1) & (B[rows, first] < A[rows, first])


def _grad_ds_np(P, Q, beta):
    n = P.shape[1]
    d, s = P - Q, P + Q
    m = _center_rows(d)
    _center_rows(s)
    s_dd = _row_dot(d, d)
    s_ss = _row_dot(s, s)
    t = d * s
    s_u = t.sum(axis=1)
    t *= n
    t += 2.0 * s_u[:, None]  # n u + 2 sum u
    g_s = d * t
    g_d = s * t
    g_s += np.multiply(s, s_dd[:, None], out=t)
    g_d += np.multiply(d, s_ss[:, None], out=t)
    cg = beta * 4.0 / (n * n)
    _center_rows(g_s)
    _center_rows(g_d)
    g_s *= cg
    g_d *= cg
    np.add(d, m[:, None], out=t)
    t *= (1.0 - beta) * 2.0 / n
    g_d += t  # g_delta plus the W term
    return np.add(g_s, g_d, out=d), np.subtract(g_s, g_d, out=s)


def _grad_pairwise_np(P, Q, beta):
    L, n = P.shape
    cw = (1.0 - beta) * 2.0 / n
    cg = beta * 8.0 / (n * n)
    gp = np.empty((L, n))
    gq = np.empty((L, n))
    block = max(1, _PAIRWISE_BLOCK_ENTRIES // n)
    for l, (a, b) in enumerate(zip(P, Q)):
        for i0 in range(0, n, block):
            sl = slice(i0, min(i0 + block, n))
            da = a[sl, None] - a[None, :]
            db = b[sl, None] - b[None, :]
            dd = da * da - db * db
            nd = db * db - da * da
            gp[l, sl] = cw * (a[sl] - b[sl]) + cg * np.sum(dd * da, axis=1)
            gq[l, sl] = cw * (b[sl] - a[sl]) + cg * np.sum(nd * db, axis=1)
    return gp, gq


def _as_batch(x):
    out = np.ascontiguousarray(x, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("expected a (L, n) batch of sorted rows")
    return out


def cost_batch(A, B, beta, r, use_moments):
    """Per-row coupling-minimized cost and the chosen orientation."""
    A, B, beta, r, use_moments = _as_batch(A), _as_batch(B), float(beta), int(r), bool(use_moments)
    b_lead = _b_lead_rows(A, B)
    c_asc, c_rev = (
        _cost_ds_np(P, Q, beta) if use_moments else _cost_pairwise_np(P, Q, beta, r)
        for P, Q in ((A, B), (_flipped(A, b_lead), _flipped(B, ~b_lead)))
    )
    orients = (c_rev < c_asc).astype(np.uint8)
    return np.where(orients == 1, c_rev, c_asc), orients


def grad_batch(A, B, beta, orients, use_moments):
    """Per-row gradients (wrt A and wrt B) of the r=2 cost under the given
    orientations (the coupling is held fixed)."""
    A, B, beta, use_moments = _as_batch(A), _as_batch(B), float(beta), bool(use_moments)
    rev = np.asarray(orients, dtype=np.uint8) == 1
    b_lead = _b_lead_rows(A, B)
    flip_a, flip_b = rev & b_lead, rev & ~b_lead
    grad = _grad_ds_np if use_moments else _grad_pairwise_np
    gp, gq = grad(_flipped(A, flip_a), _flipped(B, flip_b), beta)
    return _flipped(gp, flip_a), _flipped(gq, flip_b)
