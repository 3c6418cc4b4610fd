"""Hot kernels for the 1D fused Gromov-Wasserstein objective on sorted values.

Vectorized numpy over the batch axis. ``cost_batch`` and ``grad_batch`` are
the entry points the engines call (and the layer boundaries the benchmark
traces).

Conventions
-----------
A, B : (L, n) float64 arrays of projected values, each row sorted ascending.
orientation : per-row tag; 0 pairs both rows ascending, 1 pairs the first row
    ascending against the second descending (the two monotone couplings).
use_moments : evaluate the quadratic (r=2) Gromov term through centered
    moments in O(n) instead of the O(n^2) double sum. Callers must pass
    use_moments=True only for r=2; the two routes are validated against each
    other in the tests.

The per-row cost is

    (1-beta) * (1/n) * sum_i |a_i - b_{sigma(i)}|^r
    + beta * (1/n^2) * sum_{ij} (|a_i - a_j|^r - |b_{sigma(i)} - b_{sigma(j)}|^r)^2

minimized over the two monotone couplings sigma. Ties prefer Ascending.

The centered-moment expansion of the r=2 Gromov term: with p = a - mean(a),
q = b - mean(b) (b in pairing order) and e = p^2 - q^2,

    GW = (2/n) sum e^2 + (2/n^2) (sum e)^2
         + (4/n^2) [ (sum p^2)^2 + (sum q^2)^2 - 2 (sum pq)^2 ]

(the cross terms vanish because sum p = sum q = 0).

Exact swap symmetry
-------------------
`cost_batch(A, B) == cost_batch(B, A)` must hold bit-for-bit (the public
discrepancies promise exact symmetry under argument swap). Elementwise terms
are symmetric by IEEE arithmetic (x-y is the exact negation of y-x, squares
and absolute values cancel the sign), so the ascending coupling is symmetric
as written. The reversed coupling traverses the pairing in the order of one of
the two rows; to keep that traversal independent of argument order it is
always computed with the lexicographically smaller row first. Gradient code
reuses one helper for both sides with swapped roles for the same reason.
"""

from __future__ import annotations

import numpy as np

def _w_cost_np(A, B, r):
    if r == 2:
        diff = A - B
        return np.sum(diff * diff, axis=1) / A.shape[1]
    return np.sum(np.abs(A - B) ** r, axis=1) / A.shape[1]


def _gw_cost_moments_np(A, B):
    n = A.shape[1]
    p = A - np.sum(A, axis=1)[:, None] / n
    q = B - np.sum(B, axis=1)[:, None] / n
    pp = p * p
    qq = q * q
    e = pp - qq
    s_e2 = np.sum(e * e, axis=1)
    s_e = np.sum(e, axis=1)
    s_p2 = np.sum(pp, axis=1)
    s_q2 = np.sum(qq, axis=1)
    s_pq = np.sum(p * q, axis=1)
    t3 = (s_p2 * s_p2 + s_q2 * s_q2) - 2.0 * (s_pq * s_pq)
    return 2.0 * s_e2 / n + 2.0 * (s_e * s_e) / (n * n) + 4.0 * t3 / (n * n)


# Row blocks in the O(n^2) route keep scratch matrices near this many entries.
_PAIRWISE_BLOCK_ENTRIES = 2_000_000


def _gw_cost_pairwise_row_np(a, b, r):
    n = a.shape[0]
    block = max(1, _PAIRWISE_BLOCK_ENTRIES // n)
    acc = 0.0
    for i0 in range(0, n, block):
        sl = slice(i0, min(i0 + block, n))
        if r == 2:
            da = a[sl, None] - a[None, :]
            db = b[sl, None] - b[None, :]
            dd = da * da - db * db
        else:
            da = np.abs(a[sl, None] - a[None, :]) ** r
            db = np.abs(b[sl, None] - b[None, :]) ** r
            dd = da - db
        acc += float(np.sum(dd * dd))
    return acc / (n * n)


def _cost_oriented_np(A, B, beta, r, use_moments):
    L = A.shape[0]
    if beta != 1.0:
        w = _w_cost_np(A, B, r)
    else:
        w = np.zeros(L)
    if beta != 0.0:
        if use_moments:
            g = _gw_cost_moments_np(A, B)
        else:
            g = np.empty(L)
            for l in range(L):
                g[l] = _gw_cost_pairwise_row_np(A[l], B[l], r)
    else:
        g = np.zeros(L)
    c = (1.0 - beta) * w + beta * g
    return np.maximum(c, 0.0)


def _lex_le_rows_np(A, B):
    # Per-row lexicographic A <= B; equal rows give True.
    differs = A != B
    any_diff = differs.any(axis=1)
    first = np.argmax(differs, axis=1)
    rows = np.arange(A.shape[0])
    return np.where(any_diff, A[rows, first] < B[rows, first], True)


def _canonical_reversed_np(A, B):
    mask = _lex_le_rows_np(A, B)
    lo = np.where(mask[:, None], A, B)
    hi = np.where(mask[:, None], B, A)
    return mask, lo, hi[:, ::-1]


def _cost_batch_np(A, B, beta, r, use_moments):
    c_asc = _cost_oriented_np(A, B, beta, r, use_moments)
    _, lo, hi_rev = _canonical_reversed_np(A, B)
    c_rev = _cost_oriented_np(lo, hi_rev, beta, r, use_moments)
    orients = (c_rev < c_asc).astype(np.uint8)
    costs = np.where(orients == 1, c_rev, c_asc)
    return costs, orients


def _gw_grad_bracket_np(n, e, p, q, s_e, s_ep, s_p2, s_pq):
    return (
        n * e * p
        + p * s_e[:, None]
        - s_ep[:, None]
        + 2.0 * (p * s_p2[:, None])
        - 2.0 * (q * s_pq[:, None])
    )


def _grad_oriented_moments_np(A, B, beta):
    n = A.shape[1]
    p = A - np.sum(A, axis=1)[:, None] / n
    q = B - np.sum(B, axis=1)[:, None] / n
    pp = p * p
    qq = q * q
    e = pp - qq
    ne = qq - pp
    s_e = np.sum(e, axis=1)
    s_ne = np.sum(ne, axis=1)
    s_ep = np.sum(e * p, axis=1)
    s_neq = np.sum(ne * q, axis=1)
    s_p2 = np.sum(pp, axis=1)
    s_q2 = np.sum(qq, axis=1)
    s_pq = np.sum(p * q, axis=1)
    cw = (1.0 - beta) * 2.0 / n
    cg = beta * 8.0 / (n * n)
    ga = cw * (A - B) + cg * _gw_grad_bracket_np(n, e, p, q, s_e, s_ep, s_p2, s_pq)
    gb = cw * (B - A) + cg * _gw_grad_bracket_np(n, ne, q, p, s_ne, s_neq, s_q2, s_pq)
    return ga, gb


def _grad_oriented_pairwise_np(A, B, beta):
    L, n = A.shape
    cw = (1.0 - beta) * 2.0 / n
    cg = beta * 8.0 / (n * n)
    ga = np.empty((L, n))
    gb = np.empty((L, n))
    block = max(1, _PAIRWISE_BLOCK_ENTRIES // n)
    for l in range(L):
        a = A[l]
        b = B[l]
        for i0 in range(0, n, block):
            sl = slice(i0, min(i0 + block, n))
            da = a[sl, None] - a[None, :]
            db = b[sl, None] - b[None, :]
            dd = da * da - db * db
            nd = db * db - da * da
            ga[l, sl] = cw * (a[sl] - b[sl]) + cg * np.sum(dd * da, axis=1)
            gb[l, sl] = cw * (b[sl] - a[sl]) + cg * np.sum(nd * db, axis=1)
    return ga, gb


def _grad_batch_np(A, B, beta, orients, use_moments):
    L, n = A.shape
    GA = np.empty((L, n))
    GB = np.empty((L, n))
    grad_oriented = (
        _grad_oriented_moments_np if use_moments else _grad_oriented_pairwise_np
    )
    asc = orients == 0
    if asc.any():
        ga, gb = grad_oriented(A[asc], B[asc], beta)
        GA[asc] = ga
        GB[asc] = gb
    rev = ~asc
    if rev.any():
        Ar = A[rev]
        Br = B[rev]
        mask, lo, hi_rev = _canonical_reversed_np(Ar, Br)
        g_lo, g_hi_rev = grad_oriented(lo, hi_rev, beta)
        g_hi = g_hi_rev[:, ::-1]
        GA[rev] = np.where(mask[:, None], g_lo, g_hi)
        GB[rev] = np.where(mask[:, None], g_hi, g_lo)
    return GA, GB


def _as_batch(x):
    out = np.ascontiguousarray(x, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("expected a (L, n) batch of sorted rows")
    return out


def cost_batch(A, B, beta, r, use_moments):
    """Per-row coupling-minimized cost and the chosen orientation."""
    return _cost_batch_np(_as_batch(A), _as_batch(B), float(beta), int(r), bool(use_moments))


def grad_batch(A, B, beta, orients, use_moments):
    """Per-row gradients (wrt A and wrt B) of the r=2 cost under the given
    orientations (the coupling is held fixed)."""
    return _grad_batch_np(
        _as_batch(A),
        _as_batch(B),
        float(beta),
        np.asarray(orients, dtype=np.uint8),
        bool(use_moments),
    )
