"""Hot kernels for the 1D fused Gromov-Wasserstein objective on sorted values.

Vectorized numpy over the batch axis. ``cost_batch`` and ``grad_batch`` are
the entry points (and the layer boundaries the benchmark traces). The engines
call ``cost_batch`` alone: on the r=2 route, ``grads=(GA, GB)`` makes it
write the gradients of the chosen coupling in the same pass (see "One
value-and-gradient pass" below); ``grad_batch`` computes the same gradients
for given orientations.

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

One value-and-gradient pass
---------------------------
The r=2 cost pass centers the ascending coupling's delta and s and forms u
and the row sums that its gradients need; with ``grads`` it turns them into
the gradients at once, before the reversed coupling is evaluated. Only rows
on which the reversed coupling wins recompute their terms, from the gathered
rows. ``grad_batch`` runs the same routine on terms it computes itself. Both
follow the operations of the former separate gradient pass in the same order,
so costs, orientations and gradients keep their bits.

Early-out, exactly
------------------
Each coupling's cost is its W part plus beta * GW with GW >= 0 (a sum of
squares, or NaN), and a float sum c_W + x with x >= 0 is never below c_W. So
on a row whose reversed W part is not below the ascending cost
(``not c_W < c_asc``: also where either is NaN) the reversed coupling cannot
be chosen, and both routes skip its Gromov part there: the pairwise route its
O(n^2) double sum, the r=2 route its s and u. The chosen costs and
orientations are the bits of evaluating both couplings in full.

Workspace
---------
The r=2 route's (L, n) temporaries (delta, s, u and the gathered rows) live
in flat per-thread buffers that grow to the largest batch seen and are viewed
at each call's shape, so repeated calls do not make the allocator return
memory to the system and fault it back in. The engines' gradient outputs
come from the same workspace (``grad_outputs``), and ``_eval_sorted``
consumes them before it returns. Threads never share a buffer, and the maps
are private, so a process forked after a warm call writes its own copies of
the pages. A thread keeps its buffers for its lifetime: at most seven times
its largest batch (the engines' row blocks keep that near
``discrepancies._SLICE_BLOCK_ENTRIES`` entries).
"""

from __future__ import annotations

import mmap
import threading

import numpy as np


class _Workspace(threading.local):
    """Flat float64 buffers of one thread, by name, that only grow; ``take``
    views the first rows * cols entries of one as a C-contiguous array.

    Each buffer is its own private anonymous memory map, outside the malloc
    heap: long-lived buffers inside the heap split the free space that the
    large per-call arrays reuse, and on the benchmark's n = 8192 workload that
    raised peak RSS by 3.1 MB where these maps add 0.3 MB. Private, not
    shared, so that a forked child copies a page on its first write instead
    of writing into its parent's and its siblings' buffers."""

    def __init__(self):
        self.flat = {}

    def take(self, name, shape):
        size = shape[0] * shape[1]
        flat = self.flat.get(name)
        if flat is None or flat.size < size:
            pages = mmap.mmap(-1, 8 * max(size, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            flat = self.flat[name] = np.frombuffer(pages, dtype=np.float64)
        return flat[:size].reshape(shape)


_WORKSPACE = _Workspace()


def grad_outputs(shape):
    """This thread's two (L, n) arrays for ``cost_batch(..., grads=...)``;
    the thread's next call overwrites them, so read them before it."""
    return _WORKSPACE.take("GA", shape), _WORKSPACE.take("GB", shape)


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


def _paired(op, A, B, lead, out):
    # op(P, Q) into out for the rows P, Q of one coupling: A and B for the
    # ascending one (lead None); for the reversed one, A with its ``lead``
    # rows reversed and B with the others. On a lead row op(a reversed, b) is
    # op(a, b reversed) reversed, so neither flipped batch is formed.
    if lead is None:
        return op(A, B, out=out)
    op(A, B[:, ::-1], out=out)
    if lead.any():
        out[lead] = out[lead, ::-1]
    return out


def _rows_into(rows, A, B):
    # the marked rows of A and of B, gathered into the workspace
    shape = (np.count_nonzero(rows), A.shape[1])
    return (np.compress(rows, X, axis=0, out=_WORKSPACE.take(name, shape))
            for name, X in (("P", A), ("Q", B)))


# Row blocks in the O(n^2) route keep scratch matrices near this many entries.
_PAIRWISE_BLOCK_ENTRIES = 2_000_000


def _cost_pairwise_np(P, Q, beta, r, below=None):
    # The Gromov part is summed only on rows whose W part is below ``below``
    # (all rows when None); the others cost their W part, which is not below.
    L, n = P.shape
    w = g = 0.0
    if beta != 1.0:
        w = np.sum(np.abs(P - Q) ** r, axis=1) / n
    if beta != 0.0:
        g = np.zeros(L)
        block = max(1, _PAIRWISE_BLOCK_ENTRIES // n)
        rows = range(L) if below is None else np.flatnonzero((1.0 - beta) * w < below)
        for l in rows:
            p, q = P[l], Q[l]
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


def _delta(d):
    # centers delta (in d); its row means and sums of squares
    m = _center_rows(d)
    return m, _row_dot(d, d)


def _sums(d, s, u):
    # centers s (in s) and puts u = delta * s into u; sum s^2 and sum u
    _center_rows(s)
    np.multiply(d, s, out=u)
    return _row_dot(s, s), u.sum(axis=1)


def _w_cost(m, s_dd, n, beta):
    return (1.0 - beta) * (s_dd / n + m * m)


def _gw_cost(u, s_dd, s_ss, s_u, n):
    return 2.0 * _row_dot(u, u) / n + 2.0 * (s_dd * s_ss) / (n * n) + 4.0 * (s_u * s_u) / (n * n)


def _grad_terms(d, s, u, m, s_dd, s_ss, s_u, beta, GA, GB):
    # The frozen-coupling gradients wrt P and Q into GA and GB, from the
    # terms of _delta and _sums; overwrites d, s and u.
    n = d.shape[1]
    t = u
    t *= n
    t += 2.0 * s_u[:, None]  # n u + 2 sum u
    np.multiply(s, t, out=GB)  # g_delta
    GB += np.multiply(d, s_ss[:, None], out=GA)
    np.add(d, m[:, None], out=GA)
    GA *= (1.0 - beta) * 2.0 / n  # the W term of g_delta
    g_s = np.multiply(d, t, out=d)
    g_s += np.multiply(s, s_dd[:, None], out=t)
    cg = beta * 4.0 / (n * n)
    _center_rows(g_s)
    _center_rows(GB)
    g_s *= cg
    GB *= cg
    GB += GA  # g_delta plus the W term
    np.add(g_s, GB, out=GA)
    np.subtract(g_s, GB, out=GB)


def _grad_ds_np(P, Q, beta, lead, GA, GB):
    # One coupling's gradients (``_paired``) into GA and GB, in P's and Q's
    # order; reads P and Q before it writes GA and GB.
    d, s, u = (_WORKSPACE.take(name, P.shape) for name in ("d", "s", "u"))
    m, s_dd = _delta(_paired(np.subtract, P, Q, lead, d))
    s_ss, s_u = _sums(d, _paired(np.add, P, Q, lead, s), u)
    _grad_terms(d, s, u, m, s_dd, s_ss, s_u, beta, GA, GB)
    if lead is not None:
        GA[lead] = GA[lead, ::-1]
        GB[~lead] = GB[~lead, ::-1]


def _grad_reversed_rows(A, B, beta, b_lead, rev, GA, GB):
    # the reversed coupling's gradients on the rev rows of GA and GB
    P, Q = _rows_into(rev, A, B)
    _grad_ds_np(P, Q, beta, b_lead[rev], P, Q)
    GA[rev], GB[rev] = P, Q


def _cost_ds_np(A, B, beta, b_lead, grads):
    # Both couplings' costs, and the gradients into ``grads`` unless None.
    take = _WORKSPACE.take
    n = A.shape[1]
    d, s, u = (take(name, A.shape) for name in ("d", "s", "u"))
    m, s_dd = _delta(np.subtract(A, B, out=d))
    c_asc = _w_cost(m, s_dd, n, beta)
    if beta != 0.0 or grads is not None:
        s_ss, s_u = _sums(d, np.add(A, B, out=s), u)
        if beta != 0.0:
            c_asc += beta * _gw_cost(u, s_dd, s_ss, s_u, n)
        if grads is not None:
            _grad_terms(d, s, u, m, s_dd, s_ss, s_u, beta, *grads)
    m, s_dd = _delta(_paired(np.subtract, A, B, b_lead, d))
    c_rev = _w_cost(m, s_dd, n, beta)
    # beta * GW >= 0, so a row whose W part is not below c_asc keeps the
    # ascending coupling whatever its Gromov part (NaN included)
    keep = c_rev < c_asc
    if beta != 0.0 and keep.any():
        P, Q = _rows_into(keep, A, B)
        u = np.compress(keep, d, axis=0, out=take("u", P.shape))  # delta, made u by _sums
        s_ss, s_u = _sums(u, _paired(np.add, P, Q, b_lead[keep], take("s", P.shape)), u)
        c_rev[keep] += beta * _gw_cost(u, s_dd[keep], s_ss, s_u, n)
    rev = c_rev < c_asc
    if grads is not None and rev.any():
        _grad_reversed_rows(A, B, beta, b_lead, rev, *grads)
    return c_asc, c_rev


def _b_lead_rows(A, B):
    # Rows where B is lexicographically smaller than A.
    differs = A != B
    first = np.argmax(differs, axis=1)
    rows = np.arange(A.shape[0])
    return differs.any(axis=1) & (B[rows, first] < A[rows, first])


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


def cost_batch(A, B, beta, r, use_moments, grads=None):
    """Per-row coupling-minimized cost and the chosen orientation.

    With ``grads=(GA, GB)`` (r = 2 moment route only), also writes the
    gradients of the chosen coupling's cost, as ``grad_batch`` gives them,
    into those two C-contiguous float64 (L, n) arrays."""
    A, B, beta, r, use_moments = _as_batch(A), _as_batch(B), float(beta), int(r), bool(use_moments)
    if grads is not None and not (use_moments and len(grads) == 2 and all(
            isinstance(G, np.ndarray) and G.dtype == np.float64 and G.shape == A.shape
            and G.flags.c_contiguous for G in grads)):
        raise ValueError("grads must be two C-contiguous float64 arrays of the batch's shape, "
                         "on the moment route")
    b_lead = _b_lead_rows(A, B)
    if use_moments:
        c_asc, c_rev = _cost_ds_np(A, B, beta, b_lead, grads)
    else:
        c_asc = _cost_pairwise_np(A, B, beta, r)
        c_rev = _cost_pairwise_np(_flipped(A, b_lead), _flipped(B, ~b_lead), beta, r, below=c_asc)
    orients = (c_rev < c_asc).astype(np.uint8)
    return np.where(orients == 1, c_rev, c_asc), orients


def grad_batch(A, B, beta, orients, use_moments):
    """Per-row gradients (wrt A and wrt B) of the r=2 cost under the given
    orientations (the coupling is held fixed)."""
    A, B, beta, use_moments = _as_batch(A), _as_batch(B), float(beta), bool(use_moments)
    rev = np.asarray(orients, dtype=np.uint8) == 1
    b_lead = _b_lead_rows(A, B)
    if not use_moments:
        flip_a, flip_b = rev & b_lead, rev & ~b_lead
        gp, gq = _grad_pairwise_np(_flipped(A, flip_a), _flipped(B, flip_b), beta)
        return _flipped(gp, flip_a), _flipped(gq, flip_b)
    GA, GB = np.empty(A.shape), np.empty(B.shape)
    _grad_ds_np(A, B, beta, None, GA, GB)
    if rev.any():
        _grad_reversed_rows(A, B, beta, b_lead, rev, GA, GB)
    return GA, GB
