"""Kernel-level validation: the O(n) delta/s evaluation against the O(n^2)
reference and against exact rational arithmetic, exact swap symmetry, and the
fused value-and-gradient pass, its early-outs and its per-thread workspace
against the two separate passes, bit for bit."""

import os
import pickle
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssfgw import _kernels, discrepancies
from ssfgw.discrepancies import OptimizerConfig, _eval_slices, slice_costs, ssfg
from ssfgw.experiments import FlowObjective, four_mode_gmm, particle_flow
from ssfgw.fgw import FgwConfig, fold_rows, spread_rows, stable_sort_rows

from oracles import ds_two_pass, exact_costs, exact_grads


def _random_sorted_pair(rng, n):
    kind = rng.integers(3)
    if kind == 0:
        a = rng.normal(size=n)
        b = rng.normal(size=n) * rng.uniform(0.5, 2.0) + rng.normal()
    elif kind == 1:
        a = rng.uniform(-5, 5, size=n)
        b = rng.uniform(-5, 5, size=n)
    else:
        # duplicated values exercise tie handling
        a = rng.integers(-3, 4, size=n).astype(np.float64)
        b = rng.integers(-3, 4, size=n).astype(np.float64)
    return np.sort(a)[None, :], np.sort(b)[None, :]


def _fused(A, B, beta):
    # costs, orientations and gradients of the r = 2 route, in one pass
    grads = (np.full(A.shape, np.nan), np.full(B.shape, np.nan))
    return (*_kernels.cost_batch(A, B, beta, 2, grads=grads), *grads)


def _reference(A, B, beta):
    # the same by the O(n^2) double sums
    costs, orients = _kernels.pairwise_batch(A, B, beta, 2)
    return (costs, orients, *_kernels.grad_batch(A, B, beta, orients))


def test_moment_expansion_matches_pairwise_500_instances():
    # Gate for the fast path: it may only be used because this passes.
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 41))
        A, B = _random_sorted_pair(rng, n)
        beta = float(rng.uniform(0, 1))
        c_mom, o_mom = _kernels.cost_batch(A, B, beta, 2)
        c_ref, o_ref = _kernels.pairwise_batch(A, B, beta, 2)
        scale = max(abs(c_ref[0]), 1.0)
        worst = max(worst, abs(c_mom[0] - c_ref[0]) / scale)
        assert o_mom[0] == o_ref[0] or abs(c_mom[0] - c_ref[0]) <= 1e-9 * scale
    assert worst <= 1e-9, f"moment expansion drifted from reference: {worst}"


def test_moment_gradients_match_pairwise():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 33))
        A, B = _random_sorted_pair(rng, n)
        beta = float(rng.uniform(0, 1))
        _, orients, ga_m, gb_m = _fused(A, B, beta)
        ga_r, gb_r = _kernels.grad_batch(A, B, beta, orients)
        scale = max(float(np.abs(ga_r).max()), float(np.abs(gb_r).max()), 1.0)
        assert np.abs(ga_m - ga_r).max() <= 1e-9 * scale
        assert np.abs(gb_m - gb_r).max() <= 1e-9 * scale


def _with_mirrored_rows(A, B, rng):
    """A and B with rows appended on which the reversed coupling wins: each
    new A row is skewed and its B row mirrors it, shifted so that A is the
    lexicographically smaller row on even rows and B on odd ones. Summation
    order matters on these rows, so only the canonical traversal keeps them
    swap-symmetric."""
    L, n = A.shape
    MA = np.sort(rng.exponential(2.0, size=(L, n)), axis=1)
    shift = np.where(np.arange(L) % 2 == 0, 30.0, -30.0)[:, None]
    MB = np.sort(-1.3 * MA + shift + 0.05 * rng.normal(size=(L, n)), axis=1)
    return np.vstack([A, MA]), np.vstack([B, MB])


def _assert_reversed_with_both_leads(A, B, orients):
    b_lead = np.array([tuple(b) < tuple(a) for a, b in zip(A, B)])[orients == 1]
    assert b_lead.sum() >= 4 and (~b_lead).sum() >= 4


def test_cost_rows_swap_symmetric_bitwise():
    rng = np.random.default_rng(4)
    for cost in (_kernels.cost_batch, _kernels.pairwise_batch):
        A = np.sort(rng.normal(size=(32, 17)), axis=1)
        B = np.sort(rng.normal(size=(32, 17)) * 2.1 - 1.0, axis=1)
        A, B = _with_mirrored_rows(A, B, rng)
        c1, o1 = cost(A, B, 0.25, 2)
        c2, _ = cost(B, A, 0.25, 2)
        _assert_reversed_with_both_leads(A, B, o1)
        assert np.array_equal(c1, c2)


def test_gradients_swap_symmetric_bitwise():
    rng = np.random.default_rng(5)
    for route in (_fused, _reference):
        A = np.sort(rng.normal(size=(16, 9)), axis=1)
        B = np.sort(rng.normal(size=(16, 9)) * 0.6 + 0.4, axis=1)
        A, B = _with_mirrored_rows(A, B, rng)
        _, o1, ga1, gb1 = route(A, B, 0.4)
        _assert_reversed_with_both_leads(A, B, o1)
        _, o2, ga2, gb2 = route(B, A, 0.4)
        assert np.array_equal(ga1, gb2)
        assert np.array_equal(gb1, ga2)


def test_cost_nonnegative_and_zero_on_identical_rows():
    rng = np.random.default_rng(6)
    A = np.sort(rng.normal(size=(8, 12)), axis=1)
    for cost in (_kernels.cost_batch, _kernels.pairwise_batch):
        c, _ = cost(A, A.copy(), 0.5, 2)
        assert np.array_equal(c, np.zeros(8))
        B = np.sort(rng.normal(size=(8, 12)), axis=1)
        c2, _ = cost(A, B, 0.5, 2)
        assert (c2 >= 0.0).all()


def _near_identical_rows(n):
    # Clouds that agree to 1e-9 of their spread, the regime of converged
    # flows and convergence_rate, projected once with the gemm that
    # slice_costs uses. Both routes then see the same rows: a per-direction
    # gemv differs from the gemm by ~4e-16, which at this conditioning alone
    # moves the cost by ~2e-8 relative. At these n the float64 reference is
    # within 3.3e-9 of a long-double evaluation; at n = 64 it is off by 2e-8
    # itself.
    rng = np.random.default_rng(30)
    X = rng.normal(size=(n, 3))
    Y = X + 1e-9 * X.std() * rng.normal(size=(n, 3))
    thetas = rng.normal(size=(8, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    cfg = FgwConfig(beta=0.1, exponent=2)
    A = np.sort(thetas @ X.T, axis=1)
    B = np.sort(thetas @ Y.T, axis=1)
    return X, Y, thetas, cfg, A, B


@pytest.mark.parametrize("n", [256, 1024])
def test_near_identical_clouds_match_reference(n):
    X, Y, thetas, cfg, A, B = _near_identical_rows(n)
    fast = slice_costs(X, Y, cfg, thetas)
    ref, _ = _kernels.pairwise_batch(A, B, cfg.beta, 2)
    assert np.abs(fast - ref).max() <= 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("n", [256, 1024])
def test_near_identical_clouds_gradients_match_reference(n):
    _, _, _, cfg, A, B = _near_identical_rows(n)
    _, orients, ga_m, gb_m = _fused(A, B, cfg.beta)
    ga_r, gb_r = _kernels.grad_batch(A, B, cfg.beta, orients)
    scale = max(float(np.abs(ga_r).max()), float(np.abs(gb_r).max()))
    assert np.abs(ga_m - ga_r).max() <= 1e-7 * scale
    assert np.abs(gb_m - gb_r).max() <= 1e-7 * scale


# ---------------------------------------------------------------------------
# exact rational arithmetic
# ---------------------------------------------------------------------------


def _max_error(values, exact):
    # largest |float - exact| over paired entries, as a float
    return float(max(abs(Fraction(float(v)) - e) for v, e in zip(values, exact)))


def _agreeing_rows(rng, n, agreements):
    """Sorted rows a and b = a + agreement * spread(a) * noise, one pair per
    agreement. The clouds lie within a few spreads of the origin and of each
    other: the regime in which README "Backends" states the kernel's
    accuracy (a large translation between the clouds is outside it)."""
    A = rng.normal(size=(len(agreements), n))
    noise = rng.normal(size=A.shape) * A.std(axis=1, keepdims=True)
    B = A + np.asarray(agreements)[:, None] * noise
    return np.sort(A, axis=1), np.sort(B, axis=1)


_AGREEMENTS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
# Worst measured over these 217 rows: 3.4e-16 (costs) and 5.4e-16
# (gradients, relative to the row's largest exact entry). The float O(n^2)
# route was 2.6e-6 off on the same rows at r = 2, and 6.4e-6 at r = 3.
_EXACT_R2_TOL = 1e-15


def test_near_agreement_matches_exact_rationals():
    rng = np.random.default_rng(16)
    cases = [(n, beta, _AGREEMENTS) for n in range(2, 14) for beta in (0.0, 0.1, 1.0)]
    cases.append((64, 0.1, (1e-9,)))
    worst_cost = worst_grad = 0.0
    for n, beta, agreements in cases:
        A, B = _agreeing_rows(rng, n, agreements)
        costs, orients, GA, GB = _fused(A, B, beta)
        for a, b, cost, k, ga, gb in zip(A, B, costs, orients, GA, GB):
            exact = exact_costs(a, b, beta, 2)
            assert exact[k] == min(exact), "the kernel chose the costlier coupling"
            if exact[0] == exact[1]:
                # an exact tie (every row at n = 2 and beta = 1) keeps the
                # ascending coupling, whose paired values agree
                assert k == 0, (n, beta)
            worst_cost = max(worst_cost, _max_error([cost], [exact[k]]) / float(exact[k]))
            ea, eb = exact_grads(a, b, beta)[k]
            top = float(max(abs(g) for g in ea + eb))
            worst_grad = max(worst_grad, max(_max_error(ga, ea), _max_error(gb, eb)) / top)
    assert worst_cost <= _EXACT_R2_TOL, f"worst relative cost error {worst_cost:.2e}"
    assert worst_grad <= _EXACT_R2_TOL, f"worst relative gradient error {worst_grad:.2e}"


# Worst measured over these rows: 4.7e-16 (r = 1), 5.9e-16 (r = 3) and
# 1.2e-15 (r = 4).
_EXACT_PAIRWISE_TOL = 4e-15


@pytest.mark.parametrize("r", [1, 3, 4])
def test_pairwise_route_matches_exact_rationals(r):
    # Well-separated rows: independent draws at different scales and offsets.
    # On nearly-agreeing rows the float double sum is not this accurate (see
    # _EXACT_R2_TOL).
    rng = np.random.default_rng(r)
    worst = 0.0
    for n in range(2, 14):
        A = np.sort(rng.normal(size=(3, n)), axis=1)
        B = np.sort(rng.normal(size=(3, n)) * rng.uniform(0.5, 2.0, (3, 1)) + rng.normal(size=(3, 1)),
                    axis=1)
        for beta in (0.0, 0.1, 1.0):
            costs, _ = _kernels.pairwise_batch(A, B, beta, r)
            for a, b, cost in zip(A, B, costs):
                best = min(exact_costs(a, b, beta, r))
                worst = max(worst, _max_error([cost], [best]) / float(best))
    assert worst <= _EXACT_PAIRWISE_TOL, f"worst relative cost error {worst:.2e}"


def _pairwise_early_out_rows(A, B, beta, r):
    # rows whose reversed W part is not below the ascending cost: the
    # pairwise route skips their reversed Gromov part
    b_lead = np.array([tuple(b) < tuple(a) for a, b in zip(A, B)])[:, None]
    w_rev = _kernels._cost_pairwise_np(np.where(b_lead, A[:, ::-1], A),
                                       np.where(b_lead, B, B[:, ::-1]), 0.0, r)
    return ~((1.0 - beta) * w_rev < _kernels._cost_pairwise_np(A, B, beta, r))


def test_pairwise_row_blocks_keep_the_one_block_results(monkeypatch):
    # Blocks of 1, 3 and 7 pairwise rows at n = 17 (each with a short last
    # block) against one block. Per-point gradient sums run over whole rows,
    # so they keep their bits; a cost adds one partial sum per block, so it
    # may differ in the last bits.
    rng = np.random.default_rng(21)
    n, beta = 17, 0.4
    A = np.sort(rng.normal(size=(6, n)), axis=1)
    B = np.sort(rng.normal(size=(6, n)) * 0.8 + 0.3, axis=1)
    A, B = _with_mirrored_rows(A, B, rng)
    skipped = _pairwise_early_out_rows(A, B, beta, 2)
    assert 0 < skipped.sum() < skipped.size  # the reversed early-out occurs
    one_block = {r: _kernels.pairwise_batch(A, B, beta, r) for r in (1, 2, 3)}
    frozen = one_block[2][1]
    assert 0 < frozen.sum() < frozen.size  # both couplings occur
    grads = _kernels.grad_batch(A, B, beta, frozen)
    for rows in (1, 3, 7):
        monkeypatch.setattr(_kernels, "_PAIRWISE_BLOCK_ENTRIES", rows * n)
        for r, (costs, orients) in one_block.items():
            blocked, blocked_orients = _kernels.pairwise_batch(A, B, beta, r)
            assert np.array_equal(blocked_orients, orients)
            assert (np.abs(blocked - costs) <= 1e-14 * np.abs(costs)).all()
        assert _bits(_kernels.grad_batch(A, B, beta, frozen)) == _bits(grads)


@pytest.mark.parametrize("r", [1, 3, 4])
def test_cost_batch_runs_the_pairwise_route_off_exponent_2(r):
    rng = np.random.default_rng(23)
    n, beta = 11, 0.4
    A = np.sort(rng.normal(size=(8, n)), axis=1)
    B = np.sort(rng.normal(size=(8, n)) * 0.8 + 0.3, axis=1)
    A, B = _with_mirrored_rows(A, B, rng)
    assert _pairwise_early_out_rows(A, B, beta, r).any()
    costs, orients = _kernels.pairwise_batch(A, B, beta, r)
    assert 0 < orients.sum() < orients.size  # both couplings occur
    assert _bits(_kernels.cost_batch(A, B, beta, r)) == _bits([costs, orients])


def test_routes_and_oracle_agree_exactly_on_small_integers():
    # Small integers, n a power of two and a dyadic beta: every float
    # operation of both routes is exact, so nothing may differ by a bit.
    rng = np.random.default_rng(17)
    for n in (1, 2, 4, 8):
        A = np.sort(rng.integers(-6, 7, size=(12, n)), axis=1).astype(np.float64)
        B = np.sort(rng.integers(-6, 7, size=(12, n)), axis=1).astype(np.float64)
        for beta in (0.0, 0.25, 0.5, 1.0):
            for r in (1, 2, 3):
                costs, orients = _kernels.pairwise_batch(A, B, beta, r)
                if r == 2:
                    c_mom, o_mom = _kernels.cost_batch(A, B, beta, 2)
                    assert np.array_equal(c_mom, costs) and np.array_equal(o_mom, orients)
                for a, b, cost, k in zip(A, B, costs, orients):
                    exact = exact_costs(a, b, beta, r)
                    assert Fraction(float(cost)) == min(exact)
                    assert k == (exact[1] < exact[0])
            for k in (0, 1):
                frozen = np.full(A.shape[0], k, dtype=np.uint8)
                grads = _kernels.grad_batch(A, B, beta, frozen)
                for a, b, ga, gb in zip(A, B, *grads):
                    ea, eb = exact_grads(a, b, beta)[k]
                    assert [Fraction(float(g)) for g in ga] == ea
                    assert [Fraction(float(g)) for g in gb] == eb
            _, orients, *grads = _fused(A, B, beta)
            for g_mom, g_ref in zip(grads, _kernels.grad_batch(A, B, beta, orients)):
                assert np.array_equal(g_mom, g_ref)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _kernels.cost_batch(np.zeros(3), np.zeros(3), 0.1, 2),
                 "expected a (L, n) batch of sorted rows", id="cost-batch-1d-row"),
    pytest.param(lambda: _kernels.cost_batch(np.zeros((2, 3)), np.zeros((2, 3)), 0.1, 3,
                                             grads=(np.zeros((2, 3)), np.zeros((2, 3)))),
                 "gradients require exponent r=2", id="cost-batch-grads-at-exponent-3"),
    pytest.param(lambda: _kernels.cost_batch(np.zeros((2, 3)), np.zeros((2, 3)), 0.1, 2,
                                             grads=(np.zeros((2, 3)), np.zeros((3, 2)).T)),
                 "grads must be two C-contiguous float64 arrays of the batch's shape",
                 id="cost-batch-grads-not-c-contiguous"),
    pytest.param(lambda: _eval_slices(np.zeros((4, 2)), np.ones((4, 2)), np.eye(2),
                                      FgwConfig(exponent=3), want_grads=True),
                 "gradients require exponent r=2", id="eval-slices-grads-at-exponent-3"),
])
def test_kernel_checks_that_no_other_test_reaches(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# Pool values are 0 or at least 1/4 in magnitude, so the scale 10^k sets the
# magnitude of every nonzero entry and nothing underflows at 1e-60.
_POOL_VALUES = st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25))


@st.composite
def scaled_row_pairs(draw):
    """Two batches of sorted rows at one scale 10^k, k in [-60, 60], indexed
    from one pool of at most 6 values, so ties, duplicated values and equal
    rows occur; rows hold n = 1 to 12 values."""
    beta = draw(st.floats(0.0, 1.0))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)))
    pool = draw(
        hnp.arrays(np.float64, st.integers(1, 6), elements=_POOL_VALUES, fill=st.nothing())
    )
    pool *= 10.0 ** draw(st.integers(-60, 60))
    rows = []
    for _ in range(2):
        index = draw(
            hnp.arrays(np.intp, shape, elements=st.integers(0, pool.size - 1), fill=st.nothing())
        )
        rows.append(np.sort(pool[index], axis=1))
    return rows[0], rows[1], beta


@given(scaled_row_pairs())
def test_kernel_pair_properties_across_scales(case):
    A, B, beta = case
    top = max(float(np.abs(A).max()), float(np.abs(B).max()))
    cost_tol = 1e-9 * ((1.0 - beta) * top**2 + beta * top**4)
    grad_tol = 1e-9 * ((1.0 - beta) * top + beta * top**3)
    for route in (_fused, _reference):
        c, o, ga, gb = route(A, B, beta)
        c_sw, o_sw, ga_sw, gb_sw = route(B, A, beta)
        assert (c >= 0.0).all()
        assert np.array_equal(c, c_sw) and np.array_equal(o, o_sw)
        assert np.array_equal(ga, gb_sw) and np.array_equal(gb, ga_sw)
        c_same = route(A, A.copy(), beta)[0]
        assert np.array_equal(c_same, np.zeros(A.shape[0]))
    c_mom, o_mom, *g_moms = _fused(A, B, beta)
    c_ref, _ = _kernels.pairwise_batch(A, B, beta, 2)
    assert np.abs(c_mom - c_ref).max() <= cost_tol
    for g_mom, g_ref in zip(g_moms, _kernels.grad_batch(A, B, beta, o_mom)):
        assert np.abs(g_mom - g_ref).max() <= grad_tol


# ---------------------------------------------------------------------------
# the fused value-and-gradient pass, the early-outs and the workspace
# ---------------------------------------------------------------------------


def _bits(arrays):
    return [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays]


@pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
def test_fused_pass_gives_the_bits_of_two_calls(beta):
    rng = np.random.default_rng(18)
    A = np.sort(rng.normal(size=(16, 9)), axis=1)
    B = np.sort(rng.normal(size=(16, 9)) * 0.6 + 0.4, axis=1)
    A, B = _with_mirrored_rows(A, B, rng)
    fused = _fused(A, B, beta)
    if beta > 0.0:
        # with W alone (beta = 0) the ascending coupling always wins
        _assert_reversed_with_both_leads(A, B, fused[1])
    assert _bits(fused) == _bits(ds_two_pass(A, B, beta))


def test_fused_eval_slices_gives_the_bits_of_two_passes_across_row_blocks():
    rng = np.random.default_rng(19)
    X = rng.exponential(size=(8192, 3))
    # mirrored along the first axis: the reversed coupling wins on some slices
    Y = X * np.array([-1.3, 1.0, 0.5]) + 0.05 * rng.normal(size=X.shape)
    thetas = np.vstack([np.eye(3), rng.normal(size=(7, 3))])
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    cfg = FgwConfig(beta=0.4, exponent=2)
    assert len(discrepancies._row_blocks(thetas.shape[0], X.shape[0])) > 1
    costs, gx, gy = _eval_slices(X, Y, thetas, cfg, want_grads=True)
    A, order_x = stable_sort_rows(thetas @ X.T)
    B, order_y = stable_sort_rows(thetas @ Y.T)
    c, orients, GA, GB = ds_two_pass(A, B, cfg.beta)
    assert 0 < orients.sum() < orients.size
    # the orders are flat indices into the (L, n) rows
    gx_ref, gy_ref = np.empty_like(GA), np.empty_like(GB)
    np.put(gx_ref, order_x, GA)
    np.put(gy_ref, order_y, GB)
    assert _bits([costs, gx, gy]) == _bits([c, gx_ref, gy_ref])


@pytest.mark.parametrize("n, m, L", [(20000, 20000, 3), (20000, 20000, 7), (10000, 20000, 3),
                                     (20000, 10000, 7)])
def test_eval_slices_gives_the_bits_of_one_block_above_two_rows_per_budget(n, m, L):
    # Above 16,384 points one row fills a block budget, yet the blocks hold
    # two or three rows (a one-row projection takes gemv), and the kernel
    # reads a lone row as two. So the blocked evaluation, with gradients or
    # without, has the bits of the whole stably-sorted batch at once.
    rng = np.random.default_rng(24)
    X = rng.exponential(size=(n, 3))
    # mirrored along the first axis: the reversed coupling wins on some slices
    Y = rng.exponential(size=(m, 3)) * np.array([-1.3, 1.0, 0.5]) + 0.05
    thetas = np.vstack([np.eye(3), rng.normal(size=(L - 3, 3))])
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    cfg = FgwConfig(beta=0.4, exponent=2)
    costs, gx, gy = _eval_slices(X, Y, thetas, cfg, want_grads=True)
    value_only = _eval_slices(X, Y, thetas, cfg, want_grads=False)[0]
    A, order_x = stable_sort_rows(thetas @ X.T)
    B, order_y = stable_sort_rows(thetas @ Y.T)
    k = max(n, m)
    c, orients, GA, GB = ds_two_pass(spread_rows(A, k), spread_rows(B, k), cfg.beta)
    assert 0 < orients.sum() < orients.size
    gx_ref, gy_ref = np.empty((L, n)), np.empty((L, m))
    np.put(gx_ref, order_x, fold_rows(GA, n))
    np.put(gy_ref, order_y, fold_rows(GB, m))
    assert _bits([costs, value_only, gx, gy]) == _bits([c, c, gx_ref, gy_ref])


@pytest.mark.parametrize("n", [8193, 20000])
def test_a_lone_row_gets_the_bits_it_gets_in_a_batch(n):
    # numpy's einsum sums a lone row of more than 8192 entries chunk by chunk;
    # the kernel reads it as two rows, so a row evaluated alone, or gathered
    # alone for the reversed coupling, rounds as it does among other rows
    rng = np.random.default_rng(25)
    A, B = _with_mirrored_rows(np.sort(rng.normal(size=(2, n)), axis=1),
                               np.sort(rng.normal(size=(2, n)) * 0.6 + 0.4, axis=1), rng)
    batch = _fused(A, B, 0.4)
    assert 0 < batch[1].sum() < batch[1].size
    for row in range(A.shape[0]):
        alone = _fused(A[row:row + 1], B[row:row + 1], 0.4)
        assert _bits(alone) == _bits([x[row:row + 1] for x in batch])


def _pairwise_full(A, B, beta, r):
    # both couplings of the pairwise route with every row summed in full
    b_lead = np.array([tuple(b) < tuple(a) for a, b in zip(A, B)], dtype=bool)
    c_asc = _kernels._cost_pairwise_np(A, B, beta, r)
    c_rev = _kernels._cost_pairwise_np(np.where(b_lead[:, None], A[:, ::-1], A),
                                       np.where(b_lead[:, None], B, B[:, ::-1]), beta, r)
    return np.where(c_rev < c_asc, c_rev, c_asc), (c_rev < c_asc).astype(np.uint8)


def _assert_early_outs_keep_the_bits(A, B, beta):
    with np.errstate(all="ignore"):
        assert _bits(_fused(A, B, beta)) == _bits(ds_two_pass(A, B, beta))
        for r in (1, 2, 3):
            assert _bits(_kernels.pairwise_batch(A, B, beta, r)) == _bits(
                _pairwise_full(A, B, beta, r))


@given(scaled_row_pairs())
def test_fused_pass_and_early_outs_keep_the_bits_of_full_evaluations(case):
    _assert_early_outs_keep_the_bits(*case)


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
def test_early_outs_keep_the_bits_on_nan_inf_and_overflowing_rows(beta):
    rng = np.random.default_rng(20)
    A = rng.normal(size=(12, 6))
    B = rng.normal(size=(12, 6)) * 2.0
    A[0, 2] = B[1, 0] = np.nan
    A[2, 5] = B[3, 0] = np.inf
    A[4, 1] = B[4, 3] = -np.inf
    A[6:9] *= 1e100  # the Gromov part overflows
    B[9:] *= 1e160  # the W part overflows as well
    A, B = _with_mirrored_rows(np.sort(A, axis=1), np.sort(B, axis=1), rng)
    _assert_early_outs_keep_the_bits(A, B, beta)


def _ssfg_bits(seed):
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(256, 2)), rng.normal(size=(256, 2)) * [2.0, 0.5] + 0.25
    report = ssfg(X, Y, FgwConfig(), 100.0, OptimizerConfig(max_iter=10), rng=rng)
    return _bits([np.array([report.value, report.std_error]), np.array(report.trace)])


def _flow_bits(seed):
    rng = np.random.default_rng(seed)
    flow = particle_flow(four_mode_gmm(256, rng), 256, FlowObjective(), steps=20,
                         step_size=0.01, rng=rng)
    return _bits([flow.particles, flow.trace])


def test_threads_running_engines_at_once_give_the_bits_of_sequential_runs():
    jobs = [(_ssfg_bits, 1), (_flow_bits, 2), (_ssfg_bits, 3), (_flow_bits, 4)]
    expected = [job(seed) for job, seed in jobs]
    results = [None] * len(jobs)

    def run(i):
        job, seed = jobs[i]
        results[i] = job(seed)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


@pytest.mark.parametrize("n, L", [(64, 50), (8192, 10)])
def test_successive_gradient_outputs_do_not_share_memory(n, L):
    rng = np.random.default_rng(n)
    X, Y = rng.normal(size=(n, 3)), rng.normal(size=(n, 3)) * 1.5
    thetas = rng.normal(size=(L, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    first = _eval_slices(X, Y, thetas, FgwConfig(), want_grads=True)
    second = _eval_slices(X, Y, thetas, FgwConfig(), want_grads=True)
    assert _bits(first) == _bits(second)
    outputs = [*first[1:], *second[1:]]
    for i, a in enumerate(outputs):
        for b in outputs[i + 1:]:
            assert not np.shares_memory(a, b)


def _gradient_batch(seed, n=256, L=50):
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(n, 3)), rng.normal(size=(n, 3)) * 1.5 + 0.2
    thetas = rng.normal(size=(L, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    return _bits(_eval_slices(X, Y, thetas, FgwConfig(beta=0.4), want_grads=True))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_children_write_their_own_workspace():
    # Warm this process's workspace, fork two children that evaluate gradient
    # batches of the same shape at once, and check that each child gets the
    # bits of a sequential run and that this process's buffers kept theirs.
    seeds = (31, 32)
    expected = [_gradient_batch(seed) for seed in seeds]
    _gradient_batch(30)
    before = {name: flat.copy() for name, flat in _kernels._WORKSPACE.flat.items()}
    start_r, start_w = os.pipe()
    children = []
    for seed in seeds:
        out_r, out_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(start_w)
                os.read(start_r, 1)
                with os.fdopen(out_w, "wb") as out:
                    pickle.dump([_gradient_batch(seed) for _ in range(5)], out)
                status = 0
            finally:
                os._exit(status)
        os.close(out_w)
        children.append((pid, out_r))
    os.close(start_r)
    os.write(start_w, b"gg")
    os.close(start_w)
    results = []
    for pid, out_r in children:
        with os.fdopen(out_r, "rb") as out:
            results.append(pickle.load(out))
        assert os.waitpid(pid, 0)[1] == 0
    for got, want in zip(results, expected):
        assert all(run == want for run in got)
    after = _kernels._WORKSPACE.flat
    assert after.keys() == before.keys()
    assert all(np.array_equal(after[name], flat, equal_nan=True) for name, flat in before.items())


def _mixed_rows(rng, L, n):
    # L (even) sorted row pairs, half of them mirrored (_with_mirrored_rows)
    A = np.sort(rng.normal(size=(L // 2, n)), axis=1)
    B = np.sort(rng.normal(size=(L // 2, n)) * 1.5 + 0.2, axis=1)
    return _with_mirrored_rows(A, B, rng)


def test_workspace_follows_shape_changes():
    # a finite-difference stack of 5 batches after one batch, and one row
    # block at n = 8192 after a flow step's batch
    rng = np.random.default_rng(21)
    for shapes in ([(50, 64), (250, 64)], [(50, 256), (4, 8192)]):
        for L, n in shapes:
            A, B = _mixed_rows(rng, L, n)
            want = ds_two_pass(A, B, 0.4)
            assert _bits(_fused(A, B, 0.4)) == _bits(want)
            assert _bits(_kernels.cost_batch(A, B, 0.4, 2)) == _bits(want[:2])


def test_fused_pass_allocates_at_most_two_fresh_batches_once_warm():
    # Once warm, the kernel's (L, n) temporaries come from the workspace.
    # The call before the fused pass (cost_batch, then grad_batch) allocated
    # 5.7 (flow rows) to 7.7 (mirrored rows) fresh batches here.
    rng = np.random.default_rng(22)
    X, Y = rng.normal(size=(256, 2)), rng.normal(size=(256, 2)) * [2.0, 0.5] + 0.25
    thetas = rng.normal(size=(50, 2))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    flow_rows = (np.sort(thetas @ X.T, axis=1), np.sort(thetas @ Y.T, axis=1))
    for A, B in (flow_rows, _mixed_rows(rng, 50, 256)):
        for beta in (0.1, 0.4):
            grads = (np.empty(A.shape), np.empty(B.shape))
            _kernels.cost_batch(A, B, beta, 2, grads=grads)
            tracemalloc.start()
            try:
                _kernels.cost_batch(A, B, beta, 2, grads=grads)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - current <= 2 * A.nbytes


def _warm_peak(n, m, want_grads):
    """Peak bytes that tracemalloc sees in a warm (50, n) ``_eval_slices``
    call on n and m <= n points, and the bytes of its largest row block."""
    rng = np.random.default_rng(23)
    X = rng.exponential(size=(n, 3))
    # mirrored along the first axis: the reversed coupling wins on some slices
    Y = X[:m] * np.array([-1.3, 1.0, 0.5]) + 0.05 * rng.normal(size=(m, 3))
    thetas = rng.normal(size=(50, 3))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    cfg = FgwConfig(beta=0.4, exponent=2)
    _eval_slices(X, Y, thetas, cfg, want_grads)
    tracemalloc.start()
    try:
        _eval_slices(X, Y, thetas, cfg, want_grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = max(len(range(50)[block]) for block in discrepancies._row_blocks(50, n))
    return peak, rows * n * 8


# the benchmark's large-n shapes, and a flow step's
WARM_SHAPES = [(8192, 8192), (8192, 4096), (256, 256)]


@pytest.mark.parametrize("n, m", WARM_SHAPES)
def test_warm_gradient_evaluation_allocates_its_outputs_only(n, m):
    # Once warm, a gradient evaluation allocates its two gradient outputs,
    # which span the batch; each row block is projected, sorted, evaluated
    # and scattered in the workspace. The rest adds 1.0 blocks here (1.8 at
    # m = 4096, 1.4 at n = 256; 2 allowed). Projecting each cloud over the
    # whole batch before the block loop added 25.8 (20.8, 3.4).
    peak, block = _warm_peak(n, m, want_grads=True)
    assert peak <= 50 * (n + m) * 8 + 2 * block


@pytest.mark.parametrize("n, m", WARM_SHAPES)
def test_warm_value_only_evaluation_allocates_its_costs_only(n, m):
    # The same without gradients: the costs, and 1.0 blocks besides (1.8 at
    # m = 4096, 0.7 at n = 256; 2 allowed). Projecting and sorting each
    # cloud over the whole batch added 25.8 (20.8, 2.7).
    peak, block = _warm_peak(n, m, want_grads=False)
    assert peak <= 50 * 8 + 2 * block


def _b_lead_by_full_scan(A, B):
    # the lead rule scanned over every entry: B leads where, at the first
    # entries that compare unequal (NaN included), B's is the smaller
    differs = A != B
    first = np.argmax(differs, axis=1)
    rows = np.arange(A.shape[0])
    return differs.any(axis=1) & (B[rows, first] < A[rows, first])


@pytest.mark.parametrize("n", [1, 2, 7, 256])
def test_lead_rows_from_first_entries_match_the_full_scan(n):
    # entries drawn from a small pool of +-0, NaN, +-inf and +-1, so that
    # rows with equal, signed-zero and NaN first entries are common
    rng = np.random.default_rng(n)
    pool = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0])
    A, B = (pool[rng.integers(pool.size, size=(400, n))] for _ in range(2))
    B[::3] = A[::3]  # equal rows
    B[1::3, :n // 2] = A[1::3, :n // 2]  # rows equal up to their middle
    B[2::6, 0] = -A[2::6, 0]  # signed zeros, and infinities of either sign
    lead = _kernels._b_lead_rows(A, B)
    assert lead.dtype == bool
    assert np.array_equal(lead, _b_lead_by_full_scan(A, B))
    first_a, first_b = A[:, 0], B[:, 0]
    assert ((first_a == 0.0) & (first_b == 0.0) & (np.signbit(first_a) != np.signbit(first_b))).any()
    assert (np.isnan(first_a) & np.isnan(first_b)).any()
    assert (first_a == first_b).sum() > 100 and lead.any() and not lead.all()
