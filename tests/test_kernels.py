"""Kernel-level validation: the O(n) delta/s evaluation against the O(n^2)
reference and against exact rational arithmetic, and exact swap symmetry."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssfgw import _kernels
from ssfgw.discrepancies import slice_costs
from ssfgw.fgw import FgwConfig

from oracles import exact_costs, exact_grads


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


def test_moment_expansion_matches_pairwise_500_instances():
    # Gate for the fast path: it may only be used because this passes.
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 41))
        A, B = _random_sorted_pair(rng, n)
        beta = float(rng.uniform(0, 1))
        c_mom, o_mom = _kernels.cost_batch(A, B, beta, 2, True)
        c_ref, o_ref = _kernels.cost_batch(A, B, beta, 2, False)
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
        _, orients = _kernels.cost_batch(A, B, beta, 2, False)
        ga_m, gb_m = _kernels.grad_batch(A, B, beta, orients, True)
        ga_r, gb_r = _kernels.grad_batch(A, B, beta, orients, False)
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
    for use_moments in (True, False):
        A = np.sort(rng.normal(size=(32, 17)), axis=1)
        B = np.sort(rng.normal(size=(32, 17)) * 2.1 - 1.0, axis=1)
        A, B = _with_mirrored_rows(A, B, rng)
        c1, o1 = _kernels.cost_batch(A, B, 0.25, 2, use_moments)
        c2, _ = _kernels.cost_batch(B, A, 0.25, 2, use_moments)
        _assert_reversed_with_both_leads(A, B, o1)
        assert np.array_equal(c1, c2)


def test_gradients_swap_symmetric_bitwise():
    rng = np.random.default_rng(5)
    for use_moments in (True, False):
        A = np.sort(rng.normal(size=(16, 9)), axis=1)
        B = np.sort(rng.normal(size=(16, 9)) * 0.6 + 0.4, axis=1)
        A, B = _with_mirrored_rows(A, B, rng)
        _, o1 = _kernels.cost_batch(A, B, 0.4, 2, use_moments)
        _assert_reversed_with_both_leads(A, B, o1)
        _, o2 = _kernels.cost_batch(B, A, 0.4, 2, use_moments)
        ga1, gb1 = _kernels.grad_batch(A, B, 0.4, o1, use_moments)
        ga2, gb2 = _kernels.grad_batch(B, A, 0.4, o2, use_moments)
        assert np.array_equal(ga1, gb2)
        assert np.array_equal(gb1, ga2)


def test_cost_nonnegative_and_zero_on_identical_rows():
    rng = np.random.default_rng(6)
    A = np.sort(rng.normal(size=(8, 12)), axis=1)
    for use_moments in (True, False):
        c, _ = _kernels.cost_batch(A, A.copy(), 0.5, 2, use_moments)
        assert np.array_equal(c, np.zeros(8))
        B = np.sort(rng.normal(size=(8, 12)), axis=1)
        c2, _ = _kernels.cost_batch(A, B, 0.5, 2, use_moments)
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
    ref, _ = _kernels.cost_batch(A, B, cfg.beta, 2, False)
    assert np.abs(fast - ref).max() <= 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("n", [256, 1024])
def test_near_identical_clouds_gradients_match_reference(n):
    _, _, _, cfg, A, B = _near_identical_rows(n)
    _, orients = _kernels.cost_batch(A, B, cfg.beta, 2, False)
    ga_m, gb_m = _kernels.grad_batch(A, B, cfg.beta, orients, True)
    ga_r, gb_r = _kernels.grad_batch(A, B, cfg.beta, orients, False)
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
    ties = set()
    for n, beta, agreements in cases:
        A, B = _agreeing_rows(rng, n, agreements)
        costs, orients = _kernels.cost_batch(A, B, beta, 2, True)
        GA, GB = _kernels.grad_batch(A, B, beta, orients, True)
        for a, b, cost, k, ga, gb in zip(A, B, costs, orients, GA, GB):
            exact = exact_costs(a, b, beta, 2)
            assert exact[k] == min(exact), "the kernel chose the costlier coupling"
            if exact[0] == exact[1]:
                # At n = 2 and beta = 1 both couplings cost the same, and the
                # kernel may return the reversed one, whose paired values do
                # not agree (8.2e-7 off on one of these 6 rows): README
                # "Backends" states that limit.
                ties.add((n, beta))
                continue
            worst_cost = max(worst_cost, _max_error([cost], [exact[k]]) / float(exact[k]))
            ea, eb = exact_grads(a, b, beta)[k]
            top = float(max(abs(g) for g in ea + eb))
            worst_grad = max(worst_grad, max(_max_error(ga, ea), _max_error(gb, eb)) / top)
    assert ties <= {(2, 1.0)}
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
            costs, _ = _kernels.cost_batch(A, B, beta, r, False)
            for a, b, cost in zip(A, B, costs):
                best = min(exact_costs(a, b, beta, r))
                worst = max(worst, _max_error([cost], [best]) / float(best))
    assert worst <= _EXACT_PAIRWISE_TOL, f"worst relative cost error {worst:.2e}"


def test_routes_and_oracle_agree_exactly_on_small_integers():
    # Small integers, n a power of two and a dyadic beta: every float
    # operation of both routes is exact, so nothing may differ by a bit.
    rng = np.random.default_rng(17)
    for n in (1, 2, 4, 8):
        A = np.sort(rng.integers(-6, 7, size=(12, n)), axis=1).astype(np.float64)
        B = np.sort(rng.integers(-6, 7, size=(12, n)), axis=1).astype(np.float64)
        for beta in (0.0, 0.25, 0.5, 1.0):
            for r in (1, 2, 3):
                costs, orients = _kernels.cost_batch(A, B, beta, r, False)
                if r == 2:
                    c_mom, o_mom = _kernels.cost_batch(A, B, beta, 2, True)
                    assert np.array_equal(c_mom, costs) and np.array_equal(o_mom, orients)
                for a, b, cost, k in zip(A, B, costs, orients):
                    exact = exact_costs(a, b, beta, r)
                    assert Fraction(float(cost)) == min(exact)
                    assert k == (exact[1] < exact[0])
            for k in (0, 1):
                frozen = np.full(A.shape[0], k, dtype=np.uint8)
                grads = _kernels.grad_batch(A, B, beta, frozen, True)
                for g_mom, g_ref in zip(grads, _kernels.grad_batch(A, B, beta, frozen, False)):
                    assert np.array_equal(g_mom, g_ref)
                for a, b, ga, gb in zip(A, B, *grads):
                    ea, eb = exact_grads(a, b, beta)[k]
                    assert [Fraction(float(g)) for g in ga] == ea
                    assert [Fraction(float(g)) for g in gb] == eb


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _kernels.cost_batch(np.zeros(3), np.zeros(3), 0.1, 2, True),
                 "expected a (L, n) batch of sorted rows", id="cost-batch-1d-row"),
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
    for use_moments in (True, False):
        c, o = _kernels.cost_batch(A, B, beta, 2, use_moments)
        c_sw, o_sw = _kernels.cost_batch(B, A, beta, 2, use_moments)
        assert (c >= 0.0).all()
        assert np.array_equal(c, c_sw) and np.array_equal(o, o_sw)
        ga, gb = _kernels.grad_batch(A, B, beta, o, use_moments)
        ga_sw, gb_sw = _kernels.grad_batch(B, A, beta, o, use_moments)
        assert np.array_equal(ga, gb_sw) and np.array_equal(gb, ga_sw)
        c_same, _ = _kernels.cost_batch(A, A.copy(), beta, 2, use_moments)
        assert np.array_equal(c_same, np.zeros(A.shape[0]))
    c_mom, _ = _kernels.cost_batch(A, B, beta, 2, True)
    c_ref, o_ref = _kernels.cost_batch(A, B, beta, 2, False)
    assert np.abs(c_mom - c_ref).max() <= cost_tol
    for g_mom, g_ref in zip(
        _kernels.grad_batch(A, B, beta, o_ref, True),
        _kernels.grad_batch(A, B, beta, o_ref, False),
    ):
        assert np.abs(g_mom - g_ref).max() <= grad_tol
