"""Kernel-level validation: the O(n) moment evaluation against the O(n^2)
reference, and exact swap symmetry."""

import numpy as np

from ssfgw import _kernels


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


def test_cost_rows_swap_symmetric_bitwise():
    rng = np.random.default_rng(4)
    for use_moments in (True, False):
        A = np.sort(rng.normal(size=(32, 17)), axis=1)
        B = np.sort(rng.normal(size=(32, 17)) * 2.1 - 1.0, axis=1)
        c1, _ = _kernels.cost_batch(A, B, 0.25, 2, use_moments)
        c2, _ = _kernels.cost_batch(B, A, 0.25, 2, use_moments)
        assert np.array_equal(c1, c2)


def test_gradients_swap_symmetric_bitwise():
    rng = np.random.default_rng(5)
    for use_moments in (True, False):
        A = np.sort(rng.normal(size=(16, 9)), axis=1)
        B = np.sort(rng.normal(size=(16, 9)) * 0.6 + 0.4, axis=1)
        _, o1 = _kernels.cost_batch(A, B, 0.4, 2, use_moments)
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
