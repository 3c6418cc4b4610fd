"""The discrepancy family: sorted projections and their tie order, clouds of
sizes n and m with n dividing m, zeros, frozen worked examples, concentration
limits, the sandwich ordering, mixture reduction, symmetry, and determinism."""

import dataclasses
import re
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssfgw import _kernels, discrepancies
from ssfgw.discrepancies import (
    KINDS,
    DiracSlicing,
    DiscrepancyReport,
    DivergenceError,
    MixtureVmfSlicing,
    OptimizerConfig,
    PowerSphericalSlicing,
    UniformSlicing,
    VmfSlicing,
    _ascent_step,
    _eval_slices,
    _project_sorted,
    expected_fgw,
    max_sfg,
    mssfg,
    pssfg,
    sample_slicing,
    sfg,
    slice_costs,
    ssfg,
)
from ssfgw.fgw import (
    FgwConfig,
    as_point_cloud,
    fgw_1d,
    fgw_1d_grad,
    project,
    stable_sort_rows,
)
from ssfgw.sampling import MixtureVmfParams, VmfParams, make_rng, sample_mixture_vmf
from ssfgw.sphere_opt import GradientMethod, SlicingAscent

from oracles import fgw_1d_bruteforce

CFG = FgwConfig(beta=0.1, exponent=2)


def iid_pair(seed, d, n=32):
    r = make_rng(seed)
    X = r.normal(size=(n, d)) * float(r.uniform(0.8, 1.6))
    Y = r.normal(size=(n, d)) * float(r.uniform(0.8, 1.6)) + r.normal(size=d) * 0.5
    return as_point_cloud(X), as_point_cloud(Y)


def aniso_pair(seed, d, n=32):
    r = make_rng(seed)
    X = r.normal(size=(n, d))
    A = r.normal(size=(d, d)) * 0.4 + np.eye(d)
    Y = X @ A + 0.3 * r.normal(size=(n, d))
    return as_point_cloud(X), as_point_cloud(Y)


def axis_pair(seed, d, n=48, stretch=3.0):
    r = make_rng(seed)
    base = r.normal(size=(n, d))
    Y = base.copy()
    Y[:, 0] *= stretch
    return as_point_cloud(base), as_point_cloud(Y)


# ---------------------------------------------------------------------------
# sorted projections: the stable tie order on every path
# ---------------------------------------------------------------------------


def stable_reference(values):
    order = np.argsort(values, axis=1, kind="stable")
    return np.take_along_axis(values, order, axis=1), order


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_costs(a, b):
    # bit for bit, except that NaN payloads are not compared
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert_bitwise(a[~nan], b[~nan])


def _unit_rows(r, L, d):
    thetas = r.normal(size=(L, d))
    return thetas / np.linalg.norm(thetas, axis=1, keepdims=True)


def _distinct(r):
    return r.normal(size=(64, 3)), _unit_rows(r, 20, 3)


def _blocks(r):
    # each point repeated, as convergence_rate replicates the small cloud
    return np.repeat(r.uniform(size=(8, 3)), 16, axis=0), _unit_rows(r, 20, 3)


def _shuffled_duplicates(r):
    base = r.normal(size=(24, 3))
    return np.concatenate([base, base, base[:5]])[r.permutation(53)], _unit_rows(r, 20, 3)


def _grid_axes(r):
    # tied rows (axis directions on an integer grid) next to untied ones
    X = r.integers(-3, 4, size=(40, 3)).astype(np.float64)
    return X, np.vstack([_unit_rows(r, 6, 3), np.eye(3), -np.eye(3)])


def _overflow(r):
    # the projections hold +-inf ties and NaN (inf - inf)
    big = np.array(
        [[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308], [1.0, 2.0],
         [1e308, 1e308], [-1e308, 1e308], [0.5, -0.5]]
    )
    return big, np.array([[1.0, 1.0], [2.0, 2.0], [1.5, -1.5], [0.6, 0.8]])


def _single_direction(r):
    X = np.repeat(r.normal(size=(10, 2)), 3, axis=0)
    return X, _unit_rows(r, 1, 2)


def _single_point(r):
    return r.normal(size=(1, 3)), _unit_rows(r, 5, 3)


SORT_CASES = {
    "distinct": _distinct,
    "blocks": _blocks,
    "shuffled_duplicates": _shuffled_duplicates,
    "grid_axes": _grid_axes,
    "overflow": _overflow,
    "L1": _single_direction,
    "n1": _single_point,
}


@pytest.mark.parametrize("case", sorted(SORT_CASES))
def test_project_sorted_matches_stable_argsort_bitwise(case, monkeypatch):
    X, thetas = SORT_CASES[case](make_rng(70))
    # one pass, then one row per block: rows with +-inf, NaN and ties cross
    # block boundaries
    for budget in (discrepancies._SLICE_BLOCK_ENTRIES, 1):
        monkeypatch.setattr(discrepancies, "_SLICE_BLOCK_ENTRIES", budget)
        with np.errstate(over="ignore", invalid="ignore"):
            ref_values, ref_order = stable_reference(thetas @ X.T)
            values, order = _project_sorted(X, thetas, True)
            sorted_only, no_order = _project_sorted(X, thetas, False)
        assert_bitwise(values, ref_values)
        assert_bitwise(order, ref_order)
        assert no_order is None
        # the value-only path sorts values alone: equal rows, NaNs last
        assert np.array_equal(sorted_only, ref_values, equal_nan=True)


@pytest.mark.parametrize("case", sorted(SORT_CASES))
def test_value_only_costs_equal_permuted_path_bitwise(case, monkeypatch):
    r = make_rng(71)
    X, thetas = SORT_CASES[case](r)
    Y = X[r.permutation(X.shape[0])] * 1.5 + 0.25
    for budget in (discrepancies._SLICE_BLOCK_ENTRIES, 1):
        monkeypatch.setattr(discrepancies, "_SLICE_BLOCK_ENTRIES", budget)
        with np.errstate(over="ignore", invalid="ignore"):
            ref_x, _ = stable_reference(thetas @ X.T)
            ref_y, _ = stable_reference(thetas @ Y.T)
            for r_exp in (1, 2, 3):
                cfg = FgwConfig(beta=0.3, exponent=r_exp)
                costs, _, _ = _eval_slices(X, Y, thetas, cfg, want_grads=False)
                ref, _ = _kernels.cost_batch(ref_x, ref_y, cfg.beta, r_exp, r_exp == 2)
                assert_same_costs(costs, ref)
            permuted, _, _ = _eval_slices(X, Y, thetas, CFG, want_grads=True)
            value_only, _, _ = _eval_slices(X, Y, thetas, CFG, want_grads=False)
        assert_same_costs(value_only, permuted)


def test_stable_sort_rows_breaks_signed_zero_and_infinite_ties_by_index():
    # signed zeros compare equal, so the stable order keeps their index order
    values = np.array(
        [
            [0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
            [np.inf, -np.inf, np.inf, 0.0, -np.inf, -0.0],
            [np.nan, 1.0, -np.nan, 1.0, -0.0, 0.0],
            [5.0, 4.0, 3.0, 2.0, 1.0, 0.0],
        ]
    )
    ordered, order = stable_sort_rows(values)
    ref_values, ref_order = stable_reference(values)
    assert_bitwise(ordered, ref_values)
    assert_bitwise(order, ref_order)
    assert order[0].tolist() == [5, 0, 1, 3, 4, 2]
    assert np.signbit(ordered[0]).tolist() == [True, False, True, True, False, False]
    # the value-only sort may place tied signed zeros differently, but the
    # cost kernels only see them through squares and absolute values
    other = stable_reference(values[::-1].copy())[0]
    for r_exp in (1, 2, 3):
        with np.errstate(over="ignore", invalid="ignore"):
            a, _ = _kernels.cost_batch(np.sort(values, axis=1), other, 0.3, r_exp, r_exp == 2)
            b, _ = _kernels.cost_batch(ordered, other, 0.3, r_exp, r_exp == 2)
        assert_same_costs(a, b)


def test_project_uses_the_stable_order():
    X = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 5.0], [-1.0, 1.0], [1.0, -3.0]])
    p = project(X, np.array([1.0, 0.0]))
    assert p.sort_permutation.tolist() == [3, 1, 0, 2, 4]
    grid = make_rng(72).integers(-3, 4, size=(300, 2)).astype(np.float64)
    p = project(grid, np.array([0.0, 1.0]))
    assert_bitwise(p.sort_permutation, np.argsort(p.values, kind="stable"))


_TIE_POOL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def tied_row_pairs(draw):
    """Two (L, n) batches, each drawn from a pool of at most 6 values, so
    duplicates are forced whenever n exceeds the pool."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 40)))
    pair = []
    for _ in range(2):
        pool = draw(hnp.arrays(np.float64, st.integers(1, 6), elements=_TIE_POOL))
        index = draw(hnp.arrays(np.intp, shape, elements=st.integers(0, pool.size - 1)))
        pair.append(pool[index])
    return pair


@given(tied_row_pairs())
def test_sort_paths_agree_on_forced_duplicates(pair):
    values, other = pair
    ordered, order = stable_sort_rows(values)
    ref_values, ref_order = stable_reference(values)
    assert_bitwise(ordered, ref_values)
    assert_bitwise(order, ref_order)
    sorted_only = np.sort(values, axis=1)
    assert np.array_equal(sorted_only, ref_values, equal_nan=True)
    B = stable_reference(other)[0]
    with np.errstate(all="ignore"):
        for r_exp in (1, 2):
            a, _ = _kernels.cost_batch(sorted_only, B, 0.3, r_exp, r_exp == 2)
            b, _ = _kernels.cost_batch(ordered, B, 0.3, r_exp, r_exp == 2)
            assert_same_costs(a, b)


# ---------------------------------------------------------------------------
# clouds of sizes n and m, n dividing m
# ---------------------------------------------------------------------------


def _eval_ordered(X, Y, thetas, cfg, swap):
    # _eval_slices with the clouds passed as (X, Y) or as (Y, X); the
    # gradients come back in (X, Y) order either way
    if not swap:
        return _eval_slices(X, Y, thetas, cfg, want_grads=True)
    costs, gy, gx = _eval_slices(Y, X, thetas, cfg, want_grads=True)
    return costs, gx, gy


def assert_matches_replication(samp, ref, thetas, cfg, floor=0.0, grad_floor=0.0):
    """``_eval_slices`` on an n-point sample and an m-point reference agrees,
    in both argument orders, with the same call on the sample replicated
    m // n times: costs within 1e-12 relative, theta gradients within 1e-12
    of their largest entry, and the sample gradients with the replica sums of
    the replicated ones within 1e-12 of the largest gradient entry. The
    floors add absolute slack for last-bit differences between the gemm
    projections of a cloud and of its replication."""
    n, L = samp.shape[0], thetas.shape[0]
    rep = np.repeat(samp, ref.shape[0] // n, axis=0)
    for swap in (False, True):
        c, gs, gr = _eval_ordered(samp, ref, thetas, cfg, swap)
        c_rep, gs_rep, gr_rep = _eval_ordered(rep, ref, thetas, cfg, swap)
        assert gs.shape == (L, n) and gr.shape == gr_rep.shape
        assert np.all(np.abs(c - c_rep) <= 1e-12 * np.abs(c_rep) + floor)
        t, t_rep = gs @ samp + gr @ ref, gs_rep @ rep + gr_rep @ ref
        assert np.abs(t - t_rep).max() <= 1e-12 * np.abs(t_rep).max() + floor
        scale = max(np.abs(gs_rep).max(), np.abs(gr_rep).max())
        folded = gs_rep.reshape(L, n, -1).sum(axis=2)
        assert np.abs(gs - folded).max() <= 1e-12 * scale + grad_floor
        assert np.abs(gr - gr_rep).max() <= 1e-12 * scale + grad_floor


def _divisor_distinct(r):
    return r.normal(size=(8, 3)), r.normal(size=(32, 3)) * 1.4 + 0.3, _unit_rows(r, 20, 3)


def _divisor_tied(r):
    # integer grid: repeated sample points, ties on the axis directions
    samp = r.integers(-2, 3, size=(6, 3)).astype(np.float64)
    ref = r.integers(-3, 4, size=(30, 3)).astype(np.float64)
    return samp, ref, np.vstack([_unit_rows(r, 6, 3), np.eye(3), -np.eye(3)])


def _divisor_single_point(r):
    return r.normal(size=(1, 3)), r.normal(size=(5, 3)), _unit_rows(r, 7, 3)


DIVISOR_CASES = {
    "distinct": _divisor_distinct,
    "tied": _divisor_tied,
    "n1": _divisor_single_point,
}


@pytest.mark.parametrize("case", sorted(DIVISOR_CASES))
def test_divisor_sizes_match_replicated_clouds(case):
    samp, ref, thetas = DIVISOR_CASES[case](make_rng(73))
    for beta in (0.0, 0.1, 1.0):
        assert_matches_replication(samp, ref, thetas, FgwConfig(beta=beta, exponent=2))


@pytest.mark.parametrize("case", sorted(DIVISOR_CASES))
def test_divisor_sizes_swap_symmetric_bitwise(case):
    samp, ref, thetas = DIVISOR_CASES[case](make_rng(74))
    c, gs, gr = _eval_slices(samp, ref, thetas, CFG, want_grads=True)
    c_sw, gs_sw, gr_sw = _eval_ordered(samp, ref, thetas, CFG, swap=True)
    assert_bitwise(c, c_sw)
    assert_bitwise(gs, gs_sw)
    assert_bitwise(gr, gr_sw)
    opt = OptimizerConfig(max_iter=3, num_projections=10)
    one = ssfg(samp, ref, CFG, 10.0, opt, rng=make_rng(5))
    other = ssfg(ref, samp, CFG, 10.0, opt, rng=make_rng(5))
    assert one.value == other.value and one.trace == other.trace


def test_divisor_sizes_match_reference_oracle():
    samp, ref, thetas = _divisor_tied(make_rng(75))
    costs, gx, gy = _eval_slices(samp, ref, thetas, CFG, want_grads=True)
    for row, theta in enumerate(thetas):
        xs, ys = project(samp, theta), project(ref, theta)
        cost = fgw_1d(xs, ys, CFG, method="reference")
        ref_gx, ref_gy, _ = fgw_1d_grad(xs, ys, CFG, method="reference")
        assert ref_gx.shape == (6,) and ref_gy.shape == (30,)
        assert abs(costs[row] - cost) <= 1e-12 * cost
        scale = max(np.abs(ref_gx).max(), np.abs(ref_gy).max())
        assert np.abs(gx[row] - ref_gx).max() <= 1e-12 * scale
        assert np.abs(gy[row] - ref_gy).max() <= 1e-12 * scale
    with pytest.raises(ValueError):
        fgw_1d_bruteforce(project(samp[:3], thetas[0]), project(ref[:6], thetas[0]), CFG)


@pytest.mark.parametrize("sizes", [(12, 30), (30, 12)])
def test_sizes_that_do_not_divide_are_rejected_naming_both(sizes):
    r = make_rng(76)
    X, Y = r.normal(size=(sizes[0], 2)), r.normal(size=(sizes[1], 2))
    message = f"{sizes[0]} and {sizes[1]}"
    with pytest.raises(ValueError, match=message):
        sfg(X, Y, CFG, L=5, rng=make_rng(0))
    with pytest.raises(ValueError, match=message):
        fgw_1d(project(X, np.array([1.0, 0.0])), project(Y, np.array([1.0, 0.0])), CFG)


# Nonzero pool values are at least 1/4 in magnitude, so the scale 10^k sets
# the magnitude of every nonzero coordinate.
_DIVISOR_POOL = st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(-4.0, -0.25))


@st.composite
def divisor_clouds(draw):
    """An n-point sample, n in [1, 12], and an (n r)-point reference, r in
    [1, 6], in d = 2 or 3, with coordinates from one pool of at most 6 values
    at one scale 10^k, k in [-30, 30] (so points and projections tie), plus
    random and axis directions."""
    n, reps, d = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.sampled_from([2, 3]))
    pool = draw(
        hnp.arrays(np.float64, st.integers(1, 6), elements=_DIVISOR_POOL, fill=st.nothing())
    )
    scale = 10.0 ** draw(st.integers(-30, 30))
    clouds = []
    for size in (n, n * reps):
        index = draw(
            hnp.arrays(np.intp, (size, d), elements=st.integers(0, pool.size - 1), fill=st.nothing())
        )
        clouds.append(pool[index] * scale)
    thetas = np.vstack([_unit_rows(make_rng(draw(st.integers(0, 2**16))), 3, d), np.eye(d)])
    return clouds[0], clouds[1], thetas, draw(st.floats(0.0, 1.0))


@given(divisor_clouds())
def test_divisor_sizes_properties_across_scales(case):
    samp, ref, thetas, beta = case
    cfg = FgwConfig(beta=beta, exponent=2)
    top = max(np.abs(samp).max(), np.abs(ref).max(), 1e-300)
    floor = 1e-24 * ((1.0 - beta) * top**2 + beta * top**4)
    assert_matches_replication(
        samp, ref, thetas, cfg, floor, 1e-24 * ((1.0 - beta) * top + beta * top**3)
    )
    c, gs, gr = _eval_slices(samp, ref, thetas, cfg, want_grads=True)
    c_sw, gs_sw, gr_sw = _eval_ordered(samp, ref, thetas, cfg, swap=True)
    assert_bitwise(c, c_sw)
    # exact, but a zero gradient entry may change its sign (at beta = 0 the
    # kernels add a -0.0 Gromov part), as it does for equal sizes
    assert np.array_equal(gs, gs_sw) and np.array_equal(gr, gr_sw)
    # a cloud against its own replication: 0 up to the gemm's last bits
    own, _, _ = _eval_slices(samp, np.repeat(samp, ref.shape[0] // samp.shape[0], axis=0),
                             thetas, cfg, want_grads=False)
    assert (own >= 0.0).all() and own.max() <= floor


# ---------------------------------------------------------------------------
# row blocks: the same bits under any block budget
# ---------------------------------------------------------------------------


def eval_with_budget(budget, X, Y, thetas, cfg, want_grads):
    """``_eval_slices`` with ``_SLICE_BLOCK_ENTRIES`` set to ``budget``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancies, "_SLICE_BLOCK_ENTRIES", budget)
        with np.errstate(all="ignore"):
            return _eval_slices(X, Y, thetas, cfg, want_grads)


class BlockCase(NamedTuple):
    X: np.ndarray  # n points
    Y: np.ndarray  # n * reps points
    thetas: np.ndarray
    cfg: FgwConfig
    want_grads: bool
    budget: int


# signed zeros and a few repeated values, so projections tie
_BLOCK_POOL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0])


def _block_case(seed, n, reps, d, L, r_exp, beta, budget, pool_only=True):
    # a pinned BlockCase: pool coordinates (or normal ones) and random and
    # +-axis directions
    r = make_rng(seed)
    clouds = [
        _BLOCK_POOL[r.integers(0, _BLOCK_POOL.size, size=(size, d))] if pool_only
        else r.normal(size=(size, d))
        for size in (n, n * reps)
    ]
    thetas = np.vstack([_unit_rows(r, L, d), np.eye(d), -np.eye(d)])[r.integers(0, L + 2 * d, L)]
    return BlockCase(*clouds, thetas, FgwConfig(beta=beta, exponent=r_exp), r_exp == 2, budget)


@st.composite
def block_cases(draw):
    """An n-point and an (n reps)-point cloud (n in [1, 12], reps in [1, 4]),
    d in {2, 3, 5, 7}, L in [1, 9] random or +-axis directions, coordinates
    from a pool with signed zeros and ties (or normal), r in {1, 2, 3}, beta in
    {0, 0.3, 1}, gradients with r = 2 or not, and a block budget: one entry
    (one row per block), up to a few rows of max(n, m) columns, or one
    block. Sort blocks use each cloud's own size and kernel blocks max(n, m),
    so with n < m they fall differently."""
    n, reps = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    d, L = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 9))
    r_exp, beta = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([0.0, 0.3, 1.0]))
    m = n * reps
    budget = draw(st.one_of(st.just(1), st.integers(1, 4 * m), st.just(L * m)))
    case = _block_case(draw(st.integers(0, 2**16)), n, reps, d, L, r_exp, beta, budget,
                       draw(st.booleans()))
    return case._replace(want_grads=r_exp == 2 and draw(st.booleans()))


# the last kernel block holds one row: 5 rows in blocks of 2, 7 in blocks of 3
@example(_block_case(80, 3, 3, 3, 5, 2, 0.3, 2 * 9))
@example(_block_case(81, 4, 2, 5, 7, 3, 1.0, 3 * 8))
@example(_block_case(82, 2, 4, 2, 9, 2, 0.0, 8 * 8, pool_only=False))
@example(_block_case(83, 1, 4, 7, 3, 1, 0.3, 2 * 4))
@given(block_cases())
def test_row_blocks_give_the_same_bits(case):
    X, Y, thetas, cfg, want_grads, budget = case
    one_pass = eval_with_budget(thetas.shape[0] * Y.shape[0], X, Y, thetas, cfg, want_grads)
    blocked = eval_with_budget(budget, X, Y, thetas, cfg, want_grads)
    assert_bitwise(blocked[0], one_pass[0])
    if not want_grads:
        assert blocked[1] is None and blocked[2] is None
        return
    assert_bitwise(blocked[1], one_pass[1])
    assert_bitwise(blocked[2], one_pass[2])


def test_engine_reports_do_not_depend_on_row_blocks(monkeypatch):
    X, Y = iid_pair(84, d=4, n=40)
    Y = np.repeat(Y[:20], 2, axis=0)
    opt = OptimizerConfig(max_iter=3, num_projections=12)
    fd = OptimizerConfig(max_iter=2, num_projections=6, gradient_method="finite_difference")
    r3 = FgwConfig(beta=0.3, exponent=3)

    def collect():
        reps = [
            ssfg(X, Y, CFG, 10.0, opt, rng=make_rng(85)),
            max_sfg(X, Y, CFG, opt, make_rng(86), num_restarts=3),
            ssfg(X, Y, r3, 10.0, fd, rng=make_rng(87)),
        ]
        return [report_bits(rep) for rep in reps]

    default = collect()
    monkeypatch.setattr(discrepancies, "_SLICE_BLOCK_ENTRIES", 1)
    assert collect() == default


# ---------------------------------------------------------------------------
# finite differences: the draws and their moved copies in grouped evaluations
# ---------------------------------------------------------------------------


def _fd_ascent(family, d, seed):
    # a vMF ascent (one location, kappa 10) or a Dirac one (three rows)
    locs = _unit_rows(make_rng(seed), 1 if family == "vmf" else 3, d)
    return SlicingAscent(family, locs, (10.0,) if family == "vmf" else ())


@pytest.mark.parametrize("family", ["vmf", "dirac"])
@pytest.mark.parametrize("d", [2, 3, 40])
@pytest.mark.parametrize("r_exp", [2, 3])
def test_fd_step_matches_one_evaluation_per_moved_batch(family, d, r_exp):
    # the route of one _eval_slices call per batch: the draws alone, then
    # every moved batch alone
    X, Y = iid_pair(88 + d, d, n=16)
    Y = np.repeat(Y[:8], 2, axis=0)[:, ::-1].copy()  # 8 points against 16
    cfg = FgwConfig(beta=0.3, exponent=r_exp)
    L = 12
    thetas, costs, gx, grad = _ascent_step(
        "ssfg", Y, X, cfg, _fd_ascent(family, d, 89), L, False, make_rng(90), 1
    )
    reference = _fd_ascent(family, d, 89)
    ref_thetas, ctx = reference.draw(L, make_rng(90))
    ref_costs = _eval_slices(Y, X, ref_thetas, cfg, want_grads=False)[0]
    m = ref_thetas.shape[0]

    def one_call_per_batch(stacked):
        return np.concatenate([
            _eval_slices(Y, X, stacked[i:i + m], cfg, want_grads=False)[0]
            for i in range(0, stacked.shape[0], m)
        ])

    ref_grad = reference.fd_gradient(ctx, one_call_per_batch)
    assert gx is None
    assert_bitwise(thetas, ref_thetas)
    assert_bitwise(costs, ref_costs)
    assert_bitwise(grad, ref_grad)


def test_fd_step_keeps_every_evaluation_within_the_entry_bound(monkeypatch):
    # d = 8: the draws and 14 moved batches; at n = 1024 a 10-row batch holds
    # 10,240 entries, so three share a group, and a 50-row batch is alone
    X, Y = iid_pair(91, d=8, n=1024)
    entries = []

    def recorded(X, Y, thetas, *args, **kwargs):
        entries.append(thetas.shape[0] * max(X.shape[0], Y.shape[0]))
        return evaluate(X, Y, thetas, *args, **kwargs)

    evaluate = discrepancies._eval_slices
    monkeypatch.setattr(discrepancies, "_eval_slices", recorded)
    for L, calls in ((10, 5), (50, 15)):
        entries.clear()
        _ascent_step("ssfg", X, Y, CFG, _fd_ascent("vmf", 8, 92), L, False, make_rng(93), 1)
        bound = max(L * 1024, discrepancies._SLICE_BLOCK_ENTRIES)
        assert len(entries) == calls and max(entries) <= bound, (L, entries)
        assert sum(entries) == 15 * L * 1024


def test_fd_step_on_a_nan_cloud_raises_on_the_objective():
    X, Y = iid_pair(94, d=3)
    X[5, 1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="ssfg: non-finite ascent objective"):
            _ascent_step("ssfg", X, Y, CFG, _fd_ascent("vmf", 3, 95), 8, False, make_rng(96), 4)


# ---------------------------------------------------------------------------
# slicing distributions and config plumbing
# ---------------------------------------------------------------------------


def test_sample_slicing_dispatch():
    rng = make_rng(40)
    assert sample_slicing(UniformSlicing(), 4, 9, rng).shape == (9, 4)
    theta = np.array([0.0, 1.0, 0.0])
    dirac = sample_slicing(DiracSlicing(theta), 3, 5, rng)
    assert np.array_equal(dirac, np.tile(theta, (5, 1)))
    vmf = sample_slicing(VmfSlicing(VmfParams(theta, 50.0)), 3, 100, rng)
    assert np.abs(np.linalg.norm(vmf, axis=1) - 1.0).max() <= 1e-12
    assert (vmf @ theta).mean() > 0.9
    comps = tuple(VmfParams(loc, kappa) for loc, kappa in zip(np.eye(3), (5.0, 50.0, 0.0)))
    params = MixtureVmfParams(comps, np.array([0.5, 0.3, 0.2]))
    mixture = sample_slicing(MixtureVmfSlicing(params), 3, 40, make_rng(41))
    assert np.array_equal(mixture, sample_mixture_vmf(params, make_rng(41), 40)[0])
    with pytest.raises(ValueError):
        sample_slicing(MixtureVmfSlicing(params), 4, 40, rng)


def test_sample_slicing_dimension_mismatch():
    with pytest.raises(ValueError):
        sample_slicing(DiracSlicing(np.array([1.0, 0.0])), 3, 4, make_rng(0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sample_slicing(UniformSlicing(), 3, 0, make_rng(0)), "L must be >= 1",
                 id="slicing-L-zero"),
    pytest.param(lambda: sample_slicing("uniform", 3, 2, make_rng(0)),
                 "unknown slicing distribution: 'uniform'", id="slicing-unknown"),
    pytest.param(lambda: DiscrepancyReport(-1.0, UniformSlicing(), (), 1),
                 "discrepancy value must be finite and >= 0", id="report-negative"),
    pytest.param(lambda: max_sfg(*iid_pair(0, d=2, n=4), CFG, num_restarts=0),
                 "num_restarts must be >= 1", id="max-sfg-no-restarts"),
])
def test_discrepancy_checks_that_no_other_test_reaches(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="learning_rate must be positive"):
        OptimizerConfig(learning_rate=np.nan)
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        OptimizerConfig(learning_rate=np.inf)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iter=0)
    with pytest.raises(ValueError):
        OptimizerConfig(num_projections=0)
    with pytest.raises(ValueError):
        OptimizerConfig(adam_beta1=1.5)
    cfg = OptimizerConfig(gradient_method="finite_difference")
    assert cfg.gradient_method is GradientMethod.FINITE_DIFFERENCE


def test_engine_input_validation():
    X = as_point_cloud(np.zeros((4, 2)))
    Y3 = as_point_cloud(np.zeros((4, 3)))
    Y5 = as_point_cloud(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        sfg(X, Y3, CFG, L=5, rng=make_rng(0))
    with pytest.raises(ValueError):
        sfg(X, Y5, CFG, L=5, rng=make_rng(0))
    with pytest.raises(ValueError):
        ssfg(X, X, CFG, kappa=-1.0, rng=make_rng(0))
    with pytest.raises(ValueError):
        mssfg(X, X, CFG, kappas=[1.0, 2.0], alphas=[0.9, 0.2], rng=make_rng(0))
    with pytest.raises(ValueError):
        mssfg(X, X, CFG, kappas=[1.0, 2.0], alphas=[1.0], rng=make_rng(0))
    for kappa in (np.inf, np.nan):
        for engine in (ssfg, pssfg):
            with pytest.raises(ValueError, match="concentration must be finite"):
                engine(X, X, CFG, kappa, rng=make_rng(0))
        with pytest.raises(ValueError, match="concentration must be finite"):
            mssfg(X, X, CFG, kappas=[1.0, kappa], rng=make_rng(0))
    for kappas in ([5.0], [5.0, 50.0]):
        with pytest.raises(ValueError, match="alphas must be finite"):
            mssfg(X, X, CFG, kappas, alphas=[np.nan] * len(kappas), rng=make_rng(0))
    # away from r = 2 the default (pathwise) config takes finite differences
    A, B = iid_pair(44, d=3, n=12)
    fd = OptimizerConfig(gradient_method="finite_difference")
    for cfg in (FgwConfig(beta=0.1, exponent=1), FgwConfig(beta=0.3, exponent=3)):
        for engine in (ssfg, pssfg):
            assert report_bits(engine(A, B, cfg, 5.0, rng=make_rng(1))) == report_bits(
                engine(A, B, cfg, 5.0, fd, rng=make_rng(1)))
        assert report_bits(mssfg(A, B, cfg, [1.0, 5.0], rng=make_rng(2))) == report_bits(
            mssfg(A, B, cfg, [1.0, 5.0], opt=fd, rng=make_rng(2)))


def test_report_shape_and_projection_accounting():
    X, Y = iid_pair(41, d=3)
    opt = OptimizerConfig(learning_rate=0.01, max_iter=4, num_projections=37)
    rep = ssfg(X, Y, CFG, kappa=10.0, opt=opt, rng=make_rng(1))
    assert isinstance(rep, DiscrepancyReport)
    assert len(rep.trace) <= opt.max_iter
    assert all(isinstance(it, int) and np.isfinite(v) for it, v in rep.trace)
    assert [it for it, _ in rep.trace] == list(range(1, len(rep.trace) + 1))
    # 4 ascent batches of 37 plus the fresh final batch
    assert rep.num_projections_used == 4 * 37 + 37
    assert rep.std_error >= 0.0
    assert isinstance(rep.final_slicing, VmfSlicing)
    assert rep.final_slicing.params.concentration == 10.0
    assert abs(np.linalg.norm(rep.final_slicing.params.location) - 1.0) <= 1e-12


def test_final_slicing_types_per_engine():
    X, Y = iid_pair(42, d=3)
    opt = OptimizerConfig(max_iter=2, num_projections=20)
    assert isinstance(sfg(X, Y, CFG, L=20, rng=make_rng(2)).final_slicing, UniformSlicing)
    assert isinstance(
        max_sfg(X, Y, CFG, opt, make_rng(3), num_restarts=2).final_slicing, DiracSlicing
    )
    assert isinstance(
        pssfg(X, Y, CFG, kappa=5.0, opt=opt, rng=make_rng(4)).final_slicing,
        PowerSphericalSlicing,
    )
    mix = mssfg(X, Y, CFG, kappas=[2.0, 8.0], opt=opt, rng=make_rng(5)).final_slicing
    assert isinstance(mix, MixtureVmfSlicing)
    assert len(mix.params.components) == 2


# ---------------------------------------------------------------------------
# engine-level properties: whole reports under a shared seed
# ---------------------------------------------------------------------------


class EngineCase(NamedTuple):
    kind: str
    cfg: FgwConfig
    opt: OptimizerConfig
    kappas: list
    seed: int
    clouds: tuple


@st.composite
def engine_cases(draw):
    """One engine call: a kind, its gradient route (pathwise needs r = 2;
    max_sfg takes the pathwise route exactly at r = 2), a mixture of 1 to 3
    concentrations (the smoothed kinds but mssfg use the first), 1 to 3
    iterations of 1 to 6 projections, a seed, and clouds of n and n * reps
    points, n in [1, 6], reps in [1, 3], d = 2 or 3, with coordinates from
    one pool at one scale 10^k, k in [-150, 150]."""
    kind = draw(st.sampled_from(KINDS))
    method = draw(st.sampled_from([GradientMethod.PATHWISE, GradientMethod.FINITE_DIFFERENCE]))
    exponent = 2 if method is GradientMethod.PATHWISE else draw(st.sampled_from([2, 3]))
    opt = OptimizerConfig(
        learning_rate=0.05, max_iter=draw(st.integers(1, 3)),
        num_projections=draw(st.integers(1, 6)), gradient_method=method,
    )
    kappas = draw(st.lists(st.sampled_from([0.0, 1.0, 10.0, 300.0]), min_size=1, max_size=3))
    n, reps, d = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.sampled_from([2, 3]))
    pool = draw(
        hnp.arrays(np.float64, st.integers(1, 6), elements=_DIVISOR_POOL, fill=st.nothing())
    )
    scale = 10.0 ** draw(st.integers(-150, 150))
    clouds = tuple(
        pool[draw(hnp.arrays(np.intp, (size, d), elements=st.integers(0, pool.size - 1),
                             fill=st.nothing()))] * scale
        for size in (n, n * reps)
    )
    cfg = FgwConfig(beta=draw(st.sampled_from([0.0, 0.3, 1.0])), exponent=exponent)
    return EngineCase(kind, cfg, opt, kappas, draw(st.integers(0, 2**16)), clouds)


def run_engine(case, a, b):
    rng = make_rng(case.seed)
    with np.errstate(all="ignore"):
        if case.kind == "sfg":
            return sfg(a, b, case.cfg, L=case.opt.num_projections, rng=rng)
        if case.kind == "max_sfg":
            return max_sfg(a, b, case.cfg, case.opt, rng, num_restarts=2)
        if case.kind == "mssfg":
            return mssfg(a, b, case.cfg, case.kappas, opt=case.opt, rng=rng)
        engine = ssfg if case.kind == "ssfg" else pssfg
        return engine(a, b, case.cfg, case.kappas[0], case.opt, rng=rng)


def report_bits(x):
    """A report (or a slicing, or its parameters) as nested tuples, with every
    number as its bytes."""
    if dataclasses.is_dataclass(x):
        fields = (getattr(x, f.name) for f in dataclasses.fields(x))
        return (type(x).__name__,) + tuple(report_bits(v) for v in fields)
    if isinstance(x, (tuple, list)):
        return tuple(report_bits(v) for v in x)
    return np.asarray(x).tobytes()


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def test_identical_clouds_give_exact_zero_everywhere():
    X, _ = iid_pair(43, d=3)
    opt = OptimizerConfig(max_iter=3, num_projections=25)
    assert sfg(X, X, CFG, L=40, rng=make_rng(6)).value == 0.0
    assert max_sfg(X, X, CFG, opt, make_rng(7), num_restarts=2).value == 0.0
    assert ssfg(X, X, CFG, kappa=10.0, opt=opt, rng=make_rng(8)).value == 0.0
    assert pssfg(X, X, CFG, kappa=10.0, opt=opt, rng=make_rng(9)).value == 0.0
    assert mssfg(X, X, CFG, kappas=[1.0, 10.0], opt=opt, rng=make_rng(10)).value == 0.0


@given(engine_cases())
def test_row_permuted_cloud_gives_exact_zero(case):
    X = case.clouds[0]
    perm = make_rng(case.seed).permutation(X.shape[0])
    rep = run_engine(case, X, X[perm])
    assert rep.value == 0.0 and rep.std_error == 0.0
    assert all(value == 0.0 for _, value in rep.trace)


@pytest.mark.parametrize("kind", KINDS)
def test_row_permuted_cloud_gives_exact_zero_where_r3_distances_overflow(kind):
    # |x_i - x_j|^3 overflows: equal distances must still contribute exactly 0
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]]) * 1e110
    opt = OptimizerConfig(learning_rate=0.05, max_iter=2, num_projections=4,
                          gradient_method=GradientMethod.FINITE_DIFFERENCE)
    case = EngineCase(kind, FgwConfig(beta=0.3, exponent=3), opt, [1.0, 10.0], 0, (X, X))
    for Y in (X[::-1], X):
        rep = run_engine(case, X, Y)
        assert rep.value == 0.0 and all(value == 0.0 for _, value in rep.trace)


# ---------------------------------------------------------------------------
# sfg worked example and the dual evaluation route
# ---------------------------------------------------------------------------


def test_sfg_point_mass_example():
    X = as_point_cloud(np.zeros((64, 2)))
    Y = as_point_cloud(np.tile([1.0, 0.0], (64, 1)))
    rep = sfg(X, Y, FgwConfig(beta=0.0, exponent=2), L=5000, rng=make_rng(14))
    # squared first coordinate of a uniform direction in the plane averages 1/2
    assert rep.std_error > 0.0
    assert abs(rep.value - 0.5) <= 3.0 * rep.std_error


def test_slice_costs_match_reference_route():
    X, Y = iid_pair(45, d=5, n=24)
    thetas = sample_slicing(UniformSlicing(), 5, 64, make_rng(15))
    batched = slice_costs(X, Y, CFG, thetas)
    for i in (0, 17, 40, 63):
        direct = fgw_1d(project(X, thetas[i]), project(Y, thetas[i]), CFG, method="reference")
        assert batched[i] == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_slice_costs_apply_the_direction_rule():
    X, Y = iid_pair(45, d=3, n=12)
    unit = np.array([[0.0, 0.0, 1.0]])
    for directions, message in (
        (2.0 * unit, "not unit norm"),
        (np.zeros((1, 3)), "not unit norm"),
        (np.vstack([unit, [[np.nan, 0.0, 1.0]]]), "non-finite"),
        (unit[None], "must be a 2D"),
        (np.array([[1.0, 0.0]]), "direction dimension does not match"),
    ):
        with pytest.raises(ValueError, match=message):
            slice_costs(X, Y, CFG, directions)
    # a single (d,) direction is one row
    assert np.array_equal(slice_costs(X, Y, CFG, unit[0]), slice_costs(X, Y, CFG, unit))


def test_std_error_survives_extreme_cost_scales():
    # at beta = 1 every cost scales as s^4: at s = 1e40 its square overflows,
    # at s = 1e-60 it underflows
    X, Y = iid_pair(47, d=3, n=16)
    cfg = FgwConfig(beta=1.0, exponent=2)
    unit = sfg(X, Y, cfg, L=50, rng=make_rng(18))
    for s in (1e40, 1e-60):
        rep = sfg(s * X, s * Y, cfg, L=50, rng=make_rng(18))
        assert rep.std_error == pytest.approx(unit.std_error * s**4, rel=1e-9)
    opt = OptimizerConfig(max_iter=2, num_projections=20)
    with np.errstate(over="ignore"):
        rep = ssfg(1e40 * X, 1e40 * Y, CFG, kappa=10.0, opt=opt, rng=make_rng(19))
    assert np.isfinite(rep.std_error) and rep.std_error > 0.0
    for std_error in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="std_error must be finite and >= 0"):
            DiscrepancyReport(1.0, UniformSlicing(), (), 1, std_error)


@pytest.mark.parametrize("kind", ["ssfg", "pssfg", "max_sfg", "mssfg"])
def test_ascents_are_exact_under_power_of_two_cloud_scales(kind):
    # at beta = 1 every cost and gradient scales exactly as s^4 when s is a
    # power of two. Beyond s = 2^128 the squared location gradients overflow
    # a double, and Adam must still take the 2^40 run's steps.
    X, Y = iid_pair(48, d=3, n=16)
    cfg = FgwConfig(beta=1.0, exponent=2)
    opt = OptimizerConfig(max_iter=5, num_projections=20)

    def run(k):
        Xs, Ys, rng = np.ldexp(X, k), np.ldexp(Y, k), make_rng(20)
        if kind == "max_sfg":
            return max_sfg(Xs, Ys, cfg, opt, rng, num_restarts=3)
        if kind == "mssfg":
            return mssfg(Xs, Ys, cfg, [5.0, 20.0], opt=opt, rng=rng)
        return (ssfg if kind == "ssfg" else pssfg)(Xs, Ys, cfg, 10.0, opt, rng=rng)

    base = run(40)
    assert len(base.trace) == opt.max_iter
    for k in (130, 140, 200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run(k)
        scale = 2.0 ** (4 * (k - 40))
        assert len(rep.trace) == opt.max_iter, k
        assert report_bits(rep.final_slicing) == report_bits(base.final_slicing), k
        assert rep.value == base.value * scale, k
        assert [value for _, value in rep.trace] == [value * scale for _, value in base.trace]


def test_expected_fgw_dirac_slicing_has_zero_spread():
    X, Y = iid_pair(46, d=3)
    theta = sample_slicing(UniformSlicing(), 3, 1, make_rng(16))[0]
    rep = expected_fgw(X, Y, CFG, DiracSlicing(theta), L=32, rng=make_rng(17))
    assert rep.std_error == 0.0
    direct = fgw_1d(project(X, theta), project(Y, theta), CFG)
    assert rep.value == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# max_sfg
# ---------------------------------------------------------------------------


def test_max_sfg_axis_instance_finds_axis_and_matches_grid():
    X, Y = axis_pair(42, d=2)
    angles = np.deg2rad(np.arange(0.0, 180.0, 1.0))
    grid = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    grid_best = float(slice_costs(X, Y, CFG, grid).max())
    rep = max_sfg(
        X, Y, CFG, OptimizerConfig(learning_rate=0.05, max_iter=100), make_rng(7)
    )
    theta = rep.final_slicing.direction
    assert abs(theta[0]) > 0.99
    # the ascent must do at least as well as a 1-degree sweep, and a smooth
    # landscape keeps the continuous optimum within a fraction of a percent
    assert rep.value >= grid_best - 1e-6 * grid_best
    assert rep.value <= grid_best * 1.005


def test_max_sfg_dominates_sfg():
    X, Y = iid_pair(47, d=3)
    lo = sfg(X, Y, CFG, L=500, rng=make_rng(18))
    hi = max_sfg(
        X, Y, CFG, OptimizerConfig(learning_rate=0.05, max_iter=100), make_rng(19)
    )
    assert hi.value >= lo.value - 3.0 * lo.std_error
    assert hi.std_error == 0.0


def test_max_sfg_restart_bookkeeping():
    # the restarts are the rows of one ascent: every row counts its slices,
    # the trace has one entry per iteration, and the value is the reported
    # direction's cost
    R, T, d = 3, 4, 3
    X, Y = iid_pair(49, d=d)
    r3 = FgwConfig(beta=0.1, exponent=3)
    for cfg, method, per_iteration in (
        (CFG, "pathwise", R),
        (CFG, "finite_difference", R * (2 * d - 1)),
        (r3, "pathwise", R * (2 * d - 1)),
    ):
        opt = OptimizerConfig(max_iter=T, gradient_method=method)
        rep = max_sfg(X, Y, cfg, opt, make_rng(24), num_restarts=R)
        assert rep.num_projections_used == T * per_iteration + R
        assert len(rep.trace) == T
        direct = float(slice_costs(X, Y, cfg, rep.final_slicing.direction)[0])
        assert rep.value == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# concentration limits
# ---------------------------------------------------------------------------


def test_ssfg_low_concentration_recovers_sfg():
    X, Y = iid_pair(48, d=3, n=40)
    lo = sfg(X, Y, CFG, L=2000, rng=make_rng(20))
    rep = ssfg(
        X, Y, CFG, kappa=1e-3,
        opt=OptimizerConfig(num_projections=2000, max_iter=3), rng=make_rng(21),
    )
    pooled = float(np.hypot(lo.std_error, rep.std_error))
    assert abs(rep.value - lo.value) <= 4.0 * pooled


def test_pssfg_low_concentration_recovers_sfg():
    X, Y = iid_pair(48, d=3, n=40)
    lo = sfg(X, Y, CFG, L=2000, rng=make_rng(22))
    rep = pssfg(
        X, Y, CFG, kappa=1e-3,
        opt=OptimizerConfig(num_projections=2000, max_iter=3), rng=make_rng(23),
    )
    pooled = float(np.hypot(lo.std_error, rep.std_error))
    assert abs(rep.value - lo.value) <= 4.0 * pooled


def test_ssfg_high_concentration_approaches_max_sfg():
    X, Y = axis_pair(43, d=3)
    hi = max_sfg(
        X, Y, CFG, OptimizerConfig(learning_rate=0.05, max_iter=150), make_rng(8)
    )
    rep = ssfg(
        X, Y, CFG, kappa=1e4,
        opt=OptimizerConfig(learning_rate=0.05, max_iter=150, num_projections=100),
        rng=make_rng(9),
    )
    assert abs(rep.value - hi.value) <= 0.02 * hi.value


def test_pssfg_high_dimension_stays_finite_and_below_max():
    r = make_rng(44)
    X = as_point_cloud(r.normal(size=(32, 64)))
    Y = as_point_cloud(r.normal(size=(32, 64)) * 1.4)
    hi = max_sfg(
        X, Y, CFG, OptimizerConfig(learning_rate=0.05, max_iter=100), make_rng(10)
    )
    rep = pssfg(
        X, Y, CFG, kappa=100.0,
        opt=OptimizerConfig(learning_rate=0.05, max_iter=50, num_projections=100),
        rng=make_rng(11),
    )
    assert np.isfinite(rep.value)
    assert rep.value <= hi.value + 4.0 * rep.std_error


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def test_mssfg_single_component_reduces_to_ssfg():
    X, Y = iid_pair(49, d=4)
    opt = OptimizerConfig(learning_rate=0.02, max_iter=8, num_projections=60)
    single = ssfg(X, Y, CFG, kappa=12.0, opt=opt, rng=make_rng(24))
    mixed = mssfg(X, Y, CFG, kappas=[12.0], opt=opt, rng=make_rng(24))
    assert mixed.trace == single.trace
    assert mixed.value == single.value
    assert mixed.std_error == single.std_error
    assert np.array_equal(
        mixed.final_slicing.params.components[0].location,
        single.final_slicing.params.location,
    )


def test_mssfg_bounded_by_best_component():
    X, Y = iid_pair(77, d=3, n=40)
    kappas = [5.0, 20.0, 80.0]
    opt = OptimizerConfig(learning_rate=0.03, max_iter=40, num_projections=200)
    parts = [
        ssfg(X, Y, CFG, kappa=k, opt=opt, rng=make_rng(10 + j))
        for j, k in enumerate(kappas)
    ]
    mix = mssfg(X, Y, CFG, kappas=kappas, opt=opt, rng=make_rng(20))
    best = max(p.value for p in parts)
    pooled = float(np.hypot(mix.std_error, max(p.std_error for p in parts)))
    assert mix.value <= best + 4.0 * pooled


def test_mssfg_default_weights_are_uniform():
    X, Y = iid_pair(50, d=3)
    opt = OptimizerConfig(max_iter=2, num_projections=30)
    rep = mssfg(X, Y, CFG, kappas=[1.0, 4.0, 9.0], opt=opt, rng=make_rng(25))
    assert np.allclose(rep.final_slicing.params.weights, 1.0 / 3.0)


# ---------------------------------------------------------------------------
# sandwich ordering
# ---------------------------------------------------------------------------


def test_sandwich_on_random_instances():
    ds = (2, 3, 8)
    ks = (1.0, 10.0, 100.0)
    for i in range(12):
        d = ds[i % 3]
        kappa = ks[(i // 3) % 3]
        X, Y = iid_pair(9000 + i, d, n=int(make_rng(9000 + i).integers(24, 49)))
        lo = sfg(X, Y, CFG, L=1000, rng=make_rng(2 * i))
        mid = ssfg(
            X, Y, CFG, kappa=kappa,
            opt=OptimizerConfig(learning_rate=0.03, max_iter=60, num_projections=300),
            rng=make_rng(2 * i + 1),
        )
        hi = max_sfg(
            X, Y, CFG, OptimizerConfig(learning_rate=0.05, max_iter=100),
            make_rng(3 * i + 7),
        )
        tol_lo = 4.0 * float(np.hypot(lo.std_error, mid.std_error))
        assert mid.value >= lo.value - tol_lo, (i, d, kappa)
        assert mid.value <= hi.value + 4.0 * mid.std_error, (i, d, kappa)


# ---------------------------------------------------------------------------
# symmetry, monotone traces, weak triangle, determinism
# ---------------------------------------------------------------------------


# Hypothesis derives the derandomized examples from the test's source, so the
# drawn cases need not reach the r = 3 overflow region (cubes of distances
# above about 1e103); these pin it with two different 1e110 clouds.
def _overflow_case(kind):
    opt = OptimizerConfig(learning_rate=0.05, max_iter=2, num_projections=4,
                          gradient_method=GradientMethod.FINITE_DIFFERENCE)
    clouds = (np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]]) * 1e110,
              np.array([[0.0, 2.0], [1.0, 1.0], [3.0, 0.0]]) * 1e110)
    return EngineCase(kind, FgwConfig(beta=0.3, exponent=3), opt, [1.0, 10.0], 0, clouds)


@given(engine_cases())
@example(_overflow_case("sfg"))
@example(_overflow_case("max_sfg"))
@example(_overflow_case("ssfg"))
@example(_overflow_case("pssfg"))
@example(_overflow_case("mssfg"))
def test_swap_symmetry_exact_for_all_engines(case):
    X, Y = case.clouds
    outcomes = []
    for a, b in ((X, Y), (Y, X)):
        try:
            outcomes.append(report_bits(run_engine(case, a, b)))
        except DivergenceError as exc:
            outcomes.append((str(exc), exc.step))
    assert outcomes[0] == outcomes[1]


def _smoothed_monotone(trace, window=5):
    vals = np.array([v for _, v in trace])
    if len(vals) < window + 1:
        return True
    sm = np.convolve(vals, np.ones(window) / window, mode="valid")
    return bool(np.all(np.diff(sm) >= -1e-12 * max(1.0, np.abs(sm).max())))


def test_ascent_traces_mostly_monotone_after_smoothing():
    opt = OptimizerConfig(learning_rate=0.03, max_iter=10, num_projections=200)
    counts = {"ssfg": 0, "pssfg": 0, "mssfg": 0}
    trials = 40
    for t in range(trials):
        d = (2, 3, 5)[t % 3]
        X, Y = aniso_pair(500 + t, d)
        counts["ssfg"] += _smoothed_monotone(
            ssfg(X, Y, CFG, kappa=50.0, opt=opt, rng=make_rng(t)).trace
        )
        counts["pssfg"] += _smoothed_monotone(
            pssfg(X, Y, CFG, kappa=100.0, opt=opt, rng=make_rng(t)).trace
        )
        counts["mssfg"] += _smoothed_monotone(
            mssfg(X, Y, CFG, kappas=[50.0, 250.0], opt=opt, rng=make_rng(t)).trace
        )
    for family, ok in counts.items():
        assert ok >= 0.9 * trials, (family, ok)


def test_estimator_weak_triangle_under_shared_slices():
    rng = make_rng(52)
    for trial in range(200):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(4, 17))
        beta = float(rng.uniform(0.0, 1.0))
        cfg = FgwConfig(beta=beta, exponent=2)
        A = as_point_cloud(rng.normal(size=(n, d)))
        B = as_point_cloud(rng.normal(size=(n, d)) * float(rng.uniform(0.5, 2.0)))
        C = as_point_cloud(rng.normal(size=(n, d)) * float(rng.uniform(0.5, 2.0)))
        thetas = sample_slicing(UniformSlicing(), d, 25, rng)
        d_ac = float(slice_costs(A, C, cfg, thetas).mean())
        d_ab = float(slice_costs(A, B, cfg, thetas).mean())
        d_bc = float(slice_costs(B, C, cfg, thetas).mean())
        assert d_ac <= 2.0 * (d_ab + d_bc) + 1e-10, trial


def test_reports_are_seed_deterministic():
    X, Y = iid_pair(53, d=3)
    opt = OptimizerConfig(learning_rate=0.02, max_iter=6, num_projections=45)

    def collect():
        reps = [
            sfg(X, Y, CFG, L=70, rng=make_rng(31)),
            max_sfg(X, Y, CFG, opt, make_rng(32), num_restarts=3),
            ssfg(X, Y, CFG, kappa=7.0, opt=opt, rng=make_rng(33)),
            pssfg(X, Y, CFG, kappa=7.0, opt=opt, rng=make_rng(34)),
            mssfg(X, Y, CFG, kappas=[3.0, 30.0], opt=opt, rng=make_rng(35)),
        ]
        return [(r.value, r.trace, r.num_projections_used, r.std_error) for r in reps]

    assert collect() == collect()


def test_seed_field_in_config_is_a_fallback_rng():
    X, Y = iid_pair(54, d=3)
    opt = OptimizerConfig(max_iter=3, num_projections=30, seed=123)
    a = ssfg(X, Y, CFG, kappa=5.0, opt=opt)
    b = ssfg(X, Y, CFG, kappa=5.0, opt=opt)
    assert a.value == b.value and a.trace == b.trace


def test_values_nonnegative_across_engines():
    for seed in (60, 61, 62):
        X, Y = iid_pair(seed, d=2, n=12)
        opt = OptimizerConfig(max_iter=3, num_projections=25)
        assert sfg(X, Y, CFG, L=30, rng=make_rng(seed)).value >= 0.0
        assert ssfg(X, Y, CFG, kappa=3.0, opt=opt, rng=make_rng(seed)).value >= 0.0
        assert pssfg(X, Y, CFG, kappa=3.0, opt=opt, rng=make_rng(seed)).value >= 0.0
