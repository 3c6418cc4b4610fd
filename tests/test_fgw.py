"""1D fused cost: frozen worked examples, the permutation oracle, metric-like
properties, gradients against finite differences, and the scaling envelope."""

import re
import time

import numpy as np
import pytest

from ssfgw.fgw import (
    FgwConfig,
    MonotoneCoupling,
    Projected1D,
    as_point_cloud,
    fgw_1d,
    fgw_1d_grad,
    project,
)

from oracles import fgw_1d_bruteforce


def _p1d(values):
    values = np.asarray(values, dtype=np.float64)
    return Projected1D(values, np.argsort(values, kind="stable"))


def _random_p1d(rng, n, scale=1.0):
    return _p1d(rng.normal(size=n) * scale + rng.normal())


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_coordinate_example():
    cloud = as_point_cloud(np.array([[1.0, 0.0], [0.0, 1.0]]))
    proj = project(cloud, np.array([1.0, 0.0]))
    assert np.array_equal(proj.values, np.array([1.0, 0.0]))
    assert np.array_equal(proj.sort_permutation, np.array([1, 0]))


def test_project_dot_product_example():
    cloud = as_point_cloud(np.array([[1.0, 1.0], [0.0, 0.0]]))
    proj = project(cloud, np.array([0.6, 0.8]))
    assert abs(proj.values[0] - 1.4) < 1e-15


def test_project_negated_direction_reverses_order():
    rng = np.random.default_rng(0)
    cloud = as_point_cloud(rng.normal(size=(20, 4)))
    theta = rng.normal(size=4)
    theta /= np.linalg.norm(theta)
    plus = project(cloud, theta)
    minus = project(cloud, -theta)
    assert np.array_equal(minus.values, -plus.values)
    assert np.array_equal(
        np.sort(plus.values)[::-1], -np.sort(minus.values)
    )


_CLOUD = np.zeros((3, 2))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: FgwConfig(exponent=0), "exponent must be an integer >= 1", id="r-zero"),
    pytest.param(lambda: FgwConfig(exponent=True), "exponent must be an integer >= 1", id="r-bool"),
    pytest.param(lambda: FgwConfig(exponent=1.5), "exponent must be an integer >= 1",
                 id="r-fractional"),
    pytest.param(lambda: Projected1D(np.zeros((1, 2)), [0, 1]),
                 "values must be a nonempty 1D vector", id="p1d-2d"),
    pytest.param(lambda: Projected1D(np.zeros(0), []), "values must be a nonempty 1D vector",
                 id="p1d-empty"),
    pytest.param(lambda: Projected1D([0.0, np.nan], [0, 1]), "values must be finite",
                 id="p1d-non-finite"),
    pytest.param(lambda: Projected1D([0.0, 1.0], [0]), "sort_permutation length must match values",
                 id="p1d-length"),
    pytest.param(lambda: Projected1D([0.0, 1.0], [0, 0]), "sort_permutation is not a permutation",
                 id="p1d-not-permutation"),
    pytest.param(lambda: Projected1D([0.0, 1.0], [1, 0]),
                 "sort_permutation does not sort values ascending", id="p1d-unsorted"),
    pytest.param(lambda: as_point_cloud(np.zeros(3)), "point cloud must be a 2D (n, d) array",
                 id="cloud-1d"),
    pytest.param(lambda: as_point_cloud(np.zeros((0, 2))), "point cloud needs at least one point",
                 id="cloud-empty"),
    pytest.param(lambda: as_point_cloud(np.zeros((3, 1))), "point cloud dimension must be >= 2",
                 id="cloud-one-column"),
    pytest.param(lambda: as_point_cloud([[0.0, np.inf]]), "point cloud has non-finite entries",
                 id="cloud-non-finite"),
    pytest.param(lambda: project(_CLOUD, np.array([1.0, 0.0, 0.0])),
                 "direction dimension (3,) does not match cloud dimension 2", id="project-dim"),
    pytest.param(lambda: fgw_1d_bruteforce(_p1d(np.arange(9.0)), _p1d(np.arange(9.0)),
                                           FgwConfig()),
                 "bruteforce oracle is limited to n <= 8", id="bruteforce-n9"),
])
def test_fgw_checks_that_no_other_test_reaches(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# frozen cost and gradient examples
# ---------------------------------------------------------------------------


def test_identical_inputs_cost_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        xs = _random_p1d(rng, int(rng.integers(1, 20)))
        for beta in (0.0, 0.3, 1.0):
            for r in (1, 2, 3):
                assert fgw_1d(xs, xs, FgwConfig(beta=beta, exponent=r)) == 0.0


def test_wasserstein_only_worked_example():
    xs = _p1d([0.0, 1.0])
    ys = _p1d([1.0, 2.0])
    assert fgw_1d(xs, ys, FgwConfig(beta=0.0, exponent=2)) == pytest.approx(1.0, abs=1e-15)


def test_structure_only_worked_example():
    xs = _p1d([0.0, 1.0])
    ys = _p1d([0.0, 2.0])
    assert fgw_1d(xs, ys, FgwConfig(beta=1.0, exponent=2)) == pytest.approx(4.5, abs=1e-14)


def test_bruteforce_single_point():
    xs = _p1d([3.0])
    ys = _p1d([1.0])
    for beta in (0.0, 0.25, 1.0):
        cfg = FgwConfig(beta=beta, exponent=2)
        assert fgw_1d_bruteforce(xs, ys, cfg) == pytest.approx((1 - beta) * 4.0, abs=1e-15)


def test_grad_single_point_example():
    ga, gb, coupling = fgw_1d_grad(_p1d([3.0]), _p1d([1.0]), FgwConfig(beta=0.0, exponent=2))
    assert ga[0] == pytest.approx(4.0, abs=1e-15)
    assert gb[0] == pytest.approx(-4.0, abs=1e-15)
    assert coupling is MonotoneCoupling.ASCENDING


def test_grad_zero_at_identity():
    rng = np.random.default_rng(2)
    xs = _random_p1d(rng, 12)
    ga, gb, _ = fgw_1d_grad(xs, xs, FgwConfig(beta=0.5, exponent=2))
    assert np.array_equal(ga, np.zeros(12))
    assert np.array_equal(gb, np.zeros(12))


def test_grad_requires_quadratic_exponent():
    xs = _p1d([0.0, 1.0])
    with pytest.raises(ValueError):
        fgw_1d_grad(xs, xs, FgwConfig(beta=0.5, exponent=1))


@pytest.mark.parametrize("method", ["moments", "Reference", ""])
def test_reference_is_the_only_method(method):
    xs = _random_p1d(np.random.default_rng(3), 6)
    cfg = FgwConfig(beta=0.5, exponent=2)
    assert fgw_1d(xs, xs, cfg, method="reference") == fgw_1d(xs, xs, cfg)
    with pytest.raises(ValueError, match="method must be 'reference'"):
        fgw_1d(xs, xs, cfg, method=method)
    with pytest.raises(ValueError, match="method must be 'reference'"):
        fgw_1d_grad(xs, xs, cfg, method=method)


# ---------------------------------------------------------------------------
# permutation oracle
# ---------------------------------------------------------------------------


def test_endpoints_match_bruteforce_200_instances_each():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for beta in (0.0, 1.0):
        cfg = FgwConfig(beta=beta, exponent=2)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            xs = _random_p1d(rng, n)
            ys = _random_p1d(rng, n, scale=float(rng.uniform(0.5, 2.0)))
            fast = fgw_1d(xs, ys, cfg)
            brute = fgw_1d_bruteforce(xs, ys, cfg)
            assert fast == pytest.approx(brute, rel=1e-9, abs=1e-12)
    assert time.perf_counter() - start < 10.0


def test_interior_never_beats_bruteforce_and_gap_reported(capsys):
    rng = np.random.default_rng(4)
    gaps = 0
    total = 300
    worst = 0.0
    for _ in range(total):
        n = int(rng.integers(2, 7))
        beta = float(rng.uniform(0.05, 0.95))
        cfg = FgwConfig(beta=beta, exponent=2)
        xs = _random_p1d(rng, n)
        ys = _random_p1d(rng, n, scale=float(rng.uniform(0.5, 2.0)))
        fast = fgw_1d(xs, ys, cfg)
        brute = fgw_1d_bruteforce(xs, ys, cfg)
        assert fast >= brute - 1e-12 * max(1.0, abs(brute))
        rel_gap = (fast - brute) / max(brute, 1e-15)
        if rel_gap > 1e-9:
            gaps += 1
            worst = max(worst, rel_gap)
    with capsys.disabled():
        print(
            f"\n[interior oracle gap] {gaps}/{total} instances with strict gap, "
            f"worst relative gap {worst:.3e}"
        )


# ---------------------------------------------------------------------------
# metric-like properties
# ---------------------------------------------------------------------------


def test_symmetry_exact_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        xs = _random_p1d(rng, n)
        ys = _random_p1d(rng, n, scale=float(rng.uniform(0.2, 3.0)))
        for beta in (0.0, float(rng.uniform(0, 1)), 1.0):
            for r in (1, 2):
                cfg = FgwConfig(beta=beta, exponent=r)
                assert fgw_1d(xs, ys, cfg) == fgw_1d(ys, xs, cfg)


def test_weak_triangle_constant_two_on_500_triples():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(500):
        n = int(rng.integers(2, 17))
        beta = float(rng.uniform(0, 1))
        cfg = FgwConfig(beta=beta, exponent=2)
        xs = _random_p1d(rng, n)
        ys = _random_p1d(rng, n, scale=float(rng.uniform(0.5, 2.0)))
        zs = _random_p1d(rng, n, scale=float(rng.uniform(0.5, 2.0)))
        d_xz = fgw_1d(xs, zs, cfg)
        d_xy = fgw_1d(xs, ys, cfg)
        d_yz = fgw_1d(ys, zs, cfg)
        assert d_xz <= 2.0 * (d_xy + d_yz) + 1e-12
    assert time.perf_counter() - start < 10.0


def test_structure_term_translation_invariant():
    rng = np.random.default_rng(7)
    cfg = FgwConfig(beta=1.0, exponent=2)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        xs = _random_p1d(rng, n)
        ys_values = rng.normal(size=n)
        shift = float(rng.normal()) * 10.0
        base = fgw_1d(xs, _p1d(ys_values), cfg)
        moved = fgw_1d(xs, _p1d(ys_values + shift), cfg)
        assert moved == pytest.approx(base, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# gradient vs finite differences
# ---------------------------------------------------------------------------


def _fd_grads(xs_values, ys_values, cfg, h=1e-5):
    gx = np.zeros_like(xs_values)
    gy = np.zeros_like(ys_values)
    for i in range(len(xs_values)):
        up = xs_values.copy()
        up[i] += h
        dn = xs_values.copy()
        dn[i] -= h
        gx[i] = (fgw_1d(_p1d(up), _p1d(ys_values), cfg) - fgw_1d(_p1d(dn), _p1d(ys_values), cfg)) / (2 * h)
    for i in range(len(ys_values)):
        up = ys_values.copy()
        up[i] += h
        dn = ys_values.copy()
        dn[i] -= h
        gy[i] = (fgw_1d(_p1d(xs_values), _p1d(up), cfg) - fgw_1d(_p1d(xs_values), _p1d(dn), cfg)) / (2 * h)
    return gx, gy


def _min_gap(values):
    s = np.sort(values)
    return float(np.diff(s).min()) if len(s) > 1 else np.inf


def test_grad_matches_finite_differences_away_from_ties():
    rng = np.random.default_rng(8)
    cfg = FgwConfig(beta=0.1, exponent=2)
    checked = 0
    attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts < 200, "could not find enough tie-free instances"
        xs_values = rng.normal(size=16) * 2.0
        ys_values = rng.normal(size=16) * 2.0 + 0.5
        # stay clear of sort ties, where the cost is not differentiable
        if _min_gap(xs_values) < 1e-4 or _min_gap(ys_values) < 1e-4:
            continue
        ga, gb, _ = fgw_1d_grad(_p1d(xs_values), _p1d(ys_values), cfg)
        fgx, fgy = _fd_grads(xs_values, ys_values, cfg)
        scale = max(np.abs(fgx).max(), np.abs(fgy).max(), 1e-8)
        assert np.abs(ga - fgx).max() <= 1e-5 * scale
        assert np.abs(gb - fgy).max() <= 1e-5 * scale
        checked += 1


def test_grad_unsorts_to_input_order():
    rng = np.random.default_rng(9)
    values = rng.normal(size=10)
    perm = rng.permutation(10)
    shuffled = values[perm]
    xs = _p1d(shuffled)
    ys = _random_p1d(rng, 10)
    cfg = FgwConfig(beta=0.2, exponent=2)
    ga, _, _ = fgw_1d_grad(xs, ys, cfg)
    # gradient entry i must correspond to shuffled[i]: nudging shuffled[i]
    # by h changes the cost by ~h * ga[i]
    h = 1e-6
    for i in (0, 4, 9):
        up = shuffled.copy()
        up[i] += h
        dn = shuffled.copy()
        dn[i] -= h
        fd = (fgw_1d(_p1d(up), ys, cfg) - fgw_1d(_p1d(dn), ys, cfg)) / (2 * h)
        assert fd == pytest.approx(ga[i], rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# scaling envelope
# ---------------------------------------------------------------------------


def _best_cpu_times(fns, repeats=7):
    # CPU time of this process, best of ``repeats``, with the calls
    # interleaved: a busy machine then slows every call alike instead of
    # one size's whole series
    best = [np.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.process_time()
            fn()
            best[i] = min(best[i], time.process_time() - start)
    return best


def test_reference_route_quadratic_envelope():
    rng = np.random.default_rng(10)
    cfg = FgwConfig(beta=0.5, exponent=2)
    xs_small = _random_p1d(rng, 1024)
    ys_small = _random_p1d(rng, 1024)
    xs_big = _random_p1d(rng, 2048)
    ys_big = _random_p1d(rng, 2048)
    fgw_1d(xs_small, ys_small, cfg)  # ensure any lazy setup is done
    t_small, t_big = _best_cpu_times(
        [lambda: fgw_1d(xs_small, ys_small, cfg), lambda: fgw_1d(xs_big, ys_big, cfg)]
    )
    assert t_big <= 8.0 * max(t_small, 1e-4)
