"""Sphere-constrained optimization pieces: projection, the pure Adam update,
and the two location-gradient estimators for smoothed directional objectives."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ssfgw.sampling import (
    _assemble_directions,
    _uniform_sphere,
    _vmf_omega,
    make_rng,
    unit_vector,
)
from ssfgw.sphere_opt import (
    AdamState,
    GradientMethod,
    SlicingAscent,
    adam_init,
    adam_step,
    assemble_directions,
    estimate_location_gradient,
    project_to_sphere,
    reflection_location_grads,
    tangent_basis,
)

from oracles import vmf_mean_resultant_oracle


# ---------------------------------------------------------------------------
# projection and tangent frame
# ---------------------------------------------------------------------------


def test_project_to_sphere_worked_example():
    out = project_to_sphere(np.array([3.0, 4.0]))
    assert np.array_equal(out, np.array([0.6, 0.8]))


def test_project_to_sphere_idempotent_on_unit_vectors():
    rng = make_rng(21)
    for d in (2, 5, 32):
        v = unit_vector(rng.normal(size=d))
        again = project_to_sphere(v)
        assert np.abs(again - v).max() <= 1e-15


def test_project_to_sphere_rejects_zero():
    with pytest.raises(ValueError):
        project_to_sphere(np.zeros(3))


def test_tangent_basis_orthonormal_and_orthogonal_to_location():
    rng = make_rng(22)
    for d in (2, 3, 10):
        eps = unit_vector(rng.normal(size=d))
        B = tangent_basis(eps)
        assert B.shape == (d, d - 1)
        assert np.abs(B.T @ B - np.eye(d - 1)).max() <= 1e-12
        assert np.abs(B.T @ eps).max() <= 1e-12


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_parameter_unchanged():
    state = adam_init((3,), learning_rate=0.1)
    x = np.array([1.0, -2.0, 0.5])
    updated, new_state = adam_step(state, np.zeros(3), x)
    assert np.array_equal(updated, x)
    assert new_state.step_count == 1


def test_adam_first_step_magnitude_is_learning_rate():
    # after bias correction the first step is lr * g / (|g| + stability)
    state = adam_init((2,), learning_rate=0.03)
    g = np.array([5.0, -0.002])
    updated, _ = adam_step(state, g, np.zeros(2), ascend=False)
    assert updated[0] == pytest.approx(-0.03, rel=1e-5)
    assert updated[1] == pytest.approx(0.03, rel=1e-3)


def test_adam_ascend_flips_direction():
    state = adam_init((2,), learning_rate=0.01)
    g = np.array([1.0, -2.0])
    down, _ = adam_step(state, g, np.zeros(2), ascend=False)
    up, _ = adam_step(state, g, np.zeros(2), ascend=True)
    assert np.array_equal(up, -down)


def test_adam_step_is_pure():
    state = adam_init((2,), learning_rate=0.05)
    x = np.array([0.3, 0.7])
    g = np.array([1.0, 1.0])
    first, _ = adam_step(state, g, x)
    second, _ = adam_step(state, g, x)
    assert np.array_equal(first, second)
    assert state.step_count == 0
    assert np.array_equal(state.first_moment, np.zeros(2))


def test_adam_init_validation():
    with pytest.raises(ValueError):
        adam_init((2,), learning_rate=0.0)
    with pytest.raises(ValueError, match="learning_rate must be positive"):
        adam_init((2,), learning_rate=np.nan)
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        adam_init((2,), learning_rate=np.inf)
    with pytest.raises(ValueError):
        adam_init((2,), learning_rate=0.1, beta1=1.0)
    state = adam_init((3,), learning_rate=0.1)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(2), np.zeros(2))


def test_adam_converges_on_quadratic():
    state = adam_init((2,), learning_rate=0.05)
    x = np.array([2.0, -3.0])
    for _ in range(400):
        x, state = adam_step(state, 2.0 * x, x, ascend=False)
    assert np.abs(x).max() < 1e-3


# ---------------------------------------------------------------------------
# reparameterized noise and the reflection pullback
# ---------------------------------------------------------------------------


def _locations(rng, k, d):
    return np.stack([unit_vector(rng.normal(size=d)) for _ in range(k)])


def test_slicing_draw_shapes_and_ranges():
    rng = make_rng(23)
    for family in ("vmf", "power_spherical"):
        for k in (1, 3):
            ascent = SlicingAscent(family, _locations(rng, k, 6), kappas=(5.0,) * k)
            thetas, ctx = ascent.draw(40, rng)
            assert thetas.shape == (40, 6) and np.array_equal(ctx.thetas, thetas)
            assert np.abs(np.linalg.norm(thetas, axis=1) - 1.0).max() <= 1e-12
            assert ctx.idx.shape == (40,)
            assert set(ctx.idx.tolist()) <= set(range(k))
    dirac = SlicingAscent("dirac", _locations(rng, 3, 6))
    thetas, ctx = dirac.draw(40, rng)
    assert np.array_equal(thetas, dirac.locs) and ctx.idx.tolist() == [0, 1, 2]
    uniform = SlicingAscent("uniform", np.empty((0, 6)))
    assert uniform.draw(40, rng)[0].shape == (40, 6)
    with pytest.raises(ValueError):
        SlicingAscent("gaussian", _locations(rng, 1, 6), kappas=(5.0,))


@pytest.mark.parametrize("family", ["vmf", "power_spherical"])
def test_slicing_ascent_validates_its_parameters(family):
    e1 = [[1.0, 0.0, 0.0]]
    two = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    for locs, kappas, alphas, message in (
        (e1, (np.inf,), None, "concentration must be finite and >= 0"),
        (e1, (np.nan,), None, "concentration must be finite and >= 0"),
        (e1, (-1.0,), None, "concentration must be finite and >= 0"),
        ([[0.0, 2.0, 0.0]], (5.0,), None, "not unit norm"),
        ([[np.nan, 1.0, 0.0]], (5.0,), None, "non-finite"),
        (two, (5.0,), None, "one concentration per location"),
        (np.empty((0, 3)), (), None, "at least one concentration"),
        (two, (5.0, 5.0), (np.nan, 1.0), "alphas must be finite"),
        (two, (5.0, 5.0), (0.7, 0.7), "alphas must be finite"),
        (two, (5.0, 5.0), (1.0,), "alphas length"),
    ):
        # rejected when built, not at the first draw
        with pytest.raises(ValueError, match=message):
            SlicingAscent(family, locs, kappas, alphas)
    ascent = SlicingAscent(family, two, (0.0, 5.0))
    assert ascent.kappas == [0.0, 5.0] and np.array_equal(ascent.alphas, [0.5, 0.5])
    # Dirac locations carry weight 1 each unless weights are given
    assert np.array_equal(SlicingAscent("dirac", two).alphas, [1.0, 1.0])
    with pytest.raises(ValueError, match="not unit norm"):
        SlicingAscent("dirac", [[0.0, 2.0, 0.0]])


def test_uniform_ascent_moves_nothing():
    rng = make_rng(37)
    uniform = SlicingAscent("uniform", np.empty((0, 4)))
    thetas, ctx = uniform.draw(9, rng)
    assert thetas.shape == (9, 4) and ctx.idx.size == 0
    grad = uniform.pathwise_gradient(ctx, rng.normal(size=thetas.shape))
    assert grad.shape == (0, 4)
    assert uniform.step(grad) == 0.0 and uniform.locs.shape == (0, 4)


def _bumpy(a):
    # a smooth objective with no symmetry about any axis: (costs_at, gradient)
    def costs_at(thetas):
        return np.cos(3.0 * thetas[:, 0]) + (thetas @ a) ** 2 + thetas[:, -1]

    def grad_at(thetas):
        g = 2.0 * (thetas @ a)[:, None] * a
        g[:, 0] -= 3.0 * np.sin(3.0 * thetas[:, 0])
        g[:, -1] += 1.0
        return g

    return costs_at, grad_at


@pytest.mark.parametrize("family", ["vmf", "power_spherical"])
@pytest.mark.parametrize("kappa", [0.0, 10.0])
def test_slicing_draw_at_the_degenerate_points(family, kappa):
    rng = make_rng(35)
    # at e_1 the sampling reflection is the identity; the location gradient
    # does not see it: pathwise equals finite differences and is non-zero
    pole = np.array([1.0, 0.0, 0.0, 0.0])
    costs_at, grad_at = _bumpy(rng.normal(size=4))
    ascent = SlicingAscent(family, pole, kappas=(kappa,))
    thetas, ctx = ascent.draw(50, rng)
    pathwise = ascent.pathwise_gradient(ctx, grad_at(thetas))
    fd = ascent.fd_gradient(ctx, costs_at)
    assert np.linalg.norm(pathwise) > 0.0
    assert np.abs(pathwise - fd).max() <= 1e-2 * np.abs(fd).max()
    # at d = 2 the tangent draw lives on S^0
    assert np.array_equal(np.abs(_uniform_sphere(1, rng, 50)), np.ones((50, 1)))
    ascent = SlicingAscent(family, _locations(rng, 2, 2), kappas=(kappa, kappa))
    thetas, ctx = ascent.draw(50, rng)
    assert thetas.shape == (50, 2)
    assert np.abs(np.linalg.norm(thetas, axis=1) - 1.0).max() <= 1e-12


def test_location_gradient_is_tangent():
    rng = make_rng(34)
    a = rng.normal(size=5)

    def costs_at(thetas):
        return (thetas @ a) ** 2

    for family in ("vmf", "dirac"):
        for k in (1, 3):
            alphas = np.array([0.2, 0.3, 0.5]) if k == 3 else None
            ascent = SlicingAscent(family, _locations(rng, k, 5), (10.0,) * k, alphas)
            thetas, ctx = ascent.draw(64, rng)
            g_theta = 2.0 * (thetas @ a)[:, None] * a
            for grad in (ascent.pathwise_gradient(ctx, g_theta), ascent.fd_gradient(ctx, costs_at)):
                assert grad.shape == (k, 5)
                for loc, g in zip(ascent.locs, grad):
                    assert abs(float(loc @ g)) <= 1e-12 * np.linalg.norm(g), (family, k)


def _fd_reference(ascent, ctx, costs_at):
    # one costs_at call per location, tangent index and sign
    d = ascent.locs.shape[1]
    grad = np.zeros_like(ascent.locs)
    for i, loc in enumerate(ascent.locs):
        sel = ctx.idx == i
        if not sel.any():
            continue
        basis = tangent_basis(loc)
        partials = np.empty(d - 1)
        for j in range(d - 1):
            f = [
                costs_at(assemble_directions(
                    loc, project_to_sphere(loc + sign * 1e-4 * basis[:, j]), ctx.thetas[sel]
                )).mean()
                for sign in (1.0, -1.0)
            ]
            partials[j] = (f[0] - f[1]) / (2.0 * 1e-4)
        ambient = basis @ partials
        grad[i] = ascent.alphas[i] * (ambient - loc * float(loc @ ambient))
    return grad


@pytest.mark.parametrize(
    "family, k", [("vmf", 1), ("vmf", 3), ("power_spherical", 1), ("dirac", 3)]
)
def test_fd_gradient_makes_one_call_on_every_moved_batch(family, k):
    rng = make_rng(36)
    d, L = 5, 40
    a = rng.normal(size=d)

    def costs_at(thetas):
        # row by row, so a row's cost does not depend on the rows beside it
        return np.cos(3.0 * thetas[:, 0]) + ((thetas * a).sum(axis=1)) ** 2

    alphas = np.array([0.2, 0.3, 0.5]) if k == 3 else None
    ascent = SlicingAscent(family, _locations(rng, k, d), (10.0,) * k, alphas)
    thetas, ctx = ascent.draw(L, rng)
    rows = []

    def counting(directions):
        rows.append(directions.shape[0])
        return costs_at(directions)

    grad = ascent.fd_gradient(ctx, counting)
    assert thetas.shape[0] == (k if family == "dirac" else L)
    assert rows == [2 * (d - 1) * thetas.shape[0]]
    assert np.array_equal(grad, _fd_reference(ascent, ctx, costs_at))


def test_assemble_directions_radial_component():
    # the sampling draw: eps^T theta is the radial coordinate omega
    rng = make_rng(24)
    eps = unit_vector(rng.normal(size=4))
    omega = _vmf_omega(10.0, 4, 200, rng)
    thetas = _assemble_directions(eps, omega, _uniform_sphere(3, rng, 200))
    assert np.abs(thetas @ eps - omega).max() <= 1e-12
    assert np.abs(np.linalg.norm(thetas, axis=1) - 1.0).max() <= 1e-12


def _rotation(eps, moved):
    # the rotation in the plane of eps and moved that maps eps to moved, as
    # a matrix: I + K + K^2 / (1 + eps^T moved), K = moved eps^T - eps moved^T
    K = np.outer(moved, eps) - np.outer(eps, moved)
    return np.eye(eps.size) + K + K @ K / (1.0 + float(eps @ moved))


def _check_pullback_against_rotation(eps, rng):
    # numeric derivative of g^T R_s theta as eps moves along the geodesic
    # cos(s) eps + sin(s) t, against t^T of the per-sample pullback
    d = eps.size
    thetas = np.stack([unit_vector(rng.normal(size=d)) for _ in range(6)])
    g = rng.normal(size=(6, d))
    analytic = reflection_location_grads(eps, thetas, g)
    step = 1e-6
    for t in tangent_basis(eps).T:
        up = np.cos(step) * eps + np.sin(step) * t
        dn = np.cos(step) * eps - np.sin(step) * t
        R_up, R_dn = _rotation(eps, up), _rotation(eps, dn)
        assert np.abs(assemble_directions(eps, up, thetas) - thetas @ R_up.T).max() <= 1e-14
        numeric = ((g * (thetas @ R_up.T)).sum(axis=1)
                   - (g * (thetas @ R_dn.T)).sum(axis=1)) / (2 * step)
        assert np.abs(numeric - analytic @ t).max() <= 1e-7 * max(1.0, np.abs(numeric).max())


def test_reflection_pullback_at_pole_matches_numeric_derivative():
    _check_pullback_against_rotation(np.array([1.0, 0.0, 0.0]), make_rng(25))


def test_reflection_pullback_matches_numeric_jacobian():
    rng = make_rng(27)
    _check_pullback_against_rotation(unit_vector(rng.normal(size=5)), rng)


class PoleCase(NamedTuple):
    family: str
    k: int
    d: int
    kappa: float
    where: object  # "e1", "-e1", "random", or j for e_1 moved by 10^-j
    seed: int


@st.composite
def pole_cases(draw):
    """A location at, beside or away from e_1, the sampling reflection's
    degenerate point, for a vMF, a power spherical or a two-component vMF
    mixture whose first location it is."""
    family, k = draw(st.sampled_from([("vmf", 1), ("power_spherical", 1), ("vmf", 2)]))
    d = draw(st.sampled_from([2, 3, 5]))
    kappa = draw(st.sampled_from([0.0, 1.0, 10.0, 1000.0]))
    where = draw(st.one_of(st.sampled_from(["e1", "-e1", "random"]), st.integers(3, 12)))
    return PoleCase(family, k, d, kappa, where, draw(st.integers(0, 2**16)))


def _pole_estimates(case, loc):
    # pathwise and finite-difference gradients of the first location on the
    # same draws, and the standard error of the pathwise one
    rng = make_rng(case.seed + 1)
    costs_at, grad_at = _bumpy(rng.normal(size=case.d))
    locs = [loc] + [unit_vector(rng.normal(size=case.d)) for _ in range(case.k - 1)]
    ascent = SlicingAscent(case.family, locs, (case.kappa,) * case.k)
    thetas, ctx = ascent.draw(256, make_rng(case.seed + 2))
    g_theta = grad_at(thetas)
    sel = ctx.idx == 0
    per_sample = reflection_location_grads(loc, thetas[sel], g_theta[sel])
    per_sample = per_sample - np.outer(per_sample @ loc, loc)
    se = per_sample.std(axis=0, ddof=1) / math.sqrt(max(int(sel.sum()), 1))
    pathwise = ascent.pathwise_gradient(ctx, g_theta)
    return pathwise, ascent.fd_gradient(ctx, costs_at), ascent.alphas[0] * se


@given(pole_cases())
@example(PoleCase("vmf", 1, 3, 10.0, "e1", 0))
@example(PoleCase("power_spherical", 1, 5, 1000.0, "e1", 1))
@example(PoleCase("vmf", 2, 2, 1.0, "e1", 2))
@example(PoleCase("vmf", 1, 3, 1.0, 7, 3))
@example(PoleCase("vmf", 1, 5, 10.0, 12, 4))
@example(PoleCase("power_spherical", 1, 3, 1000.0, 3, 5))
@example(PoleCase("vmf", 2, 3, 0.0, "-e1", 6))
def test_location_gradient_at_and_near_the_pole(case):
    rng = make_rng(case.seed)
    pole = np.zeros(case.d)
    pole[0] = 1.0
    if case.where == "random":
        loc = unit_vector(rng.normal(size=case.d))
    elif case.where in ("e1", "-e1"):
        loc = pole if case.where == "e1" else -pole
    else:
        tangent = rng.normal(size=case.d)
        tangent[0] = 0.0
        loc = unit_vector(pole + 10.0 ** -case.where * unit_vector(tangent))
    pathwise, fd, se = _pole_estimates(case, loc)
    # both estimators differentiate the same sample average
    assert np.linalg.norm(pathwise[0]) > 0.0
    assert np.abs(pathwise - fd).max() <= 1e-2 * np.abs(fd).max()
    if isinstance(case.where, int):
        # no jump across e_1: the estimate there agrees within Monte Carlo error
        at_pole, _, se_pole = _pole_estimates(case, pole)
        gap = np.linalg.norm(pathwise[0] - at_pole[0])
        assert gap <= 6.0 * (np.linalg.norm(se) + np.linalg.norm(se_pole))


# ---------------------------------------------------------------------------
# location-gradient estimators
# ---------------------------------------------------------------------------


def test_constant_objective_gives_zero_gradient_both_methods():
    rng = make_rng(28)
    eps = unit_vector(rng.normal(size=4))

    pathwise = estimate_location_gradient(
        lambda th: (np.full(len(th), 3.25), np.zeros_like(th)),
        eps,
        kappa=5.0,
        L=64,
        method=GradientMethod.PATHWISE,
        rng=make_rng(1),
    )
    assert np.abs(pathwise).max() == 0.0

    fd = estimate_location_gradient(
        lambda th: np.full(len(th), 3.25),
        eps,
        kappa=5.0,
        L=64,
        method=GradientMethod.FINITE_DIFFERENCE,
        rng=make_rng(1),
    )
    assert np.abs(fd).max() <= 1e-10


def test_fd_gradient_is_tangent():
    rng = make_rng(29)
    for d in (3, 8):
        eps = unit_vector(rng.normal(size=d))
        a = rng.normal(size=d)
        grad = estimate_location_gradient(
            lambda th: (th @ a) ** 2,
            eps,
            kappa=10.0,
            L=100,
            method=GradientMethod.FINITE_DIFFERENCE,
            rng=make_rng(2),
        )
        assert abs(float(grad @ eps)) <= 1e-8


def test_pathwise_matches_finite_difference_on_quadratic():
    rng = make_rng(30)
    for d in (3, 8):
        for kappa in (1.0, 10.0, 50.0):
            eps = unit_vector(rng.normal(size=d))
            a = rng.normal(size=d)

            def value_only(th):
                return (th @ a) ** 2

            def value_and_grad(th):
                s = th @ a
                return s * s, 2.0 * np.outer(s, a)

            pathwise = estimate_location_gradient(
                value_and_grad, eps, kappa, 2000, GradientMethod.PATHWISE, make_rng(3)
            )
            fd = estimate_location_gradient(
                value_only, eps, kappa, 2000, GradientMethod.FINITE_DIFFERENCE, make_rng(3)
            )
            # compare tangent components: the pathwise estimate is ambient
            tangent = pathwise - eps * float(eps @ pathwise)
            scale = max(np.abs(fd).max(), 1e-10)
            assert np.abs(tangent - fd).max() <= 1e-2 * scale, (d, kappa)


def test_estimated_gradient_is_ascent_direction():
    # for objective a . theta the smoothed objective is rho(kappa, d) * a . eps,
    # whose sphere gradient points along the tangent projection of a
    rng = make_rng(31)
    wins = 0
    total = 100
    for _ in range(total):
        d = int(rng.integers(3, 9))
        eps = unit_vector(rng.normal(size=d))
        a = unit_vector(rng.normal(size=d))

        grad = estimate_location_gradient(
            lambda th, a=a: (th @ a, np.tile(a, (len(th), 1))),
            eps,
            kappa=20.0,
            L=200,
            method=GradientMethod.PATHWISE,
            rng=rng,
        )
        tangent = grad - eps * float(eps @ grad)
        truth = a - eps * float(a @ eps)
        if float(tangent @ truth) > 0.0:
            wins += 1
    assert wins >= 95


def test_full_ascent_loop_reaches_maximizer():
    # maximize E[a . theta]; the optimum location is a itself
    rng = make_rng(32)
    a = unit_vector(np.array([1.0, 2.0, -0.5, 0.3]))
    eps = unit_vector(rng.normal(size=4))
    state = adam_init((4,), learning_rate=0.05)
    for _ in range(200):
        grad = estimate_location_gradient(
            lambda th: (th @ a, np.tile(a, (len(th), 1))),
            eps,
            kappa=20.0,
            L=64,
            method=GradientMethod.PATHWISE,
            rng=rng,
        )
        moved, state = adam_step(state, grad, eps, ascend=True)
        eps = project_to_sphere(moved)
    assert float(a @ eps) > 0.99


def test_estimator_calls_its_objective_once_per_batch():
    # pathwise: one call on the L draws; finite differences: one on the
    # 2(d-1) moved batches stacked, as the engines' fd_gradient makes
    rng = make_rng(34)
    for d in (2, 3, 6):
        eps = unit_vector(rng.normal(size=d))
        a = rng.normal(size=d)
        for method, rows in ((GradientMethod.PATHWISE, 37),
                             (GradientMethod.FINITE_DIFFERENCE, 2 * (d - 1) * 37)):
            shapes = []

            def objective(th):
                shapes.append(th.shape)
                return th @ a, np.tile(a, (len(th), 1))

            estimate_location_gradient(objective, eps, 5.0, 37, method, make_rng(4))
            assert shapes == [(rows, d)]


def test_estimator_validation():
    eps = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="L must be >= 1"):
        estimate_location_gradient(
            lambda th: np.ones(len(th)), eps, 1.0, 0, GradientMethod.PATHWISE, make_rng(0)
        )
    with pytest.raises(ValueError, match="pathwise estimation needs"):
        # pathwise needs (values, gradients) pairs
        estimate_location_gradient(
            lambda th: np.ones(len(th)), eps, 1.0, 4, GradientMethod.PATHWISE, make_rng(0)
        )
    for family in ("uniform", "dirac"):
        with pytest.raises(ValueError, match="unknown directional family"):
            estimate_location_gradient(
                lambda th: np.ones(len(th)), eps, 1.0, 4, GradientMethod.FINITE_DIFFERENCE,
                make_rng(0), family,
            )
    # the location and the concentration are validated as the family's parameters
    for family in ("vmf", "power_spherical"):
        for method in GradientMethod:
            for loc, kappa, message in (
                (eps, np.inf, "concentration must be finite"),
                (eps, np.nan, "concentration must be finite"),
                (eps, -1.0, "concentration must be finite"),
                (np.array([0.0, 2.0, 0.0]), 5.0, "not unit norm"),
            ):
                with pytest.raises(ValueError, match=message):
                    estimate_location_gradient(
                        lambda th: (np.ones(len(th)), np.zeros_like(th)), loc, kappa, 4, method,
                        make_rng(0), family,
                    )


def test_oracle_consistency_of_smoothed_linear_objective():
    # E[a . theta] = rho(kappa, d) * (a . eps): sanity-check the estimator
    # machinery end to end against the quadrature oracle
    rng = make_rng(33)
    d, kappa, L = 4, 8.0, 40000
    eps = unit_vector(rng.normal(size=d))
    a = unit_vector(rng.normal(size=d))
    thetas, _ = SlicingAscent("vmf", eps, kappas=(kappa,)).draw(L, rng)
    values = thetas @ a
    rho = vmf_mean_resultant_oracle(kappa, d)
    se = float(values.std(ddof=1)) / math.sqrt(L)
    assert abs(float(values.mean()) - rho * float(a @ eps)) <= 4.0 * se
