"""Sphere-constrained optimization pieces: projection, the pure Adam update,
and the two location-gradient estimators for smoothed directional objectives."""

import math

import numpy as np
import pytest

from ssfgw.sampling import make_rng, unit_vector, vmf_mean_resultant_oracle
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
            assert thetas.shape == (40, 6) and ctx.frames.shape == (40, 6)
            assert np.abs(np.linalg.norm(thetas, axis=1) - 1.0).max() <= 1e-12
            assert ctx.omega.shape == (40,)
            assert np.all(ctx.omega >= -1.0) and np.all(ctx.omega <= 1.0)
            assert ctx.v.shape == (40, 5)
            assert np.abs(np.linalg.norm(ctx.v, axis=1) - 1.0).max() <= 1e-12
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


@pytest.mark.parametrize("family", ["vmf", "power_spherical"])
@pytest.mark.parametrize("kappa", [0.0, 10.0])
def test_slicing_draw_at_the_degenerate_points(family, kappa):
    rng = make_rng(35)
    # at e_1 the reflection is the identity: directions are the pole-frame
    # samples and the pullback is zero
    pole = np.array([1.0, 0.0, 0.0, 0.0])
    ascent = SlicingAscent(family, pole, kappas=(kappa,))
    thetas, ctx = ascent.draw(50, rng)
    assert np.array_equal(ctx.frames, thetas)
    g_theta = rng.normal(size=thetas.shape)
    assert np.array_equal(ascent.pathwise_gradient(ctx, g_theta), np.zeros((1, 4)))
    # at d = 2 the tangent draw lives on S^0
    ascent = SlicingAscent(family, _locations(rng, 2, 2), kappas=(kappa, kappa))
    thetas, ctx = ascent.draw(50, rng)
    assert np.array_equal(np.abs(ctx.v), np.ones((50, 1)))
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
                    project_to_sphere(loc + sign * 1e-4 * basis[:, j]), ctx.omega[sel], ctx.v[sel]
                )[0]).mean()
                for sign in (1.0, -1.0)
            ]
            partials[j] = (f[0] - f[1]) / (2.0 * 1e-4)
        ambient = basis @ partials
        grad[i] = ascent.alphas[i] * (ambient - loc * float(loc @ ambient))
    return grad


@pytest.mark.parametrize(
    "family, k", [("vmf", 1), ("vmf", 3), ("power_spherical", 1), ("dirac", 3)]
)
def test_fd_gradient_makes_one_call_per_tangent_index_and_sign(family, k):
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
    assert len(rows) == 2 * (d - 1)
    assert max(rows) <= thetas.shape[0] == (k if family == "dirac" else L)
    if family != "dirac":
        assert np.array_equal(grad, _fd_reference(ascent, ctx, costs_at))


def test_assemble_directions_radial_component():
    rng = make_rng(24)
    eps = unit_vector(rng.normal(size=4))
    _, ctx = SlicingAscent("vmf", eps, kappas=(10.0,)).draw(200, rng)
    omega = ctx.omega
    thetas, h = assemble_directions(eps, omega, ctx.v)
    assert np.abs(thetas @ eps - omega).max() <= 1e-12
    assert np.abs(h[:, 0] - omega).max() == 0.0
    assert np.abs(np.linalg.norm(thetas, axis=1) - 1.0).max() <= 1e-12


def test_reflection_pullback_zero_at_pole():
    eps = np.array([1.0, 0.0, 0.0])
    h = make_rng(25).normal(size=(7, 3))
    g = make_rng(26).normal(size=(7, 3))
    assert np.array_equal(reflection_location_grads(eps, h, g), np.zeros((7, 3)))


def test_reflection_pullback_matches_numeric_jacobian():
    rng = make_rng(27)
    d = 5
    eps = unit_vector(rng.normal(size=d))
    h_row = unit_vector(rng.normal(size=d))
    g_row = rng.normal(size=d)

    # numeric directional derivative of g . theta(eps) under ambient eps moves
    step = 1e-6
    analytic = reflection_location_grads(eps, h_row[None, :], g_row[None, :])[0]
    for k in range(d):
        e_up = eps.copy()
        e_up[k] += step
        e_dn = eps.copy()
        e_dn[k] -= step
        t_up, _ = _reflect_rows(e_up, h_row)
        t_dn, _ = _reflect_rows(e_dn, h_row)
        numeric = float(g_row @ (t_up - t_dn)) / (2 * step)
        assert numeric == pytest.approx(analytic[k], rel=1e-5, abs=1e-7)


def _reflect_rows(eps, h_row):
    # rebuild theta = reflect(eps) applied to a fixed pole-frame vector,
    # without renormalizing eps (the pullback is the ambient Jacobian)
    w = -np.asarray(eps, dtype=np.float64).copy()
    w[0] += 1.0
    rho = float(np.linalg.norm(w))
    u = w / rho
    theta = h_row - 2.0 * float(h_row @ u) * u
    return theta, u


# ---------------------------------------------------------------------------
# location-gradient estimators
# ---------------------------------------------------------------------------


def test_constant_objective_gives_zero_gradient_both_methods():
    rng = make_rng(28)
    eps = unit_vector(rng.normal(size=4))

    pathwise = estimate_location_gradient(
        lambda th: (3.25, np.zeros(4)),
        eps,
        kappa=5.0,
        L=64,
        method=GradientMethod.PATHWISE,
        rng=make_rng(1),
    )
    assert np.abs(pathwise).max() == 0.0

    fd = estimate_location_gradient(
        lambda th: 3.25,
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
            lambda th: float(a @ th) ** 2,
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
                return float(a @ th) ** 2

            def value_and_grad(th):
                s = float(a @ th)
                return s * s, 2.0 * s * a

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
            lambda th, a=a: (float(a @ th), a),
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
            lambda th: (float(a @ th), a),
            eps,
            kappa=20.0,
            L=64,
            method=GradientMethod.PATHWISE,
            rng=rng,
        )
        moved, state = adam_step(state, grad, eps, ascend=True)
        eps = project_to_sphere(moved)
    assert float(a @ eps) > 0.99


def test_estimator_validation():
    eps = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        estimate_location_gradient(
            lambda th: 1.0, eps, 1.0, 0, GradientMethod.PATHWISE, make_rng(0)
        )
    with pytest.raises(ValueError):
        # pathwise needs (value, grad) tuples
        estimate_location_gradient(
            lambda th: 1.0, eps, 1.0, 4, GradientMethod.PATHWISE, make_rng(0)
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
                        lambda th: (1.0, np.zeros_like(th)), loc, kappa, 4, method,
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
