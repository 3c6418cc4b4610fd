"""Sphere-constrained optimization pieces: the tangent frame, the in-place
Adam update and the ascent's Adam step, and the two location-gradient
estimators for smoothed directional objectives."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ssfgw.sampling import (
    _assemble_directions,
    _pole_gaps,
    _uniform_sphere,
    _vmf_omega,
    make_rng,
)
from ssfgw.sphere_opt import (
    SlicingAscent,
    adam_step,
    assemble_directions,
    reflection_location_grads,
    tangent_basis,
)

from oracles import unit_vector, vmf_mean_resultant_oracle


# ---------------------------------------------------------------------------
# tangent frame
# ---------------------------------------------------------------------------


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
    moments = np.zeros((2, 3))
    step = adam_step(moments, np.zeros(3), 1, 0.1, 0.5, 0.999)
    assert np.array_equal(step, np.zeros(3))
    assert np.array_equal(moments, np.zeros((2, 3)))


def test_adam_first_step_magnitude_is_learning_rate():
    # after bias correction the first step is lr * g / (|g| + stability)
    moments = np.zeros((2, 2))
    g = np.array([5.0, -0.002])
    step = adam_step(moments, g, 1, 0.03, 0.5, 0.999)
    assert step[0] == pytest.approx(0.03, rel=1e-5)
    assert step[1] == pytest.approx(-0.03, rel=1e-3)
    # the moments are updated in place
    assert np.array_equal(moments, [0.5 * g, (1.0 - 0.999) * (g * g)])


def test_adam_init_validation():
    # the Adam settings are checked when the ascent is built
    e1 = [[1.0, 0.0, 0.0]]
    for settings, message in (
        ({"learning_rate": 0.0}, "learning_rate must be positive"),
        ({"learning_rate": np.nan}, "learning_rate must be positive"),
        ({"learning_rate": np.inf}, "learning_rate must be finite"),
        ({"beta1": 1.0}, "Adam betas must lie in"),
        ({"beta2": 0.0}, "Adam betas must lie in"),
    ):
        with pytest.raises(ValueError, match=message):
            SlicingAscent("vmf", e1, (5.0,), **settings)
    with pytest.raises(ValueError, match="gradient shape mismatch"):
        adam_step(np.zeros((2, 3)), np.zeros(2), 1, 0.1, 0.5, 0.999)


def test_adam_converges_on_quadratic():
    moments = np.zeros((2, 2))
    x = np.array([2.0, -3.0])
    for t in range(1, 401):
        x = x - adam_step(moments, 2.0 * x, t, 0.05, 0.5, 0.999)
    assert np.abs(x).max() < 1e-3


def test_ascent_step_is_projected_adam_with_a_power_of_two_rescale():
    # SlicingAscent.step against Adam written out here in the order of its
    # arithmetic. Adam sees the gradients times 2^-shift, where shift is the
    # largest binary exponent of max|grad| seen so far. It starts at -1073,
    # the exponent of the smallest subnormal 2^-1074, so the first nonzero
    # gradient sets it; a zero gradient leaves it alone; and when it grows by
    # k the moments are rescaled by 2^-k (the second by 2^-2k). Gradients of
    # 2^1000 would overflow Adam's squares without the shift. Steps larger
    # than the locations carry the last bits of every step into the locations.
    rng = make_rng(38)
    lr, b1, b2 = 3.0, 0.9, 0.99
    locs = _locations(rng, 2, 3)
    exponents = (None, -500, 3, -20, None, 40, 500, 1000, 2)
    grads = [np.zeros((2, 3)) if e is None else rng.normal(size=(2, 3)) * 2.0**e for e in exponents]
    ascent = SlicingAscent("vmf", locs, (5.0, 5.0), learning_rate=lr, beta1=b1, beta2=b2)
    x, m, v, shift = locs, np.zeros((2, 3)), np.zeros((2, 3)), -1073
    shifts = []
    for t, grad in enumerate(grads, 1):
        exponent = math.frexp(np.abs(grad).max())[1] if grad.any() else shift
        if exponent > shift:
            k, shift = exponent - shift, exponent
            m, v = m * 2.0**-k, v * 2.0 ** (-2 * k)
        g = np.ldexp(grad, -shift)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        moved = x + lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + 1e-8)
        moved = moved / np.linalg.norm(moved, axis=1, keepdims=True)
        with np.errstate(over="raise", invalid="raise"):
            delta = ascent.step(grad)
        assert np.array_equal(ascent._moments, [m, v]), t
        assert np.array_equal(ascent.locs, moved), t
        assert delta == float(np.linalg.norm(moved - x)), t
        assert ascent._shift == shift, t
        shifts.append(shift)
        x = moved
    assert shifts == [-1073, -499, 4, 4, 4, 41, 501, 1002, 1002]


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
    # a gradient of another shape would broadcast into the moments
    with pytest.raises(ValueError, match="gradient shape mismatch"):
        ascent.step(np.zeros(3))
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
    fd = ascent.fd_gradient(ctx, costs_at(ascent.fd_directions(ctx)))
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
        # the last mixture has a component of weight 0: it never draws (a
        # "dirac" location always does), and its gradient row is exactly 0
        for alphas in (None, [0.2, 0.3, 0.5], [0.5, 0.0, 0.5]):
            k = 1 if alphas is None else 3
            ascent = SlicingAscent(family, _locations(rng, k, 5), (10.0,) * k, alphas)
            thetas, ctx = ascent.draw(64, rng)
            g_theta = 2.0 * (thetas @ a)[:, None] * a
            fd = ascent.fd_gradient(ctx, costs_at(ascent.fd_directions(ctx)))
            idle = ascent.alphas == 0.0
            assert family == "dirac" or not idle[ctx.idx].any()
            for grad in (ascent.pathwise_gradient(ctx, g_theta), fd):
                assert grad.shape == (k, 5)
                assert np.all(grad[idle] == 0.0)
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
                    loc, unit_vector(loc + sign * 1e-4 * basis[:, j]), ctx.thetas[sel]
                )).mean()
                for sign in (1.0, -1.0)
            ]
            partials[j] = (f[0] - f[1]) / (2.0 * 1e-4)
        ambient = basis @ partials
        grad[i] = ascent.alphas[i] * (ambient - loc * float(loc @ ambient))
    return grad


@pytest.mark.parametrize("family, alphas", [
    pytest.param("vmf", None, id="vmf-1"),
    pytest.param("vmf", [0.2, 0.3, 0.5], id="vmf-3"),
    pytest.param("power_spherical", None, id="power_spherical-1"),
    pytest.param("dirac", [0.2, 0.3, 0.5], id="dirac-3"),
    pytest.param("vmf", [0.5, 0.0, 0.5], id="vmf-3-idle"),  # component 1 never draws
])
def test_fd_gradient_makes_one_call_on_every_moved_batch(family, alphas):
    # fd_directions stacks every moved batch in (tangent index, sign) order:
    # each batch has the bits of its own assemble_directions call, and one
    # call on the stack gives fd_gradient what one call per location, tangent
    # index and sign gives, up to the order of the means' sums; d = 2 has a
    # single tangent
    L = 40
    for d in (2, 3, 5, 6):
        rng = make_rng(36)
        a = rng.normal(size=d)

        def costs_at(thetas):
            # row by row, so a row's cost does not depend on the rows beside it
            return np.cos(3.0 * thetas[:, 0]) + ((thetas * a).sum(axis=1)) ** 2

        k = 1 if alphas is None else 3
        ascent = SlicingAscent(family, _locations(rng, k, d), (10.0,) * k, alphas)
        thetas, ctx = ascent.draw(L, rng)
        m = thetas.shape[0]
        assert m == (k if family == "dirac" else L)
        stack = ascent.fd_directions(ctx)
        assert stack.shape == (2 * (d - 1) * m, d)
        moved = stack.reshape(d - 1, 2, m, d)
        for i, loc in enumerate(ascent.locs):
            sel = ctx.idx == i
            basis = tangent_basis(loc)
            for j in range(d - 1):
                for s, sign in enumerate((1.0, -1.0)):
                    at = loc + sign * 1e-4 * basis[:, j]
                    at /= np.linalg.norm(at, axis=-1)  # as fd_directions normalizes
                    assert np.array_equal(moved[j, s, sel],
                                          assemble_directions(loc, at, thetas[sel]))
        grad = ascent.fd_gradient(ctx, costs_at(stack))
        reference = _fd_reference(ascent, ctx, costs_at)
        assert np.abs(grad - reference).max() <= 1e-9 * np.abs(reference).max(), d
        assert np.array_equal(grad[ascent.alphas == 0.0], reference[ascent.alphas == 0.0])


def test_assemble_directions_radial_component():
    # the sampling draw: eps^T theta is the radial coordinate omega
    rng = make_rng(24)
    eps = unit_vector(rng.normal(size=4))
    omega = _vmf_omega(10.0, 4, 200, rng)
    idx = np.zeros(200, dtype=np.intp)
    thetas = _assemble_directions(eps[None, :], idx, omega, _uniform_sphere(3, rng, 200))
    assert np.abs(thetas @ eps - omega).max() <= 1e-12
    assert np.abs(np.linalg.norm(thetas, axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("d", [3, 64, 512])
@pytest.mark.parametrize("k", [1, 4])
def test_assembly_has_the_bits_of_the_per_draw_formula(d, k):
    # the k reflection axes computed once and indexed by component, against
    # h concatenated and each draw's own axis; with k = 4 one location is
    # e_1, which is not reflected
    rng = make_rng(d + k)
    locs = _uniform_sphere(d, rng, k)
    if k > 1:
        locs[-1] = np.eye(d)[0]
    idx = rng.integers(k, size=200)
    omega = _vmf_omega(10.0, d, 200, rng)
    v = _uniform_sphere(d - 1, rng, 200)
    radial = np.sqrt(np.clip(1.0 - omega * omega, 0.0, None))
    h = np.concatenate([omega[:, None], radial[:, None] * v], axis=1)
    u = _pole_gaps(locs[idx])
    expected = h - 2.0 * (h * u).sum(axis=1, keepdims=True) * u
    thetas = _assemble_directions(locs, idx, omega, v)
    assert thetas.dtype == expected.dtype and thetas.shape == expected.shape
    assert thetas.tobytes() == expected.tobytes()


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
    fd = ascent.fd_gradient(ctx, costs_at(ascent.fd_directions(ctx)))
    return pathwise, fd, ascent.alphas[0] * se


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


def _location_gradient(eps, kappa, L, rng, grad_at=None, costs_at=None):
    """The (d,) gradient of one vMF location from one draw of L directions:
    pathwise from ``grad_at`` on the draws, or by finite differences from
    ``costs_at`` on the ``fd_directions`` stack of their moved copies."""
    ascent = SlicingAscent("vmf", [eps], (kappa,))
    thetas, ctx = ascent.draw(L, rng)
    if grad_at is not None:
        return ascent.pathwise_gradient(ctx, grad_at(thetas))[0]
    return ascent.fd_gradient(ctx, costs_at(ascent.fd_directions(ctx)))[0]


def test_constant_objective_gives_zero_gradient_both_methods():
    rng = make_rng(28)
    eps = unit_vector(rng.normal(size=4))
    pathwise = _location_gradient(eps, 5.0, 64, make_rng(1), grad_at=np.zeros_like)
    assert np.abs(pathwise).max() == 0.0
    fd = _location_gradient(eps, 5.0, 64, make_rng(1), costs_at=lambda th: np.full(len(th), 3.25))
    assert np.abs(fd).max() <= 1e-10


def test_fd_gradient_is_tangent():
    rng = make_rng(29)
    for d in (3, 8):
        eps = unit_vector(rng.normal(size=d))
        a = rng.normal(size=d)
        grad = _location_gradient(eps, 10.0, 100, make_rng(2), costs_at=lambda th: (th @ a) ** 2)
        assert abs(float(grad @ eps)) <= 1e-8


def test_pathwise_matches_finite_difference_on_quadratic():
    rng = make_rng(30)
    for d in (3, 8):
        for kappa in (1.0, 10.0, 50.0):
            eps = unit_vector(rng.normal(size=d))
            a = rng.normal(size=d)
            pathwise = _location_gradient(eps, kappa, 2000, make_rng(3),
                                          grad_at=lambda th: 2.0 * np.outer(th @ a, a))
            fd = _location_gradient(eps, kappa, 2000, make_rng(3),
                                    costs_at=lambda th: (th @ a) ** 2)
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
        grad = _location_gradient(eps, 20.0, 200, rng,
                                  grad_at=lambda th, a=a: np.tile(a, (len(th), 1)))
        tangent = grad - eps * float(eps @ grad)
        truth = a - eps * float(a @ eps)
        if float(tangent @ truth) > 0.0:
            wins += 1
    assert wins >= 95


def test_full_ascent_loop_reaches_maximizer():
    # maximize E[a . theta]; the optimum location is a itself
    rng = make_rng(32)
    a = unit_vector(np.array([1.0, 2.0, -0.5, 0.3]))
    ascent = SlicingAscent("vmf", [unit_vector(rng.normal(size=4))], (20.0,), learning_rate=0.05)
    for _ in range(200):
        thetas, ctx = ascent.draw(64, rng)
        ascent.step(ascent.pathwise_gradient(ctx, np.tile(a, (len(thetas), 1))))
    assert float(a @ ascent.locs[0]) > 0.99


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
