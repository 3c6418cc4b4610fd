"""Sphere-constrained first-order optimization and the one slicing path.

Plain bias-corrected Adam on the ambient coordinates followed by projection
back to S^{d-1} (no Riemannian transport of the moments), and
``SlicingAscent``: the single direction-sampling and location-gradient path
that every engine, the flows and ``estimate_location_gradient`` run through.
It draws directions around k locations of one family (uniform, Dirac, vMF or
power spherical; k > 1 is a mixture), maps objective information to
alpha-weighted tangent gradients of the locations, and takes the projected
Adam step. It checks its own locations, concentrations and weights, so no
caller needs to. Two gradient estimators:

* Pathwise: directions are reparameterized as theta = U(eps) h where the
  pole-frame sample h = (omega, sqrt(1-omega^2) v) depends only on noise and
  the (fixed) concentration, and U is the Householder reflection mapping e_1
  to eps. The objective gradient in theta is pulled back through U's
  eps-Jacobian and averaged; no score-function term is needed because the
  accepted radial noise is independent of eps. For a Dirac location the
  direction is the location and the pullback is the identity.
* FiniteDifference: central differences of the smoothed objective along an
  orthonormal tangent basis at eps, replaying the same (omega, v) noise at
  every perturbed location (common random numbers), step 1e-4, assembled in
  the basis.

Both return the tangent (Riemannian) gradient, scaled by the component
weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .sampling import (
    Rng,
    _assemble_directions,
    _check_concentration,
    _check_direction,
    _check_weights,
    _components,
    _draw_directions,
    _pole_gap,
    householder_matrix,
    sample_uniform_sphere,
    unit_vector,
)

# Not called here since the draws moved into sampling._draw_directions; kept
# importable under these names because the benchmark's tracer test pins them.
from .sampling import _ps_omega, _uniform_sphere, _vmf_omega

_FD_STEP = 1e-4


class GradientMethod(Enum):
    """How the location gradient of a smoothed objective is estimated."""

    PATHWISE = "pathwise"
    FINITE_DIFFERENCE = "finite_difference"


@dataclass(frozen=True)
class AdamState:
    """Immutable Adam accumulator; ``adam_step`` returns updated copies."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float
    beta1: float
    beta2: float
    epsilon_stability: float = 1e-8


def adam_init(shape, learning_rate: float, beta1: float = 0.5, beta2: float = 0.999) -> AdamState:
    """Fresh Adam state with zero moments for a parameter of ``shape``."""
    lr = float(learning_rate)
    b1 = float(beta1)
    b2 = float(beta2)
    if lr <= 0.0:
        raise ValueError("learning_rate must be positive")
    if not (0.0 < b1 < 1.0 and 0.0 < b2 < 1.0):
        raise ValueError("Adam betas must lie in (0, 1)")
    zeros = np.zeros(shape, dtype=np.float64)
    return AdamState(zeros, zeros.copy(), 0, lr, b1, b2)


def adam_step(state: AdamState, gradient, current, ascend: bool = True):
    """One bias-corrected Adam update. Returns (updated parameter, new state);
    ``ascend`` adds the step instead of subtracting it. Pure."""
    g = np.asarray(gradient, dtype=np.float64)
    x = np.asarray(current, dtype=np.float64)
    if g.shape != state.first_moment.shape or x.shape != g.shape:
        raise ValueError("gradient/parameter shape mismatch with Adam state")
    t = state.step_count + 1
    m = state.beta1 * state.first_moment + (1.0 - state.beta1) * g
    v = state.beta2 * state.second_moment + (1.0 - state.beta2) * (g * g)
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    delta = state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon_stability)
    updated = x + delta if ascend else x - delta
    new_state = AdamState(
        m, v, t, state.learning_rate, state.beta1, state.beta2, state.epsilon_stability
    )
    return updated, new_state


def project_to_sphere(v) -> np.ndarray:
    """v / ||v|| (``sampling.unit_vector``); rejects near-zero vectors (caller
    must reinitialize)."""
    return unit_vector(v)


def tangent_basis(eps) -> np.ndarray:
    """Orthonormal (d, d-1) basis of the tangent space at eps: columns 2..d of
    the Householder reflection mapping e_1 to eps."""
    return householder_matrix(eps)[:, 1:]


def reflection_location_grads(eps, h, grad_theta) -> np.ndarray:
    """Pull per-sample objective gradients back through the Householder map.

    With w = e_1 - eps, rho = ||w||, u = w/rho and theta = h - 2(u^T h)u, the
    eps-Jacobian transpose applied to g is
        (2/rho) * [ (u^T g)(I - uu^T)h + (u^T h)(I - uu^T)g ].
    ``h`` and ``grad_theta`` are (L, d); returns per-sample (L, d) gradients.
    At eps = e_1 the reflection degenerates to the identity and the gradient
    is taken as zero for those samples.
    """
    u, rho = _pole_gap(np.asarray(eps, dtype=np.float64))
    if u is None:
        return np.zeros_like(np.asarray(grad_theta, dtype=np.float64))
    h = np.asarray(h, dtype=np.float64)
    g = np.asarray(grad_theta, dtype=np.float64)
    uh = h @ u
    ug = g @ u
    h_perp = h - np.outer(uh, u)
    g_perp = g - np.outer(ug, u)
    return (2.0 / rho) * (ug[:, None] * h_perp + uh[:, None] * g_perp)


def assemble_directions(eps, omega, v):
    """Map (omega, v) noise to directions around ``eps``. Returns
    (thetas, pole_frame_samples); the latter feeds the pathwise pullback."""
    return _assemble_directions(np.asarray(eps, dtype=np.float64), omega, v)


def _tangent(loc, ambient):
    # the Riemannian gradient: the radial part carries no information on the
    # sphere, and Adam's per-coordinate scaling would amplify it into steps
    # that the renormalization cancels
    return ambient - loc * float(loc @ ambient)


class _Draw(NamedTuple):
    """Component index of every direction and, for the smoothed families, the
    (omega, v) noise and pole-frame samples that produced it."""

    idx: np.ndarray
    omega: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    frames: Optional[np.ndarray] = None


class SlicingAscent:
    """k slicing locations of one direction family, ascended by projected Adam.

    ``family`` is "uniform" (no locations), "dirac" (each location is a
    direction), "vmf" or "power_spherical" (location of component i drawn
    with concentration ``kappas[i]``, finite and >= 0). ``locs`` is (k, d),
    unit rows; ``alphas`` are mixture weights, uniform by default (1 for each
    "dirac" location). All are validated here. The smoothed families draw
    through ``sampling._draw_directions``, the routine behind the public
    samplers. ``max_sfg``'s restarts are the rows of one "dirac" ascent: they
    share one Adam state and stop together. A "uniform" ascent moves nothing.
    """

    def __init__(self, family, locs, kappas=(), alphas=None,
                 learning_rate=0.001, beta1=0.5, beta2=0.999):
        if family not in ("uniform", "dirac", "vmf", "power_spherical"):
            raise ValueError(f"unknown directional family: {family!r}")
        self.family = family
        self.locs = np.atleast_2d(np.asarray(locs, dtype=np.float64))
        for loc in self.locs:
            _check_direction(loc)
        k = self.locs.shape[0]
        smoothed = family in ("vmf", "power_spherical")
        if smoothed and k < 1:
            raise ValueError("need at least one concentration")
        if smoothed and len(kappas) != k:
            raise ValueError("need one concentration per location")
        self.kappas = [_check_concentration(kappa) for kappa in kappas] if smoothed else []
        default = np.full(k, 1.0 / k) if smoothed else np.ones(k)
        self.alphas = default if alphas is None else _check_weights(alphas, k, "alphas")
        self.adam = adam_init(self.locs.shape, learning_rate, beta1, beta2)

    def draw(self, L: int, rng: Rng):
        """(thetas, ctx): L directions (k for "dirac") and the context that
        ``pathwise_gradient`` / ``fd_gradient`` need; a "uniform" draw's
        component index is empty."""
        if self.family == "uniform":
            return sample_uniform_sphere(self.locs.shape[1], rng, L), _Draw(np.empty(0, np.int64))
        if self.family == "dirac":
            return self.locs.copy(), _Draw(np.arange(self.locs.shape[0]))
        thetas, *ctx = _draw_directions(self.family, self.locs, self.kappas, self.alphas, L, rng)
        return thetas, _Draw(*ctx)

    def pathwise_gradient(self, ctx: _Draw, g_theta) -> np.ndarray:
        """(k, d) alpha-weighted tangent location gradients from the (L, d)
        objective gradients in the drawn directions."""
        grad = np.zeros_like(self.locs)
        for i, sel in _components(ctx.idx, len(self.locs)):
            if self.family == "dirac":
                per_sample = g_theta[sel]
            else:
                per_sample = reflection_location_grads(self.locs[i], ctx.frames[sel], g_theta[sel])
            grad[i] = self.alphas[i] * _tangent(self.locs[i], per_sample.mean(axis=0))
        return grad

    def fd_gradient(self, ctx: _Draw, costs_at) -> np.ndarray:
        """(k, d) alpha-weighted tangent location gradients by central
        differences along a tangent basis of each location. ``costs_at`` maps
        (m, d) directions to m costs; it is called once per tangent index and
        sign, on the drawn directions of every location moved together, and
        the moved locations replay the drawn (omega, v) noise (common random
        numbers)."""
        k, d = self.locs.shape
        comps = list(_components(ctx.idx, k))
        bases = [tangent_basis(loc) for loc in self.locs]
        partials = np.empty((k, d - 1))

        def moved_costs(j, sign):
            # costs of the drawn directions, every location moved along its
            # j-th tangent
            thetas = np.empty((ctx.idx.size, d))
            for i, sel in comps:
                moved = project_to_sphere(self.locs[i] + sign * _FD_STEP * bases[i][:, j])
                thetas[sel] = self._around(moved, ctx, sel)
            return costs_at(thetas)

        for j in range(d - 1):
            f_plus, f_minus = moved_costs(j, 1.0), moved_costs(j, -1.0)
            for i, sel in comps:
                partials[i, j] = (f_plus[sel].mean() - f_minus[sel].mean()) / (2.0 * _FD_STEP)
        grad = np.zeros_like(self.locs)
        for i, _ in comps:
            grad[i] = self.alphas[i] * _tangent(self.locs[i], bases[i] @ partials[i])
        return grad

    def _around(self, loc, ctx: _Draw, sel):
        if self.family == "dirac":
            return loc[None, :]
        return assemble_directions(loc, ctx.omega[sel], ctx.v[sel])[0]

    def step(self, grad) -> float:
        """One projected Adam ascent step; returns how far the locations moved."""
        updated, self.adam = adam_step(self.adam, grad, self.locs, ascend=True)
        updated = updated / np.linalg.norm(updated, axis=1, keepdims=True)
        delta = float(np.linalg.norm(updated - self.locs))
        self.locs = updated
        return delta


def estimate_location_gradient(
    objective,
    eps,
    kappa: float,
    L: int,
    method: GradientMethod,
    rng: Rng,
    family: str = "vmf",
) -> np.ndarray:
    """Monte Carlo estimate of the ambient gradient in the location eps of
    E_{theta ~ family(eps, kappa)}[objective(theta)].

    ``objective`` maps a direction to either a float or a
    ``(value, grad_theta)`` tuple; the pathwise method requires the tuple
    form. Returns a (d,) tangent vector at eps (both methods project out the
    radial component, which carries no information on the sphere). Draws
    and gradients go through ``SlicingAscent`` with one location, which
    validates eps (a unit vector) and kappa (finite, >= 0).
    """
    L = int(L)
    if L < 1:
        raise ValueError("L must be >= 1")
    if family not in ("vmf", "power_spherical"):
        raise ValueError(f"unknown directional family: {family!r}")
    method = GradientMethod(method)
    ascent = SlicingAscent(family, [eps], kappas=(kappa,))
    thetas, ctx = ascent.draw(L, rng)

    def evaluate(theta):
        out = objective(theta)
        return out if isinstance(out, tuple) else (out, None)

    if method is GradientMethod.PATHWISE:
        grads = [evaluate(theta)[1] for theta in thetas]
        if any(g is None for g in grads):
            raise ValueError(
                "pathwise estimation needs the objective to return (value, grad_theta)"
            )
        return ascent.pathwise_gradient(ctx, np.array(grads, dtype=np.float64))[0]
    return ascent.fd_gradient(
        ctx, lambda directions: np.array([float(evaluate(t)[0]) for t in directions])
    )[0]
