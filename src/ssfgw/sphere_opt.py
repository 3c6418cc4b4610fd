"""Sphere-constrained first-order optimization and the one slicing path.

Plain bias-corrected Adam on the ambient coordinates followed by projection
back to S^{d-1} (no Riemannian transport of the moments), and
``SlicingAscent``: the single direction-sampling and location-gradient path
that every engine, the flows and ``estimate_location_gradient`` run through.
It draws directions around k locations of one family (uniform, Dirac, vMF or
power spherical; k > 1 is a mixture), maps objective information to
alpha-weighted tangent gradients of the locations, and takes the projected
Adam step. It checks its own locations, concentrations and weights, so no
caller needs to.

Both gradient estimators move a location eps to eps' by one transport: the
rotation in the plane of eps and eps' that maps eps to eps' carries every
direction drawn around eps. The families are rotation-symmetric about their
location, so the carried draws are draws around eps': a reparameterization
with no frame and no special point.

* Pathwise: the derivative of that transport. The per-sample tangent
  gradient is omega g - (g^T eps) theta, with omega = eps^T theta and g the
  objective's gradient in theta. No score-function term is needed because
  the accepted radial noise is independent of eps.
* FiniteDifference: central differences of the smoothed objective along an
  orthonormal tangent basis at eps, evaluating the carried draws at every
  perturbed location (common random numbers), step 1e-4, assembled in the
  basis.

Both return the tangent (Riemannian) gradient, scaled by the component
weight. Every objective takes a batch: the engines, the flows and
``estimate_location_gradient`` map (m, d) directions to m values (and their
(m, d) gradients), so a pathwise estimate is one objective call on the m
draws, and a finite-difference estimate one call on the 2(d-1) moved batches
stacked, whatever m.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .sampling import (
    Rng,
    _check_concentration,
    _check_directions,
    _check_weights,
    _components,
    _draw_directions,
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


def _check_adam_settings(learning_rate, beta1, beta2):
    """The Adam settings as floats: a finite learning rate > 0 and both betas
    in (0, 1). Raises ValueError otherwise."""
    lr, b1, b2 = float(learning_rate), float(beta1), float(beta2)
    if not lr > 0.0:
        raise ValueError("learning_rate must be positive")
    if not np.isfinite(lr):
        raise ValueError("learning_rate must be finite")
    if not (0.0 < b1 < 1.0 and 0.0 < b2 < 1.0):
        raise ValueError("Adam betas must lie in (0, 1)")
    return lr, b1, b2


def adam_init(shape, learning_rate: float, beta1: float = 0.5, beta2: float = 0.999) -> AdamState:
    """Fresh Adam state with zero moments for a parameter of ``shape``."""
    lr, b1, b2 = _check_adam_settings(learning_rate, beta1, beta2)
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


def reflection_location_grads(eps, thetas, grad_theta) -> np.ndarray:
    """(L, d) per-sample location gradients from (L, d) directions and their
    objective gradients g, at one (d,) location eps or one per direction.
    The rotation of ``assemble_directions`` moves theta by t (eps^T theta) -
    eps (t^T theta) as eps moves along a tangent t, so the gradient is
    omega g - (g^T eps) theta, omega = eps^T theta. Only its tangent part
    counts: it is computed as omega g - (g^T eps)(theta - eps) with
    omega = 1 - ||theta - eps||^2 / 2, which is g itself when theta = eps."""
    eps = np.asarray(eps, dtype=np.float64)
    g = np.asarray(grad_theta, dtype=np.float64)
    offsets = np.asarray(thetas, dtype=np.float64) - eps
    omega = 1.0 - 0.5 * (offsets * offsets).sum(axis=1)
    return omega[:, None] * g - (g * eps).sum(axis=1)[:, None] * offsets


def assemble_directions(eps, moved, thetas) -> np.ndarray:
    """Carry (m, d) directions drawn around ``eps`` to ``moved`` (eps != -moved)
    by the rotation R in their plane with R eps = moved: with w = eps + moved,
    R x = x - (w^T x / (1 + eps^T moved)) w + 2 (eps^T x) moved, which is
    I + K + K^2 / (1 + eps^T moved) for K = moved eps^T - eps moved^T. It acts
    on theta - eps, so theta = eps lands on moved exactly."""
    eps = np.asarray(eps, dtype=np.float64)
    moved = np.asarray(moved, dtype=np.float64)
    w = eps + moved
    offsets = np.asarray(thetas, dtype=np.float64) - eps
    along = (offsets @ w) / (1.0 + float(eps @ moved))
    return moved + offsets - np.outer(along, w) + 2.0 * np.outer(offsets @ eps, moved)


def _tangent(loc, ambient):
    # the Riemannian gradient: the radial part carries no information on the
    # sphere, and Adam's per-coordinate scaling would amplify it into steps
    # that the renormalization cancels
    return ambient - loc * float(loc @ ambient)


class _Draw(NamedTuple):
    """The drawn directions and their component indices (none for "uniform")."""

    idx: np.ndarray
    thetas: np.ndarray


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
        _check_directions(self.locs)
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
        self._shift = 0  # Adam sees gradients times 2^-_shift (see ``step``)

    def draw(self, L: int, rng: Rng):
        """(thetas, ctx): L directions (k for "dirac") and the context that
        ``pathwise_gradient`` / ``fd_gradient`` need; a "uniform" draw's
        component index is empty."""
        if self.family == "uniform":
            thetas, idx = sample_uniform_sphere(self.locs.shape[1], rng, L), np.empty(0, np.int64)
        elif self.family == "dirac":
            thetas, idx = self.locs.copy(), np.arange(self.locs.shape[0])
        else:
            thetas, idx = _draw_directions(self.family, self.locs, self.kappas, self.alphas, L, rng)
        return thetas, _Draw(idx, thetas)

    def pathwise_gradient(self, ctx: _Draw, g_theta) -> np.ndarray:
        """(k, d) alpha-weighted tangent location gradients from the (L, d)
        objective gradients in the drawn directions."""
        grad = np.zeros_like(self.locs)
        if ctx.idx.size == 0:  # "uniform": no location to move
            return grad
        per_sample = reflection_location_grads(self.locs[ctx.idx], ctx.thetas, g_theta)
        for i, sel in _components(ctx.idx, len(self.locs)):
            grad[i] = self.alphas[i] * _tangent(self.locs[i], per_sample[sel].mean(axis=0))
        return grad

    def fd_gradient(self, ctx: _Draw, costs_at) -> np.ndarray:
        """(k, d) alpha-weighted tangent location gradients by central
        differences along a tangent basis of each location. ``costs_at`` maps
        (r, d) directions to r costs; it is called once, on 2(d-1) batches of
        the m drawn directions stacked in the order (tangent index, then +/-
        sign). In each batch every location has moved along its tangent and
        carried its draws there by ``assemble_directions`` (common random
        numbers)."""
        k, d = self.locs.shape
        m = ctx.idx.size
        comps = list(_components(ctx.idx, k))
        bases = [tangent_basis(loc) for loc in self.locs]
        moved = np.empty((2 * (d - 1), m, d))
        for j in range(d - 1):
            for s, sign in enumerate((1.0, -1.0)):
                for i, sel in comps:
                    loc = project_to_sphere(self.locs[i] + sign * _FD_STEP * bases[i][:, j])
                    moved[2 * j + s, sel] = assemble_directions(self.locs[i], loc, ctx.thetas[sel])
        f = costs_at(moved.reshape(-1, d)).reshape(d - 1, 2, m)
        partials = np.empty((k, d - 1))
        for j in range(d - 1):
            for i, sel in comps:
                partials[i, j] = (f[j, 0, sel].mean() - f[j, 1, sel].mean()) / (2.0 * _FD_STEP)
        grad = np.zeros_like(self.locs)
        for i, _ in comps:
            grad[i] = self.alphas[i] * _tangent(self.locs[i], bases[i] @ partials[i])
        return grad

    def step(self, grad) -> float:
        """One projected Adam ascent step; returns how far the locations moved.

        Adam sees the gradient times 2^-shift. When that reaches 2^500 the
        shift grows so that it lands just below 2^400, and the moments are
        rescaled with it (the second by the square). The shift is an exact
        power of two, so Adam's steps are unchanged while its squares stay
        far from overflow and its epsilon negligible, at any cloud scale."""
        g = np.ldexp(grad, -self._shift) if self._shift else grad
        exponent = int(np.frexp(np.abs(g).max(initial=0.0))[1])
        if exponent > 500:
            k = exponent - 400
            self._shift += k
            g = np.ldexp(g, -k)
            self.adam = replace(self.adam, first_moment=np.ldexp(self.adam.first_moment, -k),
                                second_moment=np.ldexp(self.adam.second_moment, -2 * k))
        updated, self.adam = adam_step(self.adam, g, self.locs, ascend=True)
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

    ``objective`` maps (m, d) directions to m values, or to the pair (values,
    (m, d) gradients in the directions) that the pathwise method needs. Like
    the engines' slice batches, it is called once: on the L draws (pathwise),
    or on their 2(d-1) moved copies stacked as ``fd_gradient`` passes them
    (finite differences, m = 2(d-1) L).
    Returns a (d,) tangent vector at eps (both methods project out the
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
    if method is GradientMethod.PATHWISE:
        out = objective(thetas)
        if not isinstance(out, tuple):
            raise ValueError("pathwise estimation needs the objective to return (values, grads)")
        return ascent.pathwise_gradient(ctx, out[1])[0]

    def values_at(directions):
        out = objective(directions)
        return np.asarray(out[0] if isinstance(out, tuple) else out, dtype=np.float64)

    return ascent.fd_gradient(ctx, values_at)[0]
