"""Sphere-constrained first-order optimization and the one slicing path.

``SlicingAscent`` is the single direction-sampling and location-gradient
path: every engine and flow iteration, ``discrepancies._ascent_step``, runs
through it. It draws directions around k locations of one family (uniform,
Dirac, vMF or power spherical; k > 1 is a mixture), maps objective
information to alpha-weighted tangent gradients of the locations, and takes
the projected Adam step: plain bias-corrected Adam on the ambient
coordinates (``adam_step``) followed by projection back to S^{d-1}, with no
Riemannian transport of the moments. The ascent holds its own Adam state and
updates it in place. It checks its own locations, concentrations, weights
and Adam settings, so no caller needs to.

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
weight, and take one pass over the draws of every component: each row is the
mean over its component's draws, 0 for a component that drew nothing. Both
take data, not callbacks: ``pathwise_gradient`` takes the objective's
gradients at the m draws, and ``fd_gradient`` its values on the stack of moved
draws that ``fd_directions`` hands out. So the engines and the flows
evaluate either in one batch call, and any batched objective on directions
can use the same four methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .sampling import (
    Rng,
    _check_concentration,
    _check_directions,
    _check_weights,
    _draw_directions,
    householder_matrix,
    sample_uniform_sphere,
)

# Not called here since the draws moved into sampling._draw_directions; kept
# importable under these names because the benchmark's tracer test pins them.
from .sampling import _ps_omega, _uniform_sphere, _vmf_omega

_FD_STEP = 1e-4
_ADAM_EPSILON = 1e-8  # added to Adam's root second moment
_TINIEST = np.finfo(np.float64).smallest_subnormal  # 2^-1074, binary exponent -1073


class GradientMethod(Enum):
    """How the location gradient of a smoothed objective is estimated."""

    PATHWISE = "pathwise"
    FINITE_DIFFERENCE = "finite_difference"


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


def adam_step(moments, gradient, step, learning_rate, beta1, beta2) -> np.ndarray:
    """One bias-corrected Adam update at step count ``step`` (1 first).
    Updates ``moments``, the stacked first and second moments of the
    gradient's shape, in place and returns the step to add to the parameter.
    ``SlicingAscent.step`` is its caller; the package does not export it."""
    g = np.asarray(gradient, dtype=np.float64)
    if g.shape != moments.shape[1:]:
        raise ValueError("gradient shape mismatch with the Adam moments")
    m, v = moments
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    return learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)


def tangent_basis(eps) -> np.ndarray:
    """Orthonormal (d, d-1) basis of the tangent space at eps: columns 2..d of
    the Householder reflection mapping e_1 to eps ((k, d, d-1) for k rows)."""
    return householder_matrix(eps)[..., 1:]


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
    on theta - eps, so theta = eps lands on moved exactly. ``eps`` and ``moved``
    may also give one row per direction, with leading axes that broadcast: each
    row is carried by its own arithmetic, whatever is stacked beside it."""
    eps = np.asarray(eps, dtype=np.float64)
    moved = np.asarray(moved, dtype=np.float64)
    w = eps + moved
    offsets = np.asarray(thetas, dtype=np.float64) - eps
    along = (offsets * w).sum(axis=-1, keepdims=True) / (1.0 + (eps * moved).sum(axis=-1, keepdims=True))
    return moved + offsets - along * w + 2.0 * (offsets * eps).sum(axis=-1, keepdims=True) * moved


def _tangent(locs, ambient):
    # the Riemannian gradients, row by row: the radial part carries no
    # information on the sphere, and Adam's per-coordinate scaling would
    # amplify it into steps that the renormalization cancels
    return ambient - locs * (locs * ambient).sum(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class _Draw:
    """Drawn directions, their component indices (none for "uniform") and locations."""

    idx: np.ndarray
    thetas: np.ndarray
    locs: np.ndarray

    @cached_property
    def bases(self) -> np.ndarray:
        # (k, d, d-1): the tangent basis at every location
        return tangent_basis(self.locs)

    @cached_property
    def means(self) -> np.ndarray:
        # (m, k): the weight of every draw in its component's mean; a
        # component that drew nothing has weight 0 everywhere
        onehot = self.idx[:, None] == np.arange(len(self.locs))
        return onehot / np.maximum(onehot.sum(axis=0), 1)


class SlicingAscent:
    """k slicing locations of one direction family, ascended by projected Adam.

    ``family`` is "uniform" (no locations), "dirac" (each location is a
    direction), "vmf" or "power_spherical" (location of component i drawn
    with concentration ``kappas[i]``, finite and >= 0). ``locs`` is (k, d),
    unit rows; ``alphas`` are mixture weights, uniform by default (1 for each
    "dirac" location); ``learning_rate``, ``beta1`` and ``beta2`` are Adam's
    settings. All are validated here. The ascent is its own Adam state: one
    (2, k, d) array of first and second moments and a step count, which
    ``step`` updates in place. The smoothed families draw through
    ``sampling._draw_directions``, the routine behind the public samplers.
    ``max_sfg``'s restarts are the rows of one "dirac" ascent: they share one
    Adam state and stop together. A "uniform" ascent moves nothing.
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
        self._adam = _check_adam_settings(learning_rate, beta1, beta2)
        self._moments = np.zeros((2, *self.locs.shape))
        self._steps = 0
        self._shift = int(np.frexp(_TINIEST)[1])  # Adam sees gradients times 2^-_shift (``step``)

    def draw(self, L: int, rng: Rng):
        """(thetas, ctx): L directions (k for "dirac") and the context that
        ``pathwise_gradient``, ``fd_directions`` and ``fd_gradient`` take; a
        "uniform" draw's component index is empty."""
        if self.family == "uniform":
            thetas, idx = sample_uniform_sphere(self.locs.shape[1], rng, L), np.empty(0, np.int64)
        elif self.family == "dirac":
            thetas, idx = self.locs.copy(), np.arange(self.locs.shape[0])
        else:
            thetas, idx = _draw_directions(self.family, self.locs, self.kappas, self.alphas, L, rng)
        return thetas, _Draw(idx, thetas, self.locs)

    def pathwise_gradient(self, ctx: _Draw, g_theta) -> np.ndarray:
        """(k, d) alpha-weighted tangent location gradients from the (L, d)
        objective gradients in the drawn directions."""
        if ctx.idx.size == 0:  # "uniform": no location to move
            return np.zeros_like(self.locs)
        per_sample = reflection_location_grads(self.locs[ctx.idx], ctx.thetas, g_theta)
        return self.alphas[:, None] * _tangent(self.locs, ctx.means.T @ per_sample)

    def fd_directions(self, ctx: _Draw) -> np.ndarray:
        """(2(d-1) m, d): 2(d-1) batches of the m draws stacked in the order
        (tangent index, then +/- sign). In each batch every location has moved
        along its tangent and carried its draws there by
        ``assemble_directions`` (common random numbers)."""
        tangents = np.moveaxis(ctx.bases, -1, 0)  # (d-1, k, d)
        targets = self.locs + _FD_STEP * np.stack([tangents, -tangents], axis=1)
        targets /= np.linalg.norm(targets, axis=-1, keepdims=True)
        moved = assemble_directions(self.locs[ctx.idx], targets[:, :, ctx.idx], ctx.thetas)
        return moved.reshape(-1, self.locs.shape[1])

    def fd_gradient(self, ctx: _Draw, costs) -> np.ndarray:
        """(k, d) alpha-weighted tangent location gradients by central
        differences, from the costs of the ``fd_directions`` stack in its order."""
        f = np.asarray(costs, dtype=np.float64).reshape(-1, 2, ctx.idx.size)
        partials = (f[:, 0] - f[:, 1]) @ ctx.means / (2.0 * _FD_STEP)  # (d-1, k)
        ambient = np.einsum("kij,jk->ki", ctx.bases, partials)
        return self.alphas[:, None] * _tangent(self.locs, ambient)

    def step(self, grad) -> float:
        """One projected Adam ascent step on the (k, d) location gradient
        ``grad``: ``adam_step`` updates the moments in place, the step is added
        to the locations and every row is renormalized. Returns how far the
        locations moved.

        Adam sees the gradient times 2^-shift, shift being the largest binary
        exponent of max|grad| so far (from below every finite double's; a zero
        gradient keeps it). When it grows by k the moments are rescaled in
        place by 2^-k and 2^-2k. So Adam's squares stay below 1, its epsilon
        is relative to the largest gradient seen, and every ascent is exactly
        invariant under power-of-two scaling of the clouds."""
        exponent = int(np.frexp(np.abs(grad).max(initial=_TINIEST))[1])
        if exponent > self._shift:
            for power, moment in enumerate(self._moments, 1):
                np.ldexp(moment, power * (self._shift - exponent), out=moment)
            self._shift = exponent
        self._steps += 1
        updated = self.locs + adam_step(self._moments, np.ldexp(grad, -self._shift), self._steps,
                                        *self._adam)
        updated = updated / np.linalg.norm(updated, axis=1, keepdims=True)
        delta = float(np.linalg.norm(updated - self.locs))
        self.locs = updated
        return delta
