"""Directional sampling on the unit sphere S^{d-1}.

Samplers for the uniform, von Mises-Fisher (vMF), power spherical (PS), and
mixture-of-vMF distributions.

All randomness flows through an explicit ``numpy.random.Generator`` (no global
state). Every public sampler accepts an optional ``size`` for batched draws;
``size=None`` returns a single direction. Identical seeds give bit-identical
streams.

The non-uniform samplers and every slicing ascent draw through one routine,
``_draw_directions``. In this order it draws the component indices (only for
mixtures of k > 1), the radial coordinates omega = eps^T theta component by
component, and one uniform tangent direction v on S^{d-2} per sample; it then
assembles h = (omega, sqrt(1-omega^2) v) around the first axis and maps e_1 to
each location eps with the Householder reflection U = I - 2 u u^T,
u = (e_1 - eps)/||e_1 - eps||. The reflection only samples: no location
gradient differentiates through it.

The vMF radial coordinates come from Wood's rejection sampler. Each round
proposes about 5/3 of the pending count plus 8 and keeps the first accepted
proposals in proposal order, so a call almost always takes one round; the
surplus proposals are discarded. At kappa = 0 every proposal is accepted, a
round proposes exactly the pending count, and omega is the uniform law's
first coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Rng = np.random.Generator

_UNIT_TOL = 1e-12
_WEIGHT_TOL = 1e-12
_MAX_REJECTION_ROUNDS = 1000


class SamplingError(RuntimeError):
    """A sampler failed to produce a value (rejection cap exceeded)."""


def make_rng(seed=None) -> Rng:
    """Construct the generator threaded through all sampling calls."""
    return np.random.default_rng(seed)


def unit_vector(v) -> np.ndarray:
    """Normalize ``v`` to unit Euclidean norm (error on near-zero input)."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1D vector")
    norm = float(np.linalg.norm(arr))
    if norm <= _UNIT_TOL:
        raise ValueError("cannot normalize a vector with norm <= 1e-12")
    return arr / norm


def _check_directions(rows) -> np.ndarray:
    # every row of an (L, d) array: d >= 2, finite, unit norm within 1e-9
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("directions must be a 2D (L, d) array")
    if arr.shape[1] < 2:
        raise ValueError("directions live on S^{d-1} with d >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("direction has non-finite entries")
    if np.any(np.abs(np.linalg.norm(arr, axis=1) - 1.0) > 1e-9):
        raise ValueError("direction is not unit norm; normalize with unit_vector")
    return arr


def _check_direction(location) -> np.ndarray:
    arr = np.asarray(location, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("direction must be a 1D vector")
    return _check_directions(arr[None, :])[0]


def _check_concentration(kappa) -> float:
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa < 0.0:
        raise ValueError("concentration must be finite and >= 0")
    return kappa


def _check_weights(weights, k: int, name: str = "weights") -> np.ndarray:
    # k mixture weights: finite, nonnegative and summing to 1 within 1e-12
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (k,):
        raise ValueError(f"{name} length must match the number of components")
    if not np.isfinite(w).all() or np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"{name} must be finite, nonnegative and sum to 1 within 1e-12")
    return w


@dataclass(frozen=True)
class _LocationConcentration:
    """A location on S^{d-1} and a concentration >= 0."""

    location: np.ndarray
    concentration: float

    def __post_init__(self):
        object.__setattr__(self, "location", _check_direction(self.location))
        object.__setattr__(self, "concentration", _check_concentration(self.concentration))

    @property
    def dim(self) -> int:
        return self.location.size


@dataclass(frozen=True)
class VmfParams(_LocationConcentration):
    """Location and concentration of a von Mises-Fisher distribution."""


@dataclass(frozen=True)
class PowerSphericalParams(_LocationConcentration):
    """Location and concentration of a power spherical distribution."""


@dataclass(frozen=True)
class MixtureVmfParams:
    """Weighted mixture of vMF components on a common sphere."""

    components: tuple
    weights: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        for comp in comps:
            if not isinstance(comp, VmfParams):
                raise ValueError("mixture components must be VmfParams")
        dims = {comp.dim for comp in comps}
        if len(dims) != 1:
            raise ValueError("mixture components must share one dimension")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", _check_weights(self.weights, len(comps)))

    @property
    def dim(self) -> int:
        return self.components[0].dim


# ---------------------------------------------------------------------------
# uniform sphere
# ---------------------------------------------------------------------------


def _uniform_sphere(d: int, rng: Rng, size) -> np.ndarray:
    # Internal variant that allows d=1 (S^0 = {-1, +1}); used for the tangent
    # component of d=2 directional draws.
    single = size is None
    m = 1 if single else int(size)
    x = rng.standard_normal((m, d))
    norms = np.linalg.norm(x, axis=1)
    # Redraw rows whose norm underflows; astronomically rare but keeps the
    # unit-norm contract unconditional.
    bad = norms < 1e-154
    while bad.any():
        x[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(x[bad], axis=1)
        bad = norms < 1e-154
    x /= norms[:, None]
    return x[0] if single else x


def sample_uniform_sphere(d: int, rng: Rng, size=None) -> np.ndarray:
    """Uniform draw(s) on S^{d-1}, d >= 2."""
    if int(d) < 2:
        raise ValueError("uniform sphere sampling requires d >= 2")
    return _uniform_sphere(int(d), rng, size)


# ---------------------------------------------------------------------------
# radial (omega) draws
# ---------------------------------------------------------------------------


def _beta_draw(alpha: float, beta: float, rng: Rng, m: int) -> np.ndarray:
    # Beta via the two-Gamma construction (numpy's standard_gamma implements
    # the Marsaglia-Tsang generator).
    g1 = rng.standard_gamma(alpha, m)
    g2 = rng.standard_gamma(beta, m)
    return g1 / (g1 + g2)


def _vmf_omega(kappa: float, d: int, m: int, rng: Rng) -> np.ndarray:
    """Radial coordinate draws for vMF(e_1, kappa) on S^{d-1} by rejection.

    Proposal constants (dd = d-1, R = sqrt(4 kappa^2 + dd^2)):
        b = dd / (2 kappa + R)        (rationalized form of (-2k + R)/dd)
        a = (dd + 2 kappa + R) / 4
        mconst = 4ab/(1+b) - dd log dd
    A proposal psi ~ Beta(dd/2, dd/2) maps to omega and is accepted when
    dd*log(t) - t + mconst >= log(u), t = 2ab / (1 - (1-b) psi).

    Accepted proposals are i.i.d. draws from the target, so a round may
    propose more than it needs and keep the first accepted ones in proposal
    order. With kappa > 0 a round proposes pending * 5/3 + 8: acceptance is
    at least about 0.65 (its minimum is at d = 2, kappa -> inf), so one round
    almost always suffices. At kappa = 0 every proposal is accepted and a
    round proposes exactly the pending count.
    """
    dd = float(d - 1)
    root = math.sqrt(4.0 * kappa * kappa + dd * dd)
    b = dd / (2.0 * kappa + root)
    a = (dd + 2.0 * kappa + root) / 4.0
    mconst = 4.0 * a * b / (1.0 + b) - dd * math.log(dd)
    out = np.empty(m)
    filled = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        pending = m - filled
        if pending == 0:
            return out
        k = pending * 5 // 3 + 8 if kappa > 0.0 else pending
        psi = _beta_draw(dd / 2.0, dd / 2.0, rng, k)
        denom = 1.0 - (1.0 - b) * psi
        omega = (1.0 - (1.0 + b) * psi) / denom
        t = 2.0 * a * b / denom
        u = rng.random(k)
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = dd * np.log(t) - t + mconst >= np.log(u)
        accept &= np.isfinite(omega)
        kept = omega[accept][:pending]
        out[filled:filled + kept.size] = kept
        filled += kept.size
    raise SamplingError(
        f"vMF rejection sampler exceeded {_MAX_REJECTION_ROUNDS} proposals per "
        f"sample (kappa={kappa}, d={d}); parameters or implementation corrupt"
    )


def _ps_omega(kappa: float, d: int, m: int, rng: Rng) -> np.ndarray:
    """Radial draws for the power spherical law: omega = 2z - 1 with
    z ~ Beta((d-1)/2 + kappa, (d-1)/2). No rejection loop."""
    dd = float(d - 1)
    z = _beta_draw(dd / 2.0 + kappa, dd / 2.0, rng, m)
    return 2.0 * z - 1.0


# ---------------------------------------------------------------------------
# Householder assembly
# ---------------------------------------------------------------------------


def _pole_gap(location: np.ndarray):
    # the unit axis u of the reflection, or None within 1e-12 of e_1
    w = -location.copy()
    w[0] += 1.0
    rho = float(np.linalg.norm(w))
    return None if rho < _UNIT_TOL else w / rho


def householder_matrix(location) -> np.ndarray:
    """The reflection U = I - 2uu^T with U e_1 = location (identity when
    location is within 1e-12 of e_1)."""
    eps = np.asarray(location, dtype=np.float64)
    u = _pole_gap(eps)
    if u is None:
        return np.eye(eps.size)
    return np.eye(eps.size) - 2.0 * np.outer(u, u)


def _assemble_directions(location: np.ndarray, omega: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Build pole-frame samples h = (omega, sqrt(1-omega^2) v) and reflect
    them onto ``location``."""
    radial = np.sqrt(np.clip(1.0 - omega * omega, 0.0, None))
    h = np.concatenate([omega[:, None], radial[:, None] * v], axis=1)
    u = _pole_gap(location)
    if u is None:
        return h
    return h - 2.0 * np.outer(h @ u, u)


def _components(idx: np.ndarray, k: int):
    # (component, mask of its directions) for every component that drew any
    for i in range(k):
        sel = idx == i
        if sel.any():
            yield i, sel


def _draw_directions(family: str, locs: np.ndarray, kappas, weights, L: int, rng: Rng):
    """(thetas, idx): L directions from a mixture of one family ("vmf" or
    "power_spherical") around the (k, d) ``locs``, with component
    probabilities ``weights`` (unused when k = 1), and their component
    indices. The location gradients use the directions, not the noise."""
    k, d = locs.shape
    idx = np.zeros(L, dtype=np.int64) if k == 1 else rng.choice(k, size=L, p=weights)
    radial = _vmf_omega if family == "vmf" else _ps_omega
    omega = np.empty(L)
    for i, sel in _components(idx, k):
        omega[sel] = radial(kappas[i], d, int(sel.sum()), rng)
    v = _uniform_sphere(d - 1, rng, L)
    thetas = np.empty((L, d))
    for i, sel in _components(idx, k):
        thetas[sel] = _assemble_directions(locs[i], omega[sel], v[sel])
    return thetas, idx


# ---------------------------------------------------------------------------
# public samplers
# ---------------------------------------------------------------------------


def _sample(family, comps, weights, rng: Rng, size):
    # (directions, component indices) through the one draw routine; a single
    # draw when size is None
    locs = np.stack([comp.location for comp in comps])
    kappas = [comp.concentration for comp in comps]
    m = 1 if size is None else int(size)
    thetas, idx = _draw_directions(family, locs, kappas, weights, m, rng)
    return (thetas[0], int(idx[0])) if size is None else (thetas, idx)


def sample_vmf(params: VmfParams, rng: Rng, size=None) -> np.ndarray:
    """Draw from vMF(location, concentration) on S^{d-1}: the radial
    coordinates first, then the tangent directions."""
    return _sample("vmf", (params,), None, rng, size)[0]


def sample_power_spherical(params: PowerSphericalParams, rng: Rng, size=None) -> np.ndarray:
    """Draw from the power spherical law, density proportional to
    (1 + location^T x)^concentration."""
    return _sample("power_spherical", (params,), None, rng, size)[0]


def sample_mixture_vmf(params: MixtureVmfParams, rng: Rng, size=None):
    """Draw (direction, component_index) from a mixture of vMF components.

    The generator gives the component indices, then the radial coordinates
    component by component in index order, then the tangent directions of the
    whole batch. A single-component mixture skips the categorical draw, so
    its stream is identical to ``sample_vmf`` under a shared seed.
    """
    return _sample("vmf", params.components, params.weights, rng, size)
