"""Directional sampling on the unit sphere S^{d-1}.

Samplers for the uniform, von Mises-Fisher (vMF), power spherical (PS), and
mixture-of-vMF distributions, plus the quadrature oracle for the vMF mean
resultant length used by the statistical tests.

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
u = (e_1 - eps)/||e_1 - eps||. At kappa = 0 the vMF rejection step accepts
every proposal and omega is the uniform law's first coordinate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

Rng = np.random.Generator

_UNIT_TOL = 1e-12
_WEIGHT_TOL = 1e-12
_MAX_REJECTION_ROUNDS = 1000


class SamplingError(RuntimeError):
    """A sampler failed to produce a value (rejection cap exceeded)."""


class QuadratureError(RuntimeError):
    """The oracle quadrature did not converge."""


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


def _check_direction(location) -> np.ndarray:
    arr = np.asarray(location, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("direction must be a 1D vector")
    if arr.size < 2:
        raise ValueError("directions live on S^{d-1} with d >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("direction has non-finite entries")
    if abs(float(np.linalg.norm(arr)) - 1.0) > 1e-9:
        raise ValueError("direction is not unit norm; normalize with unit_vector")
    return arr


@dataclass(frozen=True)
class _LocationConcentration:
    """A location on S^{d-1} and a concentration >= 0."""

    location: np.ndarray
    concentration: float

    def __post_init__(self):
        object.__setattr__(self, "location", _check_direction(self.location))
        kappa = float(self.concentration)
        if not math.isfinite(kappa) or kappa < 0.0:
            raise ValueError("concentration must be finite and >= 0")
        object.__setattr__(self, "concentration", kappa)

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
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(comps),):
            raise ValueError("weights length must match number of components")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)

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
    """
    dd = float(d - 1)
    root = math.sqrt(4.0 * kappa * kappa + dd * dd)
    b = dd / (2.0 * kappa + root)
    a = (dd + 2.0 * kappa + root) / 4.0
    mconst = 4.0 * a * b / (1.0 + b) - dd * math.log(dd)
    out = np.empty(m)
    pending = np.arange(m)
    for _ in range(_MAX_REJECTION_ROUNDS):
        k = pending.size
        if k == 0:
            return out
        psi = _beta_draw(dd / 2.0, dd / 2.0, rng, k)
        denom = 1.0 - (1.0 - b) * psi
        omega = (1.0 - (1.0 + b) * psi) / denom
        t = 2.0 * a * b / denom
        u = rng.random(k)
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = dd * np.log(t) - t + mconst >= np.log(u)
        accept &= np.isfinite(omega)
        out[pending[accept]] = omega[accept]
        pending = pending[~accept]
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
    # (u, rho) for the reflection, or (None, 0.0) in the degenerate case.
    w = -location.copy()
    w[0] += 1.0
    rho = float(np.linalg.norm(w))
    if rho < _UNIT_TOL:
        return None, 0.0
    return w / rho, rho


def householder_matrix(location) -> np.ndarray:
    """The reflection U = I - 2uu^T with U e_1 = location (identity when
    location is within 1e-12 of e_1)."""
    eps = np.asarray(location, dtype=np.float64)
    u, _ = _pole_gap(eps)
    if u is None:
        return np.eye(eps.size)
    return np.eye(eps.size) - 2.0 * np.outer(u, u)


def _reflect(location: np.ndarray, h: np.ndarray) -> np.ndarray:
    # Apply the reflection to the rows of h.
    u, _ = _pole_gap(location)
    if u is None:
        return h.copy()
    return h - 2.0 * np.outer(h @ u, u)


def _assemble_directions(location: np.ndarray, omega: np.ndarray, v: np.ndarray):
    """Build pole-frame samples h = (omega, sqrt(1-omega^2) v) and reflect
    them onto ``location``. Returns (thetas, h); h is retained by gradient
    code."""
    radial = np.sqrt(np.clip(1.0 - omega * omega, 0.0, None))
    h = np.concatenate([omega[:, None], radial[:, None] * v], axis=1)
    return _reflect(location, h), h


def _components(idx: np.ndarray, k: int):
    # (component, mask of its directions) for every component that drew any
    for i in range(k):
        sel = idx == i
        if sel.any():
            yield i, sel


def _draw_directions(family: str, locs: np.ndarray, kappas, weights, L: int, rng: Rng):
    """(thetas, idx, omega, v, frames) for L directions from a mixture of one
    family ("vmf" or "power_spherical") around the (k, d) ``locs``, with
    component probabilities ``weights`` (unused when k = 1). ``frames`` are
    the pole-frame samples h that the gradient code pulls back."""
    k, d = locs.shape
    idx = np.zeros(L, dtype=np.int64) if k == 1 else rng.choice(k, size=L, p=weights)
    radial = _vmf_omega if family == "vmf" else _ps_omega
    omega = np.empty(L)
    for i, sel in _components(idx, k):
        omega[sel] = radial(kappas[i], d, int(sel.sum()), rng)
    v = _uniform_sphere(d - 1, rng, L)
    thetas = np.empty((L, d))
    frames = np.empty((L, d))
    for i, sel in _components(idx, k):
        thetas[sel], frames[sel] = _assemble_directions(locs[i], omega[sel], v[sel])
    return thetas, idx, omega, v, frames


# ---------------------------------------------------------------------------
# public samplers
# ---------------------------------------------------------------------------


def _sample(family, comps, weights, rng: Rng, size):
    # (directions, component indices) through the one draw routine; a single
    # draw when size is None
    locs = np.stack([comp.location for comp in comps])
    kappas = [comp.concentration for comp in comps]
    m = 1 if size is None else int(size)
    thetas, idx = _draw_directions(family, locs, kappas, weights, m, rng)[:2]
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


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def vmf_mean_resultant_oracle(kappa: float, d: int) -> float:
    """E[location^T theta] under vMF(kappa) on S^{d-1} by 1D quadrature.

    The omega-density is proportional to e^{kappa omega} (1-omega^2)^{(d-3)/2}
    on [-1, 1]. Substituting omega = cos(phi) removes the endpoint
    singularities: both integrands become smooth on [0, pi], weighted by
    exp(kappa (cos phi - 1)) sin^{d-2}(phi) (the shift by -kappa cancels in
    the ratio and avoids overflow). Interior break points keep the adaptive
    rule from overlooking the concentration spike at large kappa. No Bessel
    functions involved.
    """
    kappa = float(kappa)
    d = int(d)
    if kappa < 0.0 or not math.isfinite(kappa):
        raise ValueError("kappa must be finite and >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")

    power = d - 2

    def weight(phi):
        return math.exp(kappa * (math.cos(phi) - 1.0)) * math.sin(phi) ** power

    def weighted_cos(phi):
        return math.cos(phi) * weight(phi)

    # Beyond ~50/sqrt(kappa) the weight is exp(-1250) of its peak; truncating
    # there keeps the adaptive rule's subdivisions on the spike. The
    # denominator integrand is positive, so a pure relative tolerance works;
    # the numerator integrand changes sign (and is exactly 0 at kappa=0), so
    # it gets an absolute floor scaled by the denominator.
    scale = math.sqrt(max(kappa, 1.0))
    upper = min(math.pi, 50.0 / scale)
    points = [p for p in (5.0 / scale, 25.0 / scale) if p < upper] or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        den, den_err = quad(
            weight, 0.0, upper, points=points, limit=200, epsabs=0.0, epsrel=1e-10
        )
        if den <= 0.0:
            raise QuadratureError(
                f"mean-resultant quadrature collapsed (kappa={kappa}, d={d})"
            )
        num, num_err = quad(
            weighted_cos,
            0.0,
            upper,
            points=points,
            limit=200,
            epsabs=1e-12 * den,
            epsrel=1e-10,
        )
    if den_err > 1e-8 * den or num_err > 1e-8 * den:
        raise QuadratureError(
            f"mean-resultant quadrature did not converge (kappa={kappa}, d={d})"
        )
    return num / den
