"""The sliced fused Gromov-Wasserstein discrepancy family.

* ``sfg``: Monte Carlo average of the 1D fused cost over uniform directions.
* ``max_sfg``: projected Adam ascent of the single-direction cost from R
  starts, ascended together as the rows of one Dirac slicing.
* ``ssfg`` / ``pssfg``: ascent of the vMF- / power-spherical-smoothed cost in
  the slicing location via reparameterized (or finite-difference) gradients.
* ``mssfg``: joint ascent of all locations of a mixture-of-vMF slicing
  distribution; each sample's gradient is routed to the component that drew it
  and scaled by that component's weight. A single-component mixture follows
  the exact ssfg path (identical stream, identical trace).

SSFG, PSSFG and MSSFG differ only in the distribution whose locations they
ascend, and max_sfg is its Dirac limit. So the four ascents and the flows run
one iteration, ``_ascent_step``: draw directions from the
``sphere_opt.SlicingAscent`` that ``_slicing_ascent`` builds for one of the
``KINDS`` (it validates its own parameters), evaluate the slices and pull
their gradients back to the locations; the caller takes the Adam step.
``_engine`` drives the four ascents and draws their final values from the
same ascent. A non-finite ascent objective, location gradient or final value
raises ``DivergenceError`` naming the kind.

The clouds may hold n and m points where one size divides the other; the
engines then compare their quantile functions (``fgw.spread_rows``).

Every engine consumes an explicit ``numpy.random.Generator``; with a shared
seed the direction stream does not depend on argument order, and the per-slice
kernels are exactly swap-symmetric, so each discrepancy is exactly symmetric
in its two clouds. Evaluation inside the engines uses the O(n) delta/s kernels
for r=2 (validated against the O(n^2) reference in the tests, also on
nearly-agreeing clouds) and the direct double sum otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .fgw import FgwConfig, as_point_cloud, common_size, fold_rows, spread_rows, stable_sort_rows
from .sampling import (
    MixtureVmfParams,
    PowerSphericalParams,
    Rng,
    VmfParams,
    _check_direction,
    _sample,
    sample_uniform_sphere,
)
from .sphere_opt import GradientMethod, SlicingAscent

# Not called here since the ascent moved into SlicingAscent; kept importable
# under these names because the benchmark's tracer test pins them.
from .sphere_opt import adam_step, assemble_directions

_CONVERGENCE_TOL = 1e-6

KINDS = ("sfg", "max_sfg", "ssfg", "pssfg", "mssfg")
# the direction family that each ascending kind's SlicingAscent draws from
_FAMILIES = {"max_sfg": "dirac", "ssfg": "vmf", "pssfg": "power_spherical", "mssfg": "vmf"}


class DivergenceError(RuntimeError):
    """A computation produced a non-finite (or runaway) state; ``step`` is the
    ascent iteration or flow step where it was caught."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


# ---------------------------------------------------------------------------
# slicing distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformSlicing:
    """Uniform distribution over projection directions."""


@dataclass(frozen=True)
class DiracSlicing:
    """Point mass on a single projection direction."""

    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", _check_direction(self.direction))


@dataclass(frozen=True)
class VmfSlicing:
    """von Mises-Fisher distributed directions."""

    params: VmfParams


@dataclass(frozen=True)
class PowerSphericalSlicing:
    """Power-spherical distributed directions."""

    params: PowerSphericalParams


@dataclass(frozen=True)
class MixtureVmfSlicing:
    """Mixture-of-vMF distributed directions."""

    params: MixtureVmfParams


SlicingDistribution = Union[
    UniformSlicing, DiracSlicing, VmfSlicing, PowerSphericalSlicing, MixtureVmfSlicing
]


def sample_slicing(slicing: SlicingDistribution, d: int, L: int, rng: Rng) -> np.ndarray:
    """Draw (L, d) directions from a slicing distribution."""
    L = int(L)
    if L < 1:
        raise ValueError("L must be >= 1")
    if isinstance(slicing, UniformSlicing):
        return sample_uniform_sphere(d, rng, size=L)
    if isinstance(slicing, DiracSlicing):
        if slicing.direction.size != d:
            raise ValueError("slicing dimension does not match the clouds")
        return np.tile(slicing.direction, (L, 1))
    if not isinstance(slicing, (VmfSlicing, PowerSphericalSlicing, MixtureVmfSlicing)):
        raise ValueError(f"unknown slicing distribution: {slicing!r}")
    params = slicing.params
    if params.dim != d:
        raise ValueError("slicing dimension does not match the clouds")
    if isinstance(slicing, MixtureVmfSlicing):
        return _sample("vmf", params.components, params.weights, rng, L)[0]
    family = "vmf" if isinstance(slicing, VmfSlicing) else "power_spherical"
    return _sample(family, (params,), None, rng, L)[0]


# ---------------------------------------------------------------------------
# configuration and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the slicing-parameter ascent.

    ``num_projections`` is the Monte Carlo batch per iteration, ``seed`` a
    fallback used only when an engine is called without an explicit generator.
    """

    learning_rate: float = 0.001
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    max_iter: int = 10
    num_projections: int = 50
    gradient_method: GradientMethod = GradientMethod.PATHWISE
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ValueError("Adam betas must lie in (0, 1)")
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be >= 1")
        if int(self.num_projections) < 1:
            raise ValueError("num_projections must be >= 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        object.__setattr__(self, "num_projections", int(self.num_projections))
        object.__setattr__(self, "gradient_method", GradientMethod(self.gradient_method))


@dataclass(frozen=True)
class DiscrepancyReport:
    """Outcome of one discrepancy computation.

    ``trace`` lists (iteration, Monte Carlo objective) per ascent iteration;
    ``value`` is evaluated at the final slicing with a fresh direction batch,
    ``std_error`` its Monte Carlo standard error (0 for deterministic values),
    and ``num_projections_used`` counts every 1D slice evaluation.
    """

    value: float
    final_slicing: SlicingDistribution
    trace: tuple
    num_projections_used: int
    std_error: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValueError("discrepancy value must be finite and >= 0")


# ---------------------------------------------------------------------------
# batched slice evaluation
# ---------------------------------------------------------------------------


def _validate_pair(mu, nu):
    X = as_point_cloud(mu)
    Y = as_point_cloud(nu)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"clouds must share a dimension, got {X.shape[1]} and {Y.shape[1]}"
        )
    common_size(X.shape[0], Y.shape[0])
    return X, Y


def _project_sorted(X, thetas, want_order: bool):
    """Rows of ``thetas @ X.T`` sorted ascending, and the permutation that
    sorts them when ``want_order`` (else None).

    The permutation is the stable one, ties broken by point index
    (``fgw.stable_sort_rows``); it is computed only when gradients are wanted.
    The value-only path sorts values alone, which gives the same rows up to
    the order of tied signed zeros, and so the same costs.
    """
    values = thetas @ X.T
    if not want_order:
        return np.sort(values, axis=1), None
    return stable_sort_rows(values)


def _eval_slices(X, Y, thetas, cfg: FgwConfig, want_grads: bool):
    """Per-direction fused costs, optionally with gradients wrt the original
    (unsorted) cloud rows. Each cloud is sorted at its own size, spread to
    max(n, m) columns for the kernels, and its gradients folded back."""
    use_moments = cfg.exponent == 2
    A, order_x = _project_sorted(X, thetas, want_grads)
    B, order_y = _project_sorted(Y, thetas, want_grads)
    n, m = A.shape[1], B.shape[1]
    A, B = spread_rows(A, max(n, m)), spread_rows(B, max(n, m))
    costs, orients = _kernels.cost_batch(A, B, cfg.beta, cfg.exponent, use_moments)
    if not want_grads:
        return costs, None, None
    GA, GB = _kernels.grad_batch(A, B, cfg.beta, orients, use_moments)
    GA, GB = fold_rows(GA, n), fold_rows(GB, m)
    gx = np.empty_like(GA)
    gy = np.empty_like(GB)
    np.put_along_axis(gx, order_x, GA, axis=1)
    np.put_along_axis(gy, order_y, GB, axis=1)
    return costs, gx, gy


def slice_costs(mu, nu, cfg: FgwConfig, directions) -> np.ndarray:
    """Fused 1D costs of two clouds along given (L, d) directions."""
    X, Y = _validate_pair(mu, nu)
    thetas = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if thetas.shape[1] != X.shape[1]:
        raise ValueError("direction dimension does not match the clouds")
    costs, _, _ = _eval_slices(X, Y, thetas, cfg, want_grads=False)
    return costs


def _mc_std_error(costs: np.ndarray) -> float:
    if costs.size < 2:
        return 0.0
    return float(np.std(costs, ddof=1) / np.sqrt(costs.size))


def _resolve_rng(rng, opt: Optional[OptimizerConfig]) -> Rng:
    if rng is not None:
        return rng
    seed = opt.seed if opt is not None else None
    return np.random.default_rng(seed)


def _check_finite(engine: str, what: str, values, iteration: int) -> None:
    if not np.isfinite(values).all():
        raise DivergenceError(f"{engine}: non-finite {what} (iteration {iteration})", iteration)


def _report(engine, costs, slicing, trace, projections) -> DiscrepancyReport:
    """The Monte Carlo value of ``costs`` as a report; non-finite values raise
    DivergenceError."""
    value = float(costs.mean())
    _check_finite(engine, "final value", value, len(trace))
    return DiscrepancyReport(
        value=float(max(value, 0.0)),
        final_slicing=slicing,
        trace=tuple(trace),
        num_projections_used=int(projections),
        std_error=_mc_std_error(costs),
    )


# ---------------------------------------------------------------------------
# fixed-slicing estimators
# ---------------------------------------------------------------------------


def _expected(engine, X, Y, cfg, slicing, L, rng) -> DiscrepancyReport:
    thetas = sample_slicing(slicing, X.shape[1], L, rng)
    costs, _, _ = _eval_slices(X, Y, thetas, cfg, want_grads=False)
    return _report(engine, costs, slicing, (), L)


def expected_fgw(mu, nu, cfg: FgwConfig, slicing: SlicingDistribution, L: int, rng: Rng) -> DiscrepancyReport:
    """Monte Carlo estimate of the expected fused cost under a fixed slicing
    distribution (no optimization)."""
    X, Y = _validate_pair(mu, nu)
    return _expected("expected_fgw", X, Y, cfg, slicing, L, rng)


def sfg(mu, nu, cfg: FgwConfig, L: int = 50, rng: Optional[Rng] = None) -> DiscrepancyReport:
    """Sliced fused Gromov-Wasserstein: expectation over uniform directions."""
    X, Y = _validate_pair(mu, nu)
    return _expected("sfg", X, Y, cfg, UniformSlicing(), L, _resolve_rng(rng, None))


# ---------------------------------------------------------------------------
# slicing ascents of every kind, shared with the flows
# ---------------------------------------------------------------------------


def _slicing_ascent(kind, d, rng, settings, kappas=(), alphas=None, starts=1):
    """The ``SlicingAscent`` of a kind in dimension d: no locations for sfg,
    ``starts`` uniform directions for max_sfg, one uniform location per
    concentration otherwise. ``settings`` (``OptimizerConfig`` or
    ``FlowObjective``) gives the Adam learning rate and betas."""
    if kind == "sfg":
        return SlicingAscent("uniform", np.empty((0, d)))
    if kind != "max_sfg":
        kappas = np.atleast_1d(np.asarray(kappas, dtype=np.float64))
        starts = len(kappas)
    return SlicingAscent(_FAMILIES[kind], sample_uniform_sphere(d, rng, starts), kappas, alphas,
                         settings.learning_rate, settings.adam_beta1, settings.adam_beta2)


def _ascent_step(engine, X, Y, cfg, ascent: SlicingAscent, L, pathwise, rng, iteration):
    """One iteration of every engine's and flow's ascent: draw L directions,
    evaluate their slices (with point gradients when ``pathwise``) and take
    the location gradient, raising DivergenceError on a non-finite objective
    or gradient. Returns (directions, costs, per-slice gradients wrt the rows
    of X, location gradient); the caller takes the Adam step."""
    thetas, ctx = ascent.draw(L, rng)
    costs, gx, gy = _eval_slices(X, Y, thetas, cfg, want_grads=pathwise)
    _check_finite(engine, "ascent objective", float(costs.mean()), iteration)
    if pathwise:
        grad = ascent.pathwise_gradient(ctx, gx @ X + gy @ Y)
    else:
        grad = ascent.fd_gradient(ctx, lambda t: _eval_slices(X, Y, t, cfg, want_grads=False)[0])
    _check_finite(engine, "location gradient", grad, iteration)
    return thetas, costs, gx, grad


def _engine(kind, mu, nu, cfg, opt, rng, kappas=(), alphas=None, starts=1) -> DiscrepancyReport:
    """Ascend a kind's slicing for up to ``opt.max_iter`` iterations, until the
    locations move less than the convergence tolerance, and report the value
    at the final slicing (for max_sfg, at its first best restart)."""
    opt = opt or OptimizerConfig()
    rng = _resolve_rng(rng, opt)
    X, Y = _validate_pair(mu, nu)
    ascent = _slicing_ascent(kind, X.shape[1], rng, opt, kappas, alphas, starts)
    pathwise = (cfg.exponent == 2 if kind == "max_sfg"
                else opt.gradient_method is GradientMethod.PATHWISE)
    if pathwise and cfg.exponent != 2:
        raise ValueError("pathwise gradients need the r=2 closed form; use FiniteDifference")
    L = opt.num_projections
    history, projections = [], 0
    for it in range(1, opt.max_iter + 1):
        _, costs, _, grad = _ascent_step(kind, X, Y, cfg, ascent, L, pathwise, rng, it)
        history.append(costs)
        # a finite-difference gradient evaluates 2(d-1) moved copies of every slice
        projections += costs.size * (1 if pathwise else 2 * X.shape[1] - 1)
        if ascent.step(grad) < _CONVERGENCE_TOL:
            break
    costs = _eval_slices(X, Y, ascent.draw(L, rng)[0], cfg, want_grads=False)[0]
    projections += costs.size
    locs, kappas = ascent.locs, ascent.kappas
    if kind == "max_sfg":
        # argmax picks a NaN or inf row if there is one, and _report rejects it
        best = int(np.argmax(costs))
        trace = [(it, float(row[best])) for it, row in enumerate(history, 1)]
        return _report(kind, costs[best:best + 1], DiracSlicing(locs[best]), trace, projections)
    trace = [(it, float(row.mean())) for it, row in enumerate(history, 1)]
    comps = tuple(VmfParams(loc, kappa) for loc, kappa in zip(locs, kappas))
    if kind == "mssfg":
        final_slicing = MixtureVmfSlicing(MixtureVmfParams(comps, ascent.alphas))
    elif kind == "ssfg":
        final_slicing = VmfSlicing(comps[0])
    else:
        final_slicing = PowerSphericalSlicing(PowerSphericalParams(locs[0], kappas[0]))
    return _report(kind, costs, final_slicing, trace, projections)


def max_sfg(
    mu,
    nu,
    cfg: FgwConfig,
    opt: Optional[OptimizerConfig] = None,
    rng: Optional[Rng] = None,
    num_restarts: int = 8,
) -> DiscrepancyReport:
    """Largest single-direction fused cost, by projected Adam ascent with
    multi-start: the ``num_restarts`` uniform initializations are the rows of
    one Dirac ``SlicingAscent``, each with weight 1, and they stop together.
    Reports the first restart with the highest final cost and its trace. The
    gradient is pathwise for r=2 and finite-difference otherwise."""
    R = int(num_restarts)
    if R < 1:
        raise ValueError("num_restarts must be >= 1")
    return _engine("max_sfg", mu, nu, cfg, opt, rng, starts=R)


# ---------------------------------------------------------------------------
# smoothed discrepancies: ssfg / pssfg / mssfg
# ---------------------------------------------------------------------------


def ssfg(
    mu,
    nu,
    cfg: FgwConfig,
    kappa: float,
    opt: Optional[OptimizerConfig] = None,
    rng: Optional[Rng] = None,
) -> DiscrepancyReport:
    """Spherical SFG: ascends the location of a vMF(eps, kappa) slicing
    distribution and reports the smoothed objective at the optimum."""
    return _engine("ssfg", mu, nu, cfg, opt, rng, [kappa])


def pssfg(
    mu,
    nu,
    cfg: FgwConfig,
    kappa: float,
    opt: Optional[OptimizerConfig] = None,
    rng: Optional[Rng] = None,
) -> DiscrepancyReport:
    """Power spherical SFG: ssfg with the rejection-free PS sampler."""
    return _engine("pssfg", mu, nu, cfg, opt, rng, [kappa])


def mssfg(
    mu,
    nu,
    cfg: FgwConfig,
    kappas,
    alphas=None,
    opt: Optional[OptimizerConfig] = None,
    rng: Optional[Rng] = None,
) -> DiscrepancyReport:
    """Mixture spherical SFG: jointly ascends all k vMF locations; sample
    gradients are routed by the drawing component and scaled by its weight."""
    return _engine("mssfg", mu, nu, cfg, opt, rng, kappas, alphas)
