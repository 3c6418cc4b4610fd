"""The sliced fused Gromov-Wasserstein discrepancy family.

* ``sfg``: Monte Carlo average of the 1D fused cost over uniform directions.
* ``max_sfg``: projected Adam ascent of the single-direction cost, multi-start.
* ``ssfg`` / ``pssfg``: ascent of the vMF- / power-spherical-smoothed cost in
  the slicing location via reparameterized (or finite-difference) gradients.
* ``mssfg``: joint ascent of all locations of a mixture-of-vMF slicing
  distribution; each sample's gradient is routed to the component that drew it
  and scaled by that component's weight. A single-component mixture follows
  the exact ssfg path (identical stream, identical trace).

All four ascents draw directions and step their locations through
``sphere_opt.SlicingAscent``, and the smoothed engines draw their final
values with it too. A non-finite ascent objective, location
gradient or final value raises ``DivergenceError`` naming the engine.

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
    sample_mixture_vmf,
    sample_power_spherical,
    sample_uniform_sphere,
    sample_vmf,
)
from .sphere_opt import GradientMethod, SlicingAscent

# Not called here since the ascent moved into SlicingAscent; kept importable
# under these names because the benchmark's tracer test pins them.
from .sphere_opt import adam_step, assemble_directions

_CONVERGENCE_TOL = 1e-6


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
    if isinstance(slicing, VmfSlicing):
        return sample_vmf(params, rng, size=L)
    if isinstance(slicing, PowerSphericalSlicing):
        return sample_power_spherical(params, rng, size=L)
    return sample_mixture_vmf(params, rng, size=L)[0]


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
# slicing ascent shared by max_sfg, ssfg, pssfg and mssfg
# ---------------------------------------------------------------------------


def _ascend(engine, X, Y, cfg, ascent: SlicingAscent, opt, L, pathwise, rng):
    """Ascend the slicing locations for up to ``opt.max_iter`` iterations, until
    they move less than the convergence tolerance. Returns (trace,
    projections used)."""
    d = X.shape[1]
    trace = []
    projections = 0

    def costs_at(thetas):
        return _eval_slices(X, Y, thetas, cfg, want_grads=False)[0]

    for it in range(1, opt.max_iter + 1):
        thetas, ctx = ascent.draw(L, rng)
        costs, gx, gy = _eval_slices(X, Y, thetas, cfg, want_grads=pathwise)
        value = float(costs.mean())
        _check_finite(engine, "ascent objective", value, it)
        trace.append((it, value))
        projections += thetas.shape[0]
        if pathwise:
            grad = ascent.pathwise_gradient(ctx, gx @ X + gy @ Y)
        else:
            grad = ascent.fd_gradient(ctx, costs_at)
            projections += 2 * (d - 1) * thetas.shape[0]
        _check_finite(engine, "location gradient", grad, it)
        if ascent.step(grad) < _CONVERGENCE_TOL:
            break
    return trace, projections


def max_sfg(
    mu,
    nu,
    cfg: FgwConfig,
    opt: Optional[OptimizerConfig] = None,
    rng: Optional[Rng] = None,
    num_restarts: int = 8,
) -> DiscrepancyReport:
    """Largest single-direction fused cost, by projected Adam ascent with
    multi-start (best of ``num_restarts`` uniform initializations). The
    gradient is pathwise for r=2 and finite-difference otherwise."""
    opt = opt or OptimizerConfig()
    rng = _resolve_rng(rng, opt)
    X, Y = _validate_pair(mu, nu)
    if int(num_restarts) < 1:
        raise ValueError("num_restarts must be >= 1")
    best = None
    projections = 0
    for _ in range(int(num_restarts)):
        ascent = SlicingAscent(
            "dirac",
            sample_uniform_sphere(X.shape[1], rng),
            learning_rate=opt.learning_rate,
            beta1=opt.adam_beta1,
            beta2=opt.adam_beta2,
        )
        trace, used = _ascend("max_sfg", X, Y, cfg, ascent, opt, 1, cfg.exponent == 2, rng)
        costs, _, _ = _eval_slices(X, Y, ascent.locs, cfg, want_grads=False)
        _check_finite("max_sfg", "final value", costs, len(trace))
        projections += used + 1
        if best is None or costs[0] > best[0][0]:
            best = (costs, ascent.locs[0], trace)
    costs, theta, trace = best
    return _report("max_sfg", costs, DiracSlicing(theta), trace, projections)


# ---------------------------------------------------------------------------
# smoothed discrepancies: ssfg / pssfg / mssfg
# ---------------------------------------------------------------------------


def _mixture(kappas, alphas):
    """Validated concentrations (a list) and weights (uniform by default)."""
    kappas = [float(kappa) for kappa in np.atleast_1d(np.asarray(kappas, dtype=np.float64))]
    if len(kappas) < 1:
        raise ValueError("need at least one concentration")
    if any(kappa < 0.0 for kappa in kappas):
        raise ValueError("concentrations must be >= 0")
    k = len(kappas)
    if alphas is None:
        alphas = np.full(k, 1.0 / k)
    else:
        alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.shape != (k,):
        raise ValueError("alphas length must match the number of concentrations")
    if np.any(alphas < 0.0) or abs(float(alphas.sum()) - 1.0) > 1e-12:
        raise ValueError("alphas must be nonnegative and sum to 1 within 1e-12")
    return kappas, alphas


def _smoothed_engine(engine, family, mu, nu, cfg, kappas, alphas, opt, rng):
    opt = opt or OptimizerConfig()
    rng = _resolve_rng(rng, opt)
    X, Y = _validate_pair(mu, nu)
    kappas, alphas = _mixture(kappas, alphas)
    d = X.shape[1]
    L = opt.num_projections
    pathwise = opt.gradient_method is GradientMethod.PATHWISE
    if pathwise and cfg.exponent != 2:
        raise ValueError(
            "pathwise gradients need the r=2 closed form; use FiniteDifference"
        )
    ascent = SlicingAscent(
        family,
        np.stack([sample_uniform_sphere(d, rng) for _ in kappas]),
        kappas,
        alphas,
        opt.learning_rate,
        opt.adam_beta1,
        opt.adam_beta2,
    )
    trace, projections = _ascend(engine, X, Y, cfg, ascent, opt, L, pathwise, rng)
    comps = tuple(VmfParams(loc, kappa) for loc, kappa in zip(ascent.locs, kappas))
    if engine == "mssfg":
        final_slicing = MixtureVmfSlicing(MixtureVmfParams(comps, alphas))
    elif family == "vmf":
        final_slicing = VmfSlicing(comps[0])
    else:
        final_slicing = PowerSphericalSlicing(PowerSphericalParams(ascent.locs[0], kappas[0]))
    final_costs, _, _ = _eval_slices(X, Y, ascent.draw(L, rng)[0], cfg, want_grads=False)
    return _report(engine, final_costs, final_slicing, trace, projections + L)


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
    return _smoothed_engine("ssfg", "vmf", mu, nu, cfg, [kappa], None, opt, rng)


def pssfg(
    mu,
    nu,
    cfg: FgwConfig,
    kappa: float,
    opt: Optional[OptimizerConfig] = None,
    rng: Optional[Rng] = None,
) -> DiscrepancyReport:
    """Power spherical SFG: ssfg with the rejection-free PS sampler."""
    return _smoothed_engine("pssfg", "power_spherical", mu, nu, cfg, [kappa], None, opt, rng)


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
    return _smoothed_engine("mssfg", "vmf", mu, nu, cfg, kappas, alphas, opt, rng)
