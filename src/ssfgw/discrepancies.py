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
``_engine`` drives the four ascents, with pathwise location gradients iff r=2
and ``OptimizerConfig.gradient_method`` is pathwise and finite differences
otherwise, and draws their final values from the same ascent. A non-finite
ascent objective, location gradient or final value raises ``DivergenceError``
naming the kind.

The clouds may hold n and m points where one size divides the other; the
engines then compare their quantile functions (``fgw.spread_rows``).

Every engine consumes an explicit ``numpy.random.Generator``; with a shared
seed the direction stream does not depend on argument order, and the per-slice
kernels are exactly swap-symmetric, so each discrepancy is exactly symmetric
in its two clouds. Evaluation inside the engines uses the O(n) delta/s kernels
for r=2 (validated against the O(n^2) reference in the tests, also on
nearly-agreeing clouds) and the direct double sum otherwise.

Every slice batch goes through ``_eval_slices``: one projection product per
cloud and L-row batch, then sorting, kernels and the gradient scatter in row
blocks of about ``_SLICE_BLOCK_ENTRIES`` entries, so that large batches (n in
the thousands) reuse cache-sized temporaries. Each step after the projection
works row by row, so the blocks do not change a bit of any result; a batch
that fits one block (every batch with L * max(n, m) <= 32,768) runs as one
pass. A finite-difference iteration stacks its draws and their 2(d-1) moved
copies and evaluates them in groups of whole batches (``_stacked_costs``) of
at most max(L * max(n, m), ``_SLICE_BLOCK_ENTRIES``) entries: at small n one
call instead of 2(d-1) + 1, with the bits of separate calls.
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
    _check_directions,
    _sample,
    sample_uniform_sphere,
)
from .sphere_opt import GradientMethod, SlicingAscent, _check_adam_settings

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
    ``gradient_method`` acts at r=2; other exponents take finite differences.
    """

    learning_rate: float = 0.001
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    max_iter: int = 10
    num_projections: int = 50
    gradient_method: GradientMethod = GradientMethod.PATHWISE
    seed: Optional[int] = None

    def __post_init__(self):
        _check_adam_settings(self.learning_rate, self.adam_beta1, self.adam_beta2)
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
        if not np.isfinite(self.std_error) or self.std_error < 0.0:
            raise ValueError("std_error must be finite and >= 0")


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


# Row blocks of a slice batch keep each (rows, points) temporary near this
# many entries (256 KB of float64): cache-sized, and small enough for the
# allocator to reuse between calls instead of returning it to the system.
_SLICE_BLOCK_ENTRIES = 32_768


def _row_blocks(L: int, k: int) -> list:
    """Row slices that cut an (L, k) batch into blocks of about
    ``_SLICE_BLOCK_ENTRIES`` entries (at least one row each)."""
    step = max(1, _SLICE_BLOCK_ENTRIES // k)
    return [slice(i, min(i + step, L)) for i in range(0, L, step)]


def _project_sorted(X, thetas, want_order: bool, batch_rows=None):
    """Rows of ``thetas @ X.T`` sorted ascending, and the permutation that
    sorts them when ``want_order`` (else None).

    The permutation is the stable one, ties broken by point index
    (``fgw.stable_sort_rows``); it is computed only when gradients are wanted.
    The value-only path sorts values alone, which gives the same rows up to
    the order of tied signed zeros, and so the same costs.

    The projection is one product per batch of ``batch_rows`` rows (one over
    all rows by default): a product's rounding can depend on its row count (a
    one-row product takes BLAS's matrix-vector path, and at d >= 32 small
    products can round differently from large ones), so a batch stacked with
    others keeps the bits it has alone. Values alone are sorted in place in
    one sort. Values with their order are sorted block by block
    (``_row_blocks`` at the cloud's own size) when the batch is larger than
    one block. Every row is sorted on its own, so the result does not depend
    on the blocks.
    """
    rows = thetas.shape[0] if batch_rows is None else batch_rows
    if rows >= thetas.shape[0]:
        values = thetas @ X.T
    else:
        values = np.empty((thetas.shape[0], X.shape[0]))
        for i in range(0, thetas.shape[0], rows):
            np.matmul(thetas[i:i + rows], X.T, out=values[i:i + rows])
    if not want_order:
        values.sort(axis=1)
        return values, None
    blocks = _row_blocks(*values.shape)
    if len(blocks) == 1:
        return stable_sort_rows(values)
    order = np.empty(values.shape, dtype=np.intp)
    for rows in blocks:
        values[rows], order[rows] = stable_sort_rows(values[rows])
    return values, order


def _eval_sorted(A, B, cfg: FgwConfig, want_grads: bool, order_x=None, order_y=None,
                 gx=None, gy=None):
    """Costs of sorted rows A (n columns) and B (m columns) and, when
    ``want_grads``, their gradients scattered through the sort orders into gx
    and gy (allocated here when None). Gradients need r = 2. The kernel
    writes them in its cost pass into reused per-thread buffers
    (``_kernels.grad_outputs``), which are consumed here and never returned."""
    if want_grads and cfg.exponent != 2:
        raise ValueError("gradients require exponent r=2")
    n, m = A.shape[1], B.shape[1]
    A, B = spread_rows(A, max(n, m)), spread_rows(B, max(n, m))
    grads = _kernels.grad_outputs(A.shape) if want_grads else None
    costs, _ = _kernels.cost_batch(A, B, cfg.beta, cfg.exponent, cfg.exponent == 2, grads=grads)
    if not want_grads:
        return costs, None, None
    GA, GB = fold_rows(grads[0], n), fold_rows(grads[1], m)
    gx = np.empty_like(GA) if gx is None else gx
    gy = np.empty_like(GB) if gy is None else gy
    np.put_along_axis(gx, order_x, GA, axis=1)
    np.put_along_axis(gy, order_y, GB, axis=1)
    return costs, gx, gy


def _eval_slices(X, Y, thetas, cfg: FgwConfig, want_grads: bool, batch_rows=None):
    """Per-direction fused costs, optionally with gradients wrt the original
    (unsorted) cloud rows. Each cloud is sorted at its own size, spread to
    max(n, m) columns for the kernels, and its gradients folded back.
    ``thetas`` may stack batches of ``batch_rows`` rows, each projected by
    its own product (``_project_sorted``), so each batch's costs are the bits
    it gets alone.

    A batch of more than one row block (``_row_blocks`` at max(n, m)) runs the
    kernels and the scatter block by block, into outputs allocated once. Every
    kernel works row by row, so the results are the same bits as one pass; a
    batch of one block is one pass, with no preallocated outputs.
    """
    A, order_x = _project_sorted(X, thetas, want_grads, batch_rows=batch_rows)
    B, order_y = _project_sorted(Y, thetas, want_grads, batch_rows=batch_rows)
    blocks = _row_blocks(A.shape[0], max(A.shape[1], B.shape[1]))
    if len(blocks) == 1:
        # not folded into the loop below: with outputs preallocated before the
        # kernels, an n = 256, L = 50 gradient batch (a flow step) took
        # 1.74-2.06 ms instead of 1.20-1.38 ms on a 2-core x86-64 VM
        return _eval_sorted(A, B, cfg, want_grads, order_x, order_y)
    costs = np.empty(A.shape[0])
    gx, gy = (np.empty(A.shape), np.empty(B.shape)) if want_grads else (None, None)
    for rows in blocks:
        part = (order_x[rows], order_y[rows], gx[rows], gy[rows]) if want_grads else ()
        costs[rows] = _eval_sorted(A[rows], B[rows], cfg, want_grads, *part)[0]
    return costs, gx, gy


def _stacked_costs(X, Y, thetas, cfg: FgwConfig, batch_rows: int) -> np.ndarray:
    """Costs of ``thetas`` stacked from batches of ``batch_rows`` rows,
    evaluated in groups of whole batches that hold at most
    max(batch_rows * max(n, m), ``_SLICE_BLOCK_ENTRIES``) projected entries
    each: small batches share one evaluation, and a large stack is never
    projected at once. Each batch gets the bits it gets alone."""
    per_batch = batch_rows * max(X.shape[0], Y.shape[0])
    group = max(1, _SLICE_BLOCK_ENTRIES // per_batch) * batch_rows
    return np.concatenate([
        _eval_slices(X, Y, thetas[i:i + group], cfg, False, batch_rows=batch_rows)[0]
        for i in range(0, thetas.shape[0], group)
    ])


def slice_costs(mu, nu, cfg: FgwConfig, directions) -> np.ndarray:
    """Fused 1D costs of two clouds along (L, d) unit directions or one (d,).

    A direction evaluated alone (L = 1) can differ in the last bits from the
    same direction inside a batch: BLAS projects a single row on its
    matrix-vector path, which rounds differently (and at d >= 32 small
    batches can round differently from large ones). Row blocking adds no such
    dependence: the projection is one product over the whole batch.
    """
    X, Y = _validate_pair(mu, nu)
    thetas = _check_directions(np.atleast_2d(directions))
    if thetas.shape[1] != X.shape[1]:
        raise ValueError("direction dimension does not match the clouds")
    costs, _, _ = _eval_slices(X, Y, thetas, cfg, want_grads=False)
    return costs


def _mc_std_error(costs: np.ndarray) -> float:
    if costs.size < 2:
        return 0.0
    # exact power-of-two scaling keeps np.std's squares from over/underflowing
    _, exponent = np.frexp(np.abs(costs).max())
    spread = np.std(np.ldexp(costs, -exponent), ddof=1) / np.sqrt(costs.size)
    return float(np.ldexp(spread, exponent))


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
    adam = (settings.learning_rate, settings.adam_beta1, settings.adam_beta2)
    if kind == "sfg":
        return SlicingAscent("uniform", np.empty((0, d)), (), None, *adam)
    if kind != "max_sfg":
        kappas = np.atleast_1d(np.asarray(kappas, dtype=np.float64))
        starts = len(kappas)
    return SlicingAscent(_FAMILIES[kind], sample_uniform_sphere(d, rng, starts), kappas, alphas,
                         *adam)


def _ascent_step(engine, X, Y, cfg, ascent: SlicingAscent, L, pathwise, rng, iteration):
    """One iteration of every engine's and flow's ascent: draw L directions,
    evaluate their slices (with point gradients when ``pathwise``) and take
    the location gradient, raising DivergenceError on a non-finite objective
    or gradient. Finite differences evaluate the draws together with their
    moved copies (``_stacked_costs``). Returns (directions, costs, per-slice
    gradients wrt the rows of X or None, location gradient); the caller takes
    the Adam step."""
    thetas, ctx = ascent.draw(L, rng)
    if pathwise:
        costs, gx, gy = _eval_slices(X, Y, thetas, cfg, want_grads=True)
        _check_finite(engine, "ascent objective", float(costs.mean()), iteration)
        grad = ascent.pathwise_gradient(ctx, gx @ X + gy @ Y)
    else:
        m, gx, drawn = thetas.shape[0], None, []

        def costs_at(moved):
            # a non-finite objective stops here, before any difference is taken
            stacked = _stacked_costs(X, Y, np.concatenate([thetas, moved]), cfg, m)
            drawn.append(stacked[:m])
            _check_finite(engine, "ascent objective", float(drawn[0].mean()), iteration)
            return stacked[m:]

        grad = ascent.fd_gradient(ctx, costs_at)
        costs = drawn[0]
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
    pathwise = cfg.exponent == 2 and opt.gradient_method is GradientMethod.PATHWISE
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
    gradient is pathwise iff r=2 and ``opt`` asks for it, finite-difference otherwise."""
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
