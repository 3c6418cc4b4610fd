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

The slicing distributions are ``UniformSlicing``, ``DiracSlicing`` and the
parameter classes ``sampling.VmfParams``, ``PowerSphericalParams`` and
``MixtureVmfParams`` themselves, which the engines report as ``final_slicing``.

SSFG, PSSFG and MSSFG differ only in the distribution whose locations they
ascend, max_sfg is its Dirac limit and sfg its uniform member, with no
location. So every engine and the flows run one iteration, ``_ascent_step``:
draw directions from the ``sphere_opt.SlicingAscent`` that ``_slicing_ascent``
builds for one of the ``KINDS`` (it validates its own parameters), evaluate
the slices and pull their gradients back to the locations; the caller takes
the Adam step. ``_engine`` drives every kind (sfg takes no iteration), with
pathwise location gradients iff r=2 and ``OptimizerConfig.gradient_method``
is pathwise and finite differences otherwise, and draws the final value from
the same ascent.

One rule stops a run, at any scale: a number it needs is not finite. The
engines check the ascent objective, the location gradient and the final
value, the flows also their particles and GMM parameters, and every
``DivergenceError`` comes from ``_check_finite``. Monte Carlo means are
taken at an exact power-of-two scale (``_mc_estimate``), so finite costs
whose sum overflows still have their finite mean.

The clouds may hold n and m points where one size divides the other; the
engines then compare their quantile functions (``fgw.spread_rows``).

Every estimator draws only from its ``rng`` (fresh entropy when omitted);
with a shared seed the direction stream does not depend on argument order,
and the per-slice kernels are exactly swap-symmetric, so each discrepancy is
exactly symmetric in its two clouds. The engines evaluate r=2 slices with the
O(n) delta/s kernels and other exponents with the O(n^2) double sum; the tests
check the kernels against that sum, and on nearly-agreeing clouds, where the
float sum loses digits, against exact rationals.

Every slice batch goes through ``_eval_slices``: one loop over row blocks
of about ``_SLICE_BLOCK_ENTRIES`` entries, whatever the batch size, that
projects, sorts and evaluates each block (and with gradients scatters it)
in per-thread block buffers, so that large batches (n in the thousands)
reuse cache-sized temporaries and only the outputs span the batch. Each
step after the projection works row by row, so there the blocks change no
bit. The projection is one BLAS product per block of at least two rows
(unless L = 1), and BLAS can round a row differently in products of
different row counts (at d >= 32, and at some n that are not multiples of
8, such as 300), so there the blocks can move the last bits. A
finite-difference iteration stacks its draws and their 2(d-1) moved copies
(``SlicingAscent.fd_directions``) and evaluates the stack in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .fgw import (
    FgwConfig,
    _check_count,
    as_point_cloud,
    common_size,
    fold_rows,
    spread_rows,
    stable_sort_rows,
)
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
    """A computation produced a non-finite state; ``step`` is the ascent
    iteration or flow step where it was caught."""

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


SlicingDistribution = Union[
    UniformSlicing, DiracSlicing, VmfParams, PowerSphericalParams, MixtureVmfParams
]


def sample_slicing(slicing: SlicingDistribution, d: int, L: int, rng: Rng) -> np.ndarray:
    """Draw (L, d) directions from a slicing distribution."""
    L = _check_count(L, "L")
    if isinstance(slicing, UniformSlicing):
        return sample_uniform_sphere(d, rng, size=L)
    if isinstance(slicing, DiracSlicing):
        if slicing.direction.size != d:
            raise ValueError("slicing dimension does not match the clouds")
        return np.tile(slicing.direction, (L, 1))
    if not isinstance(slicing, (VmfParams, PowerSphericalParams, MixtureVmfParams)):
        raise ValueError(f"unknown slicing distribution: {slicing!r}")
    if slicing.dim != d:
        raise ValueError("slicing dimension does not match the clouds")
    if isinstance(slicing, MixtureVmfParams):
        return _sample("vmf", slicing.components, slicing.weights, rng, L)[0]
    family = "vmf" if isinstance(slicing, VmfParams) else "power_spherical"
    return _sample(family, (slicing,), None, rng, L)[0]


# ---------------------------------------------------------------------------
# configuration and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the slicing-parameter ascent.

    ``num_projections`` is the Monte Carlo batch per iteration.
    ``gradient_method`` acts at r=2; other exponents take finite differences.
    No setting seeds the ascent: the engines draw from their ``rng`` alone.
    """

    learning_rate: float = 0.001
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    max_iter: int = 10
    num_projections: int = 50
    gradient_method: GradientMethod = GradientMethod.PATHWISE

    def __post_init__(self):
        _check_adam_settings(self.learning_rate, self.adam_beta1, self.adam_beta2)
        object.__setattr__(self, "max_iter", _check_count(self.max_iter, "max_iter"))
        object.__setattr__(self, "num_projections",
                           _check_count(self.num_projections, "num_projections"))
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
# many entries (256 KB of float64), cache-sized. A small batch runs the loop
# as one block, into outputs allocated before it: no separate path sorts
# small batches into fresh arrays, whose pages a particle flow faulted in
# again at every step.
_SLICE_BLOCK_ENTRIES = 32_768


def _row_blocks(L: int, k: int) -> list:
    """Row slices that cut an (L, k) batch into blocks of near-equal row
    counts: at most ``_SLICE_BLOCK_ENTRIES`` // k rows each where that is at
    least three, else two or three rows. No block is a single row unless
    L = 1: a one-row projection takes BLAS's matrix-vector path, which rounds
    differently from a row of a larger product."""
    count = min(-(-L // max(1, _SLICE_BLOCK_ENTRIES // k)), max(1, L // 2))
    return [slice(i * L // count, (i + 1) * L // count) for i in range(count)]


def _project_sorted(X, thetas, name, via=None):
    """The rows of ``thetas @ X.T`` sorted ascending, in this thread's block
    buffer ``name`` of ``_kernels._WORKSPACE``, and their stable order or
    None; the thread's next call with that name overwrites them.

    Without ``via`` the product is written into ``name`` and its values
    alone are sorted there in place, which gives the rows of the stable
    order up to the order of tied signed zeros, and so the same costs. With
    ``via`` the product is written into the workspace buffer ``via``, and
    ``fgw.stable_sort_rows`` (ties broken by point index) writes the sorted
    values into ``name`` and the order into ``name + "_order"``: intp flat
    indices into the block's product, row l's offset by l * n.
    """
    take = _kernels._WORKSPACE.take
    shape = (thetas.shape[0], X.shape[0])
    product = np.matmul(thetas, X.T, out=take(via or name, shape))
    if via is None:
        product.sort(axis=1)
        return product, None
    return stable_sort_rows(product, out=(take(name, shape), take(name + "_order", shape, np.intp)))


def _eval_slices(X, Y, thetas, cfg: FgwConfig, want_grads: bool):
    """Per-direction fused costs, optionally with gradients wrt the original
    (unsorted) cloud rows. Each cloud is sorted at its own size, spread to
    max(n, m) columns for the kernels, and its gradients folded back.
    Gradients need r = 2 (the kernel raises otherwise).

    The outputs are allocated once, and then each row block (``_row_blocks``
    at max(n, m)) is projected and sorted (``_project_sorted``), evaluated
    and scattered. With gradients the projections go into the workspace's
    gradient buffers "GA" and "GB", which the kernel writes only after both
    sorts. Each order holds flat indices into its block's rows, so the
    scatter indexes the flattened rows of the gradient output with it.
    """
    take = _kernels._WORKSPACE.take
    n, m = X.shape[0], Y.shape[0]
    k = max(n, m)
    costs = np.empty(thetas.shape[0])
    gx, gy = (np.empty((costs.size, n)), np.empty((costs.size, m))) if want_grads else (None, None)
    for rows in _row_blocks(costs.size, k):
        (a, order_x), (b, order_y) = (
            _project_sorted(Z, thetas[rows], name, via if want_grads else None)
            for Z, name, via in ((X, "x", "GA"), (Y, "y", "GB"))
        )
        a, b = spread_rows(a, k), spread_rows(b, k)
        grads = (take("GA", a.shape), take("GB", a.shape)) if want_grads else None
        costs[rows] = _kernels.cost_batch(a, b, cfg.beta, cfg.exponent, grads=grads)[0]
        if want_grads:
            for g, order, grad in ((gx, order_x, grads[0]), (gy, order_y, grads[1])):
                g[rows].reshape(-1)[order] = fold_rows(grad, g.shape[1])
    return costs, gx, gy


def slice_costs(mu, nu, cfg: FgwConfig, directions) -> np.ndarray:
    """Fused 1D costs of two clouds along (L, d) unit directions or one (d,).

    A direction evaluated alone (L = 1) can differ in the last bits from the
    same direction inside a batch: BLAS projects a single row on its
    matrix-vector path, which rounds differently. Inside a batch the
    projection is one product per row block, whose rounding can depend on
    its row count (see the module docstring).
    """
    X, Y = _validate_pair(mu, nu)
    thetas = _check_directions(np.atleast_2d(directions))
    if thetas.shape[1] != X.shape[1]:
        raise ValueError("direction dimension does not match the clouds")
    costs, _, _ = _eval_slices(X, Y, thetas, cfg, want_grads=False)
    return costs


def _mc_estimate(costs: np.ndarray, std_error: bool = True):
    """Monte Carlo mean of ``costs`` and its standard error (0 below two
    costs or when not asked for), at exact power-of-two scales. The mean is
    only scaled down: a sum of finite costs cannot overflow where their mean
    is finite, and a subnormal mean keeps a plain mean's one rounding. The
    spread is scaled both ways, so np.std's squares neither over- nor
    underflow."""
    _, exponent = np.frexp(np.abs(costs).max())
    down = max(int(exponent), 0)
    mean = float(np.ldexp(np.ldexp(costs, -down).mean(), down))
    if not std_error or costs.size < 2:
        return mean, 0.0
    spread = np.std(np.ldexp(costs, -exponent), ddof=1) / np.sqrt(costs.size)
    return mean, float(np.ldexp(spread, exponent))


def _resolve_rng(rng) -> Rng:
    # an omitted generator draws fresh entropy
    return np.random.default_rng() if rng is None else rng


def _check_finite(source: str, what: str, values, iteration: int) -> None:
    if not np.isfinite(values).all():
        raise DivergenceError(f"{source}: non-finite {what} (iteration {iteration})", iteration)


def _report(engine, costs, slicing, trace, projections) -> DiscrepancyReport:
    """The Monte Carlo value of ``costs`` as a report; non-finite values raise
    DivergenceError."""
    value, std_error = _mc_estimate(costs)
    _check_finite(engine, "final value", value, len(trace))
    return DiscrepancyReport(
        value=float(max(value, 0.0)),
        final_slicing=slicing,
        trace=tuple(trace),
        num_projections_used=int(projections),
        std_error=std_error,
    )


# ---------------------------------------------------------------------------
# fixed-slicing estimator
# ---------------------------------------------------------------------------


def expected_fgw(mu, nu, cfg: FgwConfig, slicing: SlicingDistribution, L: int, rng: Rng) -> DiscrepancyReport:
    """Monte Carlo estimate of the expected fused cost under a fixed slicing
    distribution (no optimization)."""
    X, Y = _validate_pair(mu, nu)
    thetas = sample_slicing(slicing, X.shape[1], L, rng)
    costs, _, _ = _eval_slices(X, Y, thetas, cfg, want_grads=False)
    return _report("expected_fgw", costs, slicing, (), L)


# ---------------------------------------------------------------------------
# slicing ascents of every kind, shared with the flows
# ---------------------------------------------------------------------------


def _slicing_ascent(kind, d, rng, settings, kappas=(), alphas=None, starts=1):
    """The ``SlicingAscent`` of a kind in dimension d: no locations for sfg,
    ``starts`` (>= 1) uniform directions for max_sfg, one uniform location
    per concentration otherwise. ``settings`` (``OptimizerConfig`` or
    ``FlowObjective``) gives the Adam learning rate and betas."""
    adam = (settings.learning_rate, settings.adam_beta1, settings.adam_beta2)
    if kind == "sfg":
        return SlicingAscent("uniform", np.empty((0, d)), (), None, *adam)
    if kind != "max_sfg":
        kappas = np.atleast_1d(np.asarray(kappas, dtype=np.float64))
        starts = len(kappas)
    else:
        starts = _check_count(starts, "num_restarts")
    return SlicingAscent(_FAMILIES[kind], sample_uniform_sphere(d, rng, starts), kappas, alphas,
                         *adam)


def _ascent_step(engine, X, Y, cfg, ascent: SlicingAscent, L, pathwise, rng, iteration):
    """One iteration of every engine's and flow's ascent: draw L directions,
    evaluate their slices (with point gradients when ``pathwise``) and take
    the location gradient, raising DivergenceError on a non-finite objective
    or gradient. Finite differences evaluate the draws with their moved
    copies (``fd_directions``) in one ``_eval_slices`` call. Returns
    (directions, costs, their mean, per-slice gradients wrt the rows of X or
    None, location gradient). The caller takes the Adam step: ``_engine``,
    and the flows ``experiments.particle_flow`` and ``gmm_fit``."""
    thetas, ctx = ascent.draw(L, rng)
    if pathwise:
        costs, gx, gy = _eval_slices(X, Y, thetas, cfg, want_grads=True)
        value = _mc_estimate(costs, std_error=False)[0]
        _check_finite(engine, "ascent objective", value, iteration)
        grad = ascent.pathwise_gradient(ctx, gx @ X + gy @ Y)
    else:
        m, gx = thetas.shape[0], None
        stack = np.concatenate([thetas, ascent.fd_directions(ctx)])
        costs = _eval_slices(X, Y, stack, cfg, want_grads=False)[0]
        value = _mc_estimate(costs[:m], std_error=False)[0]
        # a non-finite objective stops here, before any difference is taken
        _check_finite(engine, "ascent objective", value, iteration)
        costs, grad = costs[:m], ascent.fd_gradient(ctx, costs[m:])
    _check_finite(engine, "location gradient", grad, iteration)
    return thetas, costs, value, gx, grad


def _engine(kind, mu, nu, cfg, opt, rng, kappas=(), alphas=None, starts=1) -> DiscrepancyReport:
    """Ascend a kind's slicing for up to ``opt.max_iter`` iterations, until the
    locations move less than the convergence tolerance, and report the value
    at the final slicing (for max_sfg, at its first best restart). sfg has
    no location to move and takes no iteration."""
    opt = opt or OptimizerConfig()
    rng = _resolve_rng(rng)
    X, Y = _validate_pair(mu, nu)
    ascent = _slicing_ascent(kind, X.shape[1], rng, opt, kappas, alphas, starts)
    pathwise = cfg.exponent == 2 and opt.gradient_method is GradientMethod.PATHWISE
    L = opt.num_projections
    history, projections = [], 0
    for it in range(1, opt.max_iter + 1 if ascent.locs.size else 1):
        _, costs, value, _, grad = _ascent_step(kind, X, Y, cfg, ascent, L, pathwise, rng, it)
        history.append((costs, value))
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
        trace = [(it, float(row[best])) for it, (row, _) in enumerate(history, 1)]
        return _report(kind, costs[best:best + 1], DiracSlicing(locs[best]), trace, projections)
    trace = [(it, value) for it, (_, value) in enumerate(history, 1)]
    comps = tuple(VmfParams(loc, kappa) for loc, kappa in zip(locs, kappas))
    if kind == "sfg":
        final_slicing = UniformSlicing()
    elif kind == "mssfg":
        final_slicing = MixtureVmfParams(comps, ascent.alphas)
    elif kind == "ssfg":
        final_slicing = comps[0]
    else:
        final_slicing = PowerSphericalParams(locs[0], kappas[0])
    return _report(kind, costs, final_slicing, trace, projections)


def sfg(mu, nu, cfg: FgwConfig, L: int = 50, rng: Optional[Rng] = None) -> DiscrepancyReport:
    """Sliced fused Gromov-Wasserstein: expectation over uniform directions,
    the ascent with nothing to move (one fresh batch of L directions)."""
    return _engine("sfg", mu, nu, cfg, OptimizerConfig(num_projections=L), rng)


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
    return _engine("max_sfg", mu, nu, cfg, opt, rng, starts=num_restarts)


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
