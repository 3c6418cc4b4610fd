"""Desk-scale experiments on top of the discrepancy family.

* ``kappa_sweep``: ssfg mean/std over trials per concentration, with sfg and
  max_sfg reference rows.
* ``convergence_rate``: empirical decay of the discrepancy between an n-point
  empirical cloud and a large fixed reference cloud, with a fitted log-log
  slope; a classical 1D Wasserstein control mode validates the harness.
* ``particle_flow``: free particles descend a chosen discrepancy toward a
  target cloud; the slicing parameters ascend online (warm-started) from step
  to step: each step is the engines' iteration (``discrepancies._ascent_step``)
  and one Adam step, which the flow takes itself (as ``gmm_fit`` does).
* ``gmm_fit``: a reparameterized diagonal GMM (fixed uniform weights) descends
  the discrepancy between its sample batch and target batches, with
  straight-through routing of sample gradients to the drawing component.

Particle (and GMM sample) gradients chain the per-slice cost gradients through
the projections: d cost/d x_i = mean over slices of g[l, i] * theta_l. For the
flow this is scaled by n (unit-mass particles would feel O(1/n) forces and the
step size would have to grow with n; the scaling makes step_size n-free).
step_size is not scale-free: the r = 2 Gromov force grows with the cube of
the target's spread, so a step that suits one target scale overshoots at
twice it. On ``four_mode_gmm`` (ssfg, kappa = 1000, beta = 0.1, 400 steps),
step_size 0.01 converges, 0.02 stalls and 0.05 diverges; at twice that
target's scale 0.01 diverges and 0.01 / 8 converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fgw import FgwConfig, _check_count, as_point_cloud, common_size
from .discrepancies import (
    KINDS,
    OptimizerConfig,
    _ascent_step,
    _check_finite,
    _mc_estimate,
    _resolve_rng,
    _slicing_ascent,
    max_sfg,
    sfg,
    ssfg,
)
from .sampling import Rng, _check_concentration, _check_weights
from .sphere_opt import SlicingAscent

# Not called here since the flows ascend through discrepancies._ascent_step;
# kept importable under these names because the benchmark's tracer test pins
# them.
from .discrepancies import _eval_slices
from .sampling import _uniform_sphere
from .sphere_opt import adam_step, reflection_location_grads


@dataclass(frozen=True)
class Record:
    """One long-format results row."""

    metric: str
    parameter: str
    value: float
    std_error: float

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.std_error)):
            raise ValueError(f"non-finite record: {self!r}")


@dataclass(frozen=True)
class ExperimentResult:
    table: tuple


@dataclass(frozen=True)
class GmmParams:
    """Diagonal-covariance Gaussian mixture parameters."""

    means: np.ndarray
    log_std_devs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        log_std = np.asarray(self.log_std_devs, dtype=np.float64)
        if means.ndim != 2 or log_std.shape != means.shape:
            raise ValueError("means and log_std_devs must share a (k, d) shape")
        weights = _check_weights(self.weights, means.shape[0])
        if not (np.isfinite(means).all() and np.isfinite(log_std).all()):
            raise ValueError("GMM parameters must be finite")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "log_std_devs", log_std)
        object.__setattr__(self, "weights", weights)


def _draw_gmm(means, log_std, weights, n: int, rng: Rng):
    """n reparameterized draws from a diagonal GMM: (samples, the component
    of each, their standard-normal noise)."""
    k, d = means.shape
    comp = rng.choice(k, size=n, p=weights) if k > 1 else np.zeros(n, dtype=np.int64)
    eta = rng.standard_normal((n, d))
    return means[comp] + np.exp(log_std[comp]) * eta, comp, eta


def sample_gmm(params: GmmParams, n: int, rng: Rng) -> np.ndarray:
    """n draws from a diagonal GMM."""
    n = _check_count(n, "n", 0)
    return _draw_gmm(params.means, params.log_std_devs, params.weights, n, rng)[0]


_FOUR_MODES = np.array([[4.0, 4.0], [4.0, -4.0], [-4.0, 4.0], [-4.0, -4.0]])
_FOUR_MODE_STD = 0.5


def four_mode_gmm(n: int, rng: Rng) -> np.ndarray:
    """The 2D four-Gaussian toy target: modes at (+-4, +-4), std 0.5, with
    points assigned to modes in balanced round-robin order."""
    n = _check_count(n, "n", 0)
    comp = np.arange(n) % 4
    return _FOUR_MODES[comp] + _FOUR_MODE_STD * rng.standard_normal((n, 2))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _trials(metric: str, parameter: str, rng: Rng, trials: int, value) -> Record:
    """The results row of ``value(child)`` over ``trials`` generators spawned
    from ``rng``: their Monte Carlo mean and standard error."""
    values = np.array([value(child) for child in rng.spawn(trials)])
    return Record(metric, parameter, *_mc_estimate(values))


def kappa_sweep(
    mu,
    nu,
    cfg: FgwConfig,
    kappas,
    opt: Optional[OptimizerConfig] = None,
    trials: int = 5,
    rng: Optional[Rng] = None,
) -> ExperimentResult:
    """ssfg across a concentration grid, mean and standard error over trials,
    plus sfg and max_sfg reference rows computed with the same budget."""
    opt = opt or OptimizerConfig()
    trials = _check_count(trials, "trials")
    rng = _resolve_rng(rng)
    kappas = [float(k) for k in np.atleast_1d(np.asarray(kappas, dtype=np.float64))]

    rows = [_trials("ssfg", repr(kappa), rng, trials,
                    lambda child: ssfg(mu, nu, cfg, kappa, opt, rng=child).value)
            for kappa in kappas]
    rows.append(_trials("sfg", "", rng, trials,
                        lambda child: sfg(mu, nu, cfg, L=opt.num_projections, rng=child).value))
    rows.append(_trials("max_sfg", "", rng, trials,
                        lambda child: max_sfg(mu, nu, cfg, opt, rng=child).value))
    return ExperimentResult(tuple(rows))


def convergence_rate(
    d: int,
    sample_sizes,
    trials: int,
    cfg: FgwConfig,
    kappa: float,
    opt: Optional[OptimizerConfig] = None,
    rng: Optional[Rng] = None,
    metric: str = "ssfg",
) -> ExperimentResult:
    """Decay of the discrepancy between an n-sample empirical cloud and a
    fixed m = 16*max(n) reference cloud, both uniform on [0,1]^d, as n grows.

    The n-point cloud is compared directly with the first (m//n)*n reference
    points: each sorted sample value faces m//n reference quantiles.
    ``metric="w1_control"`` replaces the sliced discrepancy with the
    classical 1D squared Wasserstein distance (d is ignored there) to
    validate the harness on a known 1/n rate.
    """
    opt = opt or OptimizerConfig()
    if metric not in ("ssfg", "w1_control"):
        raise ValueError("metric must be 'ssfg' or 'w1_control'")
    # the ssfg clouds are point clouds, so d >= 2; the control ignores d
    d = _check_count(d, "d", 2 if metric == "ssfg" else 1)
    sizes = [_check_count(n, "sample sizes", 1, "sample sizes must be positive")
             for n in sample_sizes]
    if len(sizes) < 2:
        raise ValueError("at least two sample sizes are needed to fit the slope")
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sample sizes must be strictly increasing")
    trials = _check_count(trials, "trials")
    rng = _resolve_rng(rng)
    m = 16 * max(sizes)

    def trial(child, n):
        reps = m // n
        if metric == "w1_control":
            a = np.repeat(np.sort(child.uniform(size=n)), reps)
            b = np.sort(child.uniform(size=m)[: reps * n])
            return float(np.mean((a - b) ** 2))
        samp = child.uniform(size=(n, d))
        ref = child.uniform(size=(m, d))[: reps * n]
        return ssfg(samp, ref, cfg, kappa, opt, rng=child).value

    rows = [_trials(metric, str(n), rng, trials, lambda child: trial(child, n)) for n in sizes]
    means = [row.value for row in rows]
    logs = np.log(np.maximum(means, 1e-300))
    design = np.column_stack([np.log(np.asarray(sizes, dtype=np.float64)), np.ones(len(sizes))])
    slope = float(np.linalg.lstsq(design, logs, rcond=None)[0][0])
    rows.append(Record(f"{metric}_slope", "", slope, 0.0))
    return ExperimentResult(tuple(rows))


# ---------------------------------------------------------------------------
# online slicing state for flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowObjective:
    """Which discrepancy a flow descends, and its slicing-ascent settings.
    ``kappa`` is the concentration of ssfg and pssfg; ``kappas`` (required)
    and ``alphas`` are mssfg's, and every other kind rejects them."""

    kind: str = "ssfg"
    beta: float = 0.1
    kappa: float = 1000.0
    kappas: Optional[tuple] = None
    alphas: Optional[tuple] = None
    num_projections: int = 50
    learning_rate: float = 0.001
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind != "mssfg" and (self.kappas is not None or self.alphas is not None):
            raise ValueError(f"kappas and alphas apply only to kind mssfg, not {self.kind}")
        object.__setattr__(self, "num_projections",
                           _check_count(self.num_projections, "num_projections"))

    def fgw_config(self) -> FgwConfig:
        # particle gradients chain through the r=2 closed form
        return FgwConfig(beta=self.beta, exponent=2)


def _flow_ascent(objective: FlowObjective, d: int, rng: Rng) -> SlicingAscent:
    """The flow's slicing distribution, ascended one warm-started step per
    flow step. Every kind checks ``kappa``; only mssfg has ``kappas`` and ``alphas``."""
    _check_concentration(objective.kappa)
    if objective.kind != "mssfg":
        return _slicing_ascent(objective.kind, d, rng, objective, [objective.kappa])
    if objective.kappas is None:
        raise ValueError("mssfg flow needs kappas")
    return _slicing_ascent("mssfg", d, rng, objective, objective.kappas, objective.alphas)


@dataclass(frozen=True)
class FlowResult:
    """Particle flow output: snapshots (with their step indices), the
    per-step Monte Carlo discrepancy trace, and the final particles."""

    snapshots: tuple
    snapshot_steps: tuple
    trace: np.ndarray
    particles: np.ndarray


def particle_flow(
    target,
    num_particles: int,
    objective: FlowObjective,
    steps: int,
    step_size: float,
    rng: Optional[Rng] = None,
    snapshot_every: int = 100,
) -> FlowResult:
    """Gradient flow of free particles toward a target cloud under the chosen
    sliced discrepancy. The particle count and the target size follow the
    engines' rule: equal, or one divides the other (``fgw.common_size``).
    Particles start at 0.1 * standard normal; snapshots are taken at step 0,
    every ``snapshot_every`` steps, and at the end."""
    Y = as_point_cloud(target)
    n, d = _check_count(num_particles, "num_particles"), Y.shape[1]
    common_size(n, Y.shape[0])
    steps = _check_count(steps, "steps")
    snapshot_every = _check_count(snapshot_every, "snapshot_every")
    if not np.isfinite(float(step_size)):
        raise ValueError("step_size must be finite")
    rng = _resolve_rng(rng)
    cfg = objective.fgw_config()
    X = 0.1 * rng.standard_normal((n, d))
    ascent = _flow_ascent(objective, d, rng)
    snapshots = [X.copy()]
    snapshot_steps = [0]
    trace = np.empty(steps)
    for step in range(1, steps + 1):
        thetas, _, trace[step - 1], gx, grad = _ascent_step(
            objective.kind, X, Y, cfg, ascent, objective.num_projections, True, rng, step)
        ascent.step(grad)
        X = X - float(step_size) * (gx.T @ thetas) * (n / thetas.shape[0])
        _check_finite("particle_flow", "particle", X, step)
        if step % snapshot_every == 0 and step != steps:
            snapshots.append(X.copy())
            snapshot_steps.append(step)
    snapshots.append(X.copy())
    snapshot_steps.append(steps)
    return FlowResult(tuple(snapshots), tuple(snapshot_steps), trace, X)


def gmm_fit(
    target,
    k: int,
    objective: FlowObjective,
    steps: int,
    step_size: float,
    batch: int = 128,
    rng: Optional[Rng] = None,
) -> GmmParams:
    """Fit a diagonal GMM to a cloud by descending the chosen discrepancy
    between reparameterized GMM samples and target batches.

    Component choice is straight-through: each sample's gradient flows only to
    the component that drew it. Weights stay fixed at uniform (the discrepancy
    carries no usable weight gradient under straight-through routing)."""
    Y = as_point_cloud(target)
    n, d = Y.shape
    k = _check_count(k, "k")
    batch = _check_count(batch, "batch", 1, "batch must lie in [1, target size]")
    if batch > n:
        raise ValueError("batch must lie in [1, target size]")
    steps = _check_count(steps, "steps", 0)
    if not np.isfinite(float(step_size)):
        raise ValueError("step_size must be finite")
    rng = _resolve_rng(rng)
    cfg = objective.fgw_config()
    means = 0.1 * rng.standard_normal((k, d))
    log_std = np.zeros((k, d))
    weights = np.full(k, 1.0 / k)
    ascent = _flow_ascent(objective, d, rng)
    for step in range(1, steps + 1):
        Z, comp, eta = _draw_gmm(means, log_std, weights, batch, rng)
        sel_rows = rng.choice(n, size=batch, replace=False)
        thetas, _, _, gz, grad = _ascent_step(
            objective.kind, Z, Y[sel_rows], cfg, ascent, objective.num_projections, True, rng, step)
        ascent.step(grad)
        sample_grad = (gz.T @ thetas) / thetas.shape[0]
        grad_means = np.zeros((k, d))
        grad_log_std = np.zeros((k, d))
        scaled = sample_grad * np.exp(log_std[comp]) * eta
        np.add.at(grad_means, comp, sample_grad)
        np.add.at(grad_log_std, comp, scaled)
        means = means - float(step_size) * grad_means
        log_std = log_std - float(step_size) * grad_log_std
        _check_finite("gmm_fit", "GMM parameter", (means, log_std), step)
    return GmmParams(means, log_std, weights)
