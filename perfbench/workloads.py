"""The benchmark's workloads: inputs made from the seed, the op cycle, and the
checks on every result.

All ops use ``FgwConfig(beta=0.1, exponent=2)``. Op ``i`` of a run gets its
own generator from ``SeedSequence(seed, spawn_key=(0, i))``; the untimed
warm-up call of each op kind uses ``spawn_key=(1, kind)``. The library
receives only the arrays made here (``convergence_rate`` draws its own clouds
from the generator it is given).

Why these three:

* ``engines-small`` (n=64, d=3, default ``OptimizerConfig``): per-call Python
  glue, sampling and the ascent loops are about a third of wall time, and
  ``max_sfg`` and the finite-difference path make many single-row or small
  ``_eval_slices`` calls, so batching and sampling-path changes show here.
* ``flow``: the value+gradient path at small and medium n with warm-started
  online ascent; per-step glue sits in ``experiments``, ``sphere_opt`` and
  the vMF rejection sampler at kappa=1000, d=2.
* ``large-n`` (n=8192): argsort and the two kernels dominate and the (L, n)
  arrays spill L2. Value-only (``sfg``), value+gradient (``ssfg``) and tied,
  replicated clouds (``convergence_rate``) are separate op kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("engines-small", "flow", "large-n")

REL_TOL = 1e-9  # relative error allowed against the O(n^2) reference


@dataclass(frozen=True)
class OpKind:
    name: str
    run: Callable  # rng -> result
    check: Callable  # result -> list of problems (empty when fine)
    metric: str  # name of its per-call figure in the report
    unit: str  # "ms" for a median per call, "steps/s" for a flow rate
    steps: int = 1


@dataclass
class Workload:
    ops: tuple
    # size of the machine-speed probe (see worker.make_probe): cloud size and
    # repetitions, so that it resembles the ops' slices. On a 2-core Xeon VM it
    # takes about 1.4 ms (engines-small), 11 ms (flow) and 60 ms (large-n).
    probe_n: int
    probe_reps: int
    # (label, X, Y, thetas) pairs checked against the O(n^2) reference
    reference_cases: Callable  # dict of last result per kind -> list


def op_rng(seed: int, index: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, index)))


def warmup_rng(seed: int, kind: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, kind)))


def _input_rng(seed: int, stream: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, stream)))


def _clouds(seed: int, n: int, d: int):
    rng = _input_rng(seed, 0)
    X = rng.standard_normal((n, d))
    scale = np.linspace(2.0, 0.5, d)
    Y = rng.standard_normal((n, d)) * scale + 0.25
    return X, Y


_MODES = np.array([[4.0, 4.0], [4.0, -4.0], [-4.0, 4.0], [-4.0, -4.0]])


def _four_modes(n: int, rng) -> np.ndarray:
    # modes at (+-4, +-4), std 0.5, points assigned round-robin
    return _MODES[np.arange(n) % 4] + 0.5 * rng.standard_normal((n, 2))


def _directions(seed: int, d: int, count: int, stream: int) -> np.ndarray:
    x = _input_rng(seed, stream).standard_normal((count, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# -- checks -----------------------------------------------------------------


def _finite_nonneg(label, values) -> list:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        return [f"{label} not finite"]
    if np.any(arr < 0.0):
        return [f"{label} negative"]
    return []


def _check_report(report) -> list:
    problems = _finite_nonneg("value", report.value)
    problems += _finite_nonneg("std_error", report.std_error)
    problems += _finite_nonneg("trace", [v for _, v in report.trace] or [0.0])
    return problems


def _check_flow(result) -> list:
    problems = _finite_nonneg("trace", result.trace)
    if not np.all(np.isfinite(result.particles)):
        problems.append("particles not finite")
    if not problems and not result.trace[-1] < result.trace[0]:
        problems.append("flow trace did not decrease")
    return problems


def _check_gmm(params) -> list:
    if not (np.all(np.isfinite(params.means)) and np.all(np.isfinite(params.log_std_devs))):
        return ["GMM parameters not finite"]
    return []


def _check_convergence(result) -> list:
    rows = result.table
    problems = _finite_nonneg("convergence values", [r.value for r in rows[:-1]])
    slope = rows[-1].value
    if not (math.isfinite(slope) and slope < 0.0):
        problems.append(f"convergence slope {slope!r} is not finite and negative")
    return problems


# -- workloads --------------------------------------------------------------


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Inputs and op cycle of a workload. ``tiny`` shrinks every size so the
    benchmark's own tests can run each workload in about a second."""
    import ssfgw
    from ssfgw import discrepancies, experiments

    cfg = ssfgw.FgwConfig(beta=0.1, exponent=2)
    if name == "engines-small":
        n = 16 if tiny else 64
        X, Y = _clouds(seed, n, 3)
        default = ssfgw.OptimizerConfig(max_iter=3) if tiny else ssfgw.OptimizerConfig()
        fd = ssfgw.OptimizerConfig(
            max_iter=default.max_iter, gradient_method="finite_difference"
        )
        ops = (
            OpKind("sfg", lambda rng: discrepancies.sfg(X, Y, cfg, L=50, rng=rng),
                   _check_report, "sfg_ms", "ms"),
            OpKind("max_sfg", lambda rng: discrepancies.max_sfg(X, Y, cfg, default, rng=rng, num_restarts=8),
                   _check_report, "max_sfg_ms", "ms"),
            OpKind("ssfg", lambda rng: discrepancies.ssfg(X, Y, cfg, 10.0, default, rng=rng),
                   _check_report, "ssfg_ms", "ms"),
            OpKind("pssfg", lambda rng: discrepancies.pssfg(X, Y, cfg, 10.0, default, rng=rng),
                   _check_report, "pssfg_ms", "ms"),
            OpKind("mssfg", lambda rng: discrepancies.mssfg(X, Y, cfg, [10.0] * 4, None, default, rng=rng),
                   _check_report, "mssfg_ms", "ms"),
            OpKind("ssfg_fd", lambda rng: discrepancies.ssfg(X, Y, cfg, 10.0, fd, rng=rng),
                   _check_report, "ssfg_fd_ms", "ms"),
        )
        thetas = _directions(seed, 3, 4, 1)
        return Workload(ops, n, 6, lambda last: [("input clouds", X, Y, thetas)])

    if name == "flow":
        n_flow, n_target, batch, steps = (32, 256, 32, 20) if tiny else (256, 2048, 128, 100)
        flow_target = _four_modes(n_flow, _input_rng(seed, 0))
        gmm_target = _four_modes(n_target, _input_rng(seed, 1))
        flow_objective = experiments.FlowObjective(kind="ssfg", kappa=1000.0)
        gmm_objective = experiments.FlowObjective(kind="ssfg", kappa=10.0)
        ops = (
            OpKind("particle_flow",
                   lambda rng: experiments.particle_flow(
                       flow_target, n_flow, flow_objective, steps=steps, step_size=0.01, rng=rng),
                   _check_flow, "flow_steps_per_s", "steps/s", steps),
            OpKind("gmm_fit",
                   lambda rng: experiments.gmm_fit(
                       gmm_target, 10, gmm_objective, steps=steps, step_size=0.01, batch=batch, rng=rng),
                   _check_gmm, "gmm_steps_per_s", "steps/s", steps),
        )

        def cases(last):
            rng = _input_rng(seed, 2)
            params = last["gmm_fit"]
            comp = rng.choice(10, size=batch)
            gmm_batch = params.means[comp] + np.exp(params.log_std_devs[comp]) * rng.standard_normal((batch, 2))
            target_batch = gmm_target[rng.choice(n_target, size=batch, replace=False)]
            thetas = _directions(seed, 2, 4, 3)
            return [
                ("final flow particles", last["particle_flow"].particles, flow_target, thetas),
                ("GMM batch", gmm_batch, target_batch, thetas),
            ]

        return Workload(ops, n_flow, 10, cases)

    if name == "large-n":
        n = 256 if tiny else 8192
        sizes = (4, 8, 16) if tiny else (16, 64, 256)
        X, Y = _clouds(seed, n, 3)
        short = ssfgw.OptimizerConfig(max_iter=3)
        ops = (
            OpKind("sfg", lambda rng: discrepancies.sfg(X, Y, cfg, L=50, rng=rng),
                   _check_report, "sfg_ms", "ms"),
            OpKind("ssfg", lambda rng: discrepancies.ssfg(X, Y, cfg, 10.0, short, rng=rng),
                   _check_report, "ssfg_ms", "ms"),
            OpKind("convergence",
                   lambda rng: experiments.convergence_rate(
                       5, sizes, 1, cfg, 10.0, short, rng=rng),
                   _check_convergence, "convergence_ms", "ms"),
        )

        def cases(last):
            # the replicated clouds convergence_rate builds for its smallest n:
            # each sample point repeated m // n times against m reference points
            m = 16 * sizes[-1]
            rng = _input_rng(seed, 1)
            sample = rng.uniform(size=(sizes[0], 5))
            reference = rng.uniform(size=(m, 5))
            replicated = np.repeat(sample, m // sizes[0], axis=0)
            return [
                ("input clouds", X, Y, _directions(seed, 3, 1, 2)),
                ("replicated convergence clouds", replicated, reference, _directions(seed, 5, 2, 3)),
            ]

        return Workload(ops, n, 1, cases)

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def reference_errors(X, Y, thetas) -> tuple:
    """Largest relative errors of ``_eval_slices`` costs and gradients against
    the O(n^2) reference route (``fgw_1d`` / ``fgw_1d_grad``)."""
    import ssfgw
    from ssfgw import discrepancies

    cfg = ssfgw.FgwConfig(beta=0.1, exponent=2)
    costs, gx, gy = discrepancies._eval_slices(X, Y, thetas, cfg, want_grads=True)
    cost_err = 0.0
    grad_err = 0.0
    for row, theta in enumerate(thetas):
        xs = ssfgw.project(X, theta)
        ys = ssfgw.project(Y, theta)
        ref = ssfgw.fgw_1d(xs, ys, cfg, method="reference")
        ref_gx, ref_gy, _ = ssfgw.fgw_1d_grad(xs, ys, cfg, method="reference")
        cost_err = max(cost_err, abs(costs[row] - ref) / max(abs(ref), 1e-300))
        scale = max(np.abs(ref_gx).max(), np.abs(ref_gy).max(), 1e-300)
        grad_err = max(
            grad_err,
            np.abs(gx[row] - ref_gx).max() / scale,
            np.abs(gy[row] - ref_gy).max() / scale,
        )
    return float(cost_err), float(grad_err)

