"""Experiment harnesses: sweep tables, the convergence-rate fit with its
classical control, particle flows, and GMM fitting."""

import re

import numpy as np
import pytest

from ssfgw.discrepancies import (
    KINDS,
    DivergenceError,
    OptimizerConfig,
    UniformSlicing,
    _mc_estimate,
    max_sfg,
    sample_slicing,
    ssfg,
)
from ssfgw.experiments import (
    ExperimentResult,
    FlowObjective,
    GmmParams,
    Record,
    convergence_rate,
    four_mode_gmm,
    gmm_fit,
    kappa_sweep,
    particle_flow,
    sample_gmm,
)
from ssfgw.fgw import FgwConfig, as_point_cloud
from ssfgw.sampling import (
    MixtureVmfParams,
    PowerSphericalParams,
    VmfParams,
    make_rng,
    sample_mixture_vmf,
    sample_power_spherical,
    sample_uniform_sphere,
    sample_vmf,
)

CFG = FgwConfig(beta=0.1, exponent=2)
MODES = np.array([[4.0, 4.0], [4.0, -4.0], [-4.0, 4.0], [-4.0, -4.0]])


def axis_pair(seed, d, n=48, stretch=3.0):
    r = make_rng(seed)
    base = r.normal(size=(n, d))
    Y = base.copy()
    Y[:, 0] *= stretch
    return as_point_cloud(base), as_point_cloud(Y)


def _smoothed(vals, w=50):
    return np.convolve(vals, np.ones(w) / w, mode="valid")


# ---------------------------------------------------------------------------
# counts: integers, never rounded
# ---------------------------------------------------------------------------

_TARGET = four_mode_gmm(16, make_rng(0))
_FLOW = FlowObjective(kind="sfg", num_projections=2)
_E1 = np.array([1.0, 0.0, 0.0])
_GMM = GmmParams(np.zeros((1, 2)), np.zeros((1, 2)), [1.0])


def _flow(**counts):
    return particle_flow(_TARGET, counts.pop("num_particles", 16), _FLOW,
                         step_size=0.01, rng=make_rng(1), **{"steps": 1, **counts})


def _fit(**counts):
    return gmm_fit(_TARGET, counts.pop("k", 2), _FLOW, step_size=0.01, rng=make_rng(2),
                   **{"steps": 1, "batch": 8, **counts})


def _convergence(d=2, sizes=(4, 8), trials=1):
    return convergence_rate(d, sizes, trials, CFG, 1.0, OptimizerConfig(max_iter=1, num_projections=2),
                            rng=make_rng(3))


# every count of the public API, given a bool or a non-integral number
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: OptimizerConfig(max_iter=1.9), "max_iter", id="optimizer-max-iter"),
    pytest.param(lambda: OptimizerConfig(num_projections=True), "num_projections",
                 id="optimizer-projections-bool"),
    pytest.param(lambda: OptimizerConfig(num_projections=2.5), "num_projections",
                 id="optimizer-projections"),
    pytest.param(lambda: FlowObjective(num_projections=2.7), "num_projections",
                 id="flow-objective-projections"),
    pytest.param(lambda: sample_slicing(UniformSlicing(), 3, 2.5, make_rng(0)), "L",
                 id="slicing-L"),
    pytest.param(lambda: max_sfg(*axis_pair(0, 2, n=8), CFG, num_restarts=2.5), "num_restarts",
                 id="max-sfg-restarts"),
    pytest.param(lambda: _flow(num_particles=16.0), "num_particles", id="flow-particles"),
    pytest.param(lambda: _flow(steps=2.5), "steps", id="flow-steps"),
    pytest.param(lambda: _flow(snapshot_every=1.5), "snapshot_every", id="flow-snapshots"),
    pytest.param(lambda: _fit(k=2.0), "k", id="gmm-k"),
    pytest.param(lambda: _fit(steps=2.5), "steps", id="gmm-steps"),
    pytest.param(lambda: _fit(batch=8.5), "batch", id="gmm-batch"),
    pytest.param(lambda: kappa_sweep(*axis_pair(0, 2, n=8), CFG, [1.0], trials=1.5), "trials",
                 id="sweep-trials"),
    pytest.param(lambda: _convergence(trials=1.5), "trials", id="convergence-trials"),
    pytest.param(lambda: _convergence(sizes=(4.0, 8)), "sample sizes", id="convergence-sizes"),
    pytest.param(lambda: _convergence(d=2.5), "d", id="convergence-d"),
    pytest.param(lambda: sample_uniform_sphere(3.0, make_rng(0)), "d", id="uniform-d"),
    pytest.param(lambda: sample_uniform_sphere(3, make_rng(0), 2.5), "size", id="uniform-size"),
    pytest.param(lambda: sample_vmf(VmfParams(_E1, 1.0), make_rng(0), 2.5), "size", id="vmf-size"),
    pytest.param(lambda: sample_power_spherical(PowerSphericalParams(_E1, 1.0), make_rng(0), True),
                 "size", id="power-spherical-size"),
    pytest.param(lambda: sample_mixture_vmf(MixtureVmfParams((VmfParams(_E1, 1.0),), [1.0]),
                                            make_rng(0), 1.5), "size", id="mixture-size"),
    pytest.param(lambda: sample_gmm(_GMM, 2.5, make_rng(0)), "n", id="gmm-sample-n"),
    pytest.param(lambda: four_mode_gmm(2.5, make_rng(0)), "n", id="four-mode-n"),
])
def test_counts_must_be_integers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        call()


def test_counts_take_numpy_integers():
    counts = OptimizerConfig(max_iter=np.int64(3), num_projections=np.uint8(7))
    assert (counts.max_iter, counts.num_projections) == (3, 7)
    assert type(counts.max_iter) is int and type(counts.num_projections) is int
    assert sample_uniform_sphere(np.int32(3), make_rng(0), np.int64(4)).shape == (4, 3)
    flow = _flow(num_particles=np.int64(16), steps=np.int16(2), snapshot_every=np.int8(1))
    assert flow.snapshot_steps == (0, 1, 2) and flow.trace.shape == (2,)


# ---------------------------------------------------------------------------
# record plumbing and toy targets
# ---------------------------------------------------------------------------


def test_record_rejects_non_finite():
    with pytest.raises(ValueError):
        Record("x", "", float("nan"), 0.0)
    with pytest.raises(ValueError):
        Record("x", "", 1.0, float("inf"))


def test_four_mode_target_is_balanced():
    pts = four_mode_gmm(64, make_rng(0))
    assert pts.shape == (64, 2)
    assignment = np.argmin(
        ((pts[:, None, :] - MODES[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    counts = np.bincount(assignment, minlength=4)
    assert np.array_equal(counts, np.full(4, 16))


def test_sample_gmm_shapes_and_determinism():
    params = GmmParams(
        means=np.array([[0.0, 0.0], [5.0, 5.0]]),
        log_std_devs=np.zeros((2, 2)),
        weights=np.array([0.5, 0.5]),
    )
    a = sample_gmm(params, 100, make_rng(1))
    b = sample_gmm(params, 100, make_rng(1))
    assert a.shape == (100, 2)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# kappa sweep
# ---------------------------------------------------------------------------


def test_kappa_sweep_identical_clouds_all_zero():
    X, _ = axis_pair(1, d=3)
    res = kappa_sweep(
        X, X, CFG, kappas=[1.0, 10.0],
        opt=OptimizerConfig(max_iter=2, num_projections=20), trials=2,
        rng=make_rng(2),
    )
    assert isinstance(res, ExperimentResult)
    for row in res.table:
        assert row.value == 0.0
        assert row.std_error == 0.0


def test_kappa_sweep_row_layout():
    X, Y = axis_pair(3, d=2, n=24)
    res = kappa_sweep(
        X, Y, CFG, kappas=[2.0, 20.0],
        opt=OptimizerConfig(max_iter=2, num_projections=20), trials=3,
        rng=make_rng(4),
    )
    metrics = [r.metric for r in res.table]
    assert metrics == ["ssfg", "ssfg", "sfg", "max_sfg"]
    assert [r.parameter for r in res.table[:2]] == ["2.0", "20.0"]


def test_kappa_sweep_low_concentration_row_matches_sfg_row():
    X, Y = axis_pair(43, d=3)
    res = kappa_sweep(
        X, Y, CFG, kappas=[1e-3],
        opt=OptimizerConfig(num_projections=500, max_iter=3), trials=3,
        rng=make_rng(61),
    )
    rows = {r.metric: r for r in res.table}
    pooled = float(np.hypot(rows["ssfg"].std_error, rows["sfg"].std_error))
    assert abs(rows["ssfg"].value - rows["sfg"].value) <= 4.0 * pooled


def test_kappa_sweep_high_concentration_row_matches_max_sfg_row():
    X, Y = axis_pair(43, d=3)
    res = kappa_sweep(
        X, Y, CFG, kappas=[1e4],
        opt=OptimizerConfig(learning_rate=0.05, max_iter=150, num_projections=100),
        trials=3, rng=make_rng(60),
    )
    rows = {r.metric: r for r in res.table}
    assert (
        abs(rows["ssfg"].value - rows["max_sfg"].value)
        <= 0.02 * rows["max_sfg"].value
    )


# ---------------------------------------------------------------------------
# convergence rate
# ---------------------------------------------------------------------------


def test_convergence_rate_validation():
    with pytest.raises(ValueError):
        convergence_rate(2, [10, 10], 3, CFG, 1.0)
    with pytest.raises(ValueError, match="at least two sample sizes"):
        convergence_rate(2, [8], 2, CFG, 1.0, metric="w1_control")
    with pytest.raises(ValueError):
        convergence_rate(2, [20, 10], 3, CFG, 1.0)
    with pytest.raises(ValueError):
        convergence_rate(2, [10, 20], 0, CFG, 1.0)
    with pytest.raises(ValueError):
        convergence_rate(2, [10, 20], 3, CFG, 1.0, metric="energy")


def test_convergence_checks_d_for_the_ssfg_metric_only():
    # an ssfg cloud needs d >= 2, and the error names d; the classical
    # control ignores d, so d = 1 gives the table of any other d
    with pytest.raises(ValueError, match=r"^d must be >= 2$"):
        convergence_rate(1, [4, 8], 1, CFG, 1.0)
    tables = [convergence_rate(d, [4, 8], 2, CFG, 1.0, rng=make_rng(12), metric="w1_control").table
              for d in (1, 3)]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: GmmParams(np.zeros((2, 2)), np.zeros((2, 3)), [0.5, 0.5]), ValueError,
                 "means and log_std_devs must share a (k, d) shape", id="gmm-params-shape"),
    pytest.param(lambda: GmmParams(np.full((1, 2), np.inf), np.zeros((1, 2)), [1.0]), ValueError,
                 "GMM parameters must be finite", id="gmm-params-non-finite"),
    pytest.param(lambda: kappa_sweep(*axis_pair(0, 2, n=8), CFG, [1.0], trials=0), ValueError,
                 "trials must be >= 1", id="sweep-trials-zero"),
    pytest.param(lambda: convergence_rate(2, [0, 10], 3, CFG, 1.0), ValueError,
                 "sample sizes must be positive", id="convergence-size-zero"),
    pytest.param(lambda: particle_flow(four_mode_gmm(64, make_rng(0)), 64,
                                       FlowObjective(kind="sfg", num_projections=1), steps=3,
                                       step_size=1e307, rng=make_rng(1)), DivergenceError,
                 "particle_flow: non-finite particle (iteration 1)", id="flow-particle-overflow"),
])
def test_experiment_checks_that_no_other_test_reaches(call, error, message):
    with np.errstate(all="ignore"), pytest.raises(error, match=re.escape(message)):
        call()


def test_w1_control_recovers_classical_rate():
    res = convergence_rate(
        5, [10, 20, 40, 80, 160, 320, 640], 20, CFG, kappa=10.0,
        rng=make_rng(7), metric="w1_control",
    )
    rows = [r for r in res.table if r.metric == "w1_control"]
    slope = next(r for r in res.table if r.metric == "w1_control_slope")
    assert slope.value <= -0.8
    assert slope.std_error == 0.0
    # doubling n never increases the mean by more than 2 pooled errors
    for a, b in zip(rows, rows[1:]):
        assert b.value <= a.value + 2.0 * float(np.hypot(a.std_error, b.std_error))


def test_w1_control_rows_are_means_over_spawned_trial_streams():
    # for each size in order, one generator per trial is spawned; each draws
    # the n-point sample and then the m-point reference, and the row is the
    # Monte Carlo mean and standard error of the trials' values
    sizes, trials, m = [4, 8, 16], 3, 16 * 16
    res = convergence_rate(3, sizes, trials, CFG, 10.0, rng=make_rng(11), metric="w1_control")
    rng = make_rng(11)
    for n, row in zip(sizes, res.table):
        reps, values = m // n, []
        for child in rng.spawn(trials):
            samp = child.uniform(size=n)
            ref = child.uniform(size=m)[: reps * n]
            values.append(float(np.mean((np.repeat(np.sort(samp), reps) - np.sort(ref)) ** 2)))
        value, std_error = _mc_estimate(np.array(values))
        assert (row.metric, row.parameter) == ("w1_control", str(n))
        assert (row.value, row.std_error) == (value, std_error)


def test_ssfg_convergence_smoke_decays():
    res = convergence_rate(
        3, [8, 16, 32, 64], 4, CFG, kappa=10.0,
        opt=OptimizerConfig(max_iter=2, num_projections=50),
        rng=make_rng(8), metric="ssfg",
    )
    rows = [r for r in res.table if r.metric == "ssfg"]
    slope = next(r for r in res.table if r.metric == "ssfg_slope")
    assert all(np.isfinite(r.value) and r.value >= 0.0 for r in rows)
    assert slope.value < 0.0
    for a, b in zip(rows, rows[1:]):
        assert b.value <= a.value + 2.0 * float(np.hypot(a.std_error, b.std_error))
    # the reference holds m = 16 * max(n) points: at sizes (4, 8) the first
    # row is the ssfg of the first child's 4 points against its 128-point
    # reference, cut to the first (m // 4) * 4 points
    opt = OptimizerConfig(max_iter=2, num_projections=10)
    row = convergence_rate(3, [4, 8], 1, CFG, 10.0, opt, rng=make_rng(9)).table[0]
    child = make_rng(9).spawn(1)[0]
    samp = child.uniform(size=(4, 3))
    ref = child.uniform(size=(16 * 8, 3))[: (16 * 8 // 4) * 4]
    assert row.value == ssfg(samp, ref, CFG, 10.0, opt, rng=child).value


def test_equal_sample_and_reference_give_zero():
    # the degenerate case of the harness pairing: when the "sample" already
    # equals the reference, the discrepancy vanishes identically
    r = make_rng(9)
    cloud = as_point_cloud(r.uniform(size=(64, 3)))
    rep = ssfg(
        cloud, cloud, CFG, kappa=10.0,
        opt=OptimizerConfig(max_iter=2, num_projections=30), rng=make_rng(10),
    )
    assert rep.value == 0.0


# ---------------------------------------------------------------------------
# particle flow
# ---------------------------------------------------------------------------


def test_flow_objective_validation():
    with pytest.raises(ValueError):
        FlowObjective(kind="energy")
    with pytest.raises(ValueError):
        FlowObjective(kind="ssfg", num_projections=0)
    with pytest.raises(ValueError):
        # neither size divides the other
        particle_flow(
            four_mode_gmm(32, make_rng(0)), 24, FlowObjective(), steps=5,
            step_size=0.01, rng=make_rng(0),
        )
    with pytest.raises(ValueError):
        particle_flow(
            four_mode_gmm(32, make_rng(0)), 32, FlowObjective(), steps=0,
            step_size=0.01, rng=make_rng(0),
        )
    with pytest.raises(ValueError):
        # mixture flow without its concentration grid
        particle_flow(
            four_mode_gmm(32, make_rng(0)), 32, FlowObjective(kind="mssfg"),
            steps=5, step_size=0.01, rng=make_rng(0),
        )
    for every in (0, -3):
        with pytest.raises(ValueError, match="snapshot_every must be >= 1"):
            particle_flow(
                four_mode_gmm(32, make_rng(0)), 32, FlowObjective(), steps=5,
                step_size=0.01, rng=make_rng(0), snapshot_every=every,
            )
    for step_size in (np.nan, np.inf):
        with pytest.raises(ValueError, match="step_size must be finite"):
            particle_flow(
                four_mode_gmm(32, make_rng(0)), 32, FlowObjective(), steps=5,
                step_size=step_size, rng=make_rng(0),
            )


@pytest.mark.parametrize("kappa", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("kind", ["sfg", "max_sfg", "mssfg"])
def test_flows_check_kappa_whatever_the_kind(kind, kappa):
    # a kind that never reads kappa still rejects a bad one, as the CLI does
    objective = FlowObjective(kind=kind, kappa=kappa, num_projections=2,
                              kappas=(5.0,) if kind == "mssfg" else None)
    with pytest.raises(ValueError, match="concentration must be finite and >= 0"):
        particle_flow(_TARGET, 16, objective, steps=1, step_size=0.01, rng=make_rng(1))
    with pytest.raises(ValueError, match="concentration must be finite and >= 0"):
        gmm_fit(_TARGET, 2, objective, steps=1, step_size=0.01, batch=8, rng=make_rng(2))


def test_flow_stationary_at_target():
    n, d, seed = 64, 2, 123
    expected_init = 0.1 * np.random.default_rng(seed).standard_normal((n, d))
    res = particle_flow(
        expected_init, n, FlowObjective(kind="ssfg", kappa=50.0),
        steps=10, step_size=0.05, rng=make_rng(seed),
    )
    assert res.trace[0] == 0.0
    assert np.all(res.trace == 0.0)
    drift = np.abs(res.particles - expected_init).max()
    assert drift < 1e-6
    assert np.array_equal(res.snapshots[0], res.snapshots[-1])


@pytest.mark.parametrize("n, m", [(16, 64), (64, 16)])
def test_flow_toward_a_target_whose_size_divides_or_is_a_multiple(n, m):
    # the engines' size rule: the particles face the target's quantiles
    objective = FlowObjective(kind="ssfg", kappa=1000.0, learning_rate=0.05)
    res = particle_flow(four_mode_gmm(m, make_rng(0)), n, objective, steps=400,
                        step_size=0.01, rng=make_rng(100))
    assert res.particles.shape == (n, 2)
    assert res.trace[-20:].mean() < 0.1 * res.trace[:20].mean()


def test_flow_snapshot_cadence():
    target = four_mode_gmm(64, make_rng(11))
    res = particle_flow(
        target, 64, FlowObjective(kind="ssfg", kappa=1000.0),
        steps=250, step_size=0.01, rng=make_rng(12), snapshot_every=100,
    )
    assert res.snapshot_steps == (0, 100, 200, 250)
    assert len(res.snapshots) == 4
    assert res.trace.shape == (250,)
    assert np.array_equal(res.snapshots[-1], res.particles)


def test_flow_short_four_mode_run_reduces_discrepancy():
    target = four_mode_gmm(128, make_rng(13))
    res = particle_flow(
        target, 128, FlowObjective(kind="ssfg", kappa=1000.0),
        steps=600, step_size=0.01, rng=make_rng(14),
    )
    assert np.isfinite(res.trace).all()
    assert res.trace[-50:].mean() < 0.5 * res.trace[:50].mean()


def test_flow_works_under_every_objective_kind():
    target = four_mode_gmm(48, make_rng(15))
    for kind in ("sfg", "max_sfg", "ssfg", "pssfg", "mssfg"):
        obj = FlowObjective(
            kind=kind, kappa=100.0,
            kappas=(10.0, 100.0) if kind == "mssfg" else None,
        )
        res = particle_flow(target, 48, obj, steps=40, step_size=0.01, rng=make_rng(16))
        assert np.isfinite(res.trace).all()


def test_flow_and_gmm_single_component_mixture_reduce_to_ssfg():
    target = four_mode_gmm(256, make_rng(17))
    mixed = FlowObjective(kind="mssfg", kappas=(10.0,), learning_rate=0.05)
    single = FlowObjective(kind="ssfg", kappa=10.0, learning_rate=0.05)
    flows = [
        particle_flow(target, 256, obj, steps=30, step_size=0.01, rng=make_rng(18))
        for obj in (mixed, single)
    ]
    assert np.array_equal(flows[0].trace, flows[1].trace)
    assert np.array_equal(flows[0].particles, flows[1].particles)
    fits = [
        gmm_fit(target, 2, obj, steps=30, step_size=0.01, rng=make_rng(19))
        for obj in (mixed, single)
    ]
    assert np.array_equal(fits[0].means, fits[1].means)
    assert np.array_equal(fits[0].log_std_devs, fits[1].log_std_devs)


@pytest.mark.parametrize("kind", KINDS)
def test_flow_divergence_reports_step(kind):
    target = four_mode_gmm(128, make_rng(500))
    objective = FlowObjective(kind=kind, kappa=1000.0,
                              kappas=(1000.0, 10.0) if kind == "mssfg" else None)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        particle_flow(target, 128, objective, steps=50, step_size=1.0, rng=make_rng(3))
    assert info.value.step >= 1
    assert str(info.value).startswith(f"{kind}: non-finite")


@pytest.mark.parametrize("kind", ["sfg", "ssfg"])
def test_flows_run_on_a_target_at_large_scale(kind):
    # the first cost is about 2.5e106: large but finite, so every step runs
    target = four_mode_gmm(64, make_rng(0)) * 1e26
    objective = FlowObjective(kind=kind, kappa=10.0)
    flow = particle_flow(target, 64, objective, steps=20, step_size=0.01, rng=make_rng(1))
    assert flow.trace.shape == (20,) and np.isfinite(flow.trace).all()
    assert flow.trace.min() > 1e106 and np.isfinite(flow.particles).all()
    params = gmm_fit(target, 4, objective, steps=20, step_size=0.01, batch=32, rng=make_rng(2))
    assert np.isfinite(params.means).all() and np.isfinite(params.log_std_devs).all()


def test_flow_trace_smoothed_nonincreasing_at_boundary_step_size():
    obj = FlowObjective(kind="ssfg", kappa=50.0, learning_rate=0.03, num_projections=100)
    ok = 0
    for seed in range(10):
        target = make_rng(3000 + seed).normal(size=(256, 2))
        res = particle_flow(target, 256, obj, steps=400, step_size=0.05, rng=make_rng(seed))
        sm = _smoothed(res.trace)
        # nonincreasing up to Monte Carlo jitter at the converged plateau
        ok += bool(np.all(np.diff(sm) <= 0.02 * sm[0]))
    assert ok >= 9


def test_flow_determinism():
    target = four_mode_gmm(64, make_rng(17))
    runs = [
        particle_flow(
            target, 64, FlowObjective(kind="ssfg", kappa=1000.0),
            steps=80, step_size=0.01, rng=make_rng(18),
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].trace, runs[1].trace)
    assert np.array_equal(runs[0].particles, runs[1].particles)


# ---------------------------------------------------------------------------
# gmm fitting
# ---------------------------------------------------------------------------


def test_gmm_validation():
    target = four_mode_gmm(64, make_rng(19))
    with pytest.raises(ValueError):
        gmm_fit(target, 0, FlowObjective(), steps=5, step_size=0.01, rng=make_rng(0))
    with pytest.raises(ValueError):
        gmm_fit(target, 2, FlowObjective(), steps=5, step_size=0.01, batch=65, rng=make_rng(0))
    with pytest.raises(ValueError, match="steps must be >= 0"):
        gmm_fit(target, 2, FlowObjective(), steps=-1, step_size=0.01, batch=16, rng=make_rng(0))
    for step_size in (np.nan, np.inf):
        with pytest.raises(ValueError, match="step_size must be finite"):
            gmm_fit(target, 2, FlowObjective(), steps=5, step_size=step_size, batch=16,
                    rng=make_rng(0))
    for weights in ([np.nan], [0.5, np.nan], [np.inf, 0.0]):
        k = len(weights)
        with pytest.raises(ValueError, match="weights must be finite"):
            GmmParams(np.zeros((k, 2)), np.zeros((k, 2)), weights)


@pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "mssfg"])
def test_flow_objective_takes_kappas_and_alphas_only_for_mssfg(kind):
    # they would be ignored: the flow's ascent reads them only for mssfg
    message = f"kappas and alphas apply only to kind mssfg, not {kind}"
    for extra in ({"kappas": (1.0, 500.0)}, {"alphas": (0.9, 0.1)},
                  {"kappas": (1.0, 500.0), "alphas": (0.9, 0.1)}, {"kappas": ()}):
        with pytest.raises(ValueError, match=message):
            FlowObjective(kind=kind, kappa=10.0, **extra)
    mixture = FlowObjective(kind="mssfg", kappas=(1.0, 500.0), alphas=(0.9, 0.1))
    assert mixture.kappas == (1.0, 500.0) and mixture.alphas == (0.9, 0.1)


@pytest.mark.parametrize("objective, message", [
    pytest.param(FlowObjective(kind="ssfg", kappa=np.inf), "must be finite", id="ssfg-inf"),
    pytest.param(FlowObjective(kind="pssfg", kappa=np.nan), "must be finite", id="pssfg-nan"),
    pytest.param(FlowObjective(kind="mssfg", kappas=(1.0, np.inf)), "must be finite", id="mssfg-inf"),
    pytest.param(FlowObjective(kind="mssfg", kappas=(5.0,), alphas=(np.nan,)), "must be finite",
                 id="mssfg-nan-weight"),
    pytest.param(FlowObjective(kind="mssfg"), "needs kappas", id="mssfg-no-kappas"),
    pytest.param(FlowObjective(kappa=-5.0), "concentration must be finite", id="kappa-negative"),
    pytest.param(FlowObjective(learning_rate=-1.0), "learning_rate must be positive",
                 id="learning-rate-negative"),
    pytest.param(FlowObjective(adam_beta1=1.5), "Adam betas", id="beta1-above-one"),
    pytest.param(FlowObjective(learning_rate=np.inf), "learning_rate must be finite",
                 id="learning-rate-inf"),
    pytest.param(FlowObjective(kind="sfg", learning_rate=-1.0), "learning_rate must be positive",
                 id="sfg-learning-rate-negative"),
    pytest.param(FlowObjective(kind="sfg", adam_beta1=1.5), "Adam betas",
                 id="sfg-beta1-above-one"),
])
def test_flows_reject_non_finite_slicing_parameters(objective, message):
    target = four_mode_gmm(32, make_rng(25))
    with pytest.raises(ValueError, match=message):
        particle_flow(target, 32, objective, steps=2, step_size=0.01, rng=make_rng(0))
    # the slicing ascent is built before the first step, so steps=0 checks it too
    for steps in (0, 2):
        with pytest.raises(ValueError, match=message):
            gmm_fit(target, 2, objective, steps=steps, step_size=0.01, batch=16, rng=make_rng(0))


def test_gmm_zero_steps_returns_initialization():
    target = four_mode_gmm(64, make_rng(20))
    seed = 321
    expected_means = 0.1 * np.random.default_rng(seed).standard_normal((3, 2))
    params = gmm_fit(
        target, 3, FlowObjective(kind="ssfg", kappa=10.0),
        steps=0, step_size=0.01, batch=64, rng=make_rng(seed),
    )
    assert np.array_equal(params.means, expected_means)
    assert np.array_equal(params.log_std_devs, np.zeros((3, 2)))
    assert np.allclose(params.weights, 1.0 / 3.0)


def test_gmm_single_component_matches_moments():
    target = make_rng(5).normal(loc=0.7, scale=1.3, size=(1024, 2))
    params = gmm_fit(
        target, 1, FlowObjective(kind="ssfg", kappa=10.0),
        steps=400, step_size=0.05, rng=make_rng(11),
    )
    target_mean = target.mean(axis=0)
    target_std = target.std(axis=0)
    assert np.abs(params.means[0] - target_mean).max() < 0.1
    assert np.abs(np.exp(params.log_std_devs[0]) - target_std).max() < 0.1


def test_gmm_four_components_capture_four_modes():
    target = four_mode_gmm(1024, make_rng(6))
    params = gmm_fit(
        target, 4, FlowObjective(kind="ssfg", kappa=10.0),
        steps=2000, step_size=0.01, rng=make_rng(12),
    )
    # bijective nearest-mode matching within 2 target standard deviations
    dists = np.linalg.norm(params.means[:, None, :] - MODES[None, :, :], axis=2)
    assignment = dists.argmin(axis=1)
    assert sorted(assignment) == [0, 1, 2, 3]
    assert dists[np.arange(4), assignment].max() < 1.0


def test_gmm_finite_under_default_configuration():
    target = four_mode_gmm(512, make_rng(21))
    params = gmm_fit(
        target, 10, FlowObjective(kind="ssfg", kappa=10.0),
        steps=1000, step_size=0.01, batch=128, rng=make_rng(22),
    )
    assert np.isfinite(params.means).all()
    assert np.isfinite(params.log_std_devs).all()


@pytest.mark.parametrize("kind", KINDS)
def test_gmm_divergence_reports_step(kind):
    target = four_mode_gmm(128, make_rng(500))
    objective = FlowObjective(kind=kind, kappa=10.0,
                              kappas=(10.0, 10.0) if kind == "mssfg" else None)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        gmm_fit(target, 4, objective, steps=200, step_size=2.0, batch=64, rng=make_rng(4))
    assert info.value.step >= 1
    assert str(info.value).startswith(f"{kind}: non-finite")


def test_gmm_determinism():
    target = four_mode_gmm(256, make_rng(23))
    fits = [
        gmm_fit(
            target, 2, FlowObjective(kind="ssfg", kappa=10.0),
            steps=60, step_size=0.01, rng=make_rng(24),
        )
        for _ in range(2)
    ]
    assert np.array_equal(fits[0].means, fits[1].means)
    assert np.array_equal(fits[0].log_std_devs, fits[1].log_std_devs)
