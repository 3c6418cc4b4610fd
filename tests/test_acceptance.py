"""Acceptance gate: one test per shipped criterion. Each prints a single
PASS/FAIL line with its measured margin and elapsed time against the stated
runtime budget, then asserts. Tolerances are the contract values, not tuned."""

import json
import math
import time

import numpy as np

from ssfgw.cli import main as cli_main
from ssfgw.cli import write_point_cloud
from ssfgw.discrepancies import (
    OptimizerConfig,
    _ascent_step,
    _eval_slices,
    max_sfg,
    mssfg,
    pssfg,
    sfg,
    ssfg,
)
from ssfgw.experiments import FlowObjective, convergence_rate, four_mode_gmm, gmm_fit, particle_flow
from ssfgw.fgw import (
    FgwConfig,
    Projected1D,
    as_point_cloud,
    fgw_1d,
    fgw_1d_grad,
)
from ssfgw.sampling import (
    PowerSphericalParams,
    VmfParams,
    make_rng,
    sample_power_spherical,
    sample_vmf,
)
from ssfgw.sphere_opt import SlicingAscent

from oracles import fgw_1d_bruteforce, unit_vector, vmf_mean_resultant_oracle

CFG = FgwConfig(beta=0.1, exponent=2)
MODES = np.array([[4.0, 4.0], [4.0, -4.0], [-4.0, 4.0], [-4.0, -4.0]])


def _finish(capsys, number, label, failures, start, budget, detail=""):
    elapsed = time.perf_counter() - start
    over_budget = budget is not None and elapsed >= budget
    status = "FAIL" if failures or over_budget else "PASS"
    budget_text = f" of {budget:.0f}s budget" if budget is not None else ""
    with capsys.disabled():
        print(f"\n[criterion {number}] {label}: {status}"
              f" ({detail}{'; ' if detail else ''}{elapsed:.1f}s{budget_text})")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _p1d(values):
    values = np.asarray(values, dtype=np.float64)
    return Projected1D(values, np.argsort(values, kind="stable"))


def _random_p1d(rng, n, scale=1.0):
    return _p1d(rng.normal(size=n) * scale + rng.normal())


def iid_pair(seed, d, n=32):
    r = make_rng(seed)
    X = r.normal(size=(n, d)) * float(r.uniform(0.8, 1.6))
    Y = r.normal(size=(n, d)) * float(r.uniform(0.8, 1.6)) + r.normal(size=d) * 0.5
    return as_point_cloud(X), as_point_cloud(Y)


def axis_pair(seed, d, n=48, stretch=3.0):
    r = make_rng(seed)
    base = r.normal(size=(n, d))
    Y = base.copy()
    Y[:, 0] *= stretch
    return as_point_cloud(base), as_point_cloud(Y)


def test_criterion_1_solver_matches_permutation_oracle_at_endpoints(capsys):
    start = time.perf_counter()
    failures = []
    worst = 0.0
    rng = np.random.default_rng(1001)
    for beta in (0.0, 1.0):
        cfg = FgwConfig(beta=beta, exponent=2)
        for i in range(200):
            n = int(rng.integers(1, 7))
            xs = _random_p1d(rng, n)
            ys = _random_p1d(rng, n, scale=float(rng.uniform(0.5, 2.0)))
            fast = fgw_1d(xs, ys, cfg)
            brute = fgw_1d_bruteforce(xs, ys, cfg)
            rel = abs(fast - brute) / max(abs(brute), 1e-12)
            worst = max(worst, rel)
            if rel > 1e-9:
                failures.append((beta, i, rel))
    _finish(capsys, 1, "1D solver == n! oracle at beta 0 and 1 (200 each, rel 1e-9)",
            failures, start, 10.0, f"worst rel {worst:.1e}")


def test_criterion_2_per_slice_pseudo_metric_properties(capsys):
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1002)
    for t in range(500):
        n = int(rng.integers(2, 17))
        cfg = FgwConfig(beta=float(rng.uniform(0, 1)), exponent=2)
        xs = _random_p1d(rng, n)
        ys = _random_p1d(rng, n, scale=float(rng.uniform(0.5, 2.0)))
        zs = _random_p1d(rng, n, scale=float(rng.uniform(0.5, 2.0)))
        d_xy = fgw_1d(xs, ys, cfg)
        d_yz = fgw_1d(ys, zs, cfg)
        d_xz = fgw_1d(xs, zs, cfg)
        if min(d_xy, d_yz, d_xz) < 0.0:
            failures.append((t, "negative cost"))
        if d_xy != fgw_1d(ys, xs, cfg):
            failures.append((t, "asymmetric"))
        if fgw_1d(xs, xs, cfg) != 0.0:
            failures.append((t, "nonzero self-distance"))
        if d_xz > 2.0 * (d_xy + d_yz) + 1e-12:
            failures.append((t, "weak triangle violated"))
    _finish(capsys, 2, "per-slice nonneg/symmetry/self-zero/triangle x2 (500 triples)",
            failures, start, 10.0)


def test_criterion_3_sandwich_on_50_random_instances(capsys):
    start = time.perf_counter()
    failures = []
    worst_margin = np.inf
    ds = (2, 3, 8)
    ks = (1.0, 10.0, 100.0)
    for i in range(50):
        d = ds[i % 3]
        kappa = ks[(i // 3) % 3]
        X, Y = iid_pair(9000 + i, d, n=int(make_rng(9000 + i).integers(24, 49)))
        lo = sfg(X, Y, CFG, L=1000, rng=make_rng(2 * i))
        mid = ssfg(
            X, Y, CFG, kappa=kappa,
            opt=OptimizerConfig(learning_rate=0.03, max_iter=60, num_projections=300),
            rng=make_rng(2 * i + 1),
        )
        hi = max_sfg(
            X, Y, CFG, OptimizerConfig(learning_rate=0.05, max_iter=100),
            make_rng(3 * i + 7),
        )
        tol_lo = 4.0 * float(np.hypot(lo.std_error, mid.std_error))
        tol_hi = 4.0 * mid.std_error
        if mid.value < lo.value - tol_lo:
            failures.append((i, d, kappa, "lower bound"))
        if mid.value > hi.value + tol_hi:
            failures.append((i, d, kappa, "upper bound"))
        worst_margin = min(
            worst_margin,
            (mid.value - (lo.value - tol_lo)) / tol_lo,
            ((hi.value + tol_hi) - mid.value) / tol_hi,
        )
    _finish(capsys, 3, "sfg <= ssfg <= max_sfg within 4 pooled SE (50 instances)",
            failures, start, 120.0, f"worst margin {worst_margin:.2f} tol units")


def test_criterion_4_concentration_limits(capsys):
    start = time.perf_counter()
    failures = []
    details = []
    # diffuse limit: smoothed engines recover the uniform average at L=2000
    X, Y = iid_pair(48, d=3, n=40)
    for name, engine, seed_lo, seed_hi in (
        ("ssfg", ssfg, 20, 21),
        ("pssfg", pssfg, 22, 23),
    ):
        lo = sfg(X, Y, CFG, L=2000, rng=make_rng(seed_lo))
        rep = engine(
            X, Y, CFG, kappa=1e-3,
            opt=OptimizerConfig(num_projections=2000, max_iter=3),
            rng=make_rng(seed_hi),
        )
        pooled = float(np.hypot(lo.std_error, rep.std_error))
        z = abs(rep.value - lo.value) / pooled
        details.append(f"{name} diffuse {z:.2f} pooled SE")
        if z > 4.0:
            failures.append((name, "diffuse limit", z))
    # concentrated limit on the stretched-axis instance, against a max_sfg
    # value cross-checked by a 40000-direction sphere grid
    A, B = axis_pair(43, d=3)
    i = np.arange(40000) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / 40000)
    t = np.pi * (1.0 + 5.0 ** 0.5) * i
    grid = np.column_stack(
        [np.sin(phi) * np.cos(t), np.sin(phi) * np.sin(t), np.cos(phi)]
    )
    grid_max = float(_eval_slices(A, B, grid, CFG, want_grads=False)[0].max())
    hi = max_sfg(A, B, CFG, OptimizerConfig(learning_rate=0.05, max_iter=150), make_rng(8))
    if not (grid_max - 1e-6 * grid_max <= hi.value <= 1.005 * grid_max):
        failures.append(("max_sfg grid validation", hi.value, grid_max))
    for name, engine, seed in (("ssfg", ssfg, 9), ("pssfg", pssfg, 12)):
        rep = engine(
            A, B, CFG, kappa=1e4,
            opt=OptimizerConfig(learning_rate=0.05, max_iter=150, num_projections=100),
            rng=make_rng(seed),
        )
        rel = abs(rep.value - hi.value) / hi.value
        details.append(f"{name} concentrated rel {rel:.1e}")
        if rel > 0.02:
            failures.append((name, "concentrated limit", rel))
    _finish(capsys, 4, "kappa->0 recovers sfg, kappa->inf reaches grid-checked max_sfg",
            failures, start, 120.0, "; ".join(details))


def test_criterion_5_sample_complexity_slope(capsys):
    start = time.perf_counter()
    failures = []
    sizes = [10, 20, 40, 80, 160, 320, 640]
    control = convergence_rate(
        5, sizes, 20, CFG, kappa=10.0, rng=make_rng(2025), metric="w1_control"
    )
    control_slope = next(
        r for r in control.table if r.metric == "w1_control_slope"
    ).value
    if control_slope > -0.8:
        failures.append(("w1 control slope", control_slope))
    # only a harness validated by the classical control is allowed to judge
    # the sliced discrepancy
    slope = None
    if not failures:
        res = convergence_rate(
            5, sizes, 20, CFG, kappa=10.0,
            opt=OptimizerConfig(max_iter=2), rng=make_rng(2026), metric="ssfg",
        )
        slope = next(r for r in res.table if r.metric == "ssfg_slope").value
        if slope > -0.8:
            failures.append(("ssfg slope", slope))
    _finish(capsys, 5, "log-log decay slope <= -0.8 at d=5 (control first)",
            failures, start, 300.0,
            f"control {control_slope:.3f}, ssfg {slope if slope is None else round(slope, 3)}")


def test_criterion_6_gradient_routes_agree(capsys):
    start = time.perf_counter()
    failures = []
    worst_loc = 0.0
    for d in (3, 8):
        Xg, Yg = iid_pair(600 + d, d, n=16)
        for kappa in (1.0, 10.0, 50.0):
            eps = unit_vector(make_rng(d * 100 + int(kappa)).normal(size=d))
            # the engines' and flows' own ascent iteration, on each route
            # from a fresh ascent and the same draws
            gp, gf = (
                _ascent_step("ssfg", Xg, Yg, CFG, SlicingAscent("vmf", [eps], (kappa,)), 2000,
                             pathwise, make_rng(5), 1)[4][0]
                for pathwise in (True, False)
            )
            rel = float(
                np.linalg.norm(gp - gf) / max(np.linalg.norm(gp), np.linalg.norm(gf))
            )
            worst_loc = max(worst_loc, rel)
            if rel > 1e-2:
                failures.append(("location gradient", d, kappa, rel))
    # per-slice value gradients against central differences, off sort ties
    rng = np.random.default_rng(1006)
    checked = 0
    attempts = 0
    worst_fd = 0.0
    h = 1e-5
    while checked < 20 and attempts < 200:
        attempts += 1
        xv = rng.normal(size=16) * 2.0
        yv = rng.normal(size=16) * 2.0 + 0.5
        if np.diff(np.sort(xv)).min() < 1e-4 or np.diff(np.sort(yv)).min() < 1e-4:
            continue
        ga, gb, _ = fgw_1d_grad(_p1d(xv), _p1d(yv), CFG)
        fgx = np.empty(16)
        fgy = np.empty(16)
        for i in range(16):
            up, dn = xv.copy(), xv.copy()
            up[i] += h
            dn[i] -= h
            fgx[i] = (fgw_1d(_p1d(up), _p1d(yv), CFG) - fgw_1d(_p1d(dn), _p1d(yv), CFG)) / (2 * h)
            up, dn = yv.copy(), yv.copy()
            up[i] += h
            dn[i] -= h
            fgy[i] = (fgw_1d(_p1d(xv), _p1d(up), CFG) - fgw_1d(_p1d(xv), _p1d(dn), CFG)) / (2 * h)
        scale = max(np.abs(fgx).max(), np.abs(fgy).max(), 1e-8)
        err = max(np.abs(ga - fgx).max(), np.abs(gb - fgy).max()) / scale
        worst_fd = max(worst_fd, err)
        if err > 1e-5:
            failures.append(("slice gradient vs FD", checked, err))
        checked += 1
    if checked < 20:
        failures.append(("not enough tie-free instances", checked))
    _finish(capsys, 6, "pathwise == CRN finite differences (rel 1e-2 / 1e-5)",
            failures, start, 60.0,
            f"worst location rel {worst_loc:.1e}, worst slice rel {worst_fd:.1e}")


def test_criterion_7_direction_samplers_match_closed_forms(capsys):
    start = time.perf_counter()
    failures = []
    L = 100_000
    rng = make_rng(15)
    worst_z = 0.0
    for d in (3, 8, 64):
        loc = unit_vector(rng.normal(size=d))
        for kappa in (0.5, 2.0, 10.0, 50.0):
            t = sample_vmf(VmfParams(loc, kappa), rng, L) @ loc
            se = float(t.std(ddof=1)) / math.sqrt(L)
            z = abs(float(t.mean()) - vmf_mean_resultant_oracle(kappa, d)) / se
            worst_z = max(worst_z, z)
            if z > 4.0:
                failures.append(("vmf", d, kappa, z))
    rng = make_rng(17)
    for d in (3, 8):
        loc = unit_vector(rng.normal(size=d))
        for kappa in (1.0, 10.0, 50.0):
            t = sample_power_spherical(PowerSphericalParams(loc, kappa), rng, L) @ loc
            se = float(t.std(ddof=1)) / math.sqrt(L)
            z = abs(float(t.mean()) - kappa / (d - 1.0 + kappa)) / se
            worst_z = max(worst_z, z)
            if z > 4.0:
                failures.append(("power spherical", d, kappa, z))
    # kappa = 0 is the uniform sphere measure
    rng = make_rng(14)
    d = 5
    loc = unit_vector(rng.normal(size=d))
    batch = sample_vmf(VmfParams(loc, 0.0), rng, 40000)
    se = math.sqrt(1.0 / d / 40000)
    if np.abs(batch.mean(axis=0)).max() > 3.0 * se:
        failures.append(("kappa=0 first moment",))
    if np.abs(batch.T @ batch / 40000 - np.eye(d) / d).max() > 5.0 * se:
        failures.append(("kappa=0 second moment",))
    # high dimension, high concentration stays numerically sound
    rng = make_rng(18)
    loc = unit_vector(rng.normal(size=64))
    big = sample_power_spherical(PowerSphericalParams(loc, 100.0), rng, 2000)
    if not np.isfinite(big).all():
        failures.append(("power spherical d=64 kappa=100 non-finite",))
    if np.abs(np.linalg.norm(big, axis=1) - 1.0).max() > 1e-9:
        failures.append(("power spherical d=64 kappa=100 off sphere",))
    _finish(capsys, 7, "samplers match quadrature / closed-form moments (4 SE at 1e5)",
            failures, start, 60.0, f"worst z {worst_z:.2f}")


def test_criterion_8_flows_and_gmm_recover_modes(capsys):
    start = time.perf_counter()
    failures = []
    details = []
    # four-mode toy flow under the concentrated smoothed objective
    target = four_mode_gmm(512, make_rng(100))
    res = particle_flow(
        target, 512,
        FlowObjective(kind="ssfg", kappa=1000.0, learning_rate=0.05),
        steps=3000, step_size=0.01, rng=make_rng(7),
    )
    assignment = np.argmin(
        ((res.particles[:, None, :] - MODES[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    shares = np.bincount(assignment, minlength=4) / 512.0
    details.append(f"mode shares {np.round(shares, 3).tolist()}")
    if shares.min() < 0.15:
        failures.append(("mode share below 15%", shares.tolist()))
    reduction = res.trace[-50:].mean() / res.trace[:50].mean()
    details.append(f"discrepancy ratio {reduction:.1e}")
    if reduction > 0.10:
        failures.append(("less than 90% reduction", reduction))
    # paired race: the adapted slicing distribution reaches the uniform
    # slicing baseline's final level before the run ends
    wins = 0
    for seed in range(10):
        race_target = four_mode_gmm(256, make_rng(1000 + seed))
        traces = {}
        for kind in ("sfg", "ssfg"):
            out = particle_flow(
                race_target, 256, FlowObjective(kind=kind),
                steps=3000, step_size=0.01, rng=make_rng(seed),
            )
            traces[kind] = np.convolve(out.trace, np.ones(50) / 50.0, mode="valid")
        hits = np.nonzero(traces["ssfg"] <= traces["sfg"][-1])[0]
        wins += bool(hits.size > 0 and hits[0] < traces["ssfg"].size - 1)
    details.append(f"adapted slicing wins {wins}/10")
    if wins < 6:
        failures.append(("adapted slicing won under 60% of paired seeds", wins))
    # GMM fit places one component per mode
    gmm_target = four_mode_gmm(1024, make_rng(6))
    params = gmm_fit(
        gmm_target, 4, FlowObjective(kind="ssfg", kappa=10.0),
        steps=2000, step_size=0.01, rng=make_rng(12),
    )
    dists = np.linalg.norm(params.means[:, None, :] - MODES[None, :, :], axis=2)
    assignment = dists.argmin(axis=1)
    matched = dists[np.arange(4), assignment]
    details.append(f"component-to-mode dists {np.round(matched, 3).tolist()}")
    if sorted(assignment) != [0, 1, 2, 3]:
        failures.append(("components do not cover all modes", assignment.tolist()))
    if matched.max() >= 1.0:
        failures.append(("component further than 2 target stds", matched.max()))
    _finish(capsys, 8, "flow populates all modes, adapted slicing wins race, GMM covers modes",
            failures, start, 300.0, "; ".join(details))


def test_criterion_9_cli_reruns_are_byte_identical(capsys, tmp_path):
    start = time.perf_counter()
    failures = []
    r = make_rng(0)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_point_cloud(a, r.normal(size=(24, 2)))
    write_point_cloud(b, r.normal(size=(24, 2)) * 1.3)
    target = tmp_path / "t.csv"
    write_point_cloud(target, four_mode_gmm(32, make_rng(12)))
    out = tmp_path / "out.csv"
    sidecar = tmp_path / "out.meta.json"
    invocations = [
        ["discrepancy", str(a), str(b), "--kind", "ssfg", "--L", "8",
         "--max-iter", "2", "--seed", "11"],
        ["sweep-kappa", str(a), str(b), "--kappas", "2,20", "--trials", "2",
         "--L", "8", "--max-iter", "1", "--seed", "12"],
        ["convergence", "--d", "2", "--sizes", "8,16", "--trials", "2",
         "--L", "8", "--max-iter", "1", "--seed", "13"],
        ["flow", str(target), "--steps", "30", "--step-size", "0.01",
         "--L", "8", "--seed", "14"],
        ["gmm-fit", str(target), "--components", "2", "--steps", "5",
         "--batch", "16", "--L", "8", "--seed", "15"],
    ]
    for argv in invocations:
        blobs = []
        for _ in range(2):
            code = cli_main(argv + ["--output", str(out)])
            if code != 0:
                failures.append((argv[0], "nonzero exit", code))
                break
            blobs.append((out.read_bytes(), sidecar.read_bytes()))
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            failures.append((argv[0], "rerun differed"))
        if blobs and json.loads(blobs[0][1])["command"] != argv[0]:
            failures.append((argv[0], "sidecar names wrong command"))
    _finish(capsys, 9, "all five CLI commands rerun byte-identically under a fixed seed",
            failures, start, None, "5 commands x 2 runs")
