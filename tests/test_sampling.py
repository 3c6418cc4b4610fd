"""Directional samplers: norms, determinism, the reflection frame, and
agreement of empirical statistics with closed forms and quadrature."""

import math
import re

import numpy as np
import pytest

from ssfgw import sampling
from ssfgw.sampling import (
    MixtureVmfParams,
    PowerSphericalParams,
    VmfParams,
    householder_matrix,
    make_rng,
    sample_mixture_vmf,
    sample_power_spherical,
    sample_uniform_sphere,
    sample_vmf,
)
from ssfgw.sphere_opt import SlicingAscent

from oracles import unit_vector, vmf_mean_resultant_oracle


def _random_location(rng, d):
    return unit_vector(rng.normal(size=d))


def _mixture(*pairs, weights):
    comps = tuple(VmfParams(loc, kappa) for loc, kappa in pairs)
    return MixtureVmfParams(comps, np.asarray(weights, dtype=np.float64))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_vmf_params_reject_bad_inputs():
    with pytest.raises(ValueError):
        VmfParams(np.array([1.0, 1.0]), 1.0)  # not unit norm
    with pytest.raises(ValueError):
        VmfParams(np.array([1.0]), 1.0)  # sphere needs d >= 2
    with pytest.raises(ValueError):
        VmfParams(np.array([1.0, 0.0]), -1.0)
    with pytest.raises(ValueError):
        VmfParams(np.array([np.nan, 0.0]), 1.0)


def test_mixture_params_reject_bad_weights():
    loc = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        _mixture((loc, 1.0), (loc, 2.0), weights=(0.6, 0.6))
    with pytest.raises(ValueError):
        _mixture((loc, 1.0), (loc, 2.0), weights=(1.2, -0.2))
    with pytest.raises(ValueError):
        MixtureVmfParams((), np.array([]))


_E1 = np.array([1.0, 0.0])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: unit_vector(np.ones((2, 2))), "expected a 1D vector", id="unit-vector-2d"),
    pytest.param(lambda: sampling._check_direction(np.eye(2)), "direction must be a 1D vector",
                 id="check-direction-2d"),
    pytest.param(lambda: MixtureVmfParams((PowerSphericalParams(_E1, 1.0),), np.ones(1)),
                 "mixture components must be VmfParams", id="mixture-foreign-component"),
    pytest.param(lambda: MixtureVmfParams((VmfParams(_E1, 1.0), VmfParams(np.eye(3)[0], 1.0)),
                                          np.full(2, 0.5)),
                 "mixture components must share one dimension", id="mixture-mixed-dims"),
    pytest.param(lambda: sample_uniform_sphere(1, make_rng(0)),
                 "uniform sphere sampling requires d >= 2", id="uniform-d1"),
    pytest.param(lambda: vmf_mean_resultant_oracle(-1.0, 3), "kappa must be finite and >= 0",
                 id="oracle-kappa-negative"),
    pytest.param(lambda: vmf_mean_resultant_oracle(1.0, 1), "d must be >= 2", id="oracle-d1"),
])
def test_sampling_checks_that_no_other_test_reaches(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# norms and determinism
# ---------------------------------------------------------------------------


def test_all_samplers_return_unit_vectors():
    rng = make_rng(11)
    for d in (2, 3, 8, 64):
        loc = _random_location(rng, d)
        batches = [
            sample_uniform_sphere(d, rng, 257),
            sample_vmf(VmfParams(loc, 7.5), rng, 257),
            sample_power_spherical(PowerSphericalParams(loc, 7.5), rng, 257),
            sample_mixture_vmf(
                _mixture((loc, 2.0), (-loc, 30.0), weights=(0.4, 0.6)), rng, 257
            )[0],
        ]
        for batch in batches:
            assert batch.shape == (257, d)
            assert np.abs(np.linalg.norm(batch, axis=1) - 1.0).max() <= 1e-12


def test_single_draw_shapes():
    rng = make_rng(12)
    loc = np.array([0.0, 0.0, 1.0])
    assert sample_uniform_sphere(3, rng).shape == (3,)
    assert sample_vmf(VmfParams(loc, 3.0), rng).shape == (3,)
    assert sample_power_spherical(PowerSphericalParams(loc, 3.0), rng).shape == (3,)
    direction, index = sample_mixture_vmf(_mixture((loc, 3.0), weights=(1.0,)), rng)
    assert direction.shape == (3,)
    assert index == 0


def test_bitwise_determinism_under_shared_seed():
    loc = unit_vector(np.array([1.0, -2.0, 0.5, 3.0]))
    mix = _mixture((loc, 4.0), (-loc, 9.0), weights=(0.25, 0.75))
    for draw in (
        lambda r: sample_uniform_sphere(4, r, 100),
        lambda r: sample_vmf(VmfParams(loc, 4.0), r, 100),
        lambda r: sample_power_spherical(PowerSphericalParams(loc, 4.0), r, 100),
        lambda r: sample_mixture_vmf(mix, r, 100)[0],
    ):
        first = draw(make_rng(999))
        second = draw(make_rng(999))
        assert np.array_equal(first, second)


def test_batched_uniform_draws_equal_single_draws():
    # max_sfg draws its restarts' starts in one batch
    for d in (2, 3, 8):
        batch = sample_uniform_sphere(d, make_rng(998), 7)
        rng = make_rng(998)
        singles = np.stack([sample_uniform_sphere(d, rng) for _ in range(7)])
        assert np.array_equal(batch, singles)


class _ZeroFirstRow:
    """A generator whose first standard_normal draw has an all-zero first row."""

    def __init__(self, seed):
        self.rng = make_rng(seed)
        self.shapes = []

    def standard_normal(self, shape):
        x = self.rng.standard_normal(shape)
        if not self.shapes:
            x[0] = 0.0
        self.shapes.append(shape)
        return x


def test_uniform_sphere_redraws_a_row_whose_norm_underflows():
    for d in (1, 2, 5):
        rng = _ZeroFirstRow(997)
        x = sampling._uniform_sphere(d, rng, 4)
        # the zero row is redrawn from one more row of the stream
        assert rng.shapes == [(4, d), (1, d)]
        assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() <= 1e-15
        stream = make_rng(997).standard_normal((5, d))
        expected = stream / np.linalg.norm(stream, axis=1, keepdims=True)
        assert np.array_equal(x, np.vstack([expected[4], expected[1:4]]))


def test_vmf_rejection_cap_raises_sampling_error(monkeypatch):
    monkeypatch.setattr(sampling, "_MAX_REJECTION_ROUNDS", 0)
    with pytest.raises(sampling.SamplingError, match="exceeded 0 rejection rounds"):
        sample_vmf(VmfParams(np.array([0.0, 1.0, 0.0]), 10.0), make_rng(996), 8)


# ---------------------------------------------------------------------------
# unit vectors and the reflection frame
# ---------------------------------------------------------------------------


def test_unit_vector_worked_example():
    assert np.array_equal(unit_vector(np.array([3.0, 4.0])), np.array([0.6, 0.8]))


def test_unit_vector_idempotent_on_unit_vectors():
    rng = make_rng(21)
    for d in (2, 5, 32):
        v = _random_location(rng, d)
        assert np.abs(unit_vector(v) - v).max() <= 1e-15


def test_unit_vector_rejects_zero():
    with pytest.raises(ValueError, match="cannot normalize"):
        unit_vector(np.zeros(3))


def test_householder_maps_pole_to_location():
    rng = make_rng(13)
    for d in (2, 3, 16):
        for _ in range(10):
            loc = _random_location(rng, d)
            U = householder_matrix(loc)
            pole = np.zeros(d)
            pole[0] = 1.0
            assert np.abs(U @ pole - loc).max() <= 1e-12
            assert np.abs(U @ U.T - np.eye(d)).max() <= 1e-10
            assert np.abs(U - U.T).max() == 0.0


def test_householder_degenerate_pole_is_identity():
    pole = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(householder_matrix(pole), np.eye(3))


# ---------------------------------------------------------------------------
# distributional checks
# ---------------------------------------------------------------------------


def test_vmf_kappa_zero_accepts_every_proposal(monkeypatch):
    # at kappa = 0 the rejection test reduces to 0 >= log(u): one proposal
    # batch per call, and omega = 1 - 2 psi is the uniform first coordinate
    calls = []

    def counted(alpha, beta, rng, m):
        calls.append(m)
        return beta_draw(alpha, beta, rng, m)

    beta_draw = sampling._beta_draw
    monkeypatch.setattr(sampling, "_beta_draw", counted)
    for d in (2, 3, 5, 16, 100, 1000):
        calls.clear()
        omega = sampling._vmf_omega(0.0, d, 257, make_rng(d))
        assert calls == [257], d
        assert np.all(np.abs(omega) <= 1.0)


class _ZeroUniforms:
    """A stand-in generator whose uniforms are all 0: log(u) = -inf accepts
    every proposal with a finite omega."""

    def random(self, k):
        return np.zeros(k)


def test_vmf_keeps_the_first_accepted_proposals_in_proposal_order(monkeypatch):
    # NaN proposals are rejected (non-finite omega), every other one accepted;
    # round 1 accepts 3 of the 6 needed, round 2 accepts 5 and keeps its first 3
    kappa, d, m = 10.0, 3, 6
    rounds = {18: [4, 9, 13], 13: [1, 2, 5, 7, 12]}
    drawn = []

    def proposals(alpha, beta, rng, k):
        psi = np.full(k, np.nan)
        keep = rounds[k]
        psi[keep] = np.linspace(0.1, 0.9, len(keep)) + 0.01 * len(drawn)
        drawn.append(psi[keep])
        return psi

    monkeypatch.setattr(sampling, "_beta_draw", proposals)
    omega = sampling._vmf_omega(kappa, d, m, _ZeroUniforms())
    # Wood's map from a Beta proposal to omega
    dd = d - 1.0
    b = dd / (2.0 * kappa + math.sqrt(4.0 * kappa * kappa + dd * dd))
    psi = np.concatenate([drawn[0], drawn[1][:3]])
    assert np.array_equal(omega, (1.0 - (1.0 + b) * psi) / (1.0 - (1.0 - b) * psi))


def test_vmf_radial_draws_take_one_round(monkeypatch):
    # a round proposes pending * 5/3 + 8 when kappa > 0, enough for all 50
    # draws in at least 95% of calls (acceptance is lowest, about 0.65, at
    # d = 2 and large kappa)
    rounds = []

    def counted(alpha, beta, rng, m):
        rounds[-1] += 1
        return beta_draw(alpha, beta, rng, m)

    beta_draw = sampling._beta_draw
    monkeypatch.setattr(sampling, "_beta_draw", counted)
    rng = make_rng(998)
    for d in (2, 3, 8, 64):
        for kappa in (0.5, 10.0, 1000.0, 1e5):
            rounds.clear()
            for _ in range(200):
                rounds.append(0)
                assert sampling._vmf_omega(kappa, d, 50, rng).shape == (50,)
            assert rounds.count(1) >= 0.95 * len(rounds), (d, kappa)


def test_kappa_zero_is_uniform():
    rng = make_rng(14)
    for d in (2, 3, 5):
        loc = _random_location(rng, d)
        batch = sample_vmf(VmfParams(loc, 0.0), rng, 40000)
        # mean of each coordinate is 0 with variance 1/d per sample
        se = math.sqrt(1.0 / d / 40000)
        assert np.abs(batch.mean(axis=0)).max() <= 3.0 * se, d
        # second moment matrix is I/d
        second = batch.T @ batch / 40000
        assert np.abs(second - np.eye(d) / d).max() <= 5.0 * se, d


def test_vmf_mean_resultant_matches_quadrature():
    L = 100_000
    rng = make_rng(15)
    for d in (3, 8, 64):
        loc = _random_location(rng, d)
        for kappa in (0.5, 2.0, 10.0, 50.0):
            t = sample_vmf(VmfParams(loc, kappa), rng, L) @ loc
            se = float(t.std(ddof=1)) / math.sqrt(L)
            target = vmf_mean_resultant_oracle(kappa, d)
            assert abs(float(t.mean()) - target) <= 4.0 * se, (d, kappa)


def test_vmf_mean_resultant_matches_quadrature_at_the_flows_concentrations():
    # the flows draw at d = 2, kappa = 1000 and the GMM fit at kappa = 10
    L = 100_000
    rng = make_rng(19)
    for d, kappa in ((2, 1000.0), (2, 10.0), (3, 10.0)):
        loc = _random_location(rng, d)
        t = sample_vmf(VmfParams(loc, kappa), rng, L) @ loc
        se = float(t.std(ddof=1)) / math.sqrt(L)
        target = vmf_mean_resultant_oracle(kappa, d)
        assert abs(float(t.mean()) - target) <= 4.0 * se, (d, kappa)


def test_vmf_high_concentration_hugs_location():
    rng = make_rng(16)
    loc = _random_location(rng, 3)
    t = sample_vmf(VmfParams(loc, 1e4), rng, 2000) @ loc
    assert t.min() > 0.99


@pytest.mark.parametrize("kappa", [1e154, 1e200, 1e300, np.finfo(float).max])
def test_vmf_at_concentrations_whose_square_overflows(kappa):
    # 4 kappa^2 overflows from about 6.7e153; every finite kappa is valid
    rng = make_rng(19)
    for d in (2, 3, 10):
        loc = _random_location(rng, d)
        thetas = sample_vmf(VmfParams(loc, kappa), rng, 64)
        assert np.isfinite(thetas).all()
        assert np.abs(np.linalg.norm(thetas, axis=1) - 1.0).max() <= 1e-12
        assert np.abs(thetas - loc).max() <= 1e-12, (kappa, d)


def test_power_spherical_mean_resultant_closed_form():
    L = 100_000
    rng = make_rng(17)
    for d in (3, 8):
        loc = _random_location(rng, d)
        for kappa in (1.0, 10.0, 50.0):
            t = sample_power_spherical(PowerSphericalParams(loc, kappa), rng, L) @ loc
            se = float(t.std(ddof=1)) / math.sqrt(L)
            target = kappa / (d - 1.0 + kappa)
            assert abs(float(t.mean()) - target) <= 4.0 * se, (d, kappa)


def test_power_spherical_high_dim_stays_finite():
    rng = make_rng(18)
    loc = _random_location(rng, 64)
    batch = sample_power_spherical(PowerSphericalParams(loc, 100.0), rng, 5000)
    assert np.all(np.isfinite(batch))
    assert np.abs(np.linalg.norm(batch, axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------


def test_single_component_mixture_matches_vmf_stream():
    loc = unit_vector(np.array([2.0, 1.0, -1.0]))
    mix = _mixture((loc, 6.0), weights=(1.0,))
    dirs, idx = sample_mixture_vmf(mix, make_rng(77), 500)
    plain = sample_vmf(VmfParams(loc, 6.0), make_rng(77), 500)
    assert np.array_equal(dirs, plain)
    assert np.array_equal(idx, np.zeros(500, dtype=np.int64))


def test_mixture_draws_through_the_ascent_routine():
    rng = make_rng(81)
    locs = np.stack([_random_location(rng, 4) for _ in range(3)])
    kappas = (2.0, 0.0, 40.0)
    alphas = np.array([0.2, 0.3, 0.5])
    mix = _mixture(*zip(locs, kappas), weights=alphas)
    dirs, idx = sample_mixture_vmf(mix, make_rng(82), 300)
    thetas, ctx = SlicingAscent("vmf", locs, kappas, alphas).draw(300, make_rng(82))
    assert np.array_equal(dirs, thetas)
    assert np.array_equal(idx, ctx.idx)
    assert set(idx.tolist()) == {0, 1, 2}


def test_degenerate_weights_always_pick_first():
    loc = np.array([0.0, 1.0])
    mix = _mixture((loc, 3.0), (-loc, 3.0), weights=(1.0, 0.0))
    _, idx = sample_mixture_vmf(mix, make_rng(78), 1000)
    assert np.array_equal(idx, np.zeros(1000, dtype=np.int64))


def test_mixture_component_frequencies():
    loc = np.array([1.0, 0.0, 0.0])
    w = (0.3, 0.7)
    mix = _mixture((loc, 2.0), (-loc, 5.0), weights=w)
    L = 20000
    _, idx = sample_mixture_vmf(mix, make_rng(79), L)
    for i, wi in enumerate(w):
        freq = float((idx == i).mean())
        se = math.sqrt(wi * (1 - wi) / L)
        assert abs(freq - wi) <= 3.0 * se


def test_mixture_components_land_near_their_locations():
    loc = np.array([1.0, 0.0, 0.0])
    mix = _mixture((loc, 50.0), (-loc, 50.0), weights=(0.5, 0.5))
    dirs, idx = sample_mixture_vmf(mix, make_rng(80), 4000)
    t = dirs @ loc
    assert t[idx == 0].min() > 0.5
    assert t[idx == 1].max() < -0.5


# ---------------------------------------------------------------------------
# quadrature oracle anchors
# ---------------------------------------------------------------------------


def test_oracle_matches_coth_identity_on_s2():
    # on S^2 the mean resultant is coth(kappa) - 1/kappa
    for kappa in (0.5, 2.0, 8.0):
        exact = 1.0 / math.tanh(kappa) - 1.0 / kappa
        assert vmf_mean_resultant_oracle(kappa, 3) == pytest.approx(exact, rel=1e-9)


def test_oracle_limits():
    assert abs(vmf_mean_resultant_oracle(0.0, 3)) <= 1e-9
    assert abs(vmf_mean_resultant_oracle(0.0, 16)) <= 1e-9
    assert vmf_mean_resultant_oracle(1e6, 3) > 0.999
    assert vmf_mean_resultant_oracle(1e6, 64) > 0.999
    for d in (3, 8, 64):
        prev = 0.0
        for kappa in (0.5, 1.0, 4.0, 20.0, 100.0):
            cur = vmf_mean_resultant_oracle(kappa, d)
            assert 0.0 < cur < 1.0
            assert cur > prev
            prev = cur
