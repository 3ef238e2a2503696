import numpy as np
import pytest

import dpwavelab.modulation as modulation
from dpwavelab.evolution import EvolutionConfig, evolve
from dpwavelab.grid import Field, make_grid, s_inner
from dpwavelab.invariants import momentum_S
from dpwavelab.modulation import (
    DecompositionError,
    ModulationState,
    ProfileCache,
    decompose,
    initial_guess,
    orthogonality_residual,
    track,
    train_field,
)
from dpwavelab.soliton import SolitonParams, build_profile, sample_dx_on_grid, sample_on_grid


@pytest.fixture(scope="module")
def two_train():
    cache = ProfileCache(1.0)
    grid = make_grid(1024, 200.0)
    speeds = np.array([3.0, 5.0])
    positions = np.array([-30.0, 30.0])
    u = train_field(grid, speeds, positions, cache)
    return cache, grid, speeds, positions, u


@pytest.fixture(scope="module")
def three_train():
    cache = ProfileCache(1.0)
    grid = make_grid(1024, 300.0)
    speeds = np.array([3.0, 4.0, 5.0])
    positions = np.array([-60.0, 0.0, 60.0])
    u = train_field(grid, speeds, positions, cache)
    return cache, grid, speeds, positions, u


def waves_at(grid, speeds, positions, cache):
    """The per-wave samples (R_j, R_j,x) that orthogonality_residual takes."""
    profs = [cache.get(c) for c in speeds]
    return [(sample_on_grid(p, grid, x), sample_dx_on_grid(p, grid, x)) for p, x in zip(profs, positions)]


def seed_residual(u, speeds, positions, cache):
    """Oracle: eps from train_field, then every wave sampled again for its two pairings."""
    eps = u - train_field(u.grid, speeds, positions, cache)
    out = np.empty(2 * len(speeds))
    for j, (c, x) in enumerate(zip(speeds, positions)):
        prof = cache.get(c)
        out[2 * j] = s_inner(eps, sample_on_grid(prof, u.grid, x))
        out[2 * j + 1] = s_inner(eps, sample_dx_on_grid(prof, u.grid, x))
    return out


class TestProfileCache:
    def test_reuses_profiles(self):
        cache = ProfileCache(1.0)
        a = cache.get(3.0)
        b = cache.get(3.0 + 1e-12)  # below the rounding granularity
        assert a is b
        c = cache.get(3.1)
        assert c is not a


class TestOrthogonalityResidual:
    def test_exact_train_zero(self, two_train):
        cache, grid, speeds, positions, u = two_train
        r = orthogonality_residual(u, waves_at(grid, speeds, positions, cache))
        assert np.max(np.abs(r)) <= 1e-12 * u.l2_norm()

    def test_linear_response_in_translation_direction(self, two_train):
        # adding delta * phi_x changes the position constraint by
        # delta * (phi_x, phi_x)_S = 2 delta S(phi_x) at leading order
        cache, grid, speeds, positions, u = two_train
        prof = cache.get(3.0)
        dphi = sample_dx_on_grid(prof, grid, positions[0])
        delta = 1e-6
        pert = Field(grid, u.samples + delta * dphi.samples)
        r = orthogonality_residual(pert, waves_at(grid, speeds, positions, cache))
        expected = delta * 2.0 * momentum_S(dphi)
        assert r[1] == pytest.approx(expected, rel=1e-4)

    def test_translation_invariance(self, two_train):
        cache, grid, speeds, positions, u = two_train
        shift_nodes = 37
        shifted = Field(grid, np.roll(u.samples, shift_nodes))
        r0 = orthogonality_residual(u, waves_at(grid, speeds, positions, cache))
        r1 = orthogonality_residual(shifted, waves_at(grid, speeds, positions + shift_nodes * grid.h, cache))
        assert np.allclose(r1, r0, atol=1e-11)

    @pytest.mark.parametrize("train", ["two_train", "three_train"])
    def test_equals_seed_formula(self, request, train):
        # off-train parameters and a perturbed state, so that every pairing is nonzero, and
        # overlapping waves, so that the order in which eps sums them shows in the last bits
        cache, grid, speeds, positions, u = request.getfixturevalue(train)
        rng = np.random.default_rng(5)
        pert = Field(grid, u.samples + 1e-3 * np.exp(-(grid.nodes / 4.0) ** 2))
        s = speeds + 1e-3 * rng.standard_normal(len(speeds))
        p = 0.1 * positions + 0.1 * rng.standard_normal(len(speeds))
        expected = seed_residual(pert, s, p, cache)
        assert np.all(expected != 0.0)
        assert np.array_equal(orthogonality_residual(pert, waves_at(grid, s, p, cache)), expected)


class TestInitialGuess:
    def test_exact_train(self, two_train):
        cache, grid, speeds, positions, u = two_train
        s, p = initial_guess(u, 2, 1.0)
        assert np.allclose(s, speeds, atol=1e-3)
        assert np.allclose(p, positions, atol=grid.h)

    def test_single_shifted_soliton(self):
        cache = ProfileCache(1.0)
        grid = make_grid(1024, 120.0)
        u = sample_on_grid(cache.get(3.0), grid, center=17.3)
        s, p = initial_guess(u, 1, 1.0)
        assert abs(p[0] - 17.3) <= grid.h
        assert s[0] == pytest.approx(3.0, abs=3e-4)

    def test_too_few_peaks(self):
        grid = make_grid(256, 100.0)
        u = Field(grid, np.exp(-grid.nodes**2))
        with pytest.raises(ValueError):
            initial_guess(u, 3, 1.0)


class TestDecompose:
    def test_exact_train_recovery(self, two_train, three_train):
        for cache, grid, speeds, positions, u in (two_train, three_train):
            st = decompose(u, speeds, positions, 1.0, cache=cache)
            assert np.allclose(st.speeds, speeds, atol=1e-8)
            assert np.allclose(st.positions, positions, atol=1e-8)
            assert st.residual_norm <= 1e-10 * u.l2_norm()
            assert st.iterations <= 2

    def test_samples_each_wave_once_per_parameter_value(self, three_train, monkeypatch):
        # per Newton step: 2N columns resample one wave each, the new iterate resamples all N,
        # and the orthogonality residual is evaluated 2N + 1 times
        cache, grid, speeds, positions, u = three_train
        calls = {"sample_on_grid": 0, "sample_dx_on_grid": 0, "orthogonality_residual": 0}
        for name in calls:
            def counted(*args, _fn=getattr(modulation, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(modulation, name, counted)
        st = decompose(u, speeds + 1e-3, positions + 0.05, 1.0, cache=cache)
        steps, n = st.iterations - 1, len(speeds)
        assert steps >= 1
        assert calls["orthogonality_residual"] == 1 + steps * (2 * n + 1)
        assert calls["sample_dx_on_grid"] == n + steps * 3 * n
        assert calls["sample_on_grid"] == n + steps * 3 * n + n  # the last n build the returned residual

    def test_perturbed_train_order_alpha(self, two_train):
        cache, grid, speeds, positions, u = two_train
        alpha = 1e-3
        rng = np.random.default_rng(7)
        bump = np.zeros(grid.n)
        for center in (-27.0, 33.0):
            bump += np.exp(-((grid.nodes - center) / 2.0) ** 2)
        bump /= np.sqrt(grid.h * np.sum(bump**2))
        pert = Field(grid, u.samples + alpha * bump)
        st = decompose(pert, speeds, positions, 1.0, cache=cache)
        assert st.residual_norm <= 5.0 * alpha
        assert np.max(np.abs(st.speeds - speeds)) <= 5.0 * alpha
        assert np.max(np.abs(st.positions - positions)) <= 5.0 * alpha

    def test_equivariance_under_translation(self, two_train):
        cache, grid, speeds, positions, u = two_train
        shift_nodes = 53
        shifted = Field(grid, np.roll(u.samples, shift_nodes))
        st = decompose(shifted, speeds, positions + shift_nodes * grid.h, 1.0, cache=cache)
        assert np.allclose(st.speeds, speeds, atol=1e-9)
        assert np.allclose(st.positions, positions + shift_nodes * grid.h, atol=1e-9)

    def test_inadmissible_speed_fails(self, two_train):
        cache, grid, speeds, positions, u = two_train
        with pytest.raises(DecompositionError):
            decompose(u, np.array([2.0001, 5.0]), positions, 1.0, cache=cache, max_iter=3)

    def test_guards_name_the_failure(self, two_train):
        cache, grid, speeds, positions, u = two_train
        with pytest.raises(DecompositionError, match="speed left the admissible family"):
            decompose(u, np.array([2.0, 5.0]), positions, 1.0, cache=cache)
        small = make_grid(256, 40.0)  # too short a period for the wrapped tail of c = 3
        with pytest.raises(DecompositionError, match="iterate left the resolvable family") as info:
            decompose(Field(small, np.zeros(small.n)), [3.0], [0.0], 1.0, cache=cache)
        assert isinstance(info.value.__cause__, ValueError)


class TestTrack:
    @pytest.fixture(scope="class")
    @staticmethod
    def tracked(two_train):
        cache, grid, speeds, positions, u = two_train
        traj = evolve(u, EvolutionConfig(kappa=1.0, t_end=2.0, dt=0.01, observer_stride=50))
        states = track(traj, 2, 1.0, cache=cache)
        return traj, states

    def test_positions_advance_at_speed(self, tracked):
        traj, states = tracked
        period = traj.states[0].grid.period
        cs = np.array([s.speeds for s in states])
        xs = np.array([s.positions for s in states])
        # unwrap the positions across the periodic seam before differencing
        dxs = np.mod(np.diff(xs, axis=0) + period / 2, period) - period / 2
        dts = np.diff(traj.times)[:, None]
        rates_c, rates_x = np.diff(cs, axis=0) / dts, dxs / dts
        for j, c in enumerate((3.0, 5.0)):
            assert np.allclose(rates_x[:, j], c, rtol=1e-4)
            assert np.max(np.abs(rates_c[:, j])) <= 1e-5

    def test_residual_stays_small(self, tracked):
        traj, states = tracked
        u_norm = traj.states[0].l2_norm()
        for st in states:
            assert st.residual_norm <= 1e-4 * u_norm

    def test_tracking_deterministic(self, two_train):
        cache, grid, speeds, positions, u = two_train
        traj = evolve(u, EvolutionConfig(kappa=1.0, t_end=0.5, dt=0.01, observer_stride=25))
        a = track(traj, 2, 1.0, cache=ProfileCache(1.0))
        b = track(traj, 2, 1.0, cache=ProfileCache(1.0))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.speeds, sb.speeds)
            assert np.array_equal(sa.positions, sb.positions)
