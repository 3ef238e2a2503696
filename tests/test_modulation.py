import numpy as np
import pytest

from dpwavelab.evolution import EvolutionConfig, evolve
from dpwavelab.grid import Field, make_grid
from dpwavelab.invariants import momentum_S
from dpwavelab.modulation import (
    DecompositionError,
    ModulationState,
    ProfileCache,
    decompose,
    initial_guess,
    orthogonality_residual,
    periodic_gap,
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


def test_periodic_gap():
    assert periodic_gap(-30.0, 30.0, 200.0) == pytest.approx(60.0)
    assert periodic_gap(30.0, -30.0, 200.0) == pytest.approx(140.0)
    assert periodic_gap(90.0, -90.0, 200.0) == pytest.approx(20.0)


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
        r = orthogonality_residual(u, speeds, positions, 1.0, cache)
        assert np.max(np.abs(r)) <= 1e-12 * u.l2_norm()

    def test_linear_response_in_translation_direction(self, two_train):
        # adding delta * phi_x changes the position constraint by
        # delta * (phi_x, phi_x)_S = 2 delta S(phi_x) at leading order
        cache, grid, speeds, positions, u = two_train
        prof = cache.get(3.0)
        dphi = sample_dx_on_grid(prof, grid, positions[0])
        delta = 1e-6
        pert = Field(grid, u.samples + delta * dphi.samples)
        r = orthogonality_residual(pert, speeds, positions, 1.0, cache)
        expected = delta * 2.0 * momentum_S(dphi)
        assert r[1] == pytest.approx(expected, rel=1e-4)

    def test_translation_invariance(self, two_train):
        cache, grid, speeds, positions, u = two_train
        shift_nodes = 37
        shifted = Field(grid, np.roll(u.samples, shift_nodes))
        r0 = orthogonality_residual(u, speeds, positions, 1.0, cache)
        r1 = orthogonality_residual(shifted, speeds, positions + shift_nodes * grid.h, 1.0, cache)
        assert np.allclose(r1, r0, atol=1e-11)


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
    def test_exact_train_recovery(self, two_train):
        cache, grid, speeds, positions, u = two_train
        st = decompose(u, speeds, positions, 1.0, cache=cache)
        assert np.allclose(st.speeds, speeds, atol=1e-8)
        assert np.allclose(st.positions, positions, atol=1e-8)
        assert st.residual_norm <= 1e-10 * u.l2_norm()
        assert st.iterations <= 2

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
