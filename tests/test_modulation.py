import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpwavelab.grid as grid_module
import dpwavelab.modulation as modulation
from dpwavelab.evolution import EvolutionConfig, evolve
from dpwavelab.grid import Field, make_grid, s_inner
from dpwavelab.invariants import momentum_S
from dpwavelab.modulation import (
    NEWTON_TOL,
    STEP_TOL,
    DecompositionError,
    ModulationState,
    ProfileCache,
    decompose,
    initial_guess,
    orthogonality_residual,
    track,
    train_field,
)
from dpwavelab.soliton import SolitonParams, build_profile, min_period, sample_dx_on_grid, sample_on_grid


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
    return [sample_dx_on_grid(p, grid, x) for p, x in zip(profs, positions)]


def seed_residual(u, speeds, positions, cache):
    """Oracle: eps from train_field, then every wave sampled again for its two pairings."""
    eps = u - train_field(u.grid, speeds, positions, cache)
    out = np.empty(2 * len(speeds))
    for j, (c, x) in enumerate(zip(speeds, positions)):
        prof = cache.get(c)
        out[2 * j] = s_inner(eps, sample_on_grid(prof, u.grid, x))
        out[2 * j + 1] = s_inner(eps, sample_dx_on_grid(prof, u.grid, x)[1])
    return out


def fresh_newton(u, speeds, positions, cache, max_iter=30):
    """Oracle: the seed's Newton iteration, a finite-difference Jacobian built at every step."""
    grid = u.grid
    n = len(speeds)
    th = np.empty(2 * n)
    th[0::2], th[1::2] = speeds, positions
    for _ in range(max_iter):
        r = orthogonality_residual(u, waves_at(grid, th[0::2], th[1::2], cache))
        if np.max(np.abs(r)) <= NEWTON_TOL * u.l2_norm():
            return th[0::2].copy(), np.mod(th[1::2] + 0.5 * grid.period, grid.period) - 0.5 * grid.period
        gaps = np.mod(np.roll(th[1::2], -1) - th[1::2], grid.period)
        gap_scale = np.min(gaps[gaps > 0]) if n > 1 else grid.period / 4.0
        jac = np.empty((2 * n, 2 * n))
        for k in range(2 * n):
            step = 1e-6 * th[k] if k % 2 == 0 else 1e-6 * gap_scale
            bumped = th.copy()
            bumped[k] += step
            jac[:, k] = (orthogonality_residual(u, waves_at(grid, bumped[0::2], bumped[1::2], cache)) - r) / step
        th = th + np.linalg.solve(jac, -r)
    raise AssertionError("oracle Newton did not converge")


def cyclic_error(got, want, period):
    return np.max(np.abs(np.mod(np.asarray(got) - want + 0.5 * period, period) - 0.5 * period))


class TestProfileCache:
    def test_reuses_profiles(self):
        # within a frame, a speed looked up again (to the 1e-10 granularity) is not rebuilt
        cache = ProfileCache(1.0)
        a = cache.get(3.0)
        b = cache.get(3.0 + 1e-12)  # below the rounding granularity
        assert a is b
        c = cache.get(3.1)
        assert c is not a
        assert (cache.builds, cache.cached) == (2, 2)

    def test_keeps_the_last_two_frames(self):
        # a profile that a frame looks up is still found by each of the next two frames
        cache = ProfileCache(1.0)
        first = cache.get(3.0)
        cache.next_frame()
        cache.get(3.1)
        cache.next_frame()
        assert cache.get(3.0) is first
        assert (cache.builds, cache.cached) == (2, 2)

    def test_lookup_keeps_a_profile(self):
        # each lookup restarts a profile's two frames, so a speed that every frame uses is built once
        cache = ProfileCache(1.0)
        first = cache.get(3.0)
        for _ in range(10):
            cache.next_frame()
            assert cache.get(3.0) is first
        assert cache.builds == 1

    def test_evicts_what_two_frames_did_not_look_up(self):
        cache = ProfileCache(1.0)
        first = cache.get(3.0)
        cache.get(3.1)
        cache.next_frame()
        cache.get(3.1)
        cache.next_frame()
        assert cache.cached == 2  # 3.0 was looked up by the frame before the last one ended
        cache.next_frame()
        assert cache.cached == 1  # neither of the last two frames looked 3.0 up
        again = cache.get(3.0)
        assert again is not first and cache.builds == 3
        for _ in range(2):
            cache.next_frame()
        assert cache.cached == 1
        cache.next_frame()
        assert cache.cached == 0

    def test_profile_depends_only_on_the_speed(self):
        # a key evicted and rebuilt from another speed within the 1e-10 granularity gives the same wave
        cache = ProfileCache(1.0)
        grid = make_grid(256, 100.0)
        first = cache.get(3.0)
        for _ in range(3):
            cache.next_frame()
        again = cache.get(3.0 + 4e-11)
        assert again is not first
        assert first.params.c == again.params.c == 3.0
        assert np.array_equal(sample_on_grid(first, grid, 1.3).samples, sample_on_grid(again, grid, 1.3).samples)


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
        _, dphi = sample_dx_on_grid(prof, grid, positions[0])
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

    def test_smooths_eps_once(self, three_train, monkeypatch):
        # 2N pairings, one S-transform: s_inner smooths its first argument, eps, and keeps the result
        cache, grid, speeds, positions, u = three_train
        waves = waves_at(grid, speeds, positions, cache)
        calls = []
        smoothing = grid_module.smoothing_operator

        def counting(f):
            calls.append(f)
            return smoothing(f)

        monkeypatch.setattr(grid_module, "smoothing_operator", counting)
        orthogonality_residual(u, waves)
        assert len(calls) == 1


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
            st = decompose(u, speeds, positions, cache=cache)
            assert np.allclose(st.speeds, speeds, atol=1e-8)
            assert np.allclose(st.positions, positions, atol=1e-8)
            assert st.residual_norm <= 1e-10 * u.l2_norm()
            assert st.iterations <= 2

    def test_samples_each_wave_once_per_parameter_value(self, three_train, monkeypatch):
        # the residual is evaluated once for the guess, 2N + 1 times per step with a freshly built
        # Jacobian (its columns, then the step) and once per chord step; every evaluation samples
        # each wave once, R and R_x in one call, and a Jacobian column resamples only the wave it bumps
        cache, grid, speeds, positions, u = three_train
        n = len(speeds)
        neighbour = decompose(train_field(grid, speeds + 2e-3, positions + 0.3, cache), speeds, positions, cache=cache)
        calls = {"sample_on_grid": 0, "sample_dx_on_grid": 0, "orthogonality_residual": 0}
        for name in calls:
            def counted(*args, _fn=getattr(modulation, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(modulation, name, counted)
        for jacobian, refreshes in ((None, 1), (neighbour.jacobian, 0)):
            calls.update(dict.fromkeys(calls, 0))
            st = decompose(u, speeds + 1e-3, positions + 0.05, cache=cache, jacobian=jacobian)
            steps = st.iterations - 1
            assert st.refreshes == refreshes
            assert steps > st.refreshes
            assert calls["orthogonality_residual"] == 1 + st.refreshes * (2 * n + 1) + (steps - st.refreshes)
            assert calls["sample_dx_on_grid"] == n + st.refreshes * 2 * n + steps * n
            assert calls["sample_on_grid"] == 0

    @pytest.mark.parametrize("scale", [3.0, -1.0, -2e-3, 1e-6])
    def test_stale_jacobian_is_refreshed(self, three_train, scale):
        # a step a third as long as Newton's (3), a step the wrong way (-1), one far the wrong way that
        # stays admissible but leaves Newton's basin (-2e-3) and one out of the admissible family (1e-6)
        # are each followed by one fresh Jacobian, not by an error
        cache, grid, speeds, positions, u = three_train
        neighbour = decompose(train_field(grid, speeds + 2e-3, positions + 0.3, cache), speeds, positions, cache=cache)
        st = decompose(u, speeds + 1e-3, positions + 0.05, cache=cache, jacobian=scale * neighbour.jacobian)
        assert st.refreshes == 1
        assert np.allclose(st.speeds, speeds, atol=1e-8)
        assert np.allclose(st.positions, positions, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        kappa=st.floats(0.5, 2.0),
        excess=st.lists(st.floats(1e-2, 1.0), min_size=1, max_size=3, unique=True),
        shift=st.floats(-0.5, 0.5),
    )
    def test_round_trip(self, kappa, excess, shift):
        # an exact train of N = 1..3 waves with c_j = 2 kappa (1 + excess_j), down to 2 kappa (1 + 1e-2),
        # translated by shift periods, is recovered from a cold start and from a neighbour's Jacobian
        n = len(excess)
        speeds = 2.0 * kappa * (1.0 + np.sort(excess))
        period = float(np.ceil(max(min_period(SolitonParams(speeds[0], kappa)), 120.0 * n) / 10.0) * 10.0)
        grid = make_grid(1024, period)
        positions = (np.arange(n) - 0.5 * (n - 1)) * 60.0 + shift * period
        cache = ProfileCache(kappa)
        u = train_field(grid, speeds, positions, cache)
        neighbour = train_field(grid, speeds * (1 + 2e-3), positions + 0.3, cache)
        jacobian = decompose(neighbour, speeds, positions, cache=cache).jacobian
        for jac in (None, jacobian):
            st = decompose(u, speeds * (1 + 1e-3), positions + 0.05, cache=cache, jacobian=jac)
            assert np.max(np.abs(st.speeds - speeds)) <= 1e-8
            assert cyclic_error(st.positions, positions, period) <= 1e-8

    def test_perturbed_train_order_alpha(self, two_train):
        cache, grid, speeds, positions, u = two_train
        alpha = 1e-3
        rng = np.random.default_rng(7)
        bump = np.zeros(grid.n)
        for center in (-27.0, 33.0):
            bump += np.exp(-((grid.nodes - center) / 2.0) ** 2)
        bump /= np.sqrt(grid.h * np.sum(bump**2))
        pert = Field(grid, u.samples + alpha * bump)
        st = decompose(pert, speeds, positions, cache=cache)
        assert st.residual_norm <= 5.0 * alpha
        assert np.max(np.abs(st.speeds - speeds)) <= 5.0 * alpha
        assert np.max(np.abs(st.positions - positions)) <= 5.0 * alpha

    def test_equivariance_under_translation(self, two_train):
        cache, grid, speeds, positions, u = two_train
        shift_nodes = 53
        shifted = Field(grid, np.roll(u.samples, shift_nodes))
        st = decompose(shifted, speeds, positions + shift_nodes * grid.h, cache=cache)
        assert np.allclose(st.speeds, speeds, atol=1e-9)
        assert np.allclose(st.positions, positions + shift_nodes * grid.h, atol=1e-9)

    def test_inadmissible_speed_fails(self, two_train, monkeypatch):
        cache, grid, speeds, positions, u = two_train
        monkeypatch.setattr(modulation, "MAX_ITER", 3)
        with pytest.raises(DecompositionError):
            decompose(u, np.array([2.0001, 5.0]), positions, cache=cache)

    def test_guards_name_the_failure(self, two_train):
        cache, grid, speeds, positions, u = two_train
        with pytest.raises(DecompositionError, match="speed left the admissible family"):
            decompose(u, np.array([2.0, 5.0]), positions, cache=cache)
        small = make_grid(256, 40.0)  # too short a period for the wrapped tail of c = 3
        with pytest.raises(DecompositionError, match="iterate left the resolvable family") as info:
            decompose(Field(small, np.zeros(small.n)), [3.0], [0.0], cache=cache)
        assert isinstance(info.value.__cause__, ValueError)

    def test_admissibility_reads_the_cache_kappa(self):
        # c = 1.5 is below 2 kappa at kappa = 1 but admissible at the cache's kappa = 0.5
        grid = make_grid(512, 100.0)
        u = train_field(grid, [1.5], [0.0], ProfileCache(0.5))
        st = decompose(u, [1.5], [0.1], ProfileCache(0.5))
        assert st.speeds[0] == pytest.approx(1.5, abs=1e-8)
        assert st.positions[0] == pytest.approx(0.0, abs=1e-8)
        with pytest.raises(DecompositionError, match="speed left the admissible family"):
            decompose(u, [1.5], [0.1], ProfileCache(1.0))


class TestTrack:
    @pytest.fixture(scope="class")
    @staticmethod
    def tracked(two_train):
        cache, grid, speeds, positions, u = two_train
        traj = evolve(u, EvolutionConfig(kappa=1.0, t_end=2.0, dt=0.01, observer_stride=50))
        states = track(traj, speeds, positions, cache=cache)
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

    def test_chord_matches_fresh_jacobian_newton(self, two_train):
        cache, grid, speeds, positions, u = two_train
        bump = np.exp(-(((grid.nodes + 27.0) / 2.0) ** 2)) + np.exp(-(((grid.nodes - 33.0) / 2.0) ** 2))
        u0 = Field(grid, u.samples + 1e-3 * bump / np.sqrt(grid.h * np.sum(bump**2)))
        traj = evolve(u0, EvolutionConfig(kappa=1.0, t_end=2.0, dt=0.01, observer_stride=20))
        states = track(traj, speeds, positions, cache=ProfileCache(1.0))
        assert sum(st.refreshes for st in states) == 1
        guess, t_prev = (speeds, positions), traj.times[0]
        for t, frame, st in zip(traj.times, traj.states, states):
            # the oracle tracks with the same warm starts as track
            guess = (guess[0], guess[1] + guess[0] * (t - t_prev))
            guess = fresh_newton(frame, *guess, cache)
            t_prev = t
            # each stops once no parameter would move more than STEP_TOL (chord) or sooner (oracle)
            assert np.max(np.abs(st.speeds - guess[0])) <= 2 * STEP_TOL
            assert cyclic_error(st.positions, guess[1], grid.period) <= 2 * STEP_TOL
            # the values read at the tracked parameters agree to the benchmark's reference tolerance
            tol = 1e-10 * frame.l2_norm()
            assert abs(st.residual_norm - (frame - train_field(grid, *guess, cache)).l2_norm()) <= tol
            frozen_error = [(frame - train_field(grid, speeds, x, cache)).l2_norm() for x in (st.positions, guess[1])]
            assert abs(frozen_error[0] - frozen_error[1]) <= tol

    def test_tracking_deterministic(self, two_train):
        cache, grid, speeds, positions, u = two_train
        traj = evolve(u, EvolutionConfig(kappa=1.0, t_end=0.5, dt=0.01, observer_stride=25))
        a = track(traj, speeds, positions, cache=ProfileCache(1.0))
        b = track(traj, speeds, positions, cache=ProfileCache(1.0))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.speeds, sb.speeds)
            assert np.array_equal(sa.positions, sb.positions)
