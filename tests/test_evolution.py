import json

import numpy as np
import pytest

from dpwavelab import evolution
from dpwavelab.evolution import (
    BlowUpError,
    EvolutionConfig,
    check_w_positivity,
    dp_rhs,
    evolve,
    evolve_stack,
    sup_bound,
)
from dpwavelab.grid import Field, make_grid
from dpwavelab.harness import Scenario, build_initial_state
from dpwavelab.invariants import hamiltonian_H, momentum_S
from dpwavelab.soliton import SolitonParams, build_profile, sample_dx_on_grid, sample_on_grid

from conftest import evolve_frames, random_field, stack_frames


def oracle_rhs(u, grid, kappa, dealias):
    """The sample-space RHS: rfft(u^2), rfft(u) and the irfft of the flux derivative."""
    u2_hat = np.fft.rfft(u * u)
    if dealias:
        u2_hat *= grid.dealias_mask
    flux_hat = 0.5 * u2_hat + (1.5 * u2_hat + 2.0 * kappa * np.fft.rfft(u)) * grid.helmholtz_symbol(1.0)
    return -np.fft.irfft(grid.derivative_symbol(1) * flux_hat, n=grid.n)


def oracle_rk4(u, dt, grid, kappa, dealias):
    """One classical RK4 step with the state kept as samples."""
    k1 = oracle_rhs(u, grid, kappa, dealias)
    k2 = oracle_rhs(u + 0.5 * dt * k1, grid, kappa, dealias)
    k3 = oracle_rhs(u + 0.5 * dt * k2, grid, kappa, dealias)
    k4 = oracle_rhs(u + dt * k3, grid, kappa, dealias)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# The acceptance stability scenario: two waves at n = 1024, 2000 RK4 steps.
ACCEPT_STATE = {
    "kappa": 1.0,
    "speeds": [3.0, 5.0],
    "separation": 60.0,
    "alpha": 1e-3,
    "perturbation_kind": "bump",
    "grid_n": 1024,
    "grid_period": 200.0,
    "dt": 0.01,
    "t_end": 20.0,
    "observer_stride": 2000,
    "weight_B": 3.0,
}


class TestConfig:
    def test_requires_dt(self):
        with pytest.raises(TypeError):
            EvolutionConfig(kappa=1.0, t_end=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(kappa=0.0, t_end=1.0, dt=0.01)
        with pytest.raises(ValueError):
            EvolutionConfig(kappa=1.0, t_end=-1.0, dt=0.01)
        with pytest.raises(ValueError):
            EvolutionConfig(kappa=1.0, t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            EvolutionConfig(kappa=1.0, t_end=1.0, dt=0.01, observer_stride=0)

    def test_step_within_the_run(self):
        # dt > t_end would round to zero steps, an infinite t_end to infinitely many, and a t_end / dt that
        # overflows to inf has no integer step count
        with pytest.raises(ValueError, match="at most t_end"):
            EvolutionConfig(kappa=1.0, t_end=1.0, dt=1e30)
        with pytest.raises(ValueError, match="finite"):
            EvolutionConfig(kappa=1.0, t_end=np.inf, dt=0.01)
        for t_end, dt in ((20.0, 1e-320), (1e300, 1e-10)):
            with pytest.raises(ValueError, match="finite step count"):
                EvolutionConfig(kappa=1.0, t_end=t_end, dt=dt)
        assert EvolutionConfig(kappa=1.0, t_end=1.0, dt=1.0).dt == 1.0


class TestRhs:
    def test_constant_is_equilibrium(self):
        g = make_grid(128, 40.0)
        u = Field(g, np.full(128, 1.3))
        assert np.allclose(dp_rhs(u, 1.0).samples, 0.0, atol=1e-13)

    def test_linear_dispersion_symbol(self):
        # linearized about zero: u_t = -2 kappa (1 - d^2)^-1 u_x
        g = make_grid(128, 2.0 * np.pi * 4)
        xi = 2.0 * np.pi * 3 / g.period
        kappa = 1.0
        eps = 1e-8
        u = Field(g, eps * np.cos(xi * g.nodes))
        expected = 2.0 * kappa * xi * eps * np.sin(xi * g.nodes) / (1.0 + xi**2)
        assert np.allclose(dp_rhs(u, kappa).samples, expected, atol=eps * 1e-6)

    def test_traveling_wave_residual(self):
        c, kappa = 3.0, 1.0
        prof = build_profile(SolitonParams(c, kappa))
        g = make_grid(1024, 150.0)
        u = sample_on_grid(prof, g)
        _, ux = sample_dx_on_grid(prof, g)
        res = dp_rhs(u, kappa).samples + c * ux.samples
        assert np.max(np.abs(res)) <= 1e-7 * c

    def test_rejects_bad_kappa(self):
        g = make_grid(64, 10.0)
        with pytest.raises(ValueError):
            dp_rhs(Field(g, np.zeros(64)), -1.0)

    @pytest.mark.parametrize("dealias", [True, False])
    def test_matches_sample_space_oracle(self, rng, dealias):
        g = make_grid(256, 40.0)
        u = random_field(g, rng, scale=2.0)
        ref = oracle_rhs(u.samples, g, 0.7, dealias)
        assert np.max(np.abs(dp_rhs(u, 0.7, dealias).samples - ref)) <= 1e-13 * np.max(np.abs(ref))


def advance(u, dt, steps, kappa=1.0):
    """u after `steps` RK4 steps of size dt: the last frame of evolve with t_end = dt * steps."""
    return evolve_frames(u, EvolutionConfig(kappa=kappa, t_end=dt * steps, dt=dt, observer_stride=steps)).states[-1]


class TestStepRK4:
    """One RK4 step and its order, read off the last frame of evolve."""

    def test_zero_fixed_point(self):
        g = make_grid(64, 10.0)
        u = Field(g, np.zeros(64))
        assert np.allclose(advance(u, 0.01, 1).samples, 0.0)

    def test_constant_fixed_point(self):
        g = make_grid(64, 10.0)
        u = Field(g, np.full(64, 0.8))
        assert np.allclose(advance(u, 0.01, 1).samples, 0.8, atol=1e-13)

    def test_one_step_defect_fourth_order(self):
        c, kappa = 3.0, 1.0
        prof = build_profile(SolitonParams(c, kappa))
        g = make_grid(512, 120.0)
        u = sample_on_grid(prof, g)

        dt = 0.05
        ref = advance(u, dt / 8.0, 16, kappa)
        err_coarse = (advance(u, dt, 2, kappa) - ref).l2_norm()
        err_fine = (advance(u, dt / 2.0, 4, kappa) - ref).l2_norm()
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.35)


class TestEvolve:
    def test_soliton_translates(self):
        c, kappa, t_end = 3.0, 1.0, 2.0
        prof = build_profile(SolitonParams(c, kappa))
        g = make_grid(1024, 150.0)
        u0 = sample_on_grid(prof, g)
        traj = evolve_frames(u0, EvolutionConfig(kappa=kappa, t_end=t_end, dt=0.01, observer_stride=100))
        final = traj.states[-1]

        shifts = np.linspace(c * t_end - 0.5, c * t_end + 0.5, 2001)
        errs = [(final - sample_on_grid(prof, g, center=s)).l2_norm() for s in shifts]
        best = shifts[int(np.argmin(errs))]
        assert min(errs) / u0.l2_norm() <= 1e-6
        assert best == pytest.approx(c * t_end, rel=1e-4)

    def test_invariant_drift(self):
        c, kappa = 3.0, 1.0
        prof = build_profile(SolitonParams(c, kappa))
        g = make_grid(512, 120.0)
        u0 = sample_on_grid(prof, g)
        traj = evolve_frames(u0, EvolutionConfig(kappa=kappa, t_end=1.0, dt=0.01, observer_stride=100))
        s0, h0 = momentum_S(u0), hamiltonian_H(u0, kappa)
        for state in traj.states:
            assert momentum_S(state) == pytest.approx(s0, rel=1e-8)
            assert hamiltonian_H(state, kappa) == pytest.approx(h0, rel=1e-8)

    def test_linear_phase_speed(self):
        # small cosine must propagate at 2 kappa / (1 + xi^2) within 1%
        kappa = 1.0
        g = make_grid(256, 2.0 * np.pi * 8)
        xi = 2.0 * np.pi * 2 / g.period
        eps = 1e-6
        u0 = Field(g, eps * np.cos(xi * g.nodes))
        t_end = 2.0
        traj = evolve_frames(u0, EvolutionConfig(kappa=kappa, t_end=t_end, dt=0.005, observer_stride=1000))
        coeff = np.fft.fft(traj.states[-1].samples)
        k_index = 2
        phase = -np.angle(coeff[k_index] / np.fft.fft(u0.samples)[k_index])
        speed = phase / (xi * t_end)
        assert speed == pytest.approx(2.0 * kappa / (1.0 + xi**2), rel=0.01)

    def test_observer_frames(self):
        g = make_grid(64, 10.0)
        u0 = Field(g, np.zeros(64))
        traj = evolve_frames(u0, EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01, observer_stride=5))
        assert len(traj.times) == len(traj.states) == 3
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.1)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))

    def test_on_frame_gets_the_stored_frames(self):
        # the frames evolve hands over one by one are those evolve_stack hands over, bitwise, and none is kept
        sc = Scenario.from_json(json.dumps(ACCEPT_STATE))
        u0, _ = build_initial_state(sc)
        config = EvolutionConfig(kappa=1.0, t_end=1.0, dt=0.01, observer_stride=30)
        handed = []
        kept = evolve(u0, config, on_frame=lambda t, samples: handed.append((t, samples.copy())))
        assert kept.times == [] and kept.states == []
        (traj,) = stack_frames([u0], config)
        assert [t for t, _ in handed] == traj.times
        assert all(np.array_equal(samples, f.samples) for (_, samples), f in zip(handed, traj.states))

    def test_on_frame_gets_the_frames_before_a_breach(self):
        g = make_grid(128, 20.0)
        big = Field(g, 100.0 * np.cos(2.0 * np.pi * g.nodes / g.period))
        times = []
        with pytest.raises(BlowUpError, match=r"at step (\d+)$") as err:
            evolve(big, EvolutionConfig(kappa=0.01, t_end=50.0, dt=0.05), on_frame=lambda t, _: times.append(t))
        step = int(err.value.args[0].rsplit(" ", 1)[1])
        assert times == [0.05 * k for k in range(step)]

    def test_requires_a_consumer(self):
        # evolve keeps no frames, so it has no use without on_frame
        with pytest.raises(TypeError, match="on_frame"):
            evolve(Field(make_grid(64, 10.0), np.zeros(64)), EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01))

    def test_blow_up_raises(self):
        g = make_grid(128, 20.0)
        big = 100.0 * np.cos(2.0 * np.pi * g.nodes / g.period)
        with pytest.raises(BlowUpError):
            # inadmissible data (w0 changes sign); guard must trip, not hang
            evolve_frames(Field(g, big), EvolutionConfig(kappa=0.01, t_end=50.0, dt=0.05))


class TestSpectralState:
    """The stepper carries rfft coefficients; the sample-space RK4 above is its oracle."""

    @pytest.mark.parametrize("dealias", [True, False])
    def test_matches_sample_space_oracle(self, dealias):
        sc = Scenario.from_json(json.dumps(dict(ACCEPT_STATE, dealias=dealias)))
        u0, _ = build_initial_state(sc)
        config = sc.evolution_config()
        traj = evolve_frames(u0, config)
        assert config.steps == 2000 and traj.times[-1] == pytest.approx(20.0)
        u = u0.samples
        for _ in range(config.steps):
            u = oracle_rk4(u, sc.dt, u0.grid, sc.kappa, dealias)
        assert np.max(np.abs(traj.states[-1].samples - u)) <= 1e-12 * u0.max_norm()

    def test_fft_count(self, monkeypatch):
        # the stepper's own transform bindings, the pocketfft gufuncs
        calls = {"_rfft": 0, "_irfft": 0}

        def counted(name):
            fft = getattr(evolution, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fft(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(evolution, name, counted(name))
        prof = build_profile(SolitonParams(3.0, 1.0))
        u = sample_on_grid(prof, make_grid(256, 100.0))

        def count(run):
            for name in calls:
                calls[name] = 0
            run()
            return calls["_rfft"], calls["_irfft"]

        # one rfft of u0, then 4 rfft(w^2) and 3 stage irffts plus 1 guard irfft per step
        assert count(lambda: evolve_frames(u, EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01, observer_stride=3))) == (
            1 + 4 * 10,
            4 * 10,
        )
        # a stack of states costs the same FFT calls, each over all of its rows
        stack = [u, Field(u.grid, 2.0 * u.samples), u]
        assert count(lambda: stack_frames(stack, EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01))) == (
            1 + 4 * 10,
            4 * 10,
        )
        assert count(lambda: dp_rhs(u, 1.0)) == (2, 1)

    def test_guard_breach_names_step(self):
        # Inadmissible data beyond the step-size limit: the oracle finds where the guard first trips.
        g = make_grid(128, 20.0)
        u0 = Field(g, 10.0 * np.cos(2.0 * np.pi * g.nodes / g.period))
        guard = 10.0 * sup_bound(u0.l2_norm(), 0.01)
        u, step = u0.samples, 0
        while np.max(np.abs(u)) <= guard:
            u, step = oracle_rk4(u, 0.05, g, 0.01, True), step + 1
        assert step > 1
        with pytest.raises(BlowUpError, match=rf"exceeds blow-up guard .* at step {step}$"):
            evolve_frames(u0, EvolutionConfig(kappa=0.01, t_end=50.0, dt=0.05))


class TestStack:
    """States on one grid step as an (m, n) stack; every row must evolve bitwise as it does alone."""

    @pytest.mark.parametrize("n", [64, 1024, 2048])
    def test_fft_rows_bitwise(self, rng, n):
        # the premise of byte identity: rows of a 2-D transform are the 1-D transforms
        for m in range(1, 10):
            u = rng.normal(size=(m, n))
            u_hat = np.fft.rfft(u)
            back = np.fft.irfft(u_hat, n=n)
            for i in range(m):
                assert np.array_equal(u_hat[i], np.fft.rfft(u[i]))
                assert np.array_equal(back[i], np.fft.irfft(u_hat[i], n=n))

    def test_breach_leaves_stack(self):
        sc = Scenario.from_json(json.dumps(ACCEPT_STATE))
        u0, _ = build_initial_state(sc)
        g = u0.grid
        # the 10 cos state of test_guard_breach_names_step, wavelength 20, on the acceptance grid
        wave = Field(g, 10.0 * np.cos(2.0 * np.pi * 10 * g.nodes / g.period))
        config = EvolutionConfig(kappa=1.0, t_end=2.0, dt=0.05, observer_stride=5)
        traj, err = stack_frames([u0, wave], config)

        alone = evolve_frames(u0, config)
        assert traj.times == alone.times and config.steps == 40
        assert all(np.array_equal(a.samples, b.samples) for a, b in zip(traj.states, alone.states))
        assert isinstance(err, BlowUpError)
        with pytest.raises(BlowUpError) as single:
            evolve_frames(wave, config)
        assert str(err) == str(single.value)
        assert str(err).endswith("at step 6")

    def test_rejects_mixed_grids(self):
        a = Field(make_grid(64, 10.0), np.zeros(64))
        b = Field(make_grid(64, 20.0), np.zeros(64))
        with pytest.raises(ValueError):
            stack_frames([a, b], EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01))
        assert stack_frames([], EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01)) == []

    def test_no_states(self):
        def on_frame(*args):
            raise AssertionError("handed a frame of no state")

        assert evolve_stack([], EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01), on_frame) == {}


def plain_rk4_frames(u0s, config):
    """The stepper's RK4 as plain expressions: numpy.fft, a new array per op, the same symbols and op order.

    Returns the stored frames, each (n,) for one state or (m, n) for a stack.
    """
    grid = u0s[0].grid
    f2, f1 = evolution._flux_symbols(grid, config.kappa, config.dealias)
    n, steps = grid.n, config.steps
    dt = config.t_end / steps

    def rhs_hat(v_hat, v):
        return f2 * np.fft.rfft(v * v) + f1 * v_hat

    u = np.stack([u0.samples for u0 in u0s])
    u = u[0] if len(u0s) == 1 else u
    u_hat = np.fft.rfft(u)
    frames = [u]
    for step in range(1, steps + 1):
        k1 = rhs_hat(u_hat, u)
        v = u_hat + 0.5 * dt * k1
        k2 = rhs_hat(v, np.fft.irfft(v, n=n))
        v = u_hat + 0.5 * dt * k2
        k3 = rhs_hat(v, np.fft.irfft(v, n=n))
        v = u_hat + dt * k3
        k4 = rhs_hat(v, np.fft.irfft(v, n=n))
        u_hat = u_hat + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        u = np.fft.irfft(u_hat, n=n)
        if step % config.observer_stride == 0 or step == steps:
            frames.append(u)
    return frames


class TestInPlaceStepper:
    """The stepper calls pocketfft's gufuncs into a reused workspace; its bits are the plain expressions'."""

    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_gufuncs_are_numpy_fft(self, rng, n, rows):
        u = rng.normal(size=(*rows, n))
        u_hat = evolution._rfft(u, 1.0, out=np.empty((*rows, n // 2 + 1), complex))
        assert np.array_equal(u_hat, np.fft.rfft(u))
        back = evolution._irfft(u_hat, 1.0 / n, out=np.empty((*rows, n)))
        assert np.array_equal(back, np.fft.irfft(u_hat, n=n))

    def test_evolve_is_the_plain_rk4_bitwise(self):
        u0 = sample_on_grid(build_profile(SolitonParams(3.0, 1.0)), make_grid(256, 100.0))
        config = EvolutionConfig(kappa=1.0, t_end=0.5, dt=0.01, observer_stride=7)
        assert config.steps == 50
        frames = evolve_frames(u0, config).states
        (traj,) = stack_frames([u0], config)
        want = plain_rk4_frames([u0], config)
        assert len(frames) == len(traj.states) == len(want) == 9
        assert all(np.array_equal(a.samples, w) for a, w in zip(frames, want))
        assert all(np.array_equal(a.samples, w) for a, w in zip(traj.states, want))

    def test_stack_is_the_plain_rk4_bitwise(self):
        u = sample_on_grid(build_profile(SolitonParams(3.0, 1.0)), make_grid(256, 100.0))
        stack = [u, Field(u.grid, 0.5 * u.samples), Field(u.grid, np.roll(u.samples, 40))]
        config = EvolutionConfig(kappa=1.0, t_end=0.5, dt=0.01, observer_stride=7)
        want = plain_rk4_frames(stack, config)
        for i, traj in enumerate(stack_frames(stack, config)):
            assert len(traj.states) == len(want) == 9
            assert all(np.array_equal(f.samples, w[i]) for f, w in zip(traj.states, want))

    def test_frames_are_never_overwritten(self):
        # the loop hands out fresh samples: a consumer may keep them, as io.FrameWriter.last does
        sc = Scenario.from_json(json.dumps(ACCEPT_STATE))
        u0, _ = build_initial_state(sc)
        g = u0.grid
        wave = Field(g, 10.0 * np.cos(2.0 * np.pi * 10 * g.nodes / g.period))  # test_breach_leaves_stack's breach
        config = EvolutionConfig(kappa=1.0, t_end=2.0, dt=0.05, observer_stride=5)
        kept, copies = [], []

        def keep(samples):
            kept.append(samples)
            copies.append(samples.copy())

        evolve(u0, config, lambda t, samples: keep(samples))
        assert len(kept) == 9
        lost = evolve_stack([u0, wave], config, lambda i, t, samples: keep(samples))
        assert list(lost) == [1] and len(kept) == 9 + 9 + 2
        assert all(np.array_equal(a, b) for a, b in zip(kept, copies))


class TestWPositivity:
    def test_zero_field(self):
        g = make_grid(64, 10.0)
        out = check_w_positivity(Field(g, np.zeros(64)), 1.0)
        assert out["ok"] and out["min_value"] == pytest.approx(2.0 / 3.0)

    def test_soliton_admissible(self):
        prof = build_profile(SolitonParams(3.0, 1.0))
        g = make_grid(1024, 150.0)
        out = check_w_positivity(sample_on_grid(prof, g), 1.0)
        assert out["ok"]

    def test_large_cosine_inadmissible(self):
        kappa = 1.0
        g = make_grid(64, 2.0 * np.pi)
        m = 10.0 * kappa
        out = check_w_positivity(Field(g, m * np.cos(g.nodes)), kappa)
        # w = 2 M cos(x) + 2 kappa / 3 dips negative once M > kappa / 3
        assert not out["ok"]
        assert out["min_value"] == pytest.approx(-2.0 * m + 2.0 * kappa / 3.0, rel=1e-10)


def test_sup_bound_formula():
    assert sup_bound(0.0, 1.0) == pytest.approx(4.0 / 3.0)
    assert sup_bound(2.0, 1.0) == pytest.approx(4.0 * (1.0 + np.sqrt(2.0)) + 4.0 / 3.0)
