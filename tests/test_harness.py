import json
import math
import multiprocessing
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dpwavelab
import dpwavelab.harness as harness
import dpwavelab.modulation as modulation
from dpwavelab.diagnostics import weight_psi
from dpwavelab.evolution import BlowUpError
from dpwavelab.grid import Field, make_grid
from dpwavelab.harness import (
    EvolveProcessError,
    Scenario,
    ScenarioError,
    SweepError,
    build_initial_state,
    run_stability,
    run_sweep,
)
from dpwavelab.modulation import NEWTON_TOL, DecompositionError, ProfileCache, train_field
from dpwavelab.soliton import SolitonParams, build_profile, min_period, sample_on_grid


def quick_scenario(**overrides):
    base = dict(
        kappa=1.0,
        speeds=(3.0, 5.0),
        separation=30.0,
        alpha=1e-3,
        seed=1,
        grid_n=512,
        t_end=2.0,
        dt=0.01,
        observer_stride=100,
        weight_B=3.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_decreasing_speeds_rejected(self):
        with pytest.raises(ScenarioError):
            quick_scenario(speeds=(5.0, 3.0))

    def test_slow_speed_rejected(self):
        with pytest.raises(ScenarioError):
            quick_scenario(speeds=(1.5, 5.0))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ScenarioError):
            quick_scenario(alpha=-1e-3)

    def test_unknown_perturbation_rejected(self):
        # "none" is gone: alpha = 0 is the unperturbed train
        for kind in ("spike", "none"):
            with pytest.raises(ScenarioError, match="unknown perturbation kind"):
                quick_scenario(perturbation_kind=kind)

    def test_single_wave_nonfinite_separation_rejected(self):
        # one wave does not use the separation as a gap, but it still places the wave at 0 * separation
        with pytest.raises(ScenarioError, match="^separation must be finite"):
            quick_scenario(speeds=(3.0,), separation=float("inf"), grid_period=200.0)

    def test_nonpositive_separation_rejected(self):
        with pytest.raises(ScenarioError):
            quick_scenario(separation=0.0)

    def test_weight_validation(self):
        for bad in ({"weight_B": 2.0}, {"weight_B": float("nan")}, {"sigma0": 0.0}, {"sigma0": -1.0}):
            with pytest.raises(ScenarioError):
                quick_scenario(**bad)

    def test_gamma0(self):
        assert quick_scenario(weight_B=4.0, sigma0=0.3).gamma0 == pytest.approx(1.0 / 32.0)
        assert quick_scenario(weight_B=4.0, sigma0=0.1).gamma0 == pytest.approx(0.1 / 8.0)

    def test_positions_centered(self):
        s = quick_scenario()
        assert np.allclose(s.positions0, [-15.0, 15.0])

    def test_sigma0_auto(self):
        s = quick_scenario()
        expected = 0.5 * min(np.sqrt(1.0 - 2.0 / 3.0), 3.0 - 2.0, 5.0 - 3.0)
        assert s.sigma0_value == pytest.approx(expected)
        assert quick_scenario(sigma0=0.1).sigma0_value == 0.1

    def test_auto_period(self):
        s = quick_scenario()
        nu = np.sqrt(1.0 - 2.0 / 3.0)
        raw = 2.0 * 30.0 + 20.0 / nu + 2.0 * 2.0
        assert s.auto_period() == pytest.approx(np.ceil(raw / 10.0) * 10.0)
        assert quick_scenario(grid_period=123.0).auto_period() == 123.0

    def test_unrepresentable_later_speed_rejected_on_load(self):
        # every wave's SolitonParams is built at load, not only the slowest one's
        with pytest.raises(ScenarioError, match=r"c=1e\+78, kappa=1.0 are not representable"):
            Scenario(kappa=1.0, speeds=(3.0, 1e78), separation=60.0)

    def test_period_below_tail_budget_rejected_on_load(self):
        # one wave, so that the seam margin 20/nu = 34.6 does not apply; min_period is 67.46
        with pytest.raises(ScenarioError, match=r"^grid period 40.0 too small: wrapped tail "):
            quick_scenario(speeds=(3.0,), separation=0.0, grid_period=40.0)

    def test_period_check_agrees_with_sampling_at_the_boundary(self):
        # load rejects exactly the periods at which sampling the slowest wave fails
        params = SolitonParams(3.0, 1.0)
        prof = build_profile(params)
        edge = min_period(params)
        periods = [edge]
        for _ in range(4):
            periods = [np.nextafter(periods[0], 0.0), *periods, np.nextafter(periods[-1], np.inf)]
        verdicts = set()
        for period in periods:
            try:
                sample_on_grid(prof, make_grid(64, period))
                samples = True
            except ValueError:
                samples = False
            try:
                quick_scenario(speeds=(3.0,), separation=0.0, grid_n=64, grid_period=period)
                loads = True
            except ScenarioError:
                loads = False
            assert loads == samples, period
            verdicts.add(loads)
        assert verdicts == {True, False}

    def test_json_roundtrip(self):
        s = quick_scenario(alpha=3e-4, seed=11)
        clone = Scenario.from_json(s.to_json())
        assert clone == s

    def test_malformed_json_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_json(json.dumps({"kappa": 1.0, "speeds": [3.0, 5.0], "bogus_key": 1}))


class TestBuildInitialState:
    def test_perturbation_has_requested_size(self):
        s = quick_scenario()
        cache = ProfileCache(1.0)
        u0, info = build_initial_state(s, cache)
        from dpwavelab.modulation import train_field

        train = train_field(s.grid(), s.speeds, s.positions0, cache)
        assert (u0 - train).l2_norm() == pytest.approx(s.alpha, rel=1e-10)
        assert info["alpha_used"] == s.alpha
        assert info["w0_ok"]

    def test_deterministic_given_seed(self):
        a, _ = build_initial_state(quick_scenario(seed=9))
        b, _ = build_initial_state(quick_scenario(seed=9))
        c, _ = build_initial_state(quick_scenario(seed=10))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_alpha_halved_until_admissible(self):
        s = quick_scenario(alpha=100.0)
        u0, info = build_initial_state(s)
        assert info["alpha_used"] < info["alpha_requested"]
        assert info["w0_ok"]

    def test_mode_perturbation(self):
        s = quick_scenario(perturbation_kind="mode")
        u0, info = build_initial_state(s)
        assert info["w0_ok"]

    def test_inadmissible_at_zero_alpha_rejected(self, monkeypatch):
        # with alpha = 0 there is nothing to halve, so w0 < 0 is a configuration error
        monkeypatch.setattr(harness, "check_w_positivity", lambda u0, kappa: {"min_value": -0.5, "ok": False})
        with pytest.raises(ScenarioError, match=r"cannot be made admissible: w0 min -5\.000e-01 at alpha 0\.000e\+00$"):
            build_initial_state(quick_scenario(alpha=0.0))

    def test_zero_alpha_is_exact_train(self):
        s = quick_scenario(alpha=0.0)
        u0, info = build_initial_state(s)
        assert info["alpha_used"] == 0.0
        train = train_field(s.grid(), s.speeds, s.positions0, ProfileCache(s.kappa))
        assert np.array_equal(u0.samples, train.samples)


class TestRunStability:
    @pytest.fixture(scope="class")
    @staticmethod
    def result():
        return run_stability(quick_scenario())

    def test_records_cover_run(self, result):
        times = [r["t"] for r in result.records]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2.0)
        assert len(times) == 3

    def test_error_is_order_alpha(self, result):
        assert result.sup_error <= 5.0 * 1e-3
        assert result.sup_error > 1e-5

    def test_drifts_small(self, result):
        summary = result.summary()
        assert summary["max_s_drift"] <= 1e-7
        assert summary["max_h_drift"] <= 1e-7

    def test_apriori_flags_present(self, result):
        for row in result.records:
            assert row["linfty_ok"] and row["slope_ok"] and row["sup_ok"]

    def test_persistence(self, tmp_path):
        out = tmp_path / "run"
        run_stability(quick_scenario(), outputs=str(out))
        assert (out / "scenario.json").exists()
        assert (out / "records.csv").exists()
        assert (out / "summary.json").exists()
        with open(out / "summary.json") as fh:
            doc = json.load(fh)
        assert doc["apriori_all_ok"]
        assert set(doc["counters"]) == {
            "rk4_steps",
            "rhs_evals",
            "newton_steps",
            "jacobian_refreshes",
            "profile_builds",
            "profiles_cached",
        }
        assert doc["provenance"] == {"dpwavelab": dpwavelab.__version__, "numpy": np.__version__}

    def test_counters(self, monkeypatch):
        # the counters match the profile builds and the decompositions the run made; the cache keeps
        # the scenario's profiles alone
        builds, states = [], []
        build_profile, decompose = modulation.build_profile, modulation.decompose

        def counted_build(*args, **kwargs):
            builds.append(args[0].c)
            return build_profile(*args, **kwargs)

        def recorded(*args, **kwargs):
            states.append(decompose(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(modulation, "build_profile", counted_build)
        monkeypatch.setattr(modulation, "decompose", recorded)
        scenario = quick_scenario()
        counters = run_stability(scenario).summary()["counters"]
        steps = math.ceil(scenario.t_end / scenario.dt)
        assert counters == {
            "rk4_steps": steps,
            "rhs_evals": 4 * steps,
            "newton_steps": sum(st.iterations - 1 for st in states),
            "jacobian_refreshes": sum(st.refreshes for st in states),
            "profile_builds": len(builds),
            "profiles_cached": scenario.n_waves,
        }
        assert builds[:scenario.n_waves] == list(scenario.speeds)
        assert counters["jacobian_refreshes"] >= 1

    def test_profile_cache_holds_the_working_set(self, monkeypatch):
        # The dense benchmark run (three waves, 101 frames) at its reference seed 3 builds each wave's
        # profile at its scenario speed and at one anchor near its tracked speed, plus the re-anchors of
        # frame 0's iterates: at most 20 builds (6 here), where the frame-aged cache built 295. The cache keeps
        # the N scenario profiles, and each wave holds one anchor.
        scenario = quick_scenario(
            speeds=(3.0, 4.0, 5.0), separation=60.0, seed=3, grid_n=1024, grid_period=300.0, t_end=20.0,
            observer_stride=20,
        )
        anchors = []
        step = modulation.Tracker.step

        def logged_step(self, t, frame):
            st = step(self, t, frame)
            anchors.append(st.anchors)
            return st

        monkeypatch.setattr(modulation.Tracker, "step", logged_step)
        result = run_stability(scenario)
        assert len(result.records) == 101
        n = scenario.n_waves
        assert result.counters["profiles_cached"] == n
        assert 2 * n <= result.counters["profile_builds"] <= 20
        assert all(len(held) == n for held in anchors)
        # after frame 0, every frame keeps its anchors: speeds drift less than ANCHOR_TOL in this run
        assert all(a is b for held in anchors[1:] for a, b in zip(held, anchors[0]))

    def test_records_carry_solver_health(self, monkeypatch):
        # each row's Newton iterations and largest orthogonality condition are its decomposition's
        states, norms = [], []
        decompose = modulation.decompose

        def recorded(u, *args, **kwargs):
            norms.append(u.l2_norm())
            states.append(decompose(u, *args, **kwargs))
            return states[-1]

        monkeypatch.setattr(modulation, "decompose", recorded)
        records = run_stability(quick_scenario(speeds=(3.0, 4.0, 5.0), observer_stride=20)).records
        assert len(records) == len(states) == 11
        for row, st, norm in zip(records, states, norms):
            assert row["newton_iters"] == st.iterations >= 1
            assert row["ortho_residual_max"] == np.max(np.abs(st.ortho_residual)) <= NEWTON_TOL * norm

    def test_persistence_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_stability(quick_scenario(), outputs=str(out1))
        run_stability(quick_scenario(), outputs=str(out2))
        for name in ("scenario.json", "records.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_memory_does_not_grow_with_the_frame_count(self, monkeypatch):
        # one wave at n = 1024: keeping each of the 150 extra frames would add 150 x 8 KB = 1.2 MB to the peak
        set_cpus(monkeypatch, 1)
        peaks = []
        for t_end in (5.0, 20.0):
            scenario = quick_scenario(speeds=(3.0,), grid_n=1024, grid_period=80.0, t_end=t_end, observer_stride=10)
            tracemalloc.start()
            try:
                assert len(run_stability(scenario).records) == 10 * t_end + 1
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.5e6

    @pytest.mark.parametrize("c", [2.2, 2.5, 3.0, 5.0])
    def test_single_wave_auto_period(self, c):
        # the automatic period leaves room for the wrapped-tail budget of sampling
        result = run_stability(quick_scenario(speeds=(c,)))
        assert not any(key.startswith("i_") for key in result.records[0])
        assert not any(key.startswith("I_") for key in result.summary())


class TestObservedFrame:
    """One frame's S, H, I_j and a priori checks, as _Observer computes them after tracking the frame."""

    @pytest.fixture(scope="class")
    @staticmethod
    def observed():
        scenario = quick_scenario(speeds=(3.0, 4.0, 5.0), separation=40.0, grid_n=1024)
        cache = ProfileCache(scenario.kappa)
        u0, _ = build_initial_state(scenario, cache)
        return scenario, u0, harness._Observer(scenario, u0, cache)

    def test_at_most_13_transforms(self, observed, monkeypatch):
        # the frame is transformed once for S, H, the I_j and u_x; u_hat once for S and once for the I_j
        scenario, u0, observe = observed
        calls, counting = [], [False]
        for name in ("rfft", "irfft"):
            def counted(*args, _fft=getattr(np.fft, name), _name=name, **kwargs):
                if counting[0]:
                    calls.append(_name)
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        step = observe.tracker.step

        def untracked(*args):
            counting[0] = False
            try:
                return step(*args)
            finally:
                counting[0] = True

        monkeypatch.setattr(observe.tracker, "step", untracked)
        counting[0] = True
        observe(0.0, u0.samples.copy())
        counting[0] = False
        assert len(calls) <= 13
        assert len(observe.records[-1]) > 0

    def test_values_match_the_transform_per_call_oracle(self, observed):
        # Oracle: every operator applied as the seed did, rfft then irfft of the field it is given, with no
        # shared transform; the S, H and I_j of a frame shared by every consumer are bitwise the same.
        scenario, u0, _ = observed
        grid = u0.grid

        def apply(samples, symbol):
            return np.fft.irfft(symbol * np.fft.rfft(samples), n=grid.n)

        frame = Field(grid, u0.samples.copy())
        positions = scenario.positions0
        ms = positions[:-1] + 0.5 * grid.gaps(positions)[:-1]
        got = (harness.momentum_S(frame), harness.hamiltonian_H(frame, scenario.kappa),
               harness.localized_momentum(frame, ms, scenario.weight_B))
        uh = apply(u0.samples, grid.helmholtz_symbol(4.0))
        uhx, uhxx = apply(uh, grid.derivative_symbol(1)), apply(uh, grid.derivative_symbol(2))
        density = 4.0 * uh**2 + 5.0 * uhx**2 + uhxx**2
        w = apply(u0.samples, grid.sqrt_helmholtz4_symbol)
        s_oracle = 0.5 * float(grid.h * np.sum(density))
        h_oracle = -float(grid.h * np.sum(u0.samples**3 + 6.0 * scenario.kappa * w**2)) / 6.0
        i_oracle = [0.5 * float(grid.h * np.sum(weight_psi(grid.wrap(grid.nodes - m), scenario.weight_B) * density))
                    for m in ms]
        assert got == (s_oracle, h_oracle, i_oracle)


def set_cpus(monkeypatch, cpus):
    """Let this process appear to run on cpus CPUs: two or more fork the evolution, one keeps it in process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def quick_summary() -> dict:
    return run_stability(quick_scenario(seed=3)).summary()


class TestForkedRun:
    """run_stability evolves in a forked child while it observes; evolving in process is the oracle."""

    @pytest.mark.parametrize("speeds", [(3.0,), (3.0, 5.0), (3.0, 4.0, 5.0)])
    def test_transports_write_the_same_bytes(self, tmp_path, monkeypatch, speeds):
        scenario = quick_scenario(speeds=speeds, seed=3, observer_stride=20)
        forked = []
        evolve_forked = harness._evolve_forked

        def spy(*args, **kwargs):
            forked.append(True)
            return evolve_forked(*args, **kwargs)

        monkeypatch.setattr(harness, "_evolve_forked", spy)
        set_cpus(monkeypatch, 2)
        run_stability(scenario, outputs=str(tmp_path / "forked"))
        set_cpus(monkeypatch, 1)
        run_stability(scenario, outputs=str(tmp_path / "in_process"))
        assert forked == [True]
        for name in ("records.csv", "summary.json"):
            assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()
        assert multiprocessing.active_children() == []

    def test_breach_in_the_child_names_the_step(self, monkeypatch):
        scenario = quick_scenario(dt=2.0)
        messages = []
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus)
            with pytest.raises(BlowUpError, match="at step 1$") as err:
                run_stability(scenario)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("error", [DecompositionError, KeyboardInterrupt])
    def test_failure_in_the_parent_stops_the_child(self, monkeypatch, error):
        # frame 2 of 101 fails while the child is still evolving; no process is left behind
        calls = []
        decompose = modulation.decompose

        def fails_at_frame_2(*args, **kwargs):
            calls.append(True)
            if len(calls) == 3:
                raise error("forced at frame 2")
            return decompose(*args, **kwargs)

        monkeypatch.setattr(modulation, "decompose", fails_at_frame_2)
        set_cpus(monkeypatch, 2)
        with pytest.raises(error, match="forced at frame 2") as err:
            run_stability(quick_scenario(observer_stride=2))
        if error is DecompositionError:
            assert str(err.value) == "tracking failed at t=0.04: forced at frame 2"
        assert len(calls) == 3
        assert multiprocessing.active_children() == []

    def test_pool_worker_evolves_in_process(self, monkeypatch):
        # a multiprocessing.Pool worker is a daemon, which may not start a child of its own
        set_cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            summary = pool.apply(quick_summary)
        assert summary == quick_summary()

    def test_child_that_dies_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: os._exit(3))
        set_cpus(monkeypatch, 2)
        with pytest.raises(EvolveProcessError, match="evolve phase .* exited with code 3$"):
            run_stability(quick_scenario())
        assert multiprocessing.active_children() == []


class TestRunSweep:
    def test_empty_lists_rejected(self):
        with pytest.raises(ScenarioError):
            run_sweep(quick_scenario(), [], [30.0])
        with pytest.raises(ScenarioError):
            run_sweep(quick_scenario(), [1e-3], [])

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_parallelism_below_one_rejected(self, parallelism):
        with pytest.raises(ValueError, match=f"parallelism must be >= 1, got {parallelism}"):
            run_sweep(quick_scenario(), [1e-4, 1e-3], [25.0, 30.0], parallelism=parallelism)

    def test_grid_and_fit(self):
        sw = run_sweep(quick_scenario(), [1e-4, 1e-3], [25.0, 30.0])
        assert len(sw.rows) == 4
        assert not any(r["failed"] for r in sw.rows)
        assert sw.fitted_amplitude > 0
        keys = [(r["alpha"], r["L"]) for r in sw.rows]
        assert keys == sorted(keys)

    def test_parallelism_invariant(self):
        seq = run_sweep(quick_scenario(), [1e-4, 1e-3], [25.0, 30.0], parallelism=1)
        par = run_sweep(quick_scenario(), [1e-4, 1e-3], [25.0, 30.0], parallelism=2)
        assert seq.rows == par.rows
        assert seq.fitted_amplitude == par.fitted_amplitude

    def test_pool_sized_by_chunks(self, monkeypatch):
        # Two grids of two runs make four chunks; a pool asked for 64 workers must open four.
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        wide = run_sweep(quick_scenario(), [1e-4, 1e-3], [25.0, 30.0], parallelism=64)
        assert pools == [4]
        assert wide.rows == run_sweep(quick_scenario(), [1e-4, 1e-3], [25.0, 30.0], parallelism=1).rows

    def test_too_few_runs_for_fit(self):
        with pytest.raises(RuntimeError):
            run_sweep(quick_scenario(), [1e-3], [25.0, 30.0])
        with pytest.raises(SweepError):
            run_sweep(quick_scenario(), [1e-3], [25.0, 30.0])

    def test_parallelism_invariant_uneven_chunks(self):
        # one grid, five runs: chunks of 3 + 2 over two workers and 2 + 2 + 1 over three
        assert harness._split([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]
        assert harness._split([1, 2, 3, 4, 5], 3) == [[1, 2], [3, 4], [5]]
        base = quick_scenario(grid_period=100.0)
        alphas = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
        seq = run_sweep(base, alphas, [30.0], parallelism=1)
        for parallelism in (2, 3):
            par = run_sweep(base, alphas, [30.0], parallelism=parallelism)
            assert par.rows == seq.rows
            assert par.fitted_amplitude == seq.fitted_amplitude

    def test_runs_grouped_by_grid(self, monkeypatch):
        # auto-sized boxes: each separation has its own period, so the runs form two stacks
        base = quick_scenario()
        assert {replace(base, separation=L).auto_period() for L in (25.0, 30.0)} == {90.0, 100.0}
        stacks = []
        evolve_stack = harness.evolve_stack

        def spy(u0s, config):
            stacks.append((len(u0s), u0s[0].grid.period))
            return evolve_stack(u0s, config)

        monkeypatch.setattr(harness, "evolve_stack", spy)
        sw = run_sweep(base, [1e-4, 1e-3], [25.0, 30.0], parallelism=1)
        assert sorted(stacks) == [(2, 90.0), (2, 100.0)]
        for row in sw.rows:
            res = run_stability(replace(base, alpha=row["alpha"], separation=row["L"]))
            assert row["sup_error"] == res.sup_error
            assert row["alpha_used"] == res.init_info["alpha_used"]
            assert row["w0_ok"] == res.init_info["w0_ok"]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a run failure")

        monkeypatch.setattr(harness, "track", broken)
        with pytest.raises(TypeError, match="not a run failure"):
            run_sweep(quick_scenario(), [1e-4, 1e-3], [25.0, 30.0], parallelism=1)

    def test_run_failure_recorded(self, monkeypatch):
        # tracking fails for the run (1e-3, 30): only its row fails, the others are real runs
        target, _ = build_initial_state(quick_scenario(alpha=1e-3, separation=30.0))
        track = harness.track

        def one_fails(traj, *args, **kwargs):
            if np.array_equal(traj.states[0].samples, target.samples):
                raise DecompositionError("tracking failed at t=1.0: Newton did not converge")
            return track(traj, *args, **kwargs)

        monkeypatch.setattr(harness, "track", one_fails)
        sw = run_sweep(quick_scenario(), [1e-4, 1e-3, 1e-2], [25.0, 30.0], parallelism=1)
        failed = [r for r in sw.rows if r["failed"]]
        assert [(r["alpha"], r["L"]) for r in failed] == [(1e-3, 30.0)]
        assert failed[0]["error_type"] == "DecompositionError"
        assert failed[0]["error"] == "tracking failed at t=1.0: Newton did not converge"
        assert failed[0]["phase"] == "track"
        assert not any("error_type" in r or "phase" in r for r in sw.rows if not r["failed"])

    @pytest.mark.parametrize("phase", ["initial_state", "evolve"])
    def test_failure_phase(self, monkeypatch, phase):
        # the run (1e-3, 30) fails before tracking; its row names the phase, its stack mate is unharmed
        failing = quick_scenario(alpha=1e-3, separation=30.0)
        target, _ = build_initial_state(failing)
        build, evolve_stack = harness.build_initial_state, harness.evolve_stack

        def bad_state(scenario, cache=None):
            if scenario == failing:
                raise ScenarioError("perturbation cannot be made admissible")
            return build(scenario, cache)

        def blows_up(u0s, config):
            out = evolve_stack(u0s, config)
            return [BlowUpError("non-finite samples after RK4 step at step 7")
                    if np.array_equal(u0.samples, target.samples) else traj for u0, traj in zip(u0s, out)]

        if phase == "initial_state":
            monkeypatch.setattr(harness, "build_initial_state", bad_state)
        else:
            monkeypatch.setattr(harness, "evolve_stack", blows_up)
        sw = run_sweep(quick_scenario(), [1e-4, 1e-3, 1e-2], [25.0, 30.0], parallelism=1)
        failed = [r for r in sw.rows if r["failed"]]
        assert [(r["alpha"], r["L"], r["phase"]) for r in failed] == [(1e-3, 30.0, phase)]
        assert failed[0]["error_type"] == ("ScenarioError" if phase == "initial_state" else "BlowUpError")
        mate = next(r for r in sw.rows if (r["alpha"], r["L"]) == (1e-4, 30.0))
        assert mate["sup_error"] == run_stability(replace(failing, alpha=1e-4)).sup_error
