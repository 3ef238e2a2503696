import json
import os

import numpy as np
import pytest

from dpwavelab.harness import (
    Scenario,
    ScenarioError,
    build_initial_state,
    run_stability,
    run_sweep,
)
from dpwavelab.modulation import ProfileCache


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
        with pytest.raises(ScenarioError):
            quick_scenario(perturbation_kind="spike")

    def test_nonpositive_separation_rejected(self):
        with pytest.raises(ScenarioError):
            quick_scenario(separation=0.0)

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

    def test_none_perturbation_is_exact_train(self):
        s = quick_scenario(alpha=0.0, perturbation_kind="none")
        u0, info = build_initial_state(s)
        assert info["alpha_used"] == 0.0


class TestRunStability:
    @pytest.fixture(scope="class")
    @staticmethod
    def result():
        return run_stability(quick_scenario())

    def test_records_cover_run(self, result):
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(2.0)
        assert len(result.records) == len(result.times)

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

    def test_persistence_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_stability(quick_scenario(), outputs=str(out1))
        run_stability(quick_scenario(), outputs=str(out2))
        for name in ("scenario.json", "records.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("c", [2.2, 2.5, 3.0, 5.0])
    def test_single_wave_auto_period(self, c):
        # the automatic period leaves room for the wrapped-tail budget of sampling
        result = run_stability(quick_scenario(speeds=(c,)))
        assert result.monotonicity["series"] == {}
        assert not any(key.startswith("I_") for key in result.summary())


class TestRunSweep:
    def test_empty_lists_rejected(self):
        with pytest.raises(ScenarioError):
            run_sweep(quick_scenario(), [], [30.0])
        with pytest.raises(ScenarioError):
            run_sweep(quick_scenario(), [1e-3], [])

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

    def test_too_few_runs_for_fit(self):
        with pytest.raises(RuntimeError):
            run_sweep(quick_scenario(), [1e-3], [25.0, 30.0])
