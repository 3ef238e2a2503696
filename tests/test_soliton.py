import json

import numpy as np
import pytest

from dpwavelab.grid import make_grid
from dpwavelab.soliton import (
    SolitonParams,
    SolitonProfile,
    build_profile,
    min_period,
    peak_amplitude,
    sample_dx_on_grid,
    sample_on_grid,
    speed_from_amplitude,
)

from conftest import PARAM_PAIRS


def amplitude_quadratic(phi, c, kappa):
    return 0.5 * phi**2 - (c - 2.0 * kappa / 3.0) * phi + 0.5 * c**2 - kappa * c


class TestParams:
    def test_rejects_slow_speed(self):
        with pytest.raises(ValueError):
            SolitonParams(2.0, 1.0)
        with pytest.raises(ValueError):
            SolitonParams(1.0, 1.0)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            SolitonParams(3.0, 0.0)
        with pytest.raises(ValueError):
            SolitonParams(3.0, -1.0)


class TestPeakAmplitude:
    def test_reference_value(self):
        a = peak_amplitude(SolitonParams(3.0, 1.0))
        expected = (3.0 - 2.0 / 3.0) - np.sqrt((2.0 / 3.0) * (3.0 + 2.0 / 3.0))
        assert a == pytest.approx(expected, rel=1e-14)
        assert a == pytest.approx(0.76984, abs=1e-4)

    def test_root_residual(self):
        for c, kappa in PARAM_PAIRS:
            a = peak_amplitude(SolitonParams(c, kappa))
            assert abs(amplitude_quadratic(a, c, kappa)) <= 1e-12 * c**2
            assert 0.0 < a < c

    def test_small_kappa_limit(self):
        c = 3.0
        amps = [peak_amplitude(SolitonParams(c, k)) for k in (1e-4, 1e-6, 1e-8)]
        assert abs(amps[-1] - c) < 1e-3
        assert amps[0] < amps[1] < amps[2] < c

    def test_strictly_increasing_in_speed(self):
        for kappa in (0.5, 1.0):
            cs = np.linspace(2.2 * kappa, 8.0, 40)
            amps = [peak_amplitude(SolitonParams(c, kappa)) for c in cs]
            assert np.all(np.diff(amps) > 0)


class TestSpeedFromAmplitude:
    def test_roundtrip(self):
        for c, kappa in PARAM_PAIRS:
            a = peak_amplitude(SolitonParams(c, kappa))
            assert speed_from_amplitude(a, kappa) == pytest.approx(c, abs=1e-9)

    def test_reference_value(self):
        assert speed_from_amplitude(0.76984, 1.0) == pytest.approx(3.0, abs=1e-3)

    def test_small_amplitude_limit(self):
        kappa = 1.0
        c = speed_from_amplitude(1e-8, kappa)
        assert c == pytest.approx(2.0 * kappa, abs=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            speed_from_amplitude(-1.0, 1.0)
        with pytest.raises(ValueError):
            speed_from_amplitude(1.0, 0.0)


class TestBuildProfile:
    def test_peak_value(self, profiles):
        for (c, kappa), prof in profiles.items():
            assert prof.evaluate(0.0) == pytest.approx(peak_amplitude(prof.params), rel=1e-12)
            assert prof.amplitude == prof.phis[0]

    def test_first_integral_residual(self, profiles):
        for (c, kappa), prof in profiles.items():
            assert prof.first_integral_residual() <= 1e-8 * c**4

    def test_fitted_tail_decay(self, profiles):
        for (c, kappa), prof in profiles.items():
            nu = np.sqrt(1.0 - 2.0 * kappa / c)
            assert prof.fitted_tail_decay() == pytest.approx(nu, rel=0.01)
            assert prof.decay_rate == pytest.approx(nu, rel=1e-14)

    def test_table_monotone_and_bounded(self, profiles):
        for (c, kappa), prof in profiles.items():
            assert np.all(np.diff(prof.xs) > 0)
            assert np.all(np.diff(prof.phis) < 0)
            assert prof.phis[0] < c
            assert prof.phis[-1] > 0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            build_profile(SolitonParams(3.0, 1.0), tol=1e-3)
        with pytest.raises(ValueError):
            build_profile(SolitonParams(3.0, 1.0), tol=0.0)


class TestEvaluate:
    def test_even(self, profiles):
        prof = profiles[(3.0, 1.0)]
        x = np.linspace(0.0, 60.0, 500)
        assert np.allclose(prof.evaluate(-x), prof.evaluate(x), rtol=0, atol=1e-15)

    def test_tail_model_consistency(self, profiles):
        for (c, kappa), prof in profiles.items():
            x = prof.x_tail + 5.0 / prof.decay_rate
            model = prof.tail_coeff * np.exp(-prof.decay_rate * x)
            assert prof.evaluate(x) == pytest.approx(model, rel=1e-3)

    def test_table_continuity_at_tail_join(self, profiles):
        prof = profiles[(3.0, 1.0)]
        eps = 1e-9
        left = prof.evaluate(prof.x_tail - eps)
        right = prof.evaluate(prof.x_tail + eps)
        assert right == pytest.approx(left, rel=1e-5)

    def test_slope_zero_at_peak(self, profiles):
        prof = profiles[(3.0, 1.0)]
        assert prof.evaluate_dx(0.0) == 0.0

    def test_slope_sign(self, profiles):
        prof = profiles[(5.0, 1.0)]
        assert prof.evaluate_dx(2.0) < 0
        assert prof.evaluate_dx(-2.0) > 0

    def test_slope_matches_finite_difference(self, profiles):
        prof = profiles[(3.0, 1.0)]
        x = np.linspace(0.5, 15.0, 40)
        d = 1e-6
        fd = (prof.evaluate(x + d) - prof.evaluate(x - d)) / (2.0 * d)
        assert np.allclose(prof.evaluate_dx(x), fd, rtol=1e-4, atol=1e-12)


class TestJsonRoundtrip:
    def test_roundtrip_evaluation(self, profiles):
        prof = profiles[(4.0, 0.5)]
        clone = SolitonProfile.from_json(prof.to_json())
        x = np.linspace(0.0, 40.0, 300)
        assert np.allclose(clone.evaluate(x), prof.evaluate(x), rtol=1e-12, atol=1e-15)
        assert clone.params == prof.params
        assert clone.tail_coeff == pytest.approx(prof.tail_coeff, rel=1e-12)

    def test_json_schema(self, profiles):
        doc = json.loads(profiles[(3.0, 1.0)].to_json())
        assert set(doc) == {"c", "kappa", "amplitude", "decay_rate", "table", "tail_coeff"}


class TestSampleOnGrid:
    def test_even_at_center_zero(self, profiles):
        prof = profiles[(3.0, 1.0)]
        grid = make_grid(256, 100.0)
        s = sample_on_grid(prof, grid).samples
        # node k and node n-k are mirror images; node 0 (x = -P/2) is its own mirror
        assert np.allclose(s[1:], s[:0:-1], atol=1e-14)

    def test_shift_by_node_is_cyclic_shift(self, profiles):
        prof = profiles[(3.0, 1.0)]
        grid = make_grid(256, 100.0)
        a = sample_on_grid(prof, grid, center=0.0).samples
        b = sample_on_grid(prof, grid, center=grid.h).samples
        assert np.allclose(b, np.roll(a, 1), atol=1e-12)

    def test_l2_norm_translation_invariant(self, profiles):
        prof = profiles[(3.0, 1.0)]
        grid = make_grid(512, 100.0)
        norms = [sample_on_grid(prof, grid, center=m).l2_norm() for m in (0.0, 7.3, -22.11, 40.0)]
        assert np.ptp(norms) <= 1e-8 * norms[0]

    def test_rejects_narrow_box(self, profiles):
        prof = profiles[(2.5, 1.0)]  # slowest decay of the test set
        with pytest.raises(ValueError):
            sample_on_grid(prof, make_grid(64, 30.0))

    @pytest.mark.parametrize("pair", PARAM_PAIRS)
    def test_min_period_is_the_sampling_threshold(self, profiles, pair):
        # the closed-form far-field coefficient agrees with the profile's fitted tail
        prof = profiles[pair]
        p = min_period(prof.params)
        sample_on_grid(prof, make_grid(64, 1.001 * p))
        with pytest.raises(ValueError):
            sample_on_grid(prof, make_grid(64, 0.999 * p))

    def test_dx_sampling_consistent(self, profiles):
        prof = profiles[(3.0, 1.0)]
        grid = make_grid(512, 100.0)
        s = sample_dx_on_grid(prof, grid, center=5.0).samples
        expected = prof.evaluate_dx(grid.nodes - 5.0)
        assert np.allclose(s, expected, atol=1e-10)
