import numpy as np
import pytest

from dpwavelab.diagnostics import (
    apriori_checks,
    localized_momentum,
    momentum_density,
    psi_derivative_bounds_check,
    weight_psi,
)
from dpwavelab.grid import Field, make_grid
from dpwavelab.invariants import momentum_S
from dpwavelab.soliton import SolitonParams, build_profile, sample_on_grid


class TestWeightPsi:
    def test_midpoint_value(self):
        assert weight_psi(np.zeros(1), 4.0)[0] == pytest.approx(0.5, rel=1e-14)

    def test_limits(self):
        B = 4.0
        assert weight_psi(np.array([-50.0 * B, 50.0 * B]), B) == pytest.approx([0.0, 1.0], abs=1e-10)

    def test_huge_arguments_stable(self):
        B = 4.0
        lo, hi = weight_psi(np.array([-2000.0, 2000.0]), B)
        assert 0.0 <= lo < 1e-200
        assert hi == pytest.approx(1.0, abs=1e-200)
        assert np.isfinite(weight_psi(np.array([-1e6, 1e6]), B)).all()

    def test_first_derivative_value(self):
        for B in (4.0, 8.0):
            assert weight_psi(np.zeros(1), B, 1)[0] == pytest.approx(1.0 / (np.pi * B), rel=1e-13)

    def test_derivatives_match_finite_differences(self):
        B = 4.0
        x = np.linspace(-30.0, 30.0, 41)
        d = 1e-5
        for order in (1, 2, 3, 4):
            fd = (weight_psi(x + d, B, order - 1) - weight_psi(x - d, B, order - 1)) / (2.0 * d)
            assert np.allclose(weight_psi(x, B, order), fd, rtol=1e-7, atol=1e-12)

    def test_monotone_increasing(self):
        x = np.linspace(-60.0, 60.0, 500)
        assert np.all(np.diff(weight_psi(x, 4.0)) > 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            weight_psi(np.zeros(1), 2.0)
        with pytest.raises(ValueError):
            weight_psi(np.zeros(1), 4.0, order=5)


class TestPsiBounds:
    @pytest.mark.parametrize("B", [4.0, 8.0, 16.0])
    def test_inequalities(self, B):
        report = psi_derivative_bounds_check(B)
        assert report["ok"]
        assert report["psi2_over_psi1"] <= 1.0 / B + 1e-14
        assert report["abs_psi3_over_psi1"] <= 1.0 / B**2 + 1e-14
        assert report["abs_psi4_over_psi1"] <= 3.0 / B**3 + 1e-14

    def test_ratio_scaling_when_B_doubles(self):
        r4 = psi_derivative_bounds_check(4.0)
        r8 = psi_derivative_bounds_check(8.0)
        assert r8["psi2_over_psi1"] == pytest.approx(r4["psi2_over_psi1"] / 2.0, rel=1e-6)
        assert r8["abs_psi3_over_psi1"] == pytest.approx(r4["abs_psi3_over_psi1"] / 4.0, rel=1e-6)


class TestLocalizedMomentum:
    @pytest.fixture(scope="class")
    @staticmethod
    def soliton_state():
        prof = build_profile(SolitonParams(3.0, 1.0))
        grid = make_grid(1024, 200.0)
        return sample_on_grid(prof, grid, center=0.0)

    def test_far_left_recovers_total(self, soliton_state):
        u = soliton_state
        total = momentum_S(u)
        assert localized_momentum(u, [-70.0], 4.0) == [pytest.approx(total, rel=1e-6)]

    def test_far_right_vanishes(self, soliton_state):
        u = soliton_state
        total = momentum_S(u)
        assert localized_momentum(u, [70.0], 4.0)[0] <= 1e-6 * total

    def test_monotone_in_midpoint(self, soliton_state):
        u = soliton_state
        ms = np.linspace(-60.0, 60.0, 25)
        vals = localized_momentum(u, ms, 4.0)
        assert len(vals) == len(ms)
        assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_partition_oracle(self):
        # two separated solitons: I at the midpoint isolates the right one
        cache_speeds = [(3.0, -50.0), (4.0, 50.0)]
        grid = make_grid(2048, 280.0)
        parts = []
        total = np.zeros(grid.n)
        for c, x0 in cache_speeds:
            prof = build_profile(SolitonParams(c, 1.0))
            s = sample_on_grid(prof, grid, center=x0)
            parts.append(s)
            total += s.samples
        u = Field(grid, total)
        right_alone = momentum_S(parts[1])
        assert localized_momentum(u, [0.0], 4.0) == [pytest.approx(right_alone, rel=1e-4)]

    def test_density_nonnegative(self, soliton_state):
        assert np.all(momentum_density(soliton_state) >= 0.0)


class TestAprioriChecks:
    def test_zero_residual(self):
        grid = make_grid(512, 150.0)
        prof = build_profile(SolitonParams(3.0, 1.0))
        u = sample_on_grid(prof, grid)
        flags = apriori_checks(u, u, u, 1.0)
        assert flags["linfty_ok"] and flags["slope_ok"] and flags["sup_ok"]
        assert flags["linfty_slack"] >= 0.0

    def test_soliton_slope_bound_tight_in_tail(self):
        # |phi_x| <= |phi + 2 kappa/3| holds with slack approaching 2 kappa/3 far out
        grid = make_grid(1024, 200.0)
        prof = build_profile(SolitonParams(3.0, 1.0))
        u = sample_on_grid(prof, grid)
        flags = apriori_checks(u, u, u, 1.0)
        assert flags["slope_ok"]
        assert flags["slope_slack"] <= 2.0 / 3.0 + 1e-6

    def test_violating_state_flagged(self):
        # a steep profile with tiny amplitude offset violates the slope bound
        grid = make_grid(512, 20.0)
        kappa = 0.1
        u = Field(grid, np.sin(8.0 * 2.0 * np.pi * grid.nodes / grid.period))
        f = Field(grid, np.zeros(grid.n))
        flags = apriori_checks(u, u, f, kappa)
        assert not flags["slope_ok"]
