import dataclasses
import decimal
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dpwavelab.grid import make_grid
from dpwavelab.soliton import (
    SolitonParams,
    _quadratic_roots,
    build_profile,
    min_period,
    sample_dx_on_grid,
    sample_on_grid,
    speed_from_amplitude,
)

from conftest import PARAM_PAIRS, fitted_tail_decay


def amplitude_quadratic(phi, c, kappa):
    return 0.5 * phi**2 - (c - 2.0 * kappa / 3.0) * phi + 0.5 * c**2 - kappa * c


def quadrature_xs(params, phis):
    """x(phi) on a decreasing table by order-20 Gauss-Legendre panels between its nodes, summed from the peak.

    Near the peak the substitution s = r1 - tau^2 removes the inverse square root at s = r1; below r1/2
    the panels are integrated in log s.
    """
    c, kappa = params.c, params.kappa
    b = c - 2.0 * kappa / 3.0
    root = np.sqrt((2.0 * kappa / 3.0) * (c + 2.0 * kappa / 3.0))
    r2 = b + root
    r1 = c * (c - 2.0 * kappa) / r2  # b - root cancels near c = 2 kappa, and x(phi) ~ sqrt(r1 - phi) at the peak
    nodes, weights = np.polynomial.legendre.leggauss(20)

    def panels(fun, lo, hi):
        half = 0.5 * (hi - lo)
        return half * (fun(0.5 * (lo + hi)[:, None] + half[:, None] * nodes) @ weights)

    def dx_dtau(tau):
        s = r1 - tau**2
        return 2.0 * (c - s) / (s * np.sqrt(r2 - s))

    def dx_dlog(y):
        s = np.exp(y)
        return (c - s) / np.sqrt((r1 - s) * (r2 - s))

    upper, lower = phis[:-1], phis[1:]
    near = lower > 0.5 * r1
    dx = np.empty(len(lower))
    dx[near] = panels(dx_dtau, np.sqrt(r1 - upper[near]), np.sqrt(r1 - lower[near]))
    dx[~near] = panels(dx_dlog, np.log(lower[~near]), np.log(upper[~near]))
    return np.concatenate([[0.0], np.cumsum(dx)])


def closed_form_xs(params, phis):
    """The exact inverse map x(phi) of Vakhnenko & Parkes (2004), written out independently of build_profile."""
    c, kappa = params.c, params.kappa
    r1, r2 = _quadratic_roots(c, kappa)
    nu = np.sqrt(1.0 - 2.0 * kappa / c)
    a, b, gap = np.sqrt(r1 - phis), np.sqrt(r2 - phis), np.sqrt(r2 - r1)
    return (2.0 / nu) * np.log((np.sqrt(r2) * a + np.sqrt(r1) * b) / (np.sqrt(phis) * gap)) - 2.0 * np.log((a + b) / gap)


# Speeds over 2*kappa and kappas on which the closed form meets the quadrature oracle.
ORACLE_GRID = [(ratio, kappa) for ratio in (1.01, 1.1, 1.5, 2.5, 5.0) for kappa in (0.5, 1.0, 2.0)]


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

    @pytest.mark.parametrize("c, kappa", [(np.inf, 1.0), (np.nan, 1.0), (3.0, np.inf), (3.0, np.nan)])
    def test_rejects_nonfinite(self, c, kappa):
        with pytest.raises(ValueError, match=re.escape(f"got c={c}, kappa={kappa}")):
            SolitonParams(c, kappa)

    @pytest.mark.parametrize("c, kappa", [(1e100, 1.0), (3.0, 1e-300), (3.0, 1e-32), (1.5619103166241624e31, 1.0)])
    def test_rejects_roots_that_coincide_in_float64(self, c, kappa):
        # r1 < c < r2 in exact arithmetic; once sqrt(2 kappa / (3c)) is below float64 resolution they round
        # together, and at c = 1.5619103166241624e31 r1 rounds to c while r2 stays above it
        with pytest.raises(ValueError, match=re.escape(f"c={c}, kappa={kappa} are not representable")):
            SolitonParams(c, kappa)

    @pytest.mark.parametrize("c, kappa", [(3.0, 1e-28), (1e29, 1.0)])
    def test_builds_near_float64_resolution(self, c, kappa):
        assert 0.0 < build_profile(SolitonParams(c, kappa)).amplitude < c


class TestPeakAmplitude:
    """The peak value phi(0) is r1, the smaller root of F."""

    def test_reference_value(self):
        a = _quadratic_roots(3.0, 1.0)[0]
        expected = (3.0 - 2.0 / 3.0) - np.sqrt((2.0 / 3.0) * (3.0 + 2.0 / 3.0))
        assert a == pytest.approx(expected, rel=1e-14)
        assert a == pytest.approx(0.76984, abs=1e-4)

    def test_root_residual(self):
        for c, kappa in PARAM_PAIRS:
            a = _quadratic_roots(c, kappa)[0]
            assert abs(amplitude_quadratic(a, c, kappa)) <= 1e-12 * c**2
            assert 0.0 < a < c

    def test_small_kappa_limit(self):
        c = 3.0
        amps = [_quadratic_roots(c, k)[0] for k in (1e-4, 1e-6, 1e-8)]
        assert abs(amps[-1] - c) < 1e-3
        assert amps[0] < amps[1] < amps[2] < c

    @pytest.mark.parametrize("ratio", [1.0 + 1e-6, 1.01, 1.5, 2.5])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_matches_40_digit_root(self, ratio, kappa):
        # the small root near c = 2 kappa, against b - sqrt(disc) evaluated in 40 digits at the same floats
        c = 2.0 * kappa * ratio
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            dc, dk = decimal.Decimal(c), decimal.Decimal(kappa)
            b = dc - 2 * dk / 3
            exact = b - ((2 * dk / 3) * (dc + 2 * dk / 3)).sqrt()
            rel = abs((decimal.Decimal(_quadratic_roots(c, kappa)[0]) - exact) / exact)
        assert rel <= 4e-16

    def test_strictly_increasing_in_speed(self):
        for kappa in (0.5, 1.0):
            cs = np.linspace(2.2 * kappa, 8.0, 40)
            amps = [_quadratic_roots(c, kappa)[0] for c in cs]
            assert np.all(np.diff(amps) > 0)


class TestSpeedFromAmplitude:
    def test_roundtrip(self):
        for c, kappa in PARAM_PAIRS + [(2.0 * (1.0 + 1e-6), 1.0), (1e6, 1.0)]:
            a = _quadratic_roots(c, kappa)[0]
            assert abs(speed_from_amplitude(a, kappa) - c) <= 1e-14 * c

    def test_large_amplitude(self):
        c = speed_from_amplitude(1e12, 1.0)
        assert _quadratic_roots(c, 1.0)[0] == pytest.approx(1e12, rel=1e-14)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_rejects_amplitude_below_rounding(self, kappa):
        # the closed form would round to c = 2*kappa, which is no soliton speed
        with pytest.raises(ValueError, match="too small"):
            speed_from_amplitude(1e-16 * kappa, kappa)

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
            assert prof.evaluate(np.zeros(1))[0] == pytest.approx(_quadratic_roots(c, kappa)[0], rel=1e-12)
            assert prof.amplitude == prof.phis[0]

    def test_first_integral_residual(self, profiles):
        for (c, kappa), prof in profiles.items():
            assert prof.first_integral_residual() <= 1e-8 * c**4

    def test_fitted_tail_decay(self, profiles):
        for (c, kappa), prof in profiles.items():
            nu = np.sqrt(1.0 - 2.0 * kappa / c)
            assert fitted_tail_decay(prof) == pytest.approx(nu, rel=0.01)
            assert prof.decay_rate == pytest.approx(nu, rel=1e-14)
            assert prof.params.nu == nu  # bitwise, the same expression

    def test_table_monotone_and_bounded(self, profiles):
        for (c, kappa), prof in profiles.items():
            assert np.all(np.diff(prof.xs) > 0)
            assert np.all(np.diff(prof.phis) < 0)
            assert prof.phis[0] < c
            assert prof.phis[-1] > 0

    @pytest.mark.parametrize("ratio, kappa", ORACLE_GRID)
    def test_table_matches_quadrature(self, ratio, kappa):
        prof = build_profile(SolitonParams(2.0 * kappa * ratio, kappa))
        xs = quadrature_xs(prof.params, prof.phis)
        assert np.max(np.abs(prof.xs - xs)) <= 1e-12 * prof.x_tail

    @pytest.mark.parametrize("ratio, kappa", ORACLE_GRID)
    def test_tail_coeff_matches_last_decade_fit(self, ratio, kappa):
        prof = build_profile(SolitonParams(2.0 * kappa * ratio, kappa))
        last = prof.phis <= 10.0 * prof.phis[-1]
        fit = np.exp(np.mean(np.log(prof.phis[last]) + prof.decay_rate * prof.xs[last]))
        assert prof.tail_coeff == pytest.approx(fit, rel=1e-9)

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
            assert prof.evaluate(np.array([x]))[0] == pytest.approx(model, rel=1e-3)

    def test_table_continuity_at_tail_join(self, profiles):
        prof = profiles[(3.0, 1.0)]
        eps = 1e-9
        left, right = prof.evaluate(prof.x_tail + np.array([-eps, eps]))
        assert right == pytest.approx(left, rel=1e-5)

    @pytest.mark.parametrize("c", [2.02, 3.0, 5.0, 10.0])
    def test_inverts_the_exact_map_between_nodes(self, c):
        # The interpolant is least accurate between its nodes; the exact x(phi) of phi values
        # there must map back to phi.
        prof = build_profile(SolitonParams(c, 1.0))
        frac = np.array([0.1, 0.25, 0.5, 0.75, 0.9])[:, None]
        phis = (prof.phis[:-1] * (1.0 - frac) + prof.phis[1:] * frac).ravel()
        xs = closed_form_xs(prof.params, phis)
        assert np.max(np.abs(prof.evaluate(xs) - phis)) <= 2e-10 * prof.amplitude

    def test_slope_zero_at_peak(self, profiles):
        prof = profiles[(3.0, 1.0)]
        assert prof.evaluate_with_slope(np.array([0.0]))[1].tolist() == [0.0]

    def test_slope_sign(self, profiles):
        prof = profiles[(5.0, 1.0)]
        _, slope = prof.evaluate_with_slope(np.array([2.0, -2.0]))
        assert slope[0] < 0
        assert slope[1] > 0

    def test_slope_matches_finite_difference(self, profiles):
        prof = profiles[(3.0, 1.0)]
        x = np.linspace(0.5, 15.0, 40)
        d = 1e-6
        fd = (prof.evaluate(x + d) - prof.evaluate(x - d)) / (2.0 * d)
        assert np.allclose(prof.evaluate_with_slope(x)[1], fd, rtol=1e-4, atol=1e-12)


class TestJsonRoundtrip:
    def test_document_matches_profile(self, profiles):
        prof = profiles[(4.0, 0.5)]
        doc = json.loads(prof.to_json())
        table = np.asarray(doc["table"])
        assert np.array_equal(table[:, 0], prof.xs) and np.array_equal(table[:, 1], prof.phis)
        assert doc["tail_coeff"] == prof.tail_coeff
        assert SolitonParams(doc["c"], doc["kappa"]) == prof.params
        assert doc["amplitude"] == prof.amplitude and doc["decay_rate"] == prof.decay_rate

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
        # sampling evaluates the profile's tail model, min_period the far-field ratio directly; the pair
        # sampler applies the same wrapped-tail check, with the same message
        prof = profiles[pair]
        p = min_period(prof.params)
        sample_on_grid(prof, make_grid(64, 1.001 * p))
        sample_dx_on_grid(prof, make_grid(64, 1.001 * p))
        with pytest.raises(ValueError) as single:
            sample_on_grid(prof, make_grid(64, 0.999 * p))
        with pytest.raises(ValueError) as both:
            sample_dx_on_grid(prof, make_grid(64, 0.999 * p))
        assert str(both.value) == str(single.value)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ratio", [1.01, 1.05, 1.5, 3.0, 10.0])
    def test_far_images_match_three_evaluates(self, kappa, ratio):
        # The oracle evaluates all three images through evaluate and the first integral's slope. Once period/2 >= x_tail the
        # far images lie in evaluate's own tail, so R is bitwise the same; R_x's far images take the tail
        # model's slope nu*A*exp(-nu|x|), not the first integral's, which agree to rounding there.
        prof = build_profile(SolitonParams(2.0 * kappa * ratio, kappa))
        p = min_period(prof.params)
        bound = 2.0 * np.finfo(float).eps * prof.amplitude
        for period in (1.001 * p, 1.5 * p, max(300.0, 2.0 * p)):
            grid = make_grid(512, period)
            for center in (0.0, 0.37 * period, -0.49 * period, 0.4999 * period):
                dx = np.mod(grid.nodes - center + 0.5 * period, period) - 0.5 * period
                images = (dx, dx - period, dx + period)
                phi = prof.evaluate(images[0]) + prof.evaluate(images[1]) + prof.evaluate(images[2])
                phi_x = sum(prof.evaluate_with_slope(image)[1] for image in images)
                r = sample_on_grid(prof, grid, center).samples
                if 0.5 * period >= prof.x_tail:
                    assert np.array_equal(r, phi)
                assert np.max(np.abs(r - phi)) <= bound
                assert np.max(np.abs(sample_dx_on_grid(prof, grid, center)[1].samples - phi_x)) <= bound

    def test_far_images_finite_in_a_wide_box(self, profiles):
        # nu*period/2 > 709 here: each far image underflows to 0, where 2A exp(-nu P) cosh(nu dx) is 0 * inf
        grid = make_grid(512, 4000.0)
        prof = profiles[(3.0, 1.0)]
        for field in (sample_on_grid(prof, grid, 13.0), *sample_dx_on_grid(prof, grid, 13.0)):
            assert np.all(np.isfinite(field.samples))

    def test_dx_sampling_consistent(self, profiles):
        prof = profiles[(3.0, 1.0)]
        grid = make_grid(512, 100.0)
        _, s = sample_dx_on_grid(prof, grid, center=5.0)
        expected = prof.evaluate_with_slope(grid.nodes - 5.0)[1]
        assert np.allclose(s.samples, expected, atol=1e-10)

    @pytest.mark.parametrize("pair", PARAM_PAIRS)
    def test_pair_sampler_matches_two_calls_bitwise(self, profiles, pair):
        # Oracle: the two separate samplings the pair replaces, each wrapping the nodes and taking both
        # far images, and the slope evaluating phi a second time.
        prof = profiles[pair]
        grid = make_grid(256, max(300.0, 1.5 * min_period(prof.params)))
        c, kappa = prof.params.c, prof.params.kappa
        r1, r2 = _quadratic_roots(c, kappa)
        for center in (0.0, 3.7, -0.49 * grid.period, 0.4999 * grid.period):
            dx = np.mod(grid.nodes - center + 0.5 * grid.period, grid.period) - 0.5 * grid.period
            left = prof.tail_coeff * np.exp(-prof.decay_rate * (grid.period - dx))
            right = prof.tail_coeff * np.exp(-prof.decay_rate * (grid.period + dx))
            phi = prof.evaluate(dx)
            slope = -np.sign(dx) * phi * np.sqrt(np.maximum(r1 - phi, 0.0) * (r2 - phi)) / (c - phi)
            r, r_x = sample_dx_on_grid(prof, grid, center)
            assert np.array_equal(r.samples, prof.evaluate(dx) + left + right)
            assert np.array_equal(r_x.samples, slope + prof.decay_rate * (left - right))
            assert np.array_equal(r.samples, sample_on_grid(prof, grid, center).samples)


class TestAnchoredSampling:
    """sample_dx_on_grid with a speed c: the wave of speed c from a profile built at a nearby c0, its anchor."""

    @pytest.mark.parametrize("ratio", [2.02, 3.0, 10.0])
    @pytest.mark.parametrize("delta", [-1e-6, -3e-7, 1e-6])
    def test_matches_a_fresh_build(self, ratio, delta):
        # The fresh build at c is sampled at its own speed, so that both sides land on c's inverse map; its
        # table alone is off by its Hermite error, up to 1.5e-10 of the amplitude at c/kappa = 10. The
        # independent oracle: the closed form x(phi) of the samples is |x|, to rounding, wherever the far
        # images are negligible.
        kappa = 1.0
        c0 = ratio * kappa
        c = c0 + delta
        anchor, fresh = build_profile(SolitonParams(c0, kappa)), build_profile(SolitonParams(c, kappa))
        grid = make_grid(1024, 1.1 * min_period(SolitonParams(min(c, c0), kappa)))
        r1, r2 = _quadratic_roots(c, kappa)
        for center in (0.0, 0.37 * grid.h, 11.3):
            got = sample_dx_on_grid(anchor, grid, center, c)
            want = sample_dx_on_grid(fresh, grid, center, c)
            for g, w in zip(got, want):
                assert np.max(np.abs(g.samples - w.samples)) <= 1e-10 * fresh.amplitude
            ax = np.abs(np.mod(grid.nodes - center + 0.5 * grid.period, grid.period) - 0.5 * grid.period)
            phi = got[0].samples
            near = (phi > 1e-6 * r1) & (ax > 1e-3)
            slope = phi[near] * np.sqrt((r1 - phi[near]) * (r2 - phi[near])) / (c - phi[near])
            miss = (closed_form_xs(SolitonParams(c, kappa), phi[near]) - ax[near]) * slope
            assert np.max(np.abs(miss)) <= 1e-11 * r1

    @pytest.mark.parametrize("delta", [-1e-6, 0.0, 1e-6])
    def test_node_on_the_peak(self, delta):
        # at the peak the step's u = r1 - phi is exactly 0, for speeds below the anchor's too, where r1(c)
        # is below the anchor's amplitude: phi is r1(c) up to the far images, and the slope is 0
        anchor = build_profile(SolitonParams(3.0, 1.0))
        grid = make_grid(1024, 300.0)
        c = 3.0 + delta
        peak = int(np.argmin(np.abs(grid.nodes - 7.0)))
        r, r_x = sample_dx_on_grid(anchor, grid, grid.nodes[peak], c)
        assert np.all(np.isfinite(r.samples)) and np.all(np.isfinite(r_x.samples))
        assert r.samples[peak] == pytest.approx(_quadratic_roots(c, 1.0)[0], rel=1e-15)
        assert r_x.samples[peak] == pytest.approx(0.0, abs=1e-30)

    def test_a_guess_above_the_peak_is_rejected_not_clamped(self):
        # an anchor whose table rose above its peak would put the guess above r1: its NaN reaches Field
        anchor = build_profile(SolitonParams(3.0, 1.0))
        log_cubic = anchor._log_cubic.copy()
        log_cubic[0, 1:] += 1.0
        broken = dataclasses.replace(anchor, _log_cubic=log_cubic)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="field samples must be finite"):
            sample_dx_on_grid(broken, make_grid(1024, 300.0), 0.0, 3.0 + 1e-7)


def test_cli_import_leaves_out_scipy_interpolate():
    # Every run imports dpwavelab.cli; scipy.interpolate would add 0.2-0.3 s to each (2-vCPU Xeon).
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, dpwavelab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
