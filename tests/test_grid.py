import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpwavelab.grid import (
    Field,
    derivative,
    helmholtz_inverse,
    integrate,
    make_grid,
    s_inner,
    smoothing_operator,
    sqrt_helmholtz_inverse4,
)

from conftest import random_field


class TestMakeGrid:
    def test_small_grid_layout(self):
        g = make_grid(8, 16.0)
        assert g.h == 2.0
        assert np.allclose(g.nodes, [-8, -6, -4, -2, 0, 2, 4, 6])

    def test_spacing(self):
        g = make_grid(1024, 200.0)
        assert g.h == pytest.approx(0.1953125)
        assert g.h * g.n == pytest.approx(g.period)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(12, 10.0)

    def test_rejects_small_or_bad_period(self):
        with pytest.raises(ValueError):
            make_grid(4, 10.0)
        with pytest.raises(ValueError):
            make_grid(64, -1.0)
        with pytest.raises(ValueError):
            make_grid(64, 0.0)

    def test_wavenumbers_half_spectrum(self):
        g = make_grid(64, 20.0)
        assert np.allclose(g.wavenumbers, 2.0 * np.pi * np.arange(33) / 20.0, rtol=1e-15, atol=0.0)

    def test_nodes_one_read_only_array(self):
        g = make_grid(8, 16.0)
        assert g.nodes is g.nodes
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0


_periods = st.floats(1e-3, 1e4)
_coordinates = st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=8).map(np.array)


def _old_wrap(x, period):
    """Oracle: the wrap written out, as the sampling, the weight, the perturbation and decompose computed it by hand."""
    return np.mod(x + 0.5 * period, period) - 0.5 * period


def _midpoints(grid, positions):
    """Circle midpoint of (x_j, x_{j+1}) for j = 1..N-1, as harness._observe computes it."""
    return positions[:-1] + 0.5 * grid.gaps(positions)[:-1]


class TestPeriodicGeometry:
    @settings(deadline=None)
    @given(x=_coordinates, period=_periods)
    @example(x=np.array([np.nextafter(-50.0, -np.inf), -50.0, 50.0, 150.0]), period=100.0)
    def test_wrap_lands_in_the_box_congruent_to_x(self, x, period):
        # [-P/2, P/2] and not [-P/2, P/2): just below -P/2, x + P/2 is a negative number smaller than half
        # an ulp of P, and np.mod rounds P minus it up to P.
        w = make_grid(8, period).wrap(x)
        assert np.all((-0.5 * period <= w) & (w <= 0.5 * period))
        k = np.round((x - w) / period)
        assert np.all(np.abs(x - w - k * period) <= 4.0 * np.finfo(float).eps * (np.abs(x) + period))

    def test_wrap_reaches_half_a_period_only_by_rounding(self):
        g = make_grid(8, 100.0)
        assert g.wrap(np.nextafter(-50.0, -np.inf)) == 50.0
        assert g.wrap(-50.0) == -50.0 and g.wrap(50.0) == -50.0

    @settings(deadline=None)
    @given(x=_coordinates, period=_periods, center=st.floats(-1e4, 1e4))
    def test_wrap_and_gaps_bitwise_equal_the_old_expressions(self, x, period, center):
        g = make_grid(8, period)
        assert np.array_equal(g.wrap(x), _old_wrap(x, period))
        assert np.array_equal(g.wrap(g.nodes - center), _old_wrap(g.nodes - center, period))
        # decompose's fd_jacobian wrote the gaps this way
        assert np.array_equal(g.gaps(x), np.mod(np.roll(x, -1) - x, period))

    @settings(deadline=None)
    @given(x=_coordinates, period=_periods)
    def test_first_gaps_are_the_wrapped_differences(self, x, period):
        # the midpoints read the first N-1 gaps, each the wrapped difference of neighbours; the last closes the circle
        gaps = make_grid(8, period).gaps(x)
        assert np.array_equal(gaps[:-1], np.mod(np.diff(x), period))
        assert gaps[-1] == np.mod(x[0] - x[-1], period)
        assert np.all((0.0 <= gaps) & (gaps <= period))

    def test_midpoints_simple(self):
        ms = _midpoints(make_grid(8, 200.0), np.array([-30.0, 30.0]))
        assert np.allclose(ms, [0.0])

    def test_midpoints_wrapped(self):
        ms = _midpoints(make_grid(8, 200.0), np.array([80.0, -80.0]))
        # forward gap from 80 to -80 is 40, so the midpoint sits at 100 = -100
        assert np.allclose(np.mod(ms, 200.0), [100.0])


class TestField:
    def test_shape_mismatch_rejected(self):
        g = make_grid(16, 10.0)
        with pytest.raises(ValueError):
            Field(g, np.zeros(8))

    def test_nonfinite_rejected(self):
        g = make_grid(16, 10.0)
        bad = np.zeros(16)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            Field(g, bad)

    def test_cross_grid_arithmetic_rejected(self):
        a = Field(make_grid(16, 10.0), np.ones(16))
        b = Field(make_grid(16, 20.0), np.ones(16))
        with pytest.raises(ValueError):
            a - b

    def test_arithmetic(self):
        g = make_grid(16, 10.0)
        a = Field(g, np.full(16, 2.0))
        b = Field(g, np.full(16, 3.0))
        assert np.allclose((a - b).samples, -1.0)

    def test_norms(self):
        g = make_grid(64, 2.0 * np.pi)
        f = Field(g, np.cos(g.nodes))
        assert f.l2_norm() == pytest.approx(np.sqrt(np.pi), rel=1e-12)
        assert f.max_norm() == pytest.approx(1.0, rel=1e-12)


class TestHelmholtzInverse:
    def test_constant(self):
        g = make_grid(32, 10.0)
        f = Field(g, np.ones(32))
        assert np.allclose(helmholtz_inverse(f, 4.0).samples, 0.25)

    def test_cosine_symbol(self):
        g = make_grid(64, 2.0 * np.pi)
        f = Field(g, np.cos(g.nodes))
        out = helmholtz_inverse(f, 1.0)
        assert np.allclose(out.samples, np.cos(g.nodes) / 2.0, atol=1e-13)

    def test_zero(self):
        g = make_grid(32, 10.0)
        f = Field(g, np.zeros(32))
        assert np.allclose(helmholtz_inverse(f, 1.0).samples, 0.0)

    def test_rejects_nonpositive_a(self):
        g = make_grid(32, 10.0)
        f = Field(g, np.ones(32))
        with pytest.raises(ValueError):
            helmholtz_inverse(f, 0.0)

    def test_roundtrip_against_derivative(self, rng):
        # (a - d^2) applied back to the inverse must reproduce the input
        g = make_grid(128, 30.0)
        f = random_field(g, rng)
        for a in (1.0, 4.0):
            gfield = helmholtz_inverse(f, a)
            back = a * gfield.samples - derivative(gfield, 2).samples
            assert np.allclose(back, f.samples, atol=1e-11)


class TestSqrtHelmholtz:
    def test_constant(self):
        g = make_grid(32, 10.0)
        f = Field(g, np.ones(32))
        assert np.allclose(sqrt_helmholtz_inverse4(f).samples, 0.5)

    def test_cosine(self):
        g = make_grid(64, 2.0 * np.pi)
        f = Field(g, np.cos(g.nodes))
        assert np.allclose(sqrt_helmholtz_inverse4(f).samples, np.cos(g.nodes) / np.sqrt(5.0), atol=1e-13)

    def test_square_equals_helmholtz(self, rng):
        g = make_grid(128, 30.0)
        f = random_field(g, rng)
        twice = sqrt_helmholtz_inverse4(sqrt_helmholtz_inverse4(f))
        assert np.allclose(twice.samples, helmholtz_inverse(f, 4.0).samples, atol=1e-13)


class TestDerivative:
    def test_sine(self):
        g = make_grid(64, 2.0 * np.pi)
        f = Field(g, np.sin(g.nodes))
        assert np.allclose(derivative(f, 1).samples, np.cos(g.nodes), atol=1e-12)

    def test_constant(self):
        g = make_grid(32, 10.0)
        f = Field(g, np.full(32, 7.0))
        for order in (1, 2, 3):
            assert np.allclose(derivative(f, order).samples, 0.0, atol=1e-13)

    def test_second_order_symbol(self):
        g = make_grid(64, 2.0 * np.pi)
        f = Field(g, np.cos(2.0 * g.nodes))
        assert np.allclose(derivative(f, 2).samples, -4.0 * np.cos(2.0 * g.nodes), atol=1e-12)

    def test_unsupported_order(self):
        g = make_grid(32, 10.0)
        f = Field(g, np.ones(32))
        with pytest.raises(ValueError):
            derivative(f, 4)


class TestIntegrate:
    def test_constant(self):
        g = make_grid(32, 10.0)
        assert integrate(Field(g, np.full(32, 3.0))) == pytest.approx(30.0)

    def test_cosine_integrates_to_zero(self):
        g = make_grid(64, 2.0 * np.pi)
        assert integrate(Field(g, np.cos(g.nodes))) == pytest.approx(0.0, abs=1e-13)


class TestSInner:
    def test_symmetry_and_linearity(self, rng):
        g = make_grid(128, 25.0)
        u = random_field(g, rng)
        v = random_field(g, rng)
        w = random_field(g, rng)
        assert s_inner(u, v) == pytest.approx(s_inner(v, u), rel=1e-12)
        u_plus_w = Field(g, u.samples + w.samples)
        assert s_inner(u_plus_w, v) == pytest.approx(s_inner(u, v) + s_inner(w, v), rel=1e-10, abs=1e-12)

    def test_matches_smoothing_operator(self, rng):
        # S cos(kx) = (1 + k^2)/(4 + k^2) cos(kx) on single modes, and the
        # full-FFT Parseval sum h/n * sum(conj(uh) * S * vh) on random fields
        g = make_grid(128, 2.0 * np.pi)
        for k in (0, 1, 5, 42):
            f = Field(g, np.cos(k * g.nodes))
            expected = (1.0 + k**2) / (4.0 + k**2) * f.samples
            assert np.allclose(smoothing_operator(f).samples, expected, atol=1e-13)
        g = make_grid(128, 25.0)
        u = random_field(g, rng)
        v = random_field(g, rng)
        xi2 = (2.0 * np.pi * np.fft.fftfreq(g.n, d=g.h)) ** 2
        parseval = np.real(np.sum(np.conj(np.fft.fft(u.samples)) * (1.0 + xi2) / (4.0 + xi2) * np.fft.fft(v.samples)))
        assert s_inner(u, v) == pytest.approx(parseval * g.h / g.n, rel=1e-12, abs=1e-14)

    def test_product_integrated_as_integrate_does(self, rng):
        # bitwise the integral of the product field, and a non-finite product entry is Field's ValueError
        g = make_grid(128, 25.0)
        for _ in range(20):
            u, v = random_field(g, rng), random_field(g, rng)
            assert s_inner(u, v) == integrate(Field(g, smoothing_operator(u).samples * v.samples))
        big = Field(g, np.full(g.n, 1e200))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="field samples must be finite"):
            s_inner(big, big)

    def test_bounds_over_many_random_fields(self, rng):
        # (1/4)||u||^2 <= (u,u)_S <= ||u||^2 since the symbol lies in [1/4, 1)
        g = make_grid(128, 40.0)
        for _ in range(100):
            u = random_field(g, rng, scale=float(rng.uniform(0.1, 10.0)))
            q = s_inner(u, u)
            n2 = u.l2_norm() ** 2
            assert 0.25 * n2 - 1e-12 <= q <= n2 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        amps=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        mode=st.integers(min_value=0, max_value=10),
    )
    def test_bounds_property(self, amps, mode):
        g = make_grid(64, 17.0)
        x = g.nodes
        samples = (
            amps[0] * np.cos(2 * np.pi * mode * x / g.period)
            + amps[1] * np.sin(2 * np.pi * (mode + 1) * x / g.period)
            + amps[2]
        )
        u = Field(g, samples)
        q = s_inner(u, u)
        n2 = u.l2_norm() ** 2
        assert 0.25 * n2 - 1e-10 <= q <= n2 + 1e-10

    def test_constant_mode_attains_lower_bound(self):
        g = make_grid(32, 10.0)
        u = Field(g, np.ones(32))
        assert s_inner(u, u) == pytest.approx(0.25 * u.l2_norm() ** 2, rel=1e-13)
