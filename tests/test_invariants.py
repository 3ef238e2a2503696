import numpy as np
import pytest

from dpwavelab.grid import Field, make_grid, s_inner
from dpwavelab.invariants import (
    dH_dc_closed,
    dS_dc_closed,
    dS_dH_dc_fd,
    hamiltonian_H,
    momentum_S,
)

from conftest import PARAM_PAIRS, random_field


class TestMomentumS:
    def test_zero_field(self):
        g = make_grid(64, 10.0)
        assert momentum_S(Field(g, np.zeros(64))) == 0.0

    def test_cosine_value(self):
        g = make_grid(64, 2.0 * np.pi)
        u = Field(g, np.cos(g.nodes))
        assert momentum_S(u) == pytest.approx(np.pi / 5.0, rel=1e-12)

    def test_two_forms_agree_on_random_fields(self, rng):
        g = make_grid(128, 35.0)
        for _ in range(50):
            u = random_field(g, rng, scale=float(rng.uniform(0.1, 5.0)))
            a = momentum_S(u)
            b = 0.5 * s_inner(u, u)
            assert b == pytest.approx(a, rel=1e-12)

    def test_norm_equivalence(self, rng):
        g = make_grid(128, 35.0)
        for _ in range(50):
            u = random_field(g, rng)
            n2 = u.l2_norm() ** 2
            s2 = 2.0 * momentum_S(u)
            assert 0.25 * n2 - 1e-12 <= s2 <= n2 + 1e-12

    def test_positive_definite(self, rng):
        g = make_grid(64, 12.0)
        u = random_field(g, rng)
        assert momentum_S(u) > 0


class TestHamiltonianH:
    def test_zero_field(self):
        g = make_grid(64, 10.0)
        assert hamiltonian_H(Field(g, np.zeros(64)), 1.0) == 0.0

    def test_cosine_value(self):
        # cubic term integrates to zero; quadratic term gives -kappa * pi/5
        g = make_grid(64, 2.0 * np.pi)
        u = Field(g, np.cos(g.nodes))
        assert hamiltonian_H(u, 1.0) == pytest.approx(-np.pi / 5.0, rel=1e-12)

    def test_parity_split(self, rng):
        # H = cubic + quadratic with cubic odd and quadratic even in u
        g = make_grid(128, 30.0)
        kappa = 0.7
        for _ in range(20):
            u = random_field(g, rng)
            hp = hamiltonian_H(u, kappa)
            hm = hamiltonian_H(Field(g, -u.samples), kappa)
            cubic = 0.5 * (hp - hm)
            quad = 0.5 * (hp + hm)
            direct_cubic = -g.h * np.sum(u.samples**3) / 6.0
            assert cubic == pytest.approx(direct_cubic, rel=1e-10, abs=1e-14)
            assert quad == pytest.approx(hamiltonian_H(u, kappa) - cubic, rel=1e-12, abs=1e-14)
            assert quad <= 0.0

    def test_rejects_bad_kappa(self):
        g = make_grid(64, 10.0)
        with pytest.raises(ValueError):
            hamiltonian_H(Field(g, np.zeros(64)), 0.0)


class TestClosedFormDerivatives:
    def test_reference_values(self):
        assert dH_dc_closed(3.0, 1.0) == pytest.approx(-108.0 * np.sqrt(3.0) / 121.0, rel=1e-14)
        assert dH_dc_closed(3.0, 1.0) == pytest.approx(-1.54596, abs=1e-4)
        assert dS_dc_closed(3.0, 1.0) == pytest.approx(0.51532, abs=1e-4)

    def test_identity(self):
        for c, kappa in PARAM_PAIRS:
            assert dH_dc_closed(c, kappa) + c * dS_dc_closed(c, kappa) == pytest.approx(0.0, abs=1e-15)

    def test_positive_dS(self):
        for kappa in (0.5, 1.0, 2.0):
            for c in np.linspace(2.05 * kappa, 10.0 * kappa, 25):
                assert dS_dc_closed(c, kappa) > 0

    def test_degenerate_limit(self):
        kappa = 1.0
        vals = [abs(dH_dc_closed(2.0 * kappa * (1.0 + e), kappa)) for e in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-2

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            dH_dc_closed(1.9, 1.0)
        with pytest.raises(ValueError):
            dS_dc_closed(3.0, -1.0)
        with pytest.raises(ValueError, match="not representable"):
            dH_dc_closed(3.0, 1e-300)
        with pytest.raises(ValueError, match="finite"):
            dS_dc_closed(np.inf, 1.0)


class TestDerivativesAgainstQuadrature:
    @pytest.mark.parametrize("c,kappa", [(3.0, 1.0), (4.0, 0.5), (2.5, 1.0), (4.0, 1.0), (5.0, 1.0)])
    def test_finite_difference_matches_closed_form(self, c, kappa):
        # the shared recipe of acceptance 02 and check-invariants, at the smallest n the CLI test uses
        ds, dh = dS_dH_dc_fd(c, kappa, 512)
        assert ds == pytest.approx(dS_dc_closed(c, kappa), rel=1e-9)
        assert dh == pytest.approx(dH_dc_closed(c, kappa), rel=1e-9)
