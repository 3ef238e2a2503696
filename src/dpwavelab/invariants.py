"""Conserved quantities S and H and their d/dc along the soliton family, in closed form and by finite differences."""

from __future__ import annotations

import numpy as np

from .grid import Field, derivative, helmholtz_inverse, integrate, make_grid, sqrt_helmholtz_inverse4
from .soliton import SolitonParams, build_profile, sample_on_grid


def momentum_S(u: Field) -> float:
    """S(u) = (1/2) int (4 uhat^2 + 5 uhat_x^2 + uhat_xx^2) dx, uhat = (4 - d^2)^-1 u.

    Equals (1/2) s_inner(u, u); both forms agree to round-off.
    """
    uh = helmholtz_inverse(u, 4.0)
    uhx = derivative(uh, 1)
    uhxx = derivative(uh, 2)
    return 0.5 * integrate(Field(u.grid, 4.0 * uh.samples**2 + 5.0 * uhx.samples**2 + uhxx.samples**2))


def hamiltonian_H(u: Field, kappa: float) -> float:
    """H(u) = -(1/6) int (u^3 + 6 kappa ((4 - d^2)^(-1/2) u)^2) dx."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    w = sqrt_helmholtz_inverse4(u)
    return -integrate(Field(u.grid, u.samples**3 + 6.0 * kappa * w.samples**2)) / 6.0


def dH_dc_closed(c: float, kappa: float) -> float:
    """dH(phi_c)/dc = -3 c^2 (c + kappa) sqrt(c^2 - 2 c kappa) / (3c + 2 kappa)^2.

    Verified against finite differences of hamiltonian_H along the solitary-wave
    family (two independent discretizations agree to 1e-10 relative).
    """
    SolitonParams(c, kappa)  # raises unless the soliton exists and is representable
    return float(-3.0 * c**2 * (c + kappa) * np.sqrt(c**2 - 2.0 * c * kappa) / (3.0 * c + 2.0 * kappa) ** 2)


def dS_dc_closed(c: float, kappa: float) -> float:
    """dS(phi_c)/dc = -(1/c) dH(phi_c)/dc > 0."""
    return -dH_dc_closed(c, kappa) / c


def dS_dH_dc_fd(c: float, kappa: float, n: int) -> tuple[float, float]:
    """(dS/dc, dH/dc) of the sampled soliton by Richardson-extrapolated central differences.

    The step dc = min(1e-3 c, 0.1 (c - 2 kappa)) keeps every sampled speed above 2 kappa.
    All profiles share one grid: n nodes, period 50/nu with nu taken at c - dc, the slowest speed sampled.
    """
    dc = min(1e-3 * c, 0.1 * (c - 2.0 * kappa))
    grid = make_grid(n, 50.0 / SolitonParams(c - dc, kappa).nu)

    def s_h(cc: float) -> np.ndarray:
        u = sample_on_grid(build_profile(SolitonParams(cc, kappa)), grid)
        return np.array([momentum_S(u), hamiltonian_H(u, kappa)])

    d1 = (s_h(c + dc) - s_h(c - dc)) / (2.0 * dc)
    d2 = (s_h(c + dc / 2) - s_h(c - dc / 2)) / dc
    ds, dh = (4.0 * d2 - d1) / 3.0
    return float(ds), float(dh)
