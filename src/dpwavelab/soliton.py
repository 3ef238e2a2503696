"""Construction of the smooth solitary-wave profile for speed c > 2*kappa > 0.

The profile phi(x) satisfies the first integral

    (1/2) (c - phi)^2 phi_x^2 = phi^2 F(phi),
    F(phi) = (1/2) phi^2 - (c - 2*kappa/3) phi + (1/2) c^2 - kappa*c,

so with r1 < r2 the two positive roots of F, separation of variables gives
the inverse map

    x(phi) = int_phi^r1 (c - s) / (s * sqrt(2 F(s))) ds.

Since 2 F(s) = (s - r1)(s - r2), the substitution s = r1 - tau^2 removes the
inverse-square-root singularity at the peak exactly:

    x(phi) = int_0^sqrt(r1 - phi) 2 (c - s) / (s * sqrt(r2 - s)) dtau,

an analytic integrand on the whole table.  The table is inverted to phi(x)
by a cubic spline in log(phi), clamped with the exact slopes at both ends,
and extended beyond the table by the exact exponential decay law
phi ~ A exp(-nu |x|) with nu = sqrt(1 - 2*kappa/c).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .grid import Field, PeriodicGrid

# Largest wrapped tail, relative to the amplitude, that grid sampling accepts at half a period.
TAIL_BUDGET = 1e-8


@dataclass(frozen=True)
class SolitonParams:
    c: float
    kappa: float

    def __post_init__(self) -> None:
        if not (self.c > 2.0 * self.kappa > 0.0):
            raise ValueError(f"soliton parameters require c > 2*kappa > 0, got c={self.c}, kappa={self.kappa}")


def _quadratic_roots(c: float, kappa: float) -> tuple[float, float]:
    """Roots r1 < r2 of F(phi) = phi^2/2 - (c - 2k/3) phi + c^2/2 - k*c."""
    b = c - 2.0 * kappa / 3.0
    disc = (2.0 * kappa / 3.0) * (c + 2.0 * kappa / 3.0)
    s = np.sqrt(disc)
    return b - s, b + s


def peak_amplitude(params: SolitonParams) -> float:
    """Peak value phi(0): the smaller positive root of F."""
    r1, _ = _quadratic_roots(params.c, params.kappa)
    return float(r1)


def min_period(params: SolitonParams) -> float:
    """Smallest period whose wrapped tail at half a period is TAIL_BUDGET of the amplitude.

    Integrating the inverse map exactly as phi -> 0 gives the far field
    phi ~ A exp(-nu |x|) with A / phi(0) = 4 r2/(r2 - r1) ((r2 - r1)/(sqrt r1 + sqrt r2)^2)^nu,
    which lies in (1, 4]; so the result is at least 2 ln(1/TAIL_BUDGET) / nu.
    """
    r1, r2 = _quadratic_roots(params.c, params.kappa)
    nu = np.sqrt(1.0 - 2.0 * params.kappa / params.c)
    ratio = 4.0 * r2 / (r2 - r1) * ((r2 - r1) / (np.sqrt(r1) + np.sqrt(r2)) ** 2) ** nu
    return float(2.0 * np.log(ratio / TAIL_BUDGET) / nu)


def speed_from_amplitude(a: float, kappa: float) -> float:
    """Invert peak_amplitude in c at fixed kappa (strictly increasing in c)."""
    if not (kappa > 0 and a > 0):
        raise ValueError(f"need a > 0 and kappa > 0, got a={a}, kappa={kappa}")

    def f(c: float) -> float:
        return peak_amplitude(SolitonParams(c, kappa)) - a

    lo = 2.0 * kappa * (1.0 + 1e-13)
    hi = max(4.0 * kappa, a + 2.0 * kappa)
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"amplitude {a} out of range for kappa={kappa}")
    if f(lo) > 0:
        raise ValueError(f"amplitude {a} out of range for kappa={kappa}")
    return float(brentq(f, lo, hi, xtol=1e-14, rtol=1e-14))


def _stencil_derivative(x: np.ndarray, y: np.ndarray, width: int = 7) -> np.ndarray:
    """First derivative of tabulated data via local polynomial stencils.

    Each node gets a width-point stencil (shifted near the ends); weights solve
    the Vandermonde moment conditions in batch, scaled by the local spacing for
    conditioning.
    """
    n = len(x)
    half = width // 2
    starts = np.clip(np.arange(n) - half, 0, n - width)
    idx = starts[:, None] + np.arange(width)[None, :]
    dx = x[idx] - x[:, None]
    scale = np.max(np.abs(dx), axis=1)
    t = dx / scale[:, None]
    powers = t[:, None, :] ** np.arange(width)[None, :, None]  # (n, width, width)
    rhs = np.zeros((width, 1))
    rhs[1, 0] = 1.0
    weights = np.linalg.solve(powers, np.broadcast_to(rhs, (n, width, 1)))[:, :, 0]
    return np.sum(weights * y[idx], axis=1) / scale


def _gauss_legendre_panels(fun, edges: np.ndarray, order: int) -> np.ndarray:
    """Panel-wise Gauss-Legendre integrals of fun over consecutive edge pairs."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    t = mid[:, None] + half[:, None] * nodes[None, :]
    return half * (fun(t) @ weights)


@dataclass(frozen=True)
class SolitonProfile:
    """Tabulated, interpolable half-line profile plus exponential tail model."""

    params: SolitonParams
    amplitude: float
    decay_rate: float
    xs: np.ndarray  # strictly increasing, xs[0] = 0
    phis: np.ndarray  # strictly decreasing
    tail_coeff: float
    _log_spline: CubicSpline

    @property
    def x_tail(self) -> float:
        return float(self.xs[-1])

    def evaluate(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        ax = np.abs(np.atleast_1d(x))
        out = np.empty_like(ax)
        inside = ax <= self.x_tail
        out[inside] = np.exp(self._log_spline(ax[inside]))
        out[~inside] = self.tail_coeff * np.exp(-self.decay_rate * ax[~inside])
        return float(out[0]) if scalar else out

    def evaluate_dx(self, x) -> np.ndarray | float:
        """Exact slope from the first integral: phi_x = -sgn(x) phi sqrt((r1-phi)(r2-phi))/(c-phi)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        phi = np.atleast_1d(self.evaluate(xv))
        r1, r2 = _quadratic_roots(self.params.c, self.params.kappa)
        rad = np.sqrt(np.maximum(r1 - phi, 0.0) * (r2 - phi))
        out = -np.sign(xv) * phi * rad / (self.params.c - phi)
        return float(out[0]) if scalar else out

    def first_integral_residual(self) -> float:
        """Max residual of the first integral over the table.

        Slopes come from 7-point finite-difference stencils on the table alone,
        independent of the quadrature and of the first integral itself.
        """
        c = self.params.c
        kappa = self.params.kappa
        dphi = _stencil_derivative(self.xs, self.phis, width=7)
        p = self.phis
        f_of_phi = 0.5 * p**2 - (c - 2.0 * kappa / 3.0) * p + 0.5 * c**2 - kappa * c
        res = 0.5 * (c - p) ** 2 * dphi**2 - p**2 * f_of_phi
        return float(np.max(np.abs(res)))

    def fitted_tail_decay(self) -> float:
        """Least-squares slope of -log(phi) vs x over the last decade of the table."""
        mask = self.phis <= 10.0 * self.phis[-1]
        x = self.xs[mask]
        y = np.log(self.phis[mask])
        slope = np.polyfit(x, y, 1)[0]
        return float(-slope)

    def to_json(self) -> str:
        doc = {
            "c": self.params.c,
            "kappa": self.params.kappa,
            "amplitude": self.amplitude,
            "decay_rate": self.decay_rate,
            "table": [[float(x), float(p)] for x, p in zip(self.xs, self.phis)],
            "tail_coeff": self.tail_coeff,
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "SolitonProfile":
        doc = json.loads(text)
        table = np.asarray(doc["table"], dtype=float)
        params = SolitonParams(doc["c"], doc["kappa"])
        return _assemble_profile(params, table[:, 0], table[:, 1], doc["tail_coeff"])


def _assemble_profile(params: SolitonParams, xs: np.ndarray, phis: np.ndarray, tail_coeff: float) -> SolitonProfile:
    c, kappa = params.c, params.kappa
    r1, r2 = _quadratic_roots(c, kappa)
    nu = np.sqrt(1.0 - 2.0 * kappa / c)
    phi_end = phis[-1]
    # Exact log-slopes at both ends of the table clamp the spline.
    end_slope = -np.sqrt(max(r1 - phi_end, 0.0) * (r2 - phi_end)) / (c - phi_end)
    spline = CubicSpline(xs, np.log(phis), bc_type=((1, 0.0), (1, float(end_slope))))
    return SolitonProfile(
        params=params,
        amplitude=float(phis[0]),
        decay_rate=float(nu),
        xs=xs,
        phis=phis,
        tail_coeff=float(tail_coeff),
        _log_spline=spline,
    )


def build_profile(params: SolitonParams, tol: float = 1e-10) -> SolitonProfile:
    """Tabulate phi on [0, X_tail] by the singularity-free quadrature, then invert."""
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"build tolerance must be in (0, 1e-6], got {tol}")
    c, kappa = params.c, params.kappa
    r1, r2 = _quadratic_roots(c, kappa)

    # phi nodes: tau-uniform near the peak (phi >= r1*exp(-1/2)), then
    # geometric down to tol*r1; geometric spacing makes the x-spacing of the
    # tail roughly uniform.
    phi_cut = r1 * np.exp(-0.5)
    tau_peak = np.linspace(0.0, np.sqrt(r1 - phi_cut), 220)
    phi_peak = r1 - tau_peak**2
    n_geo = max(400, int(np.ceil((np.log(phi_cut / r1) - np.log(tol)) / 0.012)))
    phi_geo = phi_cut * np.exp(np.linspace(0.0, np.log(tol * r1 / phi_cut), n_geo))
    phis = np.concatenate([phi_peak, phi_geo[1:]])

    def integrand_tau(tau: np.ndarray) -> np.ndarray:
        s = r1 - tau**2
        return 2.0 * (c - s) / (s * np.sqrt(r2 - s))

    def integrand_log(y: np.ndarray) -> np.ndarray:
        # dx/d(log s) away from the peak, where sqrt((r1-s)(r2-s)) is regular
        s = np.exp(y)
        return (c - s) / np.sqrt((r1 - s) * (r2 - s))

    taus = np.sqrt(np.maximum(r1 - phi_peak, 0.0))
    logs = np.log(phi_geo)[::-1]  # increasing; panels accumulated right-to-left below
    panels = np.concatenate(
        [
            _gauss_legendre_panels(integrand_tau, taus, order=12),
            _gauss_legendre_panels(integrand_log, logs, order=12)[::-1],
        ]
    )
    check = np.concatenate(
        [
            _gauss_legendre_panels(integrand_tau, taus, order=20),
            _gauss_legendre_panels(integrand_log, logs, order=20)[::-1],
        ]
    )
    quad_err = float(np.max(np.abs(panels - check)))
    if quad_err > tol:
        raise RuntimeError(f"profile quadrature did not converge: panel defect {quad_err:.3e} > tol {tol:.3e}")
    xs = np.concatenate([[0.0], np.cumsum(np.abs(check))])

    if not (np.all(np.diff(xs) > 0) and np.all(np.diff(phis) < 0)):
        raise RuntimeError("profile table is not strictly monotone")
    if not (0.0 < phis[-1] and phis[0] < c):
        raise RuntimeError("profile table violates 0 < phi < c")

    # Tail coefficient fitted on the last decade of the table.
    nu = np.sqrt(1.0 - 2.0 * kappa / c)
    mask = phis <= 10.0 * phis[-1]
    intercept = np.mean(np.log(phis[mask]) + nu * xs[mask])
    tail_coeff = float(np.exp(intercept))

    return _assemble_profile(params, xs, phis, tail_coeff)


def sample_on_grid(profile: SolitonProfile, grid: PeriodicGrid, center: float = 0.0) -> Field:
    """Sample phi(x - center) on the periodic grid, summing the two nearest images.

    Fails when the wrapped tail at half a period exceeds TAIL_BUDGET of the amplitude.
    """
    half = 0.5 * grid.period
    wrap = profile.evaluate(half) / profile.amplitude
    if wrap > TAIL_BUDGET:
        raise ValueError(
            f"grid period {grid.period} too small: wrapped tail {wrap:.3e} of amplitude exceeds {TAIL_BUDGET:g}"
        )
    dx = np.mod(grid.nodes - center + half, grid.period) - half
    samples = profile.evaluate(dx) + profile.evaluate(dx - grid.period) + profile.evaluate(dx + grid.period)
    return Field(grid, samples)


def sample_dx_on_grid(profile: SolitonProfile, grid: PeriodicGrid, center: float = 0.0) -> Field:
    """Sample phi'(x - center) on the periodic grid, same image handling as sample_on_grid."""
    half = 0.5 * grid.period
    dx = np.mod(grid.nodes - center + half, grid.period) - half
    samples = (
        profile.evaluate_dx(dx) + profile.evaluate_dx(dx - grid.period) + profile.evaluate_dx(dx + grid.period)
    )
    return Field(grid, samples)
