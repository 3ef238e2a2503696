"""Construction of the smooth solitary-wave profile for speed c > 2*kappa > 0.

The profile phi(x) satisfies the first integral

    (1/2) (c - phi)^2 phi_x^2 = phi^2 F(phi),
    F(phi) = (1/2) phi^2 - (c - 2*kappa/3) phi + (1/2) c^2 - kappa*c,

so with r1 < r2 the two positive roots of F, 2 F(s) = (s - r1)(s - r2), and
separation of variables gives the inverse map

    x(phi) = int_phi^r1 (c - s) / (s * sqrt((r1 - s)(r2 - s))) ds.

The integral is elementary (Vakhnenko & Parkes 2004; Matsuno 2005).  With
nu = sqrt(1 - 2*kappa/c) and sqrt(r1 r2) = c nu,

    x(phi) = (2/nu) ln((sqrt(r2) sqrt(r1 - phi) + sqrt(r1) sqrt(r2 - phi)) / sqrt(phi (r2 - r1)))
             - 2 ln((sqrt(r1 - phi) + sqrt(r2 - phi)) / sqrt(r2 - r1)),

evaluated exactly on a table of phi nodes.  The table is inverted to phi(x)
by a piecewise-cubic Hermite interpolant of log(phi) whose node slopes are the
exact log-slopes -sqrt((r1 - phi)(r2 - phi))/(c - phi) of the first integral
(0 at the peak), so it needs no linear solve.  Beyond the table the profile is
the exact far field phi ~ A exp(-nu |x|), whose coefficient
ln A = lim (nu x(phi) + ln phi) as phi -> 0 is also elementary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import Field, PeriodicGrid

# Largest wrapped tail, relative to the amplitude, that grid sampling accepts at half a period.
TAIL_BUDGET = 1e-8
# Points of the finite-difference stencils that check the first integral on the table.
STENCIL_WIDTH = 7


@dataclass(frozen=True)
class SolitonParams:
    c: float
    kappa: float

    def __post_init__(self) -> None:
        if not (self.c > 2.0 * self.kappa > 0.0):
            raise ValueError(f"soliton parameters require c > 2*kappa > 0, got c={self.c}, kappa={self.kappa}")

    @property
    def nu(self) -> float:
        """Decay rate sqrt(1 - 2 kappa/c) of the far field phi ~ A exp(-nu |x|)."""
        return np.sqrt(1.0 - 2.0 * self.kappa / self.c)


def _quadratic_roots(c: float, kappa: float) -> tuple[float, float]:
    """Roots r1 < r2 of F(phi) = phi^2/2 - (c - 2k/3) phi + c^2/2 - k*c.

    r1 comes from the product r1 r2 = c (c - 2k), not from b - sqrt(disc), which cancels as c -> 2k.
    """
    b = c - 2.0 * kappa / 3.0
    disc = (2.0 * kappa / 3.0) * (c + 2.0 * kappa / 3.0)
    r2 = b + np.sqrt(disc)
    return c * (c - 2.0 * kappa) / r2, r2


def _far_field_ratio(params: SolitonParams) -> float:
    """A / phi(0) of the far field phi ~ A exp(-nu |x|), in (1, 4].

    It is 4 r2/(r2 - r1) ((r2 - r1)/(sqrt r1 + sqrt r2)^2)^nu, the phi -> 0 limit of the inverse map.
    """
    r1, r2 = _quadratic_roots(params.c, params.kappa)
    return float(4.0 * r2 / (r2 - r1) * ((r2 - r1) / (np.sqrt(r1) + np.sqrt(r2)) ** 2) ** params.nu)


def min_period(params: SolitonParams) -> float:
    """Smallest period whose wrapped tail at half a period is TAIL_BUDGET of the amplitude.

    The far-field ratio lies in (1, 4], so the result is at least 2 ln(1/TAIL_BUDGET) / nu.
    """
    return float(2.0 * np.log(_far_field_ratio(params) / TAIL_BUDGET) / params.nu)


def speed_from_amplitude(a: float, kappa: float) -> float:
    """Invert the peak value phi(0) = r1 in c at fixed kappa.

    With k = 2 kappa/3, a = (c + k) - 2k - sqrt(k (c + k)) is a quadratic in
    sqrt(c + k), whose positive root gives c = ((sqrt k + sqrt(9k + 4a)) / 2)^2 - k.
    """
    if not (kappa > 0 and a > 0):
        raise ValueError(f"need a > 0 and kappa > 0, got a={a}, kappa={kappa}")
    k = 2.0 * kappa / 3.0
    c = float(((np.sqrt(k) + np.sqrt(9.0 * k + 4.0 * a)) / 2.0) ** 2 - k)
    if not c > 2.0 * kappa:
        raise ValueError(f"amplitude {a} too small for kappa={kappa}: the speed rounds to c <= 2*kappa")
    return c


def _stencil_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivative of tabulated data via local polynomial stencils.

    Each node gets a STENCIL_WIDTH-point stencil (shifted near the ends); weights
    solve the Vandermonde moment conditions in batch, scaled by the local spacing
    for conditioning.
    """
    n = len(x)
    half = STENCIL_WIDTH // 2
    starts = np.clip(np.arange(n) - half, 0, n - STENCIL_WIDTH)
    idx = starts[:, None] + np.arange(STENCIL_WIDTH)[None, :]
    dx = x[idx] - x[:, None]
    scale = np.max(np.abs(dx), axis=1)
    t = dx / scale[:, None]
    powers = t[:, None, :] ** np.arange(STENCIL_WIDTH)[None, :, None]  # one Vandermonde matrix per node
    rhs = np.zeros((STENCIL_WIDTH, 1))
    rhs[1, 0] = 1.0
    weights = np.linalg.solve(powers, np.broadcast_to(rhs, (n, STENCIL_WIDTH, 1)))[:, :, 0]
    return np.sum(weights * y[idx], axis=1) / scale


@dataclass(frozen=True)
class SolitonProfile:
    """Tabulated, interpolable half-line profile plus exponential tail model."""

    params: SolitonParams
    amplitude: float
    decay_rate: float
    xs: np.ndarray  # strictly increasing, xs[0] = 0
    phis: np.ndarray  # strictly decreasing
    tail_coeff: float
    _log_cubic: np.ndarray  # (4, len(xs) - 1): log(phi) = sum_k _log_cubic[k, i] (x - xs[i])^k on [xs[i], xs[i+1]]

    @property
    def x_tail(self) -> float:
        return float(self.xs[-1])

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        ax = np.abs(np.asarray(x, dtype=float))
        out = np.empty_like(ax)
        inside = ax <= self.x_tail
        xi = ax[inside]
        i = np.minimum(np.searchsorted(self.xs, xi, side="right") - 1, len(self.xs) - 2)
        t = xi - self.xs[i]
        y, m, q, r = self._log_cubic[:, i]
        out[inside] = np.exp(y + t * (m + t * (q + t * r)))
        out[~inside] = self._far_field(ax[~inside])
        return out

    def _far_field(self, ax):
        """The far field A exp(-nu |x|) at |x| = ax, the profile beyond the table."""
        return self.tail_coeff * np.exp(-self.decay_rate * ax)

    def evaluate_with_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi(x) and its exact slope from the first integral, phi_x = -sgn(x) phi sqrt((r1-phi)(r2-phi))/(c-phi)."""
        phi = self.evaluate(x)
        r1, r2 = _quadratic_roots(self.params.c, self.params.kappa)
        rad = np.sqrt(np.maximum(r1 - phi, 0.0) * (r2 - phi))
        return phi, -np.sign(x) * phi * rad / (self.params.c - phi)

    def first_integral_residual(self) -> float:
        """Max residual of the first integral over the table.

        Slopes come from STENCIL_WIDTH-point finite-difference stencils on the table
        alone, independent of the closed-form inverse map and of the first integral itself.
        """
        c = self.params.c
        kappa = self.params.kappa
        dphi = _stencil_derivative(self.xs, self.phis)
        p = self.phis
        f_of_phi = 0.5 * p**2 - (c - 2.0 * kappa / 3.0) * p + 0.5 * c**2 - kappa * c
        res = 0.5 * (c - p) ** 2 * dphi**2 - p**2 * f_of_phi
        return float(np.max(np.abs(res)))

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


def build_profile(params: SolitonParams, tol: float = 1e-10) -> SolitonProfile:
    """Tabulate phi on [0, X_tail] by the exact inverse map x(phi), then invert.

    tol sets the table extent: the last node is phi = tol * phi(0).
    """
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

    a = np.sqrt(r1 - phis)
    b = np.sqrt(r2 - phis)
    gap = np.sqrt(r2 - r1)
    xs = (2.0 / params.nu) * np.log((np.sqrt(r2) * a + np.sqrt(r1) * b) / (np.sqrt(phis) * gap)) - 2.0 * np.log((a + b) / gap)

    if not (np.all(np.diff(xs) > 0) and np.all(np.diff(phis) < 0)):
        raise RuntimeError("profile table is not strictly monotone")
    if not (0.0 < phis[-1] and phis[0] < c):
        raise RuntimeError("profile table violates 0 < phi < c")

    # Cubic Hermite pieces of log(phi) with the exact log-slopes at every node.
    logs = np.log(phis)
    slopes = -a * b / (c - phis)
    h = np.diff(xs)
    secant = np.diff(logs) / h
    m0, m1 = slopes[:-1], slopes[1:]
    log_cubic = np.array([logs[:-1], m0, (3.0 * secant - 2.0 * m0 - m1) / h, (m0 + m1 - 2.0 * secant) / h**2])
    return SolitonProfile(
        params=params,
        amplitude=float(phis[0]),
        decay_rate=float(params.nu),
        xs=xs,
        phis=phis,
        tail_coeff=float(r1 * _far_field_ratio(params)),
        _log_cubic=log_cubic,
    )


def _images(profile: SolitonProfile, grid: PeriodicGrid, center: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets dx in [-period/2, period/2) of the nodes from center, and phi at the far images dx - period, dx + period.

    Fails when the wrapped tail at half a period exceeds TAIL_BUDGET of the amplitude.
    The far images lie at |x| >= period/2, so they take the far field: evaluate's
    own tail once period/2 >= x_tail, the table to within rounding otherwise.
    """
    wrap = profile._far_field(0.5 * grid.period) / profile.amplitude
    if wrap > TAIL_BUDGET:
        raise ValueError(
            f"grid period {grid.period} too small: wrapped tail {wrap:.3e} of amplitude exceeds {TAIL_BUDGET:g}"
        )
    dx = grid.wrap(grid.nodes - center)
    return dx, profile._far_field(grid.period - dx), profile._far_field(grid.period + dx)


def sample_on_grid(profile: SolitonProfile, grid: PeriodicGrid, center: float = 0.0) -> Field:
    """Sample phi(x - center) on the periodic grid: the nearest image plus the two far ones."""
    dx, left, right = _images(profile, grid, center)
    return Field(grid, profile.evaluate(dx) + left + right)


def sample_dx_on_grid(profile: SolitonProfile, grid: PeriodicGrid, center: float = 0.0) -> tuple[Field, Field]:
    """Sample phi(x - center) and phi'(x - center) on the periodic grid in one pass over the images.

    phi is sample_on_grid's, bitwise; phi' takes the far images from the far field's slope.
    """
    dx, left, right = _images(profile, grid, center)
    phi, phi_x = profile.evaluate_with_slope(dx)
    return Field(grid, phi + left + right), Field(grid, phi_x + profile.decay_rate * (left - right))
