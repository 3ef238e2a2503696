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

A table built at c0 also serves the nearby speeds c: its value at |x| nu(c)/nu(c0),
scaled to the amplitude r1(c), is the guess for one Newton step of the inverse
map x(phi; c) = |x| (see sample_dx_on_grid).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, PeriodicGrid

# Largest wrapped tail, relative to the amplitude, that grid sampling accepts at half a period.
TAIL_BUDGET = 1e-8
# Points of the finite-difference stencils that check the first integral on the table.
STENCIL_WIDTH = 7
# Largest speed whose first-integral terms, of degree 4 in (phi, c, kappa), stay inside float64's range.
MAX_SPEED = float(np.finfo(float).max ** 0.25)


@dataclass(frozen=True)
class SolitonParams:
    """Speed c and kappa of one wave, with its closed-form constants, each computed once."""

    c: float
    kappa: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c) and self.c > 2.0 * self.kappa > 0.0):
            raise ValueError(f"soliton parameters require finite c > 2*kappa > 0, got c={self.c}, kappa={self.kappa}")
        if self.c < MAX_SPEED**2:  # where _quadratic_roots cannot overflow
            r1, r2 = self.roots
            if not r1 < self.c < r2:  # F(c) = -kappa c / 3 < 0, so c lies strictly between the roots
                raise ValueError(f"soliton parameters c={self.c}, kappa={self.kappa} are not representable: "
                                 f"sqrt(2*kappa/(3c)) is below float64 resolution, so the roots of F round onto c")
        if not self.c <= MAX_SPEED:
            raise ValueError(f"soliton parameters c={self.c}, kappa={self.kappa} are out of float64's range: "
                             f"the first integral's terms, of order c^4, overflow above c = {MAX_SPEED:.6g}")

    @cached_property
    def roots(self) -> tuple[float, float]:
        """The roots r1 < r2 of F; r1 = phi(0) is the amplitude."""
        return _quadratic_roots(self.c, self.kappa)

    @cached_property
    def nu(self) -> float:
        """Decay rate sqrt(1 - 2 kappa/c) of the far field phi ~ A exp(-nu |x|)."""
        return float(np.sqrt(1.0 - 2.0 * self.kappa / self.c))

    @cached_property
    def far_field_ratio(self) -> float:
        """A / r1 of the far field phi ~ A exp(-nu |x|), in (1, 4].

        It is 4 r2/(r2 - r1) ((r2 - r1)/(sqrt r1 + sqrt r2)^2)^nu, the phi -> 0 limit of the inverse map.
        """
        r1, r2 = self.roots
        return float(4.0 * r2 / (r2 - r1) * ((r2 - r1) / (np.sqrt(r1) + np.sqrt(r2)) ** 2) ** self.nu)

    def far_field(self, ax):
        """The far field A exp(-nu |x|) at |x| = ax."""
        return self.roots[0] * self.far_field_ratio * np.exp(-self.nu * ax)

    def slope(self, x, phi, u):
        """The first integral's slope phi_x = -sgn(x) phi sqrt(u (r2 - phi))/(c - phi) at phi(x) = r1 - u."""
        return -np.sign(x) * phi * np.sqrt(u * (self.roots[1] - phi)) / (self.c - phi)


def _quadratic_roots(c: float, kappa: float) -> tuple[float, float]:
    """Roots r1 < r2 of F(phi) = phi^2/2 - (c - 2k/3) phi + c^2/2 - k*c.

    r1 comes from the product r1 r2 = c (c - 2k), not from b - sqrt(disc), which cancels as c -> 2k.
    Every intermediate is below c^2, so it is finite for c <= sqrt(float64 max).
    """
    b = c - 2.0 * kappa / 3.0
    disc = (2.0 * kappa / 3.0) * (c + 2.0 * kappa / 3.0)
    r2 = b + np.sqrt(disc)
    return c * (c - 2.0 * kappa) / r2, r2


def min_period(params: SolitonParams) -> float:
    """Smallest period whose wrapped tail at half a period is TAIL_BUDGET of the amplitude.

    The far-field ratio lies in (1, 4], so the result is at least 2 ln(1/TAIL_BUDGET) / nu.
    """
    return float(2.0 * np.log(params.far_field_ratio / TAIL_BUDGET) / params.nu)


def check_period(params: SolitonParams, period: float) -> None:
    """Fail when the wrapped tail at half a period exceeds TAIL_BUDGET of the amplitude."""
    wrap = params.far_field(0.5 * period) / params.roots[0]
    if wrap > TAIL_BUDGET:
        raise ValueError(
            f"grid period {period} too small: wrapped tail {wrap:.3e} of amplitude exceeds {TAIL_BUDGET:g}"
        )


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
    """The wave of params, tabulated and interpolable on the half line, with its far field beyond the table."""

    params: SolitonParams
    xs: np.ndarray  # strictly increasing, xs[0] = 0
    phis: np.ndarray  # strictly decreasing, phis[0] = r1
    _log_cubic: np.ndarray  # (4, len(xs) - 1): log(phi) = sum_k _log_cubic[k, i] (x - xs[i])^k on [xs[i], xs[i+1]]

    @property
    def x_tail(self) -> float:
        return float(self.xs[-1])

    def _log_pieces(self, ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, p) at the table points ax: log(phi) = y + p, y the log at the node below and p the cubic's rise."""
        i = np.minimum(np.searchsorted(self.xs, ax, side="right") - 1, len(self.xs) - 2)
        t = ax - self.xs[i]
        y, m, q, r = self._log_cubic[:, i]
        return y, t * (m + t * (q + t * r))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        ax = np.abs(np.asarray(x, dtype=float))
        out = np.empty_like(ax)
        inside = ax <= self.x_tail
        y, p = self._log_pieces(ax[inside])
        out[inside] = np.exp(y + p)
        out[~inside] = self.params.far_field(ax[~inside])
        return out

    def evaluate_with_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi(x) and its exact slope from the first integral."""
        phi = self.evaluate(x)
        return phi, self.params.slope(x, phi, np.maximum(self.params.roots[0] - phi, 0.0))

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
        params = self.params
        doc = {
            "c": params.c,
            "kappa": params.kappa,
            "amplitude": float(params.roots[0]),
            "decay_rate": params.nu,
            "table": [[float(x), float(p)] for x, p in zip(self.xs, self.phis)],
            "tail_coeff": float(params.far_field(0.0)),
        }
        return json.dumps(doc)


def build_profile(params: SolitonParams, tol: float = 1e-10) -> SolitonProfile:
    """Tabulate phi on [0, X_tail] by the exact inverse map x(phi), then invert.

    tol sets the table extent: the last node is phi = tol * phi(0).
    """
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"build tolerance must be in (0, 1e-6], got {tol}")
    c = params.c
    r1, r2 = params.roots

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
    xs = _inverse_map(phis, a, b, r1, r2, params.nu)

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
    return SolitonProfile(params=params, xs=xs, phis=phis, _log_cubic=log_cubic)


def _inverse_map(phi, a, b, r1, r2, nu):
    """x(phi), the closed form of the module docstring, from a = sqrt(r1 - phi) and b = sqrt(r2 - phi)."""
    gap = np.sqrt(r2 - r1)
    return (2.0 / nu) * np.log((np.sqrt(r2) * a + np.sqrt(r1) * b) / (np.sqrt(phi) * gap)) - 2.0 * np.log((a + b) / gap)


def _anchored_with_slope(anchor: SolitonProfile, x: np.ndarray, params: SolitonParams) -> tuple[np.ndarray, np.ndarray]:
    """phi(x) and phi_x(x) of the wave of speed c = params.c, from the table of anchor, built at c0 with the same kappa.

    The guess is the table at |x| nu(c)/nu(c0), scaled to the amplitude r1(c),
    which matches both the peak and the decay of the far field; one Newton step
    of c's inverse map x(phi) = |x| corrects it, and phi_x is the first
    integral's slope at c.  The step carries u = r1 - phi, and the guess's u
    comes from expm1 of the table's log-ratio, not from a subtraction: at the
    peak u = 0 and tau = sqrt(u) is exact, with no clamp, and a guess above the
    peak would give a NaN, which Field rejects.  Beyond the scaled table phi is
    c's far field.
    """
    c = params.c
    r1, r2 = params.roots
    ax = np.abs(x)
    phi = params.far_field(ax)
    u = r1 - phi
    scaled = ax * (params.nu / anchor.params.nu)
    inside = scaled <= anchor.x_tail
    y, rise = anchor._log_pieces(scaled[inside])
    log_ratio = (y - anchor._log_cubic[0, 0]) + rise  # log(phi / amplitude) on the table, 0 at the peak
    guess, guess_u = r1 * np.exp(log_ratio), -r1 * np.expm1(log_ratio)
    a, b = np.sqrt(guess_u), np.sqrt(r2 - guess)
    step = (_inverse_map(guess, a, b, r1, r2, params.nu) - ax[inside]) * guess * a * b / (c - guess)
    phi[inside], u[inside] = guess + step, guess_u - step
    return phi, params.slope(x, phi, u)


def _images(params: SolitonParams, grid: PeriodicGrid, center: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets dx in [-period/2, period/2) of the nodes from center, and params' far field at the far images
    dx - period, dx + period.

    Fails as check_period does. The far images lie at |x| >= period/2, so they take the far field:
    evaluate's own tail once period/2 >= x_tail, the table to within rounding otherwise.
    """
    check_period(params, grid.period)
    dx = grid.wrap(grid.nodes - center)
    return dx, params.far_field(grid.period - dx), params.far_field(grid.period + dx)


def sample_on_grid(profile: SolitonProfile, grid: PeriodicGrid, center: float = 0.0) -> Field:
    """Sample phi(x - center) on the periodic grid: the nearest image plus the two far ones."""
    dx, left, right = _images(profile.params, grid, center)
    return Field(grid, profile.evaluate(dx) + left + right)


def sample_dx_on_grid(profile: SolitonProfile, grid: PeriodicGrid, center: float = 0.0,
                      c: float | None = None) -> tuple[Field, Field]:
    """Sample phi(x - center) and phi'(x - center) on the periodic grid in one pass over the images.

    Without c, phi is sample_on_grid's, bitwise; phi' takes the far images from the far field's slope.
    With c, the wave is the one of speed c and the same kappa, and the profile, built at c0, is its
    anchor (_anchored_with_slope). For c/kappa from 2.02 to 10 the samples are off the root of c's
    inverse map by at most 5e-14 of the amplitude at |c - c0| = 1e-6 c0, growing as (c - c0)^2 to 5e-12
    at 1e-5 c0; a table built at c itself is off by its Hermite error, up to 1.5e-10.
    """
    params = profile.params if c is None else SolitonParams(c, profile.params.kappa)
    dx, left, right = _images(params, grid, center)
    phi, phi_x = profile.evaluate_with_slope(dx) if c is None else _anchored_with_slope(profile, dx, params)
    return Field(grid, phi + left + right), Field(grid, phi_x + params.nu * (left - right))
