"""Periodic Fourier collocation grids, fields and the nonlocal symbol operators.

Everything downstream (soliton sampling, time stepping, operator assembly)
works on a uniform periodic grid.  Nonlocal operators such as (a - d^2/dx^2)^-1
are applied through their exact Fourier symbols, so they are spectrally exact
for band-limited data.

This module is the only one that knows Fourier space: every multiplier is
written here once, on the real-FFT half spectrum, built at most once per grid,
and applied on one path (rfft, multiply, irfft).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with this module, not in a run's first transform


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform collocation grid on a periodic box [-period/2, period/2)."""

    n: int
    period: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 8:
            raise ValueError(f"node count must be a power of two >= 8, got {self.n}")
        if not np.isfinite(self.period) or self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def h(self) -> float:
        return self.period / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        x = -0.5 * self.period + self.h * np.arange(self.n)
        x.flags.writeable = False
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Real-FFT half spectrum xi_k = 2*pi*k/period, k = 0..n/2."""
        xi = (2.0 * np.pi / self.period) * np.arange(self.n // 2 + 1)
        xi.flags.writeable = False
        return xi

    def wrap(self, x):
        """x moved by whole periods into [-period/2, period/2]; only rounding, just below -period/2, gives period/2."""
        return np.mod(x + 0.5 * self.period, self.period) - 0.5 * self.period

    def gaps(self, positions: np.ndarray) -> np.ndarray:
        """Forward circle gaps in [0, period]: entry j runs from positions[j] to positions[j + 1], the last back to positions[0]."""
        return np.mod(np.roll(positions, -1) - positions, self.period)

    @cached_property
    def _symbols(self) -> dict:
        return {}

    def _symbol(self, key, build) -> np.ndarray:
        """The multiplier build(wavenumbers), built once per grid and shared read-only."""
        symbol = self._symbols.get(key)
        if symbol is None:
            symbol = build(self.wavenumbers)
            symbol.flags.writeable = False
            self._symbols[key] = symbol
        return symbol

    def derivative_symbol(self, order: int) -> np.ndarray:
        """(i xi)^order; the Nyquist mode (the last one) is zeroed for odd orders."""
        return self._symbol(("derivative", order), lambda xi: (1j * xi) ** order * (xi < xi[-1] if order % 2 else 1))

    def helmholtz_symbol(self, a: float) -> np.ndarray:
        """1 / (a + xi^2), the symbol of (a - d^2/dx^2)^-1."""
        return self._symbol(("helmholtz", a), lambda xi: 1.0 / (a + xi**2))

    @property
    def sqrt_helmholtz4_symbol(self) -> np.ndarray:
        """1 / sqrt(4 + xi^2), the symbol of (4 - d^2/dx^2)^(-1/2)."""
        return self._symbol("sqrt_helmholtz4", lambda xi: 1.0 / np.sqrt(4.0 + xi**2))

    @property
    def smoothing_symbol(self) -> np.ndarray:
        """S = (1 + xi^2) / (4 + xi^2), the symbol of (1 - d^2)(4 - d^2)^-1."""
        return self._symbol("smoothing", lambda xi: (1.0 + xi**2) / (4.0 + xi**2))

    @property
    def dealias_mask(self) -> np.ndarray:
        """2/3 rule: keep the modes |k| <= n/3."""
        return self._symbol("dealias", lambda xi: np.arange(len(xi)) <= self.n / 3.0)


def make_grid(n: int, period: float) -> PeriodicGrid:
    return PeriodicGrid(n=int(n), period=float(period))


@dataclass(frozen=True)
class Field:
    """Real grid function: samples at the collocation nodes of one grid."""

    grid: PeriodicGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape != (self.grid.n,):
            raise ValueError(f"samples shape {samples.shape} does not match grid n={self.grid.n}")
        if not np.isfinite(samples).all():
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "samples", samples)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """rfft of the samples, computed once: every symbol applied to this field multiplies it."""
        return np.fft.rfft(self.samples)

    @cached_property
    def _smoothed(self) -> "Field":
        """smoothing_operator(self), computed once: s_inner pairs it with each field it is given."""
        return smoothing_operator(self)

    def _check_same_grid(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.samples - other.samples)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.h * np.sum(self.samples**2)))

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.samples)))


def _apply_symbol(f: Field, symbol: np.ndarray) -> Field:
    """The field whose half spectrum is symbol times f's; f is transformed once, however many symbols it meets."""
    return Field(f.grid, np.fft.irfft(symbol * f._spectrum, n=f.grid.n))


def helmholtz_inverse(f: Field, a: float) -> Field:
    """Solve (a - d^2/dx^2) g = f by dividing Fourier coefficients by a + xi^2."""
    if not a > 0:
        raise ValueError(f"helmholtz parameter must be positive, got {a}")
    return _apply_symbol(f, f.grid.helmholtz_symbol(a))


def sqrt_helmholtz_inverse4(f: Field) -> Field:
    """Apply (4 - d^2/dx^2)^(-1/2): divide Fourier coefficients by sqrt(4 + xi^2)."""
    return _apply_symbol(f, f.grid.sqrt_helmholtz4_symbol)


def derivative(f: Field, order: int) -> Field:
    """Spectral derivative of order 1, 2 or 3; Nyquist mode zeroed for odd orders."""
    if order not in (1, 2, 3):
        raise ValueError(f"unsupported derivative order {order}")
    return _apply_symbol(f, f.grid.derivative_symbol(order))


def integrate(f: Field) -> float:
    """Trapezoid rule; spectrally accurate on the periodic grid."""
    return float(f.grid.h * np.sum(f.samples))


def smoothing_operator(f: Field) -> Field:
    """Apply (1 - d^2)(4 - d^2)^-1, the operator inducing the S-pairing."""
    return _apply_symbol(f, f.grid.smoothing_symbol)


def s_inner(u: Field, v: Field) -> float:
    """Energy pairing ((1 - d^2)(4 - d^2)^-1 u, v) = integrate(smoothing_operator(u) * v).

    Symmetric and positive definite; the symbol lies in [1/4, 1), so
    (1/4)||u||^2 <= s_inner(u, u) < ||u||^2. The smoothed u is kept with u, so
    pairing one field with many smooths it once. The product is integrated as
    an array, as integrate does; a non-finite product entry makes the sum
    non-finite, which raises Field's ValueError.
    """
    u._check_same_grid(v)
    value = float(u.grid.h * np.sum(u._smoothed.samples * v.samples))
    if not np.isfinite(value):
        raise ValueError("field samples must be finite")
    return value
