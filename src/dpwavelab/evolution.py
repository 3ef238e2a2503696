"""Pseudospectral time evolution of the nonlocal DP equation.

State equation:  u_t = -d/dx ( u^2/2 + (1 - d^2)^-1 (3/2 u^2 + 2 kappa u) ).
In Fourier space this is  u_t^ = F2 (u^2)^ + F1 u^  with two fused multipliers
F2 = -i xi (1/2 + 3/2 (1 + xi^2)^-1), 2/3-rule dealiased, and
F1 = -i xi 2 kappa (1 + xi^2)^-1.  Time stepping is classical fixed-step RK4
on the rfft coefficients u^: each RHS costs 2 FFTs (an irfft for the stage
samples, an rfft of their square) and each step one more irfft, whose samples
feed the blow-up guard tied to the a priori sup bound and the stored frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, PeriodicGrid, derivative


class BlowUpError(RuntimeError):
    """Raised when the state grossly violates the admissible-data sup bound."""


@dataclass(frozen=True)
class EvolutionConfig:
    kappa: float
    t_end: float
    dt: float
    dealias: bool = True
    observer_stride: int = 1

    def __post_init__(self) -> None:
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.observer_stride < 1:
            raise ValueError("observer_stride must be >= 1")


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    states: list[Field] = field(default_factory=list)
    steps: int = 0


def _flux_symbols(grid: PeriodicGrid, kappa: float, dealias: bool) -> tuple[np.ndarray, np.ndarray]:
    """(F2, F1) with rfft(u_t) = F2 rfft(u^2) + F1 rfft(u); the 2/3 mask goes on F2 when dealias is set."""
    minus_dx = -grid.derivative_symbol(1)
    helmholtz = grid.helmholtz_symbol(1.0)
    f2 = minus_dx * (0.5 + 1.5 * helmholtz)
    if dealias:
        f2 *= grid.dealias_mask
    return f2, minus_dx * (2.0 * kappa * helmholtz)


def _rhs_hat(u_hat: np.ndarray, u: np.ndarray, symbols: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """rfft of the right-hand side at the state with rfft coefficients u_hat and samples u: one rfft."""
    f2, f1 = symbols
    return f2 * np.fft.rfft(u * u) + f1 * u_hat


def dp_rhs(u: Field, kappa: float, dealias: bool = True) -> Field:
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    rhs_hat = _rhs_hat(np.fft.rfft(u.samples), u.samples, _flux_symbols(u.grid, kappa, dealias))
    return Field(u.grid, np.fft.irfft(rhs_hat, n=u.grid.n))


def _guarded_rk4(
    u_hat: np.ndarray, u: np.ndarray, dt: float, symbols: tuple[np.ndarray, np.ndarray], guard: float
) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step on the rfft coefficients u_hat of the samples u.

    Returns the new coefficients and their samples; raises BlowUpError on
    non-finite samples or a sup norm above guard.
    """
    n = u.size
    k1 = _rhs_hat(u_hat, u, symbols)
    v = u_hat + 0.5 * dt * k1
    k2 = _rhs_hat(v, np.fft.irfft(v, n=n), symbols)
    v = u_hat + 0.5 * dt * k2
    k3 = _rhs_hat(v, np.fft.irfft(v, n=n), symbols)
    v = u_hat + dt * k3
    k4 = _rhs_hat(v, np.fft.irfft(v, n=n), symbols)
    out_hat = u_hat + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    out = np.fft.irfft(out_hat, n=n)
    sup = float(np.max(np.abs(out)))
    if not np.isfinite(sup):
        raise BlowUpError("non-finite samples after RK4 step")
    if sup > guard:
        raise BlowUpError(f"sup norm {sup:.3e} exceeds blow-up guard {guard:.3e}")
    return out_hat, out


def sup_bound(u0_l2: float, kappa: float) -> float:
    """A priori bound on ||u(t)||_inf for admissible data: 2(1+sqrt2)||u0||_2 + 4 kappa/3."""
    return 2.0 * (1.0 + np.sqrt(2.0)) * u0_l2 + 4.0 * kappa / 3.0


def step_rk4(u: Field, dt: float, kappa: float, dealias: bool = True, guard: float | None = None) -> Field:
    """One classical RK4 step; rejects states exceeding 10x the a priori sup bound."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if guard is None:
        guard = 10.0 * sup_bound(u.l2_norm(), kappa)
    symbols = _flux_symbols(u.grid, kappa, dealias)
    _, out = _guarded_rk4(np.fft.rfft(u.samples), u.samples, dt, symbols, guard)
    return Field(u.grid, out)


def evolve(u0: Field, config: EvolutionConfig, observers: list | None = None) -> Trajectory:
    """Evolve u0 to t_end, storing states every observer_stride steps.

    Observers are callables (t, Field) invoked at the stored frames, including
    t = 0 and the final time.
    """
    grid = u0.grid
    n_steps = int(np.ceil(config.t_end / config.dt - 1e-12))
    dt = config.t_end / n_steps

    guard = 10.0 * sup_bound(u0.l2_norm(), config.kappa)
    symbols = _flux_symbols(grid, config.kappa, config.dealias)
    observers = observers or []

    traj = Trajectory()

    def record(t: float, u: np.ndarray) -> None:
        f = Field(grid, u.copy())
        traj.times.append(t)
        traj.states.append(f)
        for obs in observers:
            obs(t, f)

    u = u0.samples
    u_hat = np.fft.rfft(u)
    record(0.0, u)
    for step in range(1, n_steps + 1):
        try:
            u_hat, u = _guarded_rk4(u_hat, u, dt, symbols, guard)
        except BlowUpError as exc:
            raise BlowUpError(f"{exc} at step {step}") from exc
        if step % config.observer_stride == 0 or step == n_steps:
            record(step * dt, u)
    traj.steps = n_steps
    return traj


def check_w_positivity(u0: Field, kappa: float) -> dict:
    """w0 = u0 - u0_xx + 2 kappa/3 on the grid; ok iff min >= 0."""
    w = u0.samples - derivative(u0, 2).samples + 2.0 * kappa / 3.0
    m = float(np.min(w))
    return {"min_value": m, "ok": m >= 0.0}
