"""Pseudospectral time evolution of the nonlocal DP equation.

State equation:  u_t = -d/dx ( u^2/2 + (1 - d^2)^-1 (3/2 u^2 + 2 kappa u) ).
Quadratic terms are dealiased with the 2/3 rule; time stepping is classical
fixed-step RK4 with a blow-up guard tied to the a priori sup bound.
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


def _rhs_samples(u: np.ndarray, grid: PeriodicGrid, kappa: float, dealias: bool) -> np.ndarray:
    u2_hat = np.fft.rfft(u * u)
    if dealias:
        u2_hat *= grid.dealias_mask
    flux_hat = 0.5 * u2_hat + (1.5 * u2_hat + 2.0 * kappa * np.fft.rfft(u)) * grid.helmholtz_symbol(1.0)
    return -np.fft.irfft(grid.derivative_symbol(1) * flux_hat, n=grid.n)


def dp_rhs(u: Field, kappa: float, dealias: bool = True) -> Field:
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return Field(u.grid, _rhs_samples(u.samples, u.grid, kappa, dealias))


def _guarded_rk4(u: np.ndarray, dt: float, grid: PeriodicGrid, kappa: float, dealias: bool, guard: float) -> np.ndarray:
    """One classical RK4 step; raises BlowUpError on non-finite samples or a sup norm above guard."""
    k1 = _rhs_samples(u, grid, kappa, dealias)
    k2 = _rhs_samples(u + 0.5 * dt * k1, grid, kappa, dealias)
    k3 = _rhs_samples(u + 0.5 * dt * k2, grid, kappa, dealias)
    k4 = _rhs_samples(u + dt * k3, grid, kappa, dealias)
    out = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    sup = float(np.max(np.abs(out)))
    if not np.isfinite(sup):
        raise BlowUpError("non-finite samples after RK4 step")
    if sup > guard:
        raise BlowUpError(f"sup norm {sup:.3e} exceeds blow-up guard {guard:.3e}")
    return out


def sup_bound(u0_l2: float, kappa: float) -> float:
    """A priori bound on ||u(t)||_inf for admissible data: 2(1+sqrt2)||u0||_2 + 4 kappa/3."""
    return 2.0 * (1.0 + np.sqrt(2.0)) * u0_l2 + 4.0 * kappa / 3.0


def step_rk4(u: Field, dt: float, kappa: float, dealias: bool = True, guard: float | None = None) -> Field:
    """One classical RK4 step; rejects states exceeding 10x the a priori sup bound."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if guard is None:
        guard = 10.0 * sup_bound(u.l2_norm(), kappa)
    return Field(u.grid, _guarded_rk4(u.samples, dt, u.grid, kappa, dealias, guard))


def evolve(u0: Field, config: EvolutionConfig, observers: list | None = None) -> Trajectory:
    """Evolve u0 to t_end, storing states every observer_stride steps.

    Observers are callables (t, Field) invoked at the stored frames, including
    t = 0 and the final time.
    """
    grid = u0.grid
    kappa = config.kappa
    n_steps = int(np.ceil(config.t_end / config.dt - 1e-12))
    dt = config.t_end / n_steps

    guard = 10.0 * sup_bound(u0.l2_norm(), kappa)
    observers = observers or []

    traj = Trajectory()

    def record(t: float, u: np.ndarray) -> None:
        f = Field(grid, u.copy())
        traj.times.append(t)
        traj.states.append(f)
        for obs in observers:
            obs(t, f)

    u = u0.samples.copy()
    record(0.0, u)
    for step in range(1, n_steps + 1):
        try:
            u = _guarded_rk4(u, dt, grid, kappa, config.dealias, guard)
        except BlowUpError as exc:
            raise BlowUpError(f"{exc} at step {step}") from exc
        if step % config.observer_stride == 0 or step == n_steps:
            record(step * dt, u)
    return traj


def check_w_positivity(u0: Field, kappa: float) -> dict:
    """w0 = u0 - u0_xx + 2 kappa/3 on the grid; ok iff min >= 0."""
    w = u0.samples - derivative(u0, 2).samples + 2.0 * kappa / 3.0
    m = float(np.min(w))
    return {"min_value": m, "ok": m >= 0.0}
