"""Pseudospectral time evolution of the nonlocal DP equation.

State equation:  u_t = -d/dx ( u^2/2 + (1 - d^2)^-1 (3/2 u^2 + 2 kappa u) ).
In Fourier space this is  u_t^ = F2 (u^2)^ + F1 u^  with two fused multipliers
F2 = -i xi (1/2 + 3/2 (1 + xi^2)^-1), 2/3-rule dealiased, and
F1 = -i xi 2 kappa (1 + xi^2)^-1.  Time stepping is classical fixed-step RK4
on the rfft coefficients u^: each RHS costs 2 FFTs (an irfft for the stage
samples, an rfft of their square) and each step one more irfft, whose samples
feed the blow-up guard tied to the a priori sup bound and the stored frames:
8 FFTs per step. They call pocketfft's gufuncs directly, and every transform,
product and sum of a step writes into a workspace allocated once per stack
shape, in the operand order of the plain expressions, so the bits are theirs.
States that share a grid step together as one (m, n) stack, every FFT on the
last axis, with a guard per state. One stepping loop produces the stored
frames and hands each to a consumer as it is stepped to: evolve_stack
collects them into Trajectories, and evolve passes them to its caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The gufuncs behind numpy.fft.irfft/rfft (numpy >= 2.0), called directly: numpy.fft's Python wrapper is about a
# third of each call at n = 1024. rfft_n_even serves every grid, since make_grid allows only powers of two.
from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft

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
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0 < self.dt <= self.t_end:
            raise ValueError(f"dt must be positive and at most t_end {self.t_end}, got {self.dt}")
        if not self.t_end / self.dt < np.inf:
            raise ValueError(f"t_end / dt must be a finite step count, got t_end {self.t_end} and dt {self.dt}")
        if self.observer_stride < 1:
            raise ValueError("observer_stride must be >= 1")

    @property
    def steps(self) -> int:
        """The fixed RK4 step count ceil(t_end / dt); each step is t_end / steps long."""
        return int(np.ceil(self.t_end / self.dt - 1e-12))


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    states: list[Field] = field(default_factory=list)


def _flux_symbols(grid: PeriodicGrid, kappa: float, dealias: bool) -> tuple[np.ndarray, np.ndarray]:
    """(F2, F1) with rfft(u_t) = F2 rfft(u^2) + F1 rfft(u); the 2/3 mask goes on F2 when dealias is set."""
    minus_dx = -grid.derivative_symbol(1)
    helmholtz = grid.helmholtz_symbol(1.0)
    f2 = minus_dx * (0.5 + 1.5 * helmholtz)
    if dealias:
        f2 *= grid.dealias_mask
    return f2, minus_dx * (2.0 * kappa * helmholtz)


class _Workspace:
    """The buffers one RK4 step writes into, for samples of one shape (n,) or (m, n).

    sq holds squared samples, and at the end of a step |u| for the guard; w
    holds a stage's samples, r rfft(sq), tmp a temporary, v a stage's
    coefficients and k the four slopes.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        half = (*shape[:-1], shape[-1] // 2 + 1)
        self.sq, self.w = np.empty(shape), np.empty(shape)
        self.r, self.tmp, self.v = (np.empty(half, complex) for _ in range(3))
        self.k = tuple(np.empty(half, complex) for _ in range(4))


def _rhs_hat(u_hat: np.ndarray, u: np.ndarray, symbols: tuple[np.ndarray, np.ndarray], ws: _Workspace, out: np.ndarray):
    """Write to out f2 rfft(u u) + f1 u_hat, the rfft of the right-hand side at the state with coefficients u_hat and samples u."""
    f2, f1 = symbols
    _rfft(np.multiply(u, u, out=ws.sq), 1.0, out=ws.r)
    np.multiply(f2, ws.r, out=out)
    return np.add(out, np.multiply(f1, u_hat, out=ws.tmp), out=out)


def dp_rhs(u: Field, kappa: float, dealias: bool = True) -> Field:
    """The right-hand side u_t at the state u, through the stepper's own symbols and RHS.

    The stepper never calls it: this is the one-RHS probe that perfbench/rep.py
    times, its only caller outside the tests.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    ws = _Workspace(u.samples.shape)
    u_hat = _rfft(u.samples, 1.0, out=ws.v)
    rhs_hat = _rhs_hat(u_hat, u.samples, _flux_symbols(u.grid, kappa, dealias), ws, ws.k[0])
    return Field(u.grid, _irfft(rhs_hat, 1.0 / u.grid.n, out=np.empty(u.grid.n)))


def _rk4(u_hat: np.ndarray, u: np.ndarray, dt: float, symbols: tuple[np.ndarray, np.ndarray], ws: _Workspace):
    """One classical RK4 step, in place, on the rfft coefficients u_hat of the samples u.

    u is one state (n,) or a stack (m, n) on one grid; the FFTs run on axis -1,
    so each row is advanced exactly as it would be on its own. The stages are
    v = u_hat + (0.5 dt) k1, u_hat + (0.5 dt) k2 and u_hat + dt k3, and the step
    u_hat + (dt/6) ((k1 + 2.0 (k2 + k3)) + k4), each op in that order into ws.
    Returns the sup norm of each row (NaN or inf for a row with non-finite samples).
    """
    fct = 1.0 / u.shape[-1]
    k1, k2, k3, k4 = ws.k
    v, tmp = ws.v, ws.tmp
    _rhs_hat(u_hat, u, symbols, ws, k1)
    for k, h, k_next in ((k1, 0.5 * dt, k2), (k2, 0.5 * dt, k3), (k3, dt, k4)):
        np.add(u_hat, np.multiply(h, k, out=v), out=v)
        _rhs_hat(v, _irfft(v, fct, out=ws.w), symbols, ws, k_next)
    np.multiply(2.0, np.add(k2, k3, out=tmp), out=tmp)
    np.add(np.add(k1, tmp, out=tmp), k4, out=tmp)
    np.add(u_hat, np.multiply(dt / 6.0, tmp, out=tmp), out=u_hat)
    _irfft(u_hat, fct, out=u)
    return np.abs(u, out=ws.sq).max(axis=-1)


def _breach(sup: float, guard: float) -> str:
    """Why a state whose sup norm is not within its guard was rejected."""
    if not np.isfinite(sup):
        return "non-finite samples after RK4 step"
    return f"sup norm {sup:.3e} exceeds blow-up guard {guard:.3e}"


def sup_bound(u0_l2: float, kappa: float) -> float:
    """A priori bound on ||u(t)||_inf for admissible data: 2(1+sqrt2)||u0||_2 + 4 kappa/3."""
    return 2.0 * (1.0 + np.sqrt(2.0)) * u0_l2 + 4.0 * kappa / 3.0


def _march(u0s: list[Field], config: EvolutionConfig, on_frame) -> dict[int, BlowUpError]:
    """The stepping loop: evolve states that share one grid as a single (m, n) stack.

    Each stored frame of each live row goes to on_frame(i, t, samples), i the
    row's index in u0s, every observer_stride steps and at t = 0 and the final
    time; samples is a fresh copy, never a buffer the loop writes afterwards.
    Every state keeps its own guard, 10 sup_bound(||u0||_2): one that breaches
    it leaves the stack while the others go on, and the result maps its index
    to its BlowUpError. Rows evolve exactly as they would alone.
    """
    grid = u0s[0].grid
    if any(u0.grid != grid for u0 in u0s):
        raise ValueError("stacked states must share one grid")
    n_steps = config.steps
    dt = config.t_end / n_steps
    symbols = _flux_symbols(grid, config.kappa, config.dealias)

    lost: dict[int, BlowUpError] = {}
    rows = np.arange(len(u0s))  # index in u0s of each stack row
    guard = np.array([10.0 * sup_bound(u0.l2_norm(), config.kappa) for u0 in u0s])

    def record(t: float, u: np.ndarray) -> None:
        for i, samples in zip(rows, u.copy().reshape(rows.size, -1)):
            on_frame(int(i), t, samples)

    u = np.stack([u0.samples for u0 in u0s])
    if len(u0s) == 1:
        u = u[0]  # one state steps as a 1-D array: a stacked axis adds call overhead to every FFT and product
    ws = _Workspace(u.shape)
    u_hat = _rfft(u, 1.0, out=np.empty_like(ws.r))
    record(0.0, u)
    for step in range(1, n_steps + 1):
        sup = _rk4(u_hat, u, dt, symbols, ws)
        ok = sup <= guard
        if not ok.all():
            for i, s, g in zip(rows[~ok], np.atleast_1d(sup)[~ok], guard[~ok]):
                lost[int(i)] = BlowUpError(f"{_breach(s, g)} at step {step}")
            rows, guard = rows[ok], guard[ok]
            if not rows.size:
                break
            u_hat, u = u_hat[ok], u[ok]
            ws = _Workspace(u.shape)
        if step % config.observer_stride == 0 or step == n_steps:
            record(step * dt, u)
    return lost


def evolve_stack(u0s: list[Field], config: EvolutionConfig) -> list[Trajectory | BlowUpError]:
    """Evolve states that share one grid as a single (m, n) stack; row i of the result belongs to u0s[i].

    Each row is a Trajectory of that state's stored frames, or the BlowUpError
    it raised (see _march).
    """
    if not u0s:
        return []
    out = [Trajectory() for _ in u0s]

    def store(i: int, t: float, samples: np.ndarray) -> None:
        out[i].times.append(t)
        out[i].states.append(Field(u0s[i].grid, samples))

    lost = _march(u0s, config, store)
    return [lost.get(i, traj) for i, traj in enumerate(out)]


def evolve(u0: Field, config: EvolutionConfig, on_frame) -> Trajectory:
    """Evolve u0 to t_end, handing on_frame(t, samples) a frame every observer_stride steps and at t = 0 and t_end.

    evolve keeps no frame; it returns an empty Trajectory only because
    perfbench/tracing.py reads its len(times). Raises BlowUpError naming the
    step at which the state breached its guard, after the frames before it.
    """
    lost = _march([u0], config, lambda _, t, samples: on_frame(t, samples))
    if lost:
        raise lost[0]
    return Trajectory()


def check_w_positivity(u0: Field, kappa: float) -> dict:
    """w0 = u0 - u0_xx + 2 kappa/3 on the grid; ok iff min >= 0."""
    w = u0.samples - derivative(u0, 2).samples + 2.0 * kappa / 3.0
    m = float(np.min(w))
    return {"min_value": m, "ok": m >= 0.0}
