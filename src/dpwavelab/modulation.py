"""Decomposition of a state into a modulated soliton train plus an S-orthogonal residual.

The parameters (c_j, x_j) solve the 2N orthogonality conditions

    (eps, R_j)_S = (eps, R_j,x)_S = 0,   eps = u - sum_j R_j,

by Newton iteration with a finite-difference Jacobian.  Positions live on the
periodic circle; profiles are cached by speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, PeriodicGrid, s_inner
from .soliton import (
    SolitonParams,
    SolitonProfile,
    build_profile,
    sample_dx_on_grid,
    sample_on_grid,
    speed_from_amplitude,
)


class DecompositionError(RuntimeError):
    """Newton failure; carries the last iterate for post-mortem."""

    def __init__(self, message: str, speeds=None, positions=None):
        super().__init__(message)
        self.speeds = speeds
        self.positions = positions


class ProfileCache:
    """Profiles keyed by speed rounded to 1e-10 (kappa fixed per cache)."""

    def __init__(self, kappa: float, tol: float = 1e-10):
        self.kappa = kappa
        self.tol = tol
        self._store: dict[int, SolitonProfile] = {}

    def get(self, c: float) -> SolitonProfile:
        key = int(round(c / 1e-10))
        prof = self._store.get(key)
        if prof is None:
            prof = build_profile(SolitonParams(c, self.kappa), self.tol)
            self._store[key] = prof
        return prof


@dataclass(frozen=True)
class ModulationState:
    speeds: np.ndarray
    positions: np.ndarray
    residual: Field
    residual_norm: float
    ortho_residual: np.ndarray
    iterations: int


def periodic_gap(a: float, b: float, period: float) -> float:
    """Forward distance from a to b along the circle, in [0, period)."""
    return float(np.mod(b - a, period))


def train_field(grid: PeriodicGrid, speeds, positions, cache: ProfileCache) -> Field:
    total = np.zeros(grid.n)
    for c, x in zip(speeds, positions):
        total += sample_on_grid(cache.get(c), grid, x).samples
    return Field(grid, total)


def orthogonality_residual(u: Field, speeds, positions, kappa: float, cache: ProfileCache | None = None) -> np.ndarray:
    """2N-vector [ (eps,R_1)_S, (eps,R_1x)_S, ..., (eps,R_Nx)_S ]."""
    cache = cache or ProfileCache(kappa)
    eps = u - train_field(u.grid, speeds, positions, cache)
    out = np.empty(2 * len(speeds))
    for j, (c, x) in enumerate(zip(speeds, positions)):
        prof = cache.get(c)
        out[2 * j] = s_inner(eps, sample_on_grid(prof, u.grid, x))
        out[2 * j + 1] = s_inner(eps, sample_dx_on_grid(prof, u.grid, x))
    return out


def initial_guess(u: Field, n_waves: int, kappa: float, min_separation: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Positions from parabolic-refined dominant maxima, speeds from peak amplitudes."""
    samples = u.samples
    grid = u.grid
    if min_separation is None:
        min_separation = grid.period / (4.0 * n_waves)
    min_gap_nodes = max(1, int(min_separation / grid.h))

    is_max = (samples > np.roll(samples, 1)) & (samples >= np.roll(samples, -1))
    candidates = np.flatnonzero(is_max)
    candidates = candidates[np.argsort(samples[candidates])[::-1]]

    floor = 0.05 * np.max(samples)
    chosen: list[int] = []
    for i in candidates:
        if samples[i] < floor:
            break
        if all(min(abs(i - j), grid.n - abs(i - j)) >= min_gap_nodes for j in chosen):
            chosen.append(int(i))
        if len(chosen) == n_waves:
            break
    if len(chosen) < n_waves:
        raise ValueError(f"found only {len(chosen)} separated peaks, need {n_waves}")

    positions = []
    speeds = []
    for i in chosen:
        ym, y0, yp = samples[i - 1], samples[i], samples[(i + 1) % grid.n]
        denom = ym - 2.0 * y0 + yp
        delta = 0.5 * (ym - yp) / denom if denom != 0 else 0.0
        positions.append(grid.nodes[i] + delta * grid.h)
        amp = y0 - 0.25 * (ym - yp) * delta
        speeds.append(speed_from_amplitude(float(amp), kappa))
    order = np.argsort(speeds)
    return np.asarray(speeds)[order], np.asarray(positions)[order]


def decompose(
    u: Field,
    speeds0,
    positions0,
    kappa: float,
    tol: float = 1e-10,
    cache: ProfileCache | None = None,
    max_iter: int = 30,
) -> ModulationState:
    """Newton-solve the orthogonality system from the given guess."""
    cache = cache or ProfileCache(kappa)
    grid = u.grid
    period = grid.period
    n_waves = len(speeds0)
    theta = np.empty(2 * n_waves)
    theta[0::2] = np.asarray(speeds0, dtype=float)
    theta[1::2] = np.asarray(positions0, dtype=float)
    u_norm = u.l2_norm()
    target = tol * u_norm

    def split(th):
        return th[0::2], th[1::2]

    def residual(th):
        s, p = split(th)
        if np.any(s <= 2.0 * kappa):
            raise DecompositionError(
                f"speed left the admissible family (min {np.min(s):.6g} <= 2*kappa)", s, p
            )
        try:
            return orthogonality_residual(u, s, p, kappa, cache)
        except ValueError as exc:
            raise DecompositionError(f"iterate left the resolvable family: {exc}", s, p) from exc

    r = residual(theta)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(r)) <= target:
            break
        speeds, positions = split(theta)
        gaps = [periodic_gap(positions[j], positions[(j + 1) % n_waves], period) for j in range(n_waves)]
        gap_scale = min(g for g in gaps if g > 0) if n_waves > 1 else period / 4.0
        jac = np.empty((2 * n_waves, 2 * n_waves))
        for k in range(2 * n_waves):
            step = 1e-6 * speeds[k // 2] if k % 2 == 0 else 1e-6 * gap_scale
            bumped = theta.copy()
            bumped[k] += step
            jac[:, k] = (residual(bumped) - r) / step
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            s, p = split(theta)
            raise DecompositionError(f"singular modulation Jacobian: {exc}", s, p) from exc
        theta = theta + delta
        r = residual(theta)
    else:
        s, p = split(theta)
        raise DecompositionError(
            f"Newton did not converge in {max_iter} iterations (|r|_inf={np.max(np.abs(r)):.3e})", s, p
        )

    speeds, positions = split(theta)
    positions = np.mod(positions + 0.5 * period, period) - 0.5 * period
    eps = u - train_field(grid, speeds, positions, cache)
    return ModulationState(
        speeds=speeds.copy(),
        positions=positions,
        residual=eps,
        residual_norm=eps.l2_norm(),
        ortho_residual=r,
        iterations=iterations,
    )


def track(trajectory, n_waves: int, kappa: float, tol: float = 1e-10, cache: ProfileCache | None = None) -> list[ModulationState]:
    """Warm-started decomposition of every stored frame; aborts on first failure.

    Between frames the position guess is advected by the previously tracked
    speeds, so the warm start stays inside the Newton basin even when the
    frame spacing exceeds the soliton width.
    """
    cache = cache or ProfileCache(kappa)
    states: list[ModulationState] = []
    guess = None
    t_prev = None
    for t, frame in zip(trajectory.times, trajectory.states):
        if guess is None:
            guess = initial_guess(frame, n_waves, kappa)
        else:
            guess = (guess[0], guess[1] + guess[0] * (t - t_prev))
        try:
            st = decompose(frame, guess[0], guess[1], kappa, tol, cache)
        except DecompositionError as exc:
            raise DecompositionError(
                f"tracking failed at t={t}: {exc}", exc.speeds, exc.positions
            ) from exc
        states.append(st)
        guess = (st.speeds, st.positions)
        t_prev = t
    return states

