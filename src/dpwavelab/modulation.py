"""Decomposition of a state into a modulated soliton train plus an S-orthogonal residual.

The parameters (c_j, x_j) solve the 2N orthogonality conditions

    (eps, R_j)_S = (eps, R_j,x)_S = 0,   eps = u - sum_j R_j,

by a chord iteration: Newton's method that keeps its Jacobian J while every
step shrinks the Newton correction J^{-1} r by CHORD_CONTRACTION, and
otherwise rebuilds it by finite differences.  The parameters drift slowly
from frame to frame, so a `Tracker` hands each frame's Jacobian to the next and a
whole run needs few rebuilds.  Progress and accuracy are measured by the
correction, in the parameters' own units, and not by max|r|: the position of
a wave near c = 2*kappa moves r so little that a residual just below
NEWTON_TOL can leave it 1e-6 off.
Each iterate samples every wave (R_j, R_j,x) once, in one pass; a Jacobian
column bumps one parameter and resamples only its wave.  Positions live on the
periodic circle; profiles are cached by speed while the last two frames use them.
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

# The iteration stops when every orthogonality condition is below this fraction of ||u||_2 ...
NEWTON_TOL = 1e-10
# ... and the Newton correction moves no parameter further than this, or has stopped contracting
# (the floor that rounding and the cache's 1e-10 speed granularity set).
STEP_TOL = 1e-9
# A Jacobian is kept while each step shrinks the Newton correction to at most this fraction of the last one.
CHORD_CONTRACTION = 0.1
# Iterations after which a decomposition that has not converged raises DecompositionError.
MAX_ITER = 30


class DecompositionError(RuntimeError):
    """Newton failure; carries the last iterate for post-mortem."""

    def __init__(self, message: str, speeds=None, positions=None):
        super().__init__(message)
        self.speeds = speeds
        self.positions = positions


class ProfileCache:
    """Profiles keyed by speed rounded to 1e-10 (kappa fixed per cache), held while recent frames look them up.

    next_frame ends a frame and drops every profile that neither that frame nor
    the one before looked up, so the cache holds a run's working set, about 4N
    profiles of about 117 KB each, whatever the frame count.  A converged speed
    often returns to a key two frames later, so a frame still finds the profiles
    of the two frames before it.  Each profile is built at its key's speed, so
    the wave sampled for a speed depends only on that speed, not on lookup order
    or evictions; speeds closer than the 1e-10 granularity share one profile.
    """

    def __init__(self, kappa: float):
        self.kappa = kappa
        self.builds = 0
        self._frame = 0
        self._store: dict[int, SolitonProfile] = {}
        self._last_use: dict[int, int] = {}  # key -> the frame that last looked it up

    @property
    def cached(self) -> int:
        """Profiles held now; a truth test on the cache stays true when it is empty."""
        return len(self._store)

    def get(self, c: float) -> SolitonProfile:
        key = int(round(c / 1e-10))
        prof = self._store.get(key)
        if prof is None:
            prof = self._store[key] = build_profile(SolitonParams(key / 1e10, self.kappa))
            self.builds += 1
        self._last_use[key] = self._frame
        return prof

    def next_frame(self) -> None:
        """End the current frame: drop every profile that neither it nor the frame before looked up."""
        stale = [key for key, frame in self._last_use.items() if frame < self._frame - 1]
        for key in stale:
            del self._store[key], self._last_use[key]
        self._frame += 1


@dataclass(frozen=True)
class ModulationState:
    speeds: np.ndarray
    positions: np.ndarray
    residual: Field
    residual_norm: float
    ortho_residual: np.ndarray
    iterations: int
    refreshes: int  # finite-difference Jacobians built by this decomposition
    jacobian: np.ndarray | None  # the last one used, for the next frame's chord


def train_field(grid: PeriodicGrid, speeds, positions, cache: ProfileCache) -> Field:
    total = np.zeros(grid.n)
    for c, x in zip(speeds, positions):
        total += sample_on_grid(cache.get(c), grid, x).samples
    return Field(grid, total)


def _remainder(u: Field, waves) -> Field:
    """eps = u - sum_j R_j from waves = [(R_j, R_j,x)], summed in train_field's order."""
    total = np.zeros(u.grid.n)
    for r, _ in waves:
        total += r.samples
    return u - Field(u.grid, total)


def orthogonality_residual(u: Field, waves) -> np.ndarray:
    """2N-vector [ (eps,R_1)_S, ..., (eps,R_Nx)_S ] from waves = [(R_j, R_j,x)]."""
    eps = _remainder(u, waves)
    return np.array([s_inner(eps, f) for wave in waves for f in wave])


def initial_guess(u: Field, n_waves: int, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions from parabolic-refined dominant maxima at least period/(4 n_waves) apart, speeds from peak amplitudes."""
    samples = u.samples
    grid = u.grid
    min_gap_nodes = max(1, int(grid.period / (4.0 * n_waves) / grid.h))

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


def decompose(u: Field, speeds0, positions0, cache: ProfileCache, jacobian: np.ndarray | None = None) -> ModulationState:
    """Solve the orthogonality system from the given guess by a chord iteration; kappa is the cache's.

    The given Jacobian (typically the previous frame's) is kept while every
    step shrinks the Newton correction to CHORD_CONTRACTION of the last one.
    A finite-difference Jacobian is built at the current iterate when none is
    given, after a step that contracts less, and in place of a chord step that
    leaves the admissible family or does not shrink the correction; such a
    step is undone first.  Only a step taken with a freshly built Jacobian
    raises DecompositionError.
    """
    grid = u.grid
    n_waves = len(speeds0)
    theta = np.empty(2 * n_waves)
    theta[0::2] = np.asarray(speeds0, dtype=float)
    theta[1::2] = np.asarray(positions0, dtype=float)
    target = NEWTON_TOL * u.l2_norm()

    def split(th):
        return th[0::2], th[1::2]

    def resample(th, waves, js):
        """waves, with wave j resampled at th for each j in js; the whole iterate is guarded first."""
        s, p = split(th)
        if np.any(s <= 2.0 * cache.kappa):
            raise DecompositionError(f"speed left the admissible family (min {np.min(s):.6g} <= 2*kappa)", s, p)
        waves = list(waves)
        try:
            for j in js:
                waves[j] = sample_dx_on_grid(cache.get(s[j]), grid, p[j])
        except ValueError as exc:
            raise DecompositionError(f"iterate left the resolvable family: {exc}", s, p) from exc
        return waves

    def fd_jacobian(th, waves, r):
        speeds, positions = split(th)
        gaps = grid.gaps(positions)
        gap_scale = np.min(gaps[gaps > 0]) if n_waves > 1 else grid.period / 4.0
        jac = np.empty((2 * n_waves, 2 * n_waves))
        for k in range(2 * n_waves):
            step = 1e-6 * speeds[k // 2] if k % 2 == 0 else 1e-6 * gap_scale
            bumped = th.copy()
            bumped[k] += step
            jac[:, k] = (orthogonality_residual(u, resample(bumped, waves, [k // 2])) - r) / step
        return jac

    def correction(jac, th, r):
        """The Newton correction -jac^{-1} r."""
        try:
            return np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(f"singular modulation Jacobian: {exc}", *split(th)) from exc

    waves = resample(theta, [None] * n_waves, range(n_waves))
    r = orthogonality_residual(u, waves)
    refreshes = 0
    stale = jacobian is None  # build a Jacobian before the next step
    delta = None if stale else correction(jacobian, theta, r)
    for iterations in range(1, MAX_ITER + 1):
        if np.max(np.abs(r)) <= target and (stale or np.max(np.abs(delta)) <= STEP_TOL):
            break
        fresh = stale
        if fresh:
            jacobian = fd_jacobian(theta, waves, r)
            refreshes += 1
            delta = correction(jacobian, theta, r)
        trial = theta + delta
        try:
            trial_waves = resample(trial, waves, range(n_waves))
        except DecompositionError:
            if fresh:
                raise
            stale = True  # undo the chord step
            continue
        r_trial = orthogonality_residual(u, trial_waves)
        delta_trial = correction(jacobian, trial, r_trial)
        contraction = np.max(np.abs(delta_trial)) / np.max(np.abs(delta))
        stale = contraction > CHORD_CONTRACTION
        if not fresh and contraction >= 1.0:
            continue  # undo the chord step
        theta, waves, r, delta = trial, trial_waves, r_trial, delta_trial
    else:
        r_max = np.max(np.abs(r))
        raise DecompositionError(f"Newton did not converge in {MAX_ITER} iterations (|r|_inf={r_max:.3e})", *split(theta))

    speeds, positions = split(theta)
    positions = grid.wrap(positions)
    eps = _remainder(u, waves)
    return ModulationState(
        speeds=speeds.copy(),
        positions=positions,
        residual=eps,
        residual_norm=eps.l2_norm(),
        ortho_residual=r,
        iterations=iterations,
        refreshes=refreshes,
        jacobian=jacobian,
    )


class Tracker:
    """Warm-started decomposition of a run's frames, one at a time in time order, from frame 0's guess.

    The caller knows frame 0's waves (a run's initial speeds and positions), so
    no frame is searched for peaks, which would need them period/(4N) apart.
    Each frame starts its chord iteration from the previous frame's Jacobian.
    Between frames the position guess is advected by the previously tracked
    speeds, so the warm start stays inside the Newton basin even when the
    frame spacing exceeds the soliton width.  Each decomposition ends a frame
    of the profile cache.
    """

    def __init__(self, speeds0, positions0, cache: ProfileCache):
        self._cache = cache
        self._guess = (np.asarray(speeds0, dtype=float), np.asarray(positions0, dtype=float))
        self._jacobian = None
        self._t = None  # time of the last tracked frame

    def step(self, t: float, frame: Field) -> ModulationState:
        """Decompose the frame at time t, the next after the last one tracked."""
        speeds, positions = self._guess
        if self._t is not None:
            positions = positions + speeds * (t - self._t)
        try:
            st = decompose(frame, speeds, positions, self._cache, jacobian=self._jacobian)
        except DecompositionError as exc:
            raise DecompositionError(f"tracking failed at t={t}: {exc}", exc.speeds, exc.positions) from exc
        self._cache.next_frame()
        self._guess, self._jacobian, self._t = (st.speeds, st.positions), st.jacobian, t
        return st


def track(trajectory, speeds0, positions0, cache: ProfileCache) -> list[ModulationState]:
    """Every stored frame of a trajectory through one Tracker; aborts on the first failure."""
    tracker = Tracker(speeds0, positions0, cache)
    return [tracker.step(t, frame) for t, frame in zip(trajectory.times, trajectory.states)]
