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
periodic circle.  Each wave is sampled at its speed from its anchor, a profile
built at a speed within ANCHOR_TOL of it (soliton.sample_dx_on_grid), so a run
builds about one profile per wave, and the samples depend on the speed alone,
not on which anchor served them, to within rounding.
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
# (the floor that rounding sets).
STEP_TOL = 1e-9
# A Jacobian is kept while each step shrinks the Newton correction to at most this fraction of the last one.
CHORD_CONTRACTION = 0.1
# Iterations after which a decomposition that has not converged raises DecompositionError.
MAX_ITER = 30
# An iterate whose speed is further than this from its wave's anchor re-anchors the wave at that speed;
# the finite-difference Jacobian's speed bumps, 1e-6 c, keep the anchor.
ANCHOR_TOL = 1e-6


class DecompositionError(RuntimeError):
    """Newton failure; carries the last iterate for post-mortem."""

    def __init__(self, message: str, speeds=None, positions=None):
        super().__init__(message)
        self.speeds = speeds
        self.positions = positions


class ProfileCache:
    """The profiles of one kappa: kept by exact speed for get, and built uncached for anchors; builds counts both.

    A run looks up only its scenario's N speeds, for its initial state, its
    frozen train and its first frame's anchors, so the cache keeps N profiles of
    about 117 KB each, and its waves hold N anchors more, whatever the frame count.
    """

    def __init__(self, kappa: float):
        self.kappa = kappa
        self.builds = 0
        self._store: dict[float, SolitonProfile] = {}

    @property
    def cached(self) -> int:
        """Profiles kept now; a truth test on the cache stays true when it is empty."""
        return len(self._store)

    def get(self, c: float) -> SolitonProfile:
        """The profile at speed c, built at the first lookup of c and kept."""
        prof = self._store.get(c)
        if prof is None:
            prof = self._store[c] = self.anchor(c)
        return prof

    def anchor(self, c: float) -> SolitonProfile:
        """A new profile at speed c, counted in builds and not kept: its wave holds it while it anchors it."""
        self.builds += 1
        return build_profile(SolitonParams(c, self.kappa))


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
    anchors: tuple[SolitonProfile, ...]  # each wave's anchor at the end, for the next frame


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


def decompose(u: Field, speeds0, positions0, cache: ProfileCache, jacobian: np.ndarray | None = None,
              anchors=None) -> ModulationState:
    """Solve the orthogonality system from the given guess by a chord iteration; kappa is the cache's.

    The given Jacobian (typically the previous frame's) is kept while every
    step shrinks the Newton correction to CHORD_CONTRACTION of the last one.
    A finite-difference Jacobian is built at the current iterate when none is
    given, after a step that contracts less, and in place of a chord step that
    leaves the admissible family or does not shrink the correction; such a
    step is undone first.  Only a step taken with a freshly built Jacobian
    raises DecompositionError.  Each wave starts from its given anchor
    (typically the previous frame's), or from the cache's profile at its
    starting speed.
    """
    grid = u.grid
    n_waves = len(speeds0)
    theta = np.empty(2 * n_waves)
    theta[0::2] = np.asarray(speeds0, dtype=float)
    theta[1::2] = np.asarray(positions0, dtype=float)
    target = NEWTON_TOL * u.l2_norm()
    anchors = [None] * n_waves if anchors is None else anchors

    def split(th):
        return th[0::2], th[1::2]

    def resample(th, waves, anchors, js, reanchor=True):
        """(waves, anchors), with wave j resampled at th for each j in js from its anchor: the cache's profile
        at its speed when it has none, a new one when reanchor is set and its speed is further than ANCHOR_TOL
        from the anchor's. The whole iterate is guarded first."""
        s, p = split(th)
        if np.any(s <= 2.0 * cache.kappa):
            raise DecompositionError(f"speed left the admissible family (min {np.min(s):.6g} <= 2*kappa)", s, p)
        waves, anchors = list(waves), list(anchors)
        try:
            for j in js:
                if anchors[j] is None:
                    anchors[j] = cache.get(s[j])
                elif reanchor and abs(s[j] - anchors[j].params.c) > ANCHOR_TOL:
                    anchors[j] = cache.anchor(s[j])
                waves[j] = sample_dx_on_grid(anchors[j], grid, p[j], s[j])
        except ValueError as exc:
            raise DecompositionError(f"iterate left the resolvable family: {exc}", s, p) from exc
        return waves, anchors

    def fd_jacobian(th, waves, anchors, r):
        speeds, positions = split(th)
        gaps = grid.gaps(positions)
        gap_scale = np.min(gaps[gaps > 0]) if n_waves > 1 else grid.period / 4.0
        jac = np.empty((2 * n_waves, 2 * n_waves))
        for k in range(2 * n_waves):
            step = 1e-6 * speeds[k // 2] if k % 2 == 0 else 1e-6 * gap_scale
            bumped = th.copy()
            bumped[k] += step
            bumped_waves = resample(bumped, waves, anchors, [k // 2], reanchor=False)[0]
            jac[:, k] = (orthogonality_residual(u, bumped_waves) - r) / step
        return jac

    def correction(jac, th, r):
        """The Newton correction -jac^{-1} r."""
        try:
            return np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(f"singular modulation Jacobian: {exc}", *split(th)) from exc

    waves, anchors = resample(theta, [None] * n_waves, anchors, range(n_waves))
    r = orthogonality_residual(u, waves)
    refreshes = 0
    stale = jacobian is None  # build a Jacobian before the next step
    delta = None if stale else correction(jacobian, theta, r)
    for iterations in range(1, MAX_ITER + 1):
        if np.max(np.abs(r)) <= target and (stale or np.max(np.abs(delta)) <= STEP_TOL):
            break
        fresh = stale
        if fresh:
            jacobian = fd_jacobian(theta, waves, anchors, r)
            refreshes += 1
            delta = correction(jacobian, theta, r)
        trial = theta + delta
        try:
            trial_waves, trial_anchors = resample(trial, waves, anchors, range(n_waves))
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
        theta, waves, anchors, r, delta = trial, trial_waves, trial_anchors, r_trial, delta_trial
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
        anchors=tuple(anchors),
    )


class Tracker:
    """Warm-started decomposition of a run's frames, one at a time in time order, from frame 0's guess.

    The caller knows frame 0's waves (a run's initial speeds and positions), so
    no frame is searched for peaks, which would need them period/(4N) apart.
    Each frame starts its chord iteration from the previous frame's Jacobian
    and anchors, so a wave re-anchors only when its speed drifts more than
    ANCHOR_TOL from the speed it was anchored at, which in frame 0 is an
    iterate near its tracked speed.  Between frames the position guess is
    advected by the previously tracked speeds, so the warm start stays inside
    the Newton basin even when the frame spacing exceeds the soliton width.
    """

    def __init__(self, speeds0, positions0, cache: ProfileCache):
        self._cache = cache
        self._guess = (np.asarray(speeds0, dtype=float), np.asarray(positions0, dtype=float))
        self._jacobian = self._anchors = None
        self._t = None  # time of the last tracked frame

    def step(self, t: float, frame: Field) -> ModulationState:
        """Decompose the frame at time t, the next after the last one tracked."""
        speeds, positions = self._guess
        if self._t is not None:
            positions = positions + speeds * (t - self._t)
        try:
            st = decompose(frame, speeds, positions, self._cache, jacobian=self._jacobian, anchors=self._anchors)
        except DecompositionError as exc:
            raise DecompositionError(f"tracking failed at t={t}: {exc}", exc.speeds, exc.positions) from exc
        self._guess, self._jacobian, self._anchors, self._t = (st.speeds, st.positions), st.jacobian, st.anchors, t
        return st


def track(trajectory, speeds0, positions0, cache: ProfileCache) -> list[ModulationState]:
    """Every stored frame of a trajectory through one Tracker; aborts on the first failure."""
    tracker = Tracker(speeds0, positions0, cache)
    return [tracker.step(t, frame) for t, frame in zip(trajectory.times, trajectory.states)]
