"""Scenario configuration, the end-to-end N-train stability experiment, and (alpha, L) sweeps."""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import numpy.random  # numpy loads it lazily; load it with this module, not in a run
import scipy

from . import __version__
from .diagnostics import apriori_checks, localized_momentum
from .evolution import BlowUpError, EvolutionConfig, check_w_positivity, evolve, evolve_stack
from .grid import Field, PeriodicGrid, make_grid
from .invariants import hamiltonian_H, momentum_S
from .modulation import DecompositionError, ProfileCache, Tracker, track, train_field
from .soliton import SolitonParams, min_period


class ScenarioError(ValueError):
    """Invalid or hypothesis-violating scenario configuration."""


class SweepError(RuntimeError):
    """Too few successful runs for the sweep's least-squares fit."""


class EvolveProcessError(RuntimeError):
    """The process that evolved a stability run ended without its end marker."""


def _json_fits(value, annotation: str) -> bool:
    """Whether a decoded JSON value has the type of a Scenario field annotated, e.g., 'float | None'."""
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    if kind == "tuple[float, ...]":
        return isinstance(value, list) and all(_json_fits(v, "float") for v in value)
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "float":
        return isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max
    return isinstance(value, {"int": int, "str": str, "bool": bool}[kind])


@dataclass(frozen=True)
class Scenario:
    kappa: float
    speeds: tuple[float, ...]
    separation: float
    alpha: float = 0.0
    perturbation_kind: str = "bump"  # bump | mode
    seed: int = 0
    grid_n: int = 1024
    grid_period: float | None = None  # None: auto-sized
    dt: float = 0.01
    t_end: float = 20.0
    observer_stride: int = 100
    dealias: bool = True
    weight_B: float = 4.0
    sigma0: float | None = None  # None: auto from the speed list
    outputs: str | None = None

    def __post_init__(self) -> None:
        speeds = tuple(float(c) for c in self.speeds)
        object.__setattr__(self, "speeds", speeds)
        if len(speeds) < 1:
            raise ScenarioError("at least one speed required")
        if not np.all(np.isfinite(speeds)):
            raise ScenarioError(f"speeds must be finite, got {speeds}")
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise ScenarioError(f"speeds must be strictly increasing, got {speeds}")
        if not speeds[0] > 2.0 * self.kappa > 0.0:
            raise ScenarioError(f"hypothesis 0 < 2*kappa < c_1 violated: kappa={self.kappa}, c_1={speeds[0]}")
        if not 0.0 <= self.alpha < np.inf:
            raise ScenarioError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.perturbation_kind not in ("bump", "mode"):
            raise ScenarioError(f"unknown perturbation kind {self.perturbation_kind!r}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        if not np.isfinite(self.separation) or len(speeds) > 1 and not self.separation > 0:
            raise ScenarioError(f"separation must be finite, and positive for two or more waves, got {self.separation}")
        if not 2.0 < self.weight_B < np.inf:
            raise ScenarioError(f"weight scale weight_B must be finite and exceed 2, got {self.weight_B}")
        if self.sigma0 is not None and not 0 < self.sigma0 < np.inf:
            raise ScenarioError(f"sigma0 must be positive and finite, got {self.sigma0}")
        try:
            self.grid()
            self.evolution_config()
            span, drift, margin = self._geometry()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.grid_period is not None and self.grid_period - span - drift < margin:
            raise ScenarioError(
                f"grid_period {self.grid_period} leaves a seam gap of {self.grid_period - span - drift:.4g} "
                f"at t_end {self.t_end}, below 20/nu_min = {margin:.4g}: the waves would meet across the periodic seam"
            )

    @property
    def n_waves(self) -> int:
        return len(self.speeds)

    @property
    def positions0(self) -> np.ndarray:
        n = self.n_waves
        return (np.arange(n) - 0.5 * (n - 1)) * self.separation

    @property
    def sigma0_value(self) -> float:
        if self.sigma0 is not None:
            return self.sigma0
        c1 = self.speeds[0]
        items = [SolitonParams(c1, self.kappa).nu, c1 - 2.0 * self.kappa]
        items += [b - a for a, b in zip(self.speeds, self.speeds[1:])]
        return 0.5 * float(min(items))

    @property
    def gamma0(self) -> float:
        """Decay rate min(1/(8B), sigma0/8) of the sweep's separation term exp(-gamma0 L / 2)."""
        return min(1.0 / (8.0 * self.weight_B), self.sigma0_value / 8.0)

    def _geometry(self) -> tuple[float, float, float]:
        """Span of the initial train, the fastest wave's gain on the slowest by t_end, and the seam margin
        20/nu_min, twenty decay lengths of the widest tail."""
        nu_min = SolitonParams(self.speeds[0], self.kappa).nu
        return (self.n_waves - 1) * self.separation, (self.speeds[-1] - self.speeds[0]) * self.t_end, 20.0 / nu_min

    def auto_period(self) -> float:
        if self.grid_period is not None:
            return self.grid_period
        span, drift, margin = self._geometry()
        # The slowest wave has the widest tail, so its wrapped-tail period bounds the others.
        p = max(2.0 * span + margin + drift, min_period(SolitonParams(self.speeds[0], self.kappa)))
        return float(np.ceil(p / 10.0) * 10.0)

    def grid(self) -> PeriodicGrid:
        return make_grid(self.grid_n, self.auto_period())

    def evolution_config(self) -> EvolutionConfig:
        return EvolutionConfig(
            kappa=self.kappa,
            t_end=self.t_end,
            dt=self.dt,
            dealias=self.dealias,
            observer_stride=self.observer_stride,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ScenarioError(f"scenario must be a JSON object, got {type(doc).__name__}")
        annotations = {f.name: f.type for f in fields(Scenario)}
        unknown = sorted(set(doc) - set(annotations))
        if unknown:
            raise ScenarioError(f"unknown scenario fields {unknown}")
        for name, value in doc.items():
            if not _json_fits(value, annotations[name]):
                raise ScenarioError(f"scenario field {name!r} must be {annotations[name]}, got {type(value).__name__}")
        try:
            return Scenario(**{k: (tuple(v) if k == "speeds" else v) for k, v in doc.items()})
        except TypeError as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc


def _unit_perturbation(scenario: Scenario, grid: PeriodicGrid) -> np.ndarray:
    rng = np.random.default_rng(scenario.seed)
    x = grid.nodes
    if scenario.perturbation_kind == "bump":
        # Bump centers are anchored to the initial wave positions so that the
        # perturbation seen by each wave is independent of the separation.
        anchors = scenario.positions0
        p = np.zeros(grid.n)
        for i in range(3):
            center = anchors[i % len(anchors)] + rng.uniform(-6.0, 6.0)
            width = rng.uniform(1.5, 3.0)
            amp = rng.uniform(0.3, 1.0)
            p += amp * np.exp(-((grid.wrap(x - center) / width) ** 2))
    else:
        p = np.zeros(grid.n)
        for m in range(1, 5):
            p += rng.uniform(0.2, 1.0) * np.cos(2.0 * np.pi * m * x / grid.period + rng.uniform(0, 2 * np.pi))
    return p / np.sqrt(grid.h * np.sum(p**2))


def build_initial_state(scenario: Scenario, cache: ProfileCache | None = None) -> tuple[Field, dict]:
    """Train plus alpha * unit perturbation; alpha is halved until w0 >= 0 on the grid, ScenarioError below 1e-12."""
    cache = cache or ProfileCache(scenario.kappa)
    grid = scenario.grid()
    train = train_field(grid, scenario.speeds, scenario.positions0, cache)
    p = _unit_perturbation(scenario, grid)

    alpha = scenario.alpha
    while True:
        u0 = Field(grid, train.samples + alpha * p)
        w = check_w_positivity(u0, scenario.kappa)
        if w["ok"]:
            break
        alpha *= 0.5  # at alpha = 0 this raises at once: the train itself is inadmissible
        if alpha < 1e-12:
            raise ScenarioError(
                f"initial data cannot be made admissible: w0 min {w['min_value']:.3e} at alpha {alpha:.3e}"
            )
    info = {
        "alpha_requested": scenario.alpha,
        "alpha_used": alpha,
        "w0_min": w["min_value"],
        "w0_ok": w["ok"],
    }
    return u0, info


@dataclass
class StabilityResult:
    scenario: Scenario
    records: list[dict]
    init_info: dict
    counters: dict

    @property
    def sup_error(self) -> float:
        return max(r["train_error"] for r in self.records)

    def summary(self) -> dict:
        mono_max = {
            f"I_{j}_max_increase": max(r[f"i_{j}"] - self.records[0][f"i_{j}"] for r in self.records)
            for j in range(2, self.scenario.n_waves + 1)
        }
        return {
            "sup_error": self.sup_error,
            "max_s_drift": max(abs(r["s_drift"]) for r in self.records),
            "max_h_drift": max(abs(r["h_drift"]) for r in self.records),
            "apriori_all_ok": all(r["linfty_ok"] and r["slope_ok"] and r["sup_ok"] for r in self.records),
            **self.init_info,
            **mono_max,
            "counters": self.counters,
            "provenance": {"dpwavelab": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        }


def _train_error(scenario: Scenario, frame: Field, st, cache: ProfileCache) -> float:
    """L2 distance of a frame to the frozen train: the initial speeds at the frame's modulated positions."""
    return (frame - train_field(frame.grid, scenario.speeds, st.positions, cache)).l2_norm()


class _Observer:
    """A stability run's per-frame records, each computed when its frame arrives: track the frame,
    compare it with the frozen train and diagnose it."""

    def __init__(self, scenario: Scenario, u0: Field, cache: ProfileCache):
        self.scenario, self.u0, self.cache = scenario, u0, cache
        self.tracker = Tracker(scenario.speeds, scenario.positions0, cache)
        self.s0 = momentum_S(u0)
        self.h0 = hamiltonian_H(u0, scenario.kappa)
        self.records: list[dict] = []
        self.newton_steps = self.refreshes = 0

    def __call__(self, t: float, samples: np.ndarray) -> None:
        scenario, grid = self.scenario, self.u0.grid
        frame = Field(grid, samples)
        st = self.tracker.step(t, frame)
        self.newton_steps += st.iterations - 1
        self.refreshes += st.refreshes
        row = {
            "t": t,
            "train_error": _train_error(scenario, frame, st, self.cache),
            "s_drift": momentum_S(frame) / self.s0 - 1.0,
            "h_drift": hamiltonian_H(frame, scenario.kappa) / self.h0 - 1.0 if self.h0 != 0 else 0.0,
            "residual_norm": st.residual_norm,
            "newton_iters": st.iterations,
            "ortho_residual_max": float(np.max(np.abs(st.ortho_residual))),
        }
        for j, (c, x) in enumerate(zip(st.speeds, st.positions), start=1):
            row[f"c_{j}"] = c
            row[f"x_{j}"] = x
        if scenario.n_waves > 1:
            ms = st.positions[:-1] + 0.5 * grid.gaps(st.positions)[:-1]
            for j, i_j in enumerate(localized_momentum(frame, ms, scenario.weight_B), start=2):
                row[f"i_{j}"] = i_j
        row.update(apriori_checks(frame, self.u0, frame - st.residual, scenario.kappa))
        self.records.append(row)


def _forks() -> bool:
    """Whether a run evolves in a forked child: the platform forks, this process may run on two or
    more CPUs, and it is not a daemon (a pool worker), which may not start children."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return (cpus > 1 and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def _produce(u0: Field, config: EvolutionConfig, receiver, sender) -> None:
    """The child of a forked run: evolve u0 and send each stored frame as (t, samples), then the end marker:
    None, or the BlowUpError that stopped the evolution."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt reaches the parent, which kills this child
    receiver.close()  # so that a send fails, and this child ends, once the parent is gone
    try:
        evolve(u0, config, on_frame=lambda t, samples: sender.send((t, samples)))
    except BlowUpError as exc:
        sender.send(exc)
    else:
        sender.send(None)


def _evolve_forked(u0: Field, config: EvolutionConfig, on_frame) -> None:
    """evolve(u0, config, on_frame) with the evolution in a forked child, while this process runs on_frame
    on each frame as it arrives; the numbers are those of evolving in process.

    The child is killed and reaped however this returns or raises. A child that
    ends without its end marker raises EvolveProcessError.
    """
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_produce, args=(u0, config, receiver, sender), daemon=True)
    child.start()
    sender.close()
    try:
        while True:
            try:
                msg = receiver.recv()
            except EOFError:
                child.join()
                raise EvolveProcessError(f"the evolve phase ended without its end marker: the evolving process "
                                         f"exited with code {child.exitcode}") from None
            if not isinstance(msg, tuple):
                break
            on_frame(*msg)
        if msg is not None:
            raise msg
    finally:
        child.kill()
        child.join()
        receiver.close()


def run_stability(scenario: Scenario, outputs: str | None = None) -> StabilityResult:
    """Prepare the scenario, then evolve it while observing each stored frame as it is produced; persist
    when an output directory is set. The profile cache is fresh.

    The evolution runs in a forked child (_evolve_forked), or in process, frame
    by frame, where _forks says no; the records are the same either way.
    """
    cache = ProfileCache(scenario.kappa)
    u0, info = build_initial_state(scenario, cache)
    config = scenario.evolution_config()
    observe = _Observer(scenario, u0, cache)
    (_evolve_forked if _forks() else evolve)(u0, config, on_frame=observe)
    result = StabilityResult(
        scenario=scenario,
        records=observe.records,
        init_info=info,
        counters={
            "rk4_steps": config.steps,
            "rhs_evals": 4 * config.steps,
            "newton_steps": observe.newton_steps,
            "jacobian_refreshes": observe.refreshes,
            "profile_builds": cache.builds,
            "profiles_cached": cache.cached,
        },
    )
    if outputs or scenario.outputs:
        _persist(result, outputs or scenario.outputs)
    return result


def _persist(result: StabilityResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "scenario.json"), "w") as fh:
        fh.write(result.scenario.to_json())
    with open(os.path.join(outdir, "records.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(result.records[0].keys()))
        writer.writeheader()
        writer.writerows(result.records)
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(result.summary(), fh, indent=2)


# Domain failures of one run: recorded as a failed sweep row, while any other exception propagates.
_RUN_FAILURES = (ScenarioError, BlowUpError, DecompositionError)


def _failed_row(scenario: Scenario, exc: Exception, phase: str) -> dict:
    return {"alpha": scenario.alpha, "L": scenario.separation, "sup_error": float("nan"), "w0_ok": False,
            "failed": True, "error": str(exc), "error_type": type(exc).__name__, "phase": phase}


def _sweep_chunk(scenarios: list[Scenario]) -> list[dict]:
    """Sweep rows of runs on one grid: prepare each, evolve them as one stack, then track each in turn.

    A row keeps only the largest train error, so a run is tracked and compared
    with its frozen train, without the rest of a stability run's records. The
    runs share one profile cache; each profile is built at its key's speed, so
    the samples do not depend on the sharing.
    """
    cache = ProfileCache(scenarios[0].kappa)
    rows: list = [None] * len(scenarios)
    prepared = []
    for i, scenario in enumerate(scenarios):
        try:
            prepared.append((i, *build_initial_state(scenario, cache)))
        except _RUN_FAILURES as exc:
            rows[i] = _failed_row(scenario, exc, "initial_state")
    trajs = evolve_stack([u0 for _, u0, _ in prepared], scenarios[0].evolution_config())
    for (i, u0, info), traj in zip(prepared, trajs):
        scenario = scenarios[i]
        if isinstance(traj, BlowUpError):
            rows[i] = _failed_row(scenario, traj, "evolve")
            continue
        try:
            states = track(traj, scenario.speeds, scenario.positions0, cache)
        except _RUN_FAILURES as exc:
            rows[i] = _failed_row(scenario, exc, "track")
            continue
        errors = [_train_error(scenario, frame, st, cache) for frame, st in zip(traj.states, states)]
        rows[i] = {
            "alpha": scenario.alpha,
            "L": scenario.separation,
            "sup_error": max(errors),
            "w0_ok": info["w0_ok"],
            "alpha_used": info["alpha_used"],
            "failed": False,
        }
    return rows


def _split(items: list, k: int) -> list[list]:
    """items in k contiguous chunks whose sizes differ by at most one."""
    q, r = divmod(len(items), k)
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass
class SweepResult:
    rows: list[dict]
    fitted_amplitude: float
    gamma0: float
    fit_residual: float


def run_sweep(base: Scenario, alphas, separations, parallelism: int = 1) -> SweepResult:
    """Stability runs over the (alpha, L) grid; fit sup_error ~ A (alpha + exp(-gamma0 L / 2)).

    Runs that share a grid are split into min(parallelism, runs) contiguous
    chunks, and each chunk evolves as one stack in one worker; the pool has
    no more workers than chunks. Rows are the same whatever the parallelism.
    """
    alphas = list(alphas)
    separations = list(separations)
    if not alphas or not separations:
        raise ScenarioError("sweep lists must be non-empty")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    # Runs on one grid evolve as one stack; the evolution config is the base's for every run.
    groups: dict[tuple, list[Scenario]] = {}
    for a in alphas:
        for L in separations:
            scenario = replace(base, alpha=a, separation=L, outputs=None)
            groups.setdefault((scenario.grid_n, scenario.auto_period()), []).append(scenario)
    chunks = [chunk for group in groups.values() for chunk in _split(group, min(parallelism, len(group)))]
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=min(parallelism, len(chunks))) as pool:
            rows = [row for chunk_rows in pool.map(_sweep_chunk, chunks) for row in chunk_rows]
    else:
        rows = [row for chunk in chunks for row in _sweep_chunk(chunk)]
    rows.sort(key=lambda r: (r["alpha"], r["L"]))

    gamma0 = base.gamma0
    good = [r for r in rows if not r["failed"]]
    if len(good) < 4:
        raise SweepError(f"sweep fit needs >= 4 successful runs, got {len(good)}")
    m = np.array([r["alpha"] + np.exp(-gamma0 * r["L"] / 2.0) for r in good])
    e = np.array([r["sup_error"] for r in good])
    a_fit = float(np.sum(e * m) / np.sum(m * m))
    resid = float(np.sqrt(np.mean((e - a_fit * m) ** 2)))
    return SweepResult(rows=rows, fitted_amplitude=a_fit, gamma0=gamma0, fit_residual=resid)
