"""Scenario configuration, the end-to-end N-train stability experiment, and (alpha, L) sweeps."""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .diagnostics import WeightConfig, apriori_checks, localized_momentum, midpoints
from .evolution import EvolutionConfig, check_w_positivity, evolve
from .grid import Field, PeriodicGrid, make_grid
from .invariants import hamiltonian_H, momentum_S
from .modulation import ProfileCache, track, train_field
from .soliton import SolitonParams, min_period


class ScenarioError(ValueError):
    """Invalid or hypothesis-violating scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    kappa: float
    speeds: tuple[float, ...]
    separation: float
    alpha: float = 0.0
    perturbation_kind: str = "bump"  # bump | mode | none
    seed: int = 0
    grid_n: int = 1024
    grid_period: float | None = None  # None: auto-sized
    dt: float | None = 0.01
    cfl: float | None = None
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
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise ScenarioError(f"speeds must be strictly increasing, got {speeds}")
        if not speeds[0] > 2.0 * self.kappa > 0.0:
            raise ScenarioError(f"hypothesis 0 < 2*kappa < c_1 violated: kappa={self.kappa}, c_1={speeds[0]}")
        if self.alpha < 0:
            raise ScenarioError(f"alpha must be >= 0, got {self.alpha}")
        if self.perturbation_kind not in ("bump", "mode", "none"):
            raise ScenarioError(f"unknown perturbation kind {self.perturbation_kind!r}")
        if len(speeds) > 1 and not self.separation > 0:
            raise ScenarioError(f"separation must be positive, got {self.separation}")

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
        items = [np.sqrt(1.0 - 2.0 * self.kappa / c1), c1 - 2.0 * self.kappa]
        items += [b - a for a, b in zip(self.speeds, self.speeds[1:])]
        return 0.5 * float(min(items))

    @property
    def weight(self) -> WeightConfig:
        return WeightConfig(B=self.weight_B, sigma0=self.sigma0_value)

    @property
    def gamma0(self) -> float:
        return self.weight.gamma0

    def auto_period(self) -> float:
        if self.grid_period is not None:
            return self.grid_period
        nu_min = np.sqrt(1.0 - 2.0 * self.kappa / self.speeds[0])
        span = (self.n_waves - 1) * self.separation
        drift = (self.speeds[-1] - self.speeds[0]) * self.t_end
        # The slowest wave has the widest tail, so its wrapped-tail period bounds the others.
        p = max(2.0 * span + 20.0 / nu_min + drift, min_period(SolitonParams(self.speeds[0], self.kappa)))
        return float(np.ceil(p / 10.0) * 10.0)

    def grid(self) -> PeriodicGrid:
        return make_grid(self.grid_n, self.auto_period())

    def evolution_config(self) -> EvolutionConfig:
        return EvolutionConfig(
            kappa=self.kappa,
            t_end=self.t_end,
            dt=self.dt,
            cfl=self.cfl,
            dealias=self.dealias,
            observer_stride=self.observer_stride,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        doc = json.loads(text)
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
            d = np.mod(x - center + 0.5 * grid.period, grid.period) - 0.5 * grid.period
            p += amp * np.exp(-((d / width) ** 2))
    elif scenario.perturbation_kind == "mode":
        p = np.zeros(grid.n)
        for m in range(1, 5):
            p += rng.uniform(0.2, 1.0) * np.cos(2.0 * np.pi * m * x / grid.period + rng.uniform(0, 2 * np.pi))
    else:
        return np.zeros(grid.n)
    return p / np.sqrt(grid.h * np.sum(p**2))


def build_initial_state(scenario: Scenario, cache: ProfileCache | None = None) -> tuple[Field, dict]:
    """Train plus alpha * unit perturbation; alpha is halved until w0 >= 0 on the grid."""
    cache = cache or ProfileCache(scenario.kappa)
    grid = scenario.grid()
    train = train_field(grid, scenario.speeds, scenario.positions0, cache)
    p = _unit_perturbation(scenario, grid)

    alpha = scenario.alpha
    while True:
        u0 = Field(grid, train.samples + alpha * p)
        w = check_w_positivity(u0, scenario.kappa)
        if w["ok"] or alpha == 0.0:
            break
        alpha *= 0.5
        if alpha < 1e-12:
            raise ScenarioError(
                f"perturbation cannot be made admissible: w0 min {w['min_value']:.3e} at alpha {alpha:.3e}"
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
    times: list[float]
    records: list[dict]
    sup_error: float
    init_info: dict = field(default_factory=dict)
    monotonicity: dict = field(default_factory=dict)

    def summary(self) -> dict:
        mono_max = {
            f"I_{j}_max_increase": (max(v) if v else 0.0) for j, v in self.monotonicity.get("series", {}).items()
        }
        return {
            "sup_error": self.sup_error,
            "max_s_drift": max(abs(r["s_drift"]) for r in self.records),
            "max_h_drift": max(abs(r["h_drift"]) for r in self.records),
            "apriori_all_ok": all(r["linfty_ok"] and r["slope_ok"] and r["sup_ok"] for r in self.records),
            **self.init_info,
            **mono_max,
        }


def run_stability(scenario: Scenario, outputs: str | None = None, cache: ProfileCache | None = None) -> StabilityResult:
    """Evolve the scenario and assemble the full diagnostic record series.

    The train error uses the frozen initial speeds and the modulated positions.
    """
    cache = cache or ProfileCache(scenario.kappa)
    u0, info = build_initial_state(scenario, cache)
    if not info["w0_ok"]:
        raise ScenarioError(f"initial data inadmissible: w0 min {info['w0_min']:.3e} < 0")
    grid = u0.grid

    traj = evolve(u0, scenario.evolution_config(), observers=None)
    states = track(traj, scenario.n_waves, scenario.kappa, cache=cache)

    s0 = momentum_S(u0)
    h0 = hamiltonian_H(u0, scenario.kappa)
    records = []
    for t, frame, st in zip(traj.times, traj.states, states):
        frozen_train = train_field(grid, scenario.speeds, st.positions, cache)
        err = (frame - frozen_train).l2_norm()
        modulated_train = train_field(grid, st.speeds, st.positions, cache)
        flags = apriori_checks(frame, u0, modulated_train, scenario.kappa)
        row = {
            "t": t,
            "train_error": err,
            "s_drift": momentum_S(frame) / s0 - 1.0,
            "h_drift": hamiltonian_H(frame, scenario.kappa) / h0 - 1.0 if h0 != 0 else 0.0,
            "residual_norm": st.residual_norm,
        }
        for j, (c, x) in enumerate(zip(st.speeds, st.positions), start=1):
            row[f"c_{j}"] = c
            row[f"x_{j}"] = x
        if scenario.n_waves > 1:
            ms = midpoints(st.positions, grid.period)
            for j in range(2, scenario.n_waves + 1):
                row[f"i_{j}"] = localized_momentum(frame, float(ms[j - 2]), scenario.weight_B)
        row.update(flags)
        records.append(row)

    mono: dict = {"series": {}, "times": traj.times}
    if scenario.n_waves > 1:
        for j in range(2, scenario.n_waves + 1):
            vals = [r[f"i_{j}"] for r in records]
            mono["series"][j] = [v - vals[0] for v in vals]

    result = StabilityResult(
        scenario=scenario,
        times=list(traj.times),
        records=records,
        sup_error=max(r["train_error"] for r in records),
        init_info=info,
        monotonicity=mono,
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


def _sweep_one(args: tuple) -> dict:
    base, alpha, separation = args
    scenario = replace(base, alpha=alpha, separation=separation, outputs=None)
    try:
        res = run_stability(scenario)
        return {
            "alpha": alpha,
            "L": separation,
            "sup_error": res.sup_error,
            "w0_ok": res.init_info["w0_ok"],
            "alpha_used": res.init_info["alpha_used"],
            "failed": False,
        }
    except Exception as exc:  # individual failures recorded, sweep continues
        return {"alpha": alpha, "L": separation, "sup_error": float("nan"), "w0_ok": False, "failed": True, "error": str(exc)}


@dataclass
class SweepResult:
    rows: list[dict]
    fitted_amplitude: float
    gamma0: float
    fit_residual: float


def run_sweep(base: Scenario, alphas, separations, parallelism: int = 1) -> SweepResult:
    """run_stability over the (alpha, L) grid; fit sup_error ~ A (alpha + exp(-gamma0 L / 2))."""
    alphas = list(alphas)
    separations = list(separations)
    if not alphas or not separations:
        raise ScenarioError("sweep lists must be non-empty")
    jobs = [(base, a, L) for a in alphas for L in separations]
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(_sweep_one, jobs))
    else:
        rows = [_sweep_one(j) for j in jobs]
    rows.sort(key=lambda r: (r["alpha"], r["L"]))

    gamma0 = base.gamma0
    good = [r for r in rows if not r["failed"]]
    if len(good) < 4:
        raise RuntimeError(f"sweep fit needs >= 4 successful runs, got {len(good)}")
    m = np.array([r["alpha"] + np.exp(-gamma0 * r["L"] / 2.0) for r in good])
    e = np.array([r["sup_error"] for r in good])
    a_fit = float(np.sum(e * m) / np.sum(m * m))
    resid = float(np.sqrt(np.mean((e - a_fit * m) ** 2)))
    return SweepResult(rows=rows, fitted_amplitude=a_fit, gamma0=gamma0, fit_residual=resid)
