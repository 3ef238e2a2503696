"""Command-line entry point.

Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .diagnostics import psi_derivative_bounds_check
from .evolution import evolve
from .grid import make_grid
from .harness import Scenario, ScenarioError, build_initial_state, run_stability, run_sweep
from .invariants import dS_dc_closed, momentum_S, hamiltonian_H, dH_dc_closed
from .io import load_state, save_state, save_trajectory_binary, save_trajectory_csv
from .linearized import assemble_L, constrained_theta, eigen_report
from .modulation import DecompositionError, ProfileCache, decompose, initial_guess
from .soliton import SolitonParams, build_profile, sample_on_grid


def _load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return Scenario.from_json(fh.read())


def _cmd_soliton(args) -> int:
    prof = build_profile(SolitonParams(args.c, args.kappa), args.tol)
    with open(args.out, "w") as fh:
        fh.write(prof.to_json())
    print(f"profile c={args.c} kappa={args.kappa}: amplitude={prof.amplitude:.6f} "
          f"decay={prof.decay_rate:.6f} residual={prof.first_integral_residual():.3e}")
    return 0


def _cmd_evolve(args) -> int:
    scenario = _load_scenario(args.config)
    cache = ProfileCache(scenario.kappa)
    u0, info = build_initial_state(scenario, cache)
    traj = evolve(u0, scenario.evolution_config())
    outdir = args.out or scenario.outputs or "."
    os.makedirs(outdir, exist_ok=True)
    save_trajectory_csv(traj, os.path.join(outdir, "snapshots.csv"))
    save_trajectory_binary(traj, os.path.join(outdir, "frames.bin"), os.path.join(outdir, "frames.json"))
    save_state(traj.states[-1], os.path.join(outdir, "final_state.json"))
    print(f"evolved to t={traj.times[-1]} ({len(traj.times)} frames, alpha_used={info['alpha_used']})")
    return 0


def _cmd_spectrum(args) -> int:
    prof = build_profile(SolitonParams(args.c, args.kappa))
    grid = make_grid(args.n, args.period)
    op = assemble_L(prof, grid)
    rep = eigen_report(op, prof)
    theta = constrained_theta(op, prof)
    doc = {
        "neg_eigenvalue": rep.neg_eigenvalue,
        "neg_count": rep.neg_count,
        "kernel_eigenvalue": rep.kernel_eigenvalue,
        "kernel_overlap": rep.kernel_overlap,
        "ess_gap_proxy": rep.ess_gap_proxy,
        "theta": theta,
        "operator_norm": rep.operator_norm,
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text)
    if args.eigpairs:
        from scipy.linalg import eigh

        vals, vecs = eigh(op.matrix)
        k = min(args.k, grid.n)
        with open(args.eigpairs, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eigenvalue"] + [f"v_{i}" for i in range(grid.n)])
            for i in range(k):
                writer.writerow([vals[i]] + vecs[:, i].tolist())
    ok = rep.neg_count == 1 and rep.kernel_overlap > 0.999 and theta > 0
    return 0 if ok else 1


def _cmd_decompose(args) -> int:
    u = load_state(args.state)
    cache = ProfileCache(args.kappa)
    try:
        speeds, positions = initial_guess(u, args.n_waves, args.kappa)
        st = decompose(u, speeds, positions, args.kappa, cache=cache)
    except (ValueError, DecompositionError) as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return 1
    doc = {
        "speeds": st.speeds.tolist(),
        "positions": st.positions.tolist(),
        "residual_norm": st.residual_norm,
        "ortho_residual": st.ortho_residual.tolist(),
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text)
    return 0


def _cmd_check_invariants(args) -> int:
    speeds = [float(c) for c in args.speeds.split(",")]
    kappa = args.kappa
    worst = 0.0
    print(f"{'c':>8} {'kappa':>8} {'dS/dc closed':>14} {'dS/dc FD':>14} {'rel err':>10}")
    for c in speeds:
        closed = dS_dc_closed(c, kappa)
        dc = 1e-4 * c
        nu = np.sqrt(1.0 - 2.0 * kappa / (c - 2 * dc))
        period = 2.0 * (20.0 / nu)
        grid = make_grid(args.n, period)

        def s_of(cc: float) -> float:
            return momentum_S(sample_on_grid(build_profile(SolitonParams(cc, kappa)), grid))

        d1 = (s_of(c + dc) - s_of(c - dc)) / (2 * dc)
        d2 = (s_of(c + dc / 2) - s_of(c - dc / 2)) / dc
        fd = (4.0 * d2 - d1) / 3.0
        rel = abs(fd / closed - 1.0)
        worst = max(worst, rel)
        print(f"{c:8.3f} {kappa:8.3f} {closed:14.8f} {fd:14.8f} {rel:10.2e}")
    return 0 if worst <= 1e-4 else 1


def _cmd_stability(args) -> int:
    scenario = _load_scenario(args.config)
    result = run_stability(scenario, outputs=args.out)
    print(json.dumps(result.summary(), indent=2))
    return 0 if result.summary()["apriori_all_ok"] else 1


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.config)
    alphas = [float(a) for a in args.alphas.split(",")]
    seps = [float(l) for l in args.separations.split(",")]
    result = run_sweep(scenario, alphas, seps, parallelism=args.parallelism)
    doc = {
        "fitted_amplitude": result.fitted_amplitude,
        "gamma0": result.gamma0,
        "fit_residual": result.fit_residual,
        "rows": result.rows,
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.json"), "w") as fh:
            fh.write(text)
    print(text)
    return 0 if not any(r["failed"] for r in result.rows) else 1


def _cmd_check_psi(args) -> int:
    report = psi_derivative_bounds_check(args.B)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpwavelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("soliton", help="build and export a soliton profile")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_soliton)

    p = sub.add_parser("evolve", help="evolve a scenario and export snapshots")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("spectrum", help="spectral report of the linearized operator")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--period", type=float, default=100.0)
    p.add_argument("--out")
    p.add_argument("--eigpairs", help="CSV path for the lowest k eigenpairs")
    p.add_argument("--k", type=int, default=8)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("decompose", help="modulation decomposition of a saved state")
    p.add_argument("--state", required=True)
    p.add_argument("--n-waves", type=int, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check-invariants", help="closed-form vs finite-difference dS/dc")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--speeds", default="2.5,3,4,5")
    p.add_argument("--n", type=int, default=1024)
    p.set_defaults(func=_cmd_check_invariants)

    p = sub.add_parser("stability", help="run the N-train stability experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("sweep", help="(alpha, L) sweep of stability runs")
    p.add_argument("--config", required=True)
    p.add_argument("--alphas", required=True, help="comma-separated")
    p.add_argument("--separations", required=True, help="comma-separated")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check-psi", help="verify the weight-derivative inequalities")
    p.add_argument("--B", type=float, required=True)
    p.set_defaults(func=_cmd_check_psi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
