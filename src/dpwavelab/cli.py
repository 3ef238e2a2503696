"""Command-line entry point.

Exit codes: 0 success, 1 check failure or failed run or eigensolve, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .diagnostics import psi_derivative_bounds_check
from .evolution import BlowUpError, evolve
from .grid import Field, make_grid
from .harness import EvolveProcessError, Scenario, ScenarioError, SweepError, build_initial_state, run_stability, run_sweep
from .invariants import dS_dc_closed, dS_dH_dc_fd
from .io import FrameWriter, load_state, save_state
from .linearized import SpectralError, assemble_L, check_eigenpair_count, constrained_theta, eigen_report
from .modulation import DecompositionError, ProfileCache, decompose, initial_guess
from .soliton import SolitonParams, build_profile


def _load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return Scenario.from_json(fh.read())


def _emit(doc: dict, path: str | None = None) -> None:
    """Print doc as indented JSON, and write the same text to path when one is given."""
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    print(text)


def _cmd_soliton(args) -> int:
    prof = build_profile(SolitonParams(args.c, args.kappa), args.tol)
    with open(args.out, "w") as fh:
        fh.write(prof.to_json())
    print(f"profile c={args.c} kappa={args.kappa}: amplitude={prof.params.roots[0]:.6f} "
          f"decay={prof.params.nu:.6f} residual={prof.first_integral_residual():.3e}")
    return 0


def _cmd_evolve(args) -> int:
    scenario = _load_scenario(args.config)
    u0, info = build_initial_state(scenario)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    with FrameWriter(u0.grid, outdir) as frames:
        evolve(u0, scenario.evolution_config(), frames)
    save_state(Field(u0.grid, frames.last), os.path.join(outdir, "final_state.json"))
    print(f"evolved to t={frames.times[-1]} ({len(frames.times)} frames, alpha_used={info['alpha_used']})")
    return 0


def _cmd_spectrum(args) -> int:
    grid = make_grid(args.n, args.period)
    check_eigenpair_count(grid.n, args.k)  # also without --eigpairs, and before any solve
    prof = build_profile(SolitonParams(args.c, args.kappa))
    op = assemble_L(prof, grid)
    rep = eigen_report(op, args.k if args.eigpairs else 4)
    theta = constrained_theta(op)
    _emit({
        "neg_eigenvalue": rep.neg_eigenvalue,
        "neg_count": rep.neg_count,
        "kernel_eigenvalue": rep.kernel_eigenvalue,
        "kernel_overlap": rep.kernel_overlap,
        "ess_gap_proxy": rep.ess_gap_proxy,
        "theta": theta,
        "operator_norm": rep.operator_norm,
    }, args.out)
    if args.eigpairs:
        with open(args.eigpairs, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eigenvalue"] + [f"v_{i}" for i in range(grid.n)])
            for i in range(args.k):
                writer.writerow([rep.eigenvalues[i]] + rep.eigenvectors[i].tolist())
    ok = rep.neg_count == 1 and rep.kernel_overlap > 0.999 and theta > 0
    return 0 if ok else 1


def _cmd_decompose(args) -> int:
    u = load_state(args.state)
    try:
        speeds, positions = initial_guess(u, args.n_waves, args.kappa)
        st = decompose(u, speeds, positions, ProfileCache(args.kappa))
    except (ValueError, DecompositionError) as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return 1
    _emit({
        "speeds": st.speeds.tolist(),
        "positions": st.positions.tolist(),
        "residual_norm": st.residual_norm,
        "ortho_residual": st.ortho_residual.tolist(),
    }, args.out)
    return 0


def _cmd_check_invariants(args) -> int:
    speeds = [float(c) for c in args.speeds.split(",")]
    kappa = args.kappa
    worst = 0.0
    print(f"{'c':>8} {'kappa':>8} {'dS/dc closed':>14} {'dS/dc FD':>14} {'rel err':>10}")
    for c in speeds:
        closed = dS_dc_closed(c, kappa)
        fd, _ = dS_dH_dc_fd(c, kappa, args.n)
        rel = abs(fd / closed - 1.0)
        worst = max(worst, rel)
        print(f"{c!r:>8} {kappa!r:>8} {closed:14.8f} {fd:14.8f} {rel:10.2e}")
    return 0 if worst <= 1e-4 else 1


def _cmd_stability(args) -> int:
    scenario = _load_scenario(args.config)
    summary = run_stability(scenario, outputs=args.out).summary()
    _emit(summary)
    return 0 if summary["apriori_all_ok"] else 1


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.config)
    alphas = [float(a) for a in args.alphas.split(",")]
    seps = [float(l) for l in args.separations.split(",")]
    try:
        result = run_sweep(scenario, alphas, seps, parallelism=args.parallelism)
    except SweepError as exc:
        _emit_sweep({"rows": exc.rows}, args.out)  # the rows, failed ones too, though no fit could run
        raise
    _emit_sweep({
        "fitted_amplitude": result.fitted_amplitude,
        "gamma0": result.gamma0,
        "fit_residual": result.fit_residual,
        "rows": result.rows,
    }, args.out)
    return 0 if not any(r["failed"] for r in result.rows) else 1


def _emit_sweep(doc: dict, outdir: str | None) -> None:
    """Emit a sweep's document, and write it to outdir/sweep.json when an output directory is given."""
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    _emit(doc, outdir and os.path.join(outdir, "sweep.json"))


def _cmd_check_psi(args) -> int:
    report = psi_derivative_bounds_check(args.B)
    _emit(report)
    return 0 if report["ok"] else 1


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpwavelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("soliton", help="build and export a soliton profile")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10, help="table extent: the table ends at phi = tol * amplitude")
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
    p.add_argument("--k", type=int, default=8, help="number of eigenpairs, 1 <= k <= n - 2")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("decompose", help="modulation decomposition of a saved state")
    p.add_argument("--state", required=True)
    p.add_argument("--n-waves", type=_positive_int, required=True)
    p.add_argument("--kappa", type=_positive_float, required=True)
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
    p.add_argument("--parallelism", type=_positive_int, default=1)
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
    except SpectralError as exc:
        print(f"spectral error: {exc}", file=sys.stderr)
        return 1
    except (BlowUpError, DecompositionError, SweepError, EvolveProcessError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
