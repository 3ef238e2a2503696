"""End-to-end acceptance checks for the soliton-train stability laboratory.

Each test prints a single PASS/FAIL verdict line (visible with `pytest -s`
or in captured output) and then asserts, so the printed verdict always
precedes any failure detail.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import PARAM_PAIRS, fitted_tail_decay, random_field
from dpwavelab.diagnostics import psi_derivative_bounds_check
from dpwavelab.evolution import EvolutionConfig, evolve
from dpwavelab.grid import Field, derivative, helmholtz_inverse, integrate, make_grid, s_inner, sqrt_helmholtz_inverse4
from dpwavelab.harness import Scenario, build_initial_state, run_stability, run_sweep
from dpwavelab.invariants import dH_dc_closed, dS_dc_closed, dS_dH_dc_fd, hamiltonian_H, momentum_S
from dpwavelab.linearized import assemble_L, constrained_theta, eigen_report
from dpwavelab.modulation import ProfileCache, decompose, initial_guess, train_field
from dpwavelab.soliton import SolitonParams, build_profile, sample_on_grid

ACCEPT_SCENARIO = Scenario(
    kappa=1.0,
    speeds=(3.0, 5.0),
    separation=60.0,
    alpha=1e-3,
    perturbation_kind="bump",
    seed=3,
    grid_n=1024,
    grid_period=200.0,
    dt=0.01,
    t_end=20.0,
    observer_stride=200,
    weight_B=3.0,
)
SWEEP_ALPHAS = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
SWEEP_SEPARATIONS = [30.0, 45.0, 60.0]


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def stability_run():
    return run_stability(ACCEPT_SCENARIO)


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(ACCEPT_SCENARIO, SWEEP_ALPHAS, SWEEP_SEPARATIONS, parallelism=3)


@pytest.fixture(scope="module")
def spectral_reports(profiles):
    out = {}
    for pair, prof in profiles.items():
        op1 = assemble_L(prof, make_grid(1024, 100.0))
        op2 = assemble_L(prof, make_grid(2048, 100.0))
        out[pair] = (op1, eigen_report(op1), op2, eigen_report(op2))
    return out


def test_criterion_01_profile_correctness(profiles):
    worst_resid = 0.0
    worst_decay = 0.0
    for (c, kappa), prof in profiles.items():
        resid = prof.first_integral_residual() / (1e-8 * c**4)
        nu = np.sqrt(1.0 - 2.0 * kappa / c)
        decay_rel = abs(fitted_tail_decay(prof) - nu) / nu
        worst_resid = max(worst_resid, resid)
        worst_decay = max(worst_decay, decay_rel)
    ok = worst_resid <= 1.0 and worst_decay <= 0.01
    _verdict(
        1,
        "profile correctness",
        ok,
        f"max residual {worst_resid:.3e} of the 1e-8*c^4 budget, max tail-decay rel err {worst_decay:.3e}",
    )


def test_criterion_02_derivative_identity():
    worst_ds = worst_dh = worst_id = 0.0
    for c, kappa in PARAM_PAIRS:
        ds, dh = dS_dH_dc_fd(c, kappa, 1024)
        ds_ref = dS_dc_closed(c, kappa)
        dh_ref = dH_dc_closed(c, kappa)
        worst_ds = max(worst_ds, abs(ds / ds_ref - 1.0))
        worst_dh = max(worst_dh, abs(dh / dh_ref - 1.0))
        worst_id = max(worst_id, abs(dh + c * ds) / abs(dh))
    ok = worst_ds <= 1e-4 and worst_dh <= 1e-4 and worst_id <= 1e-6
    _verdict(
        2,
        "derivative identity",
        ok,
        f"max rel err dS/dc {worst_ds:.3e}, dH/dc {worst_dh:.3e}, identity dH+c*dS {worst_id:.3e}",
    )


def test_criterion_03_solver_fidelity():
    c, kappa, t_end = 3.0, 1.0, 10.0
    prof = build_profile(SolitonParams(c, kappa))
    grid = make_grid(1024, 200.0)
    u0 = sample_on_grid(prof, grid)
    traj = evolve(u0, EvolutionConfig(kappa=kappa, t_end=t_end, dt=0.01, observer_stride=500))
    final = traj.states[-1]

    res = minimize_scalar(
        lambda s: (final - sample_on_grid(prof, grid, center=s)).l2_norm(),
        bounds=(c * t_end - 0.5, c * t_end + 0.5),
        method="bounded",
        options={"xatol": 1e-10},
    )
    rel_l2 = res.fun / u0.l2_norm()
    shift_rel = abs(res.x / (c * t_end) - 1.0)
    s_drift = abs(momentum_S(final) / momentum_S(u0) - 1.0)
    h_drift = abs(hamiltonian_H(final, kappa) / hamiltonian_H(u0, kappa) - 1.0)

    # measured convergence order of the time stepper on a short window
    g2 = make_grid(512, 120.0)
    v0 = sample_on_grid(prof, g2)

    def advance(dt, steps):
        return evolve(v0, EvolutionConfig(kappa=kappa, t_end=dt * steps, dt=dt, observer_stride=steps)).states[-1]

    dt = 0.05
    ref = advance(dt / 8.0, 16)
    err_c = (advance(dt, 2) - ref).l2_norm()
    err_f = (advance(dt / 2.0, 4) - ref).l2_norm()
    order = np.log2(err_c / err_f)

    ok = rel_l2 <= 1e-6 and shift_rel <= 1e-4 and s_drift <= 1e-8 and h_drift <= 1e-8 and 3.7 <= order <= 4.3
    _verdict(
        3,
        "solver fidelity",
        ok,
        f"rel L2 {rel_l2:.3e}, shift rel err {shift_rel:.3e}, S drift {s_drift:.3e}, "
        f"H drift {h_drift:.3e}, measured order {order:.3f}",
    )


def test_criterion_04_spectral_claims(spectral_reports):
    neg_counts = {pair: rep1.neg_count for pair, (_, rep1, _, _) in spectral_reports.items()}
    _, rep1, _, rep2 = spectral_reports[(3.0, 1.0)]
    kernel_rel = abs(rep1.kernel_eigenvalue) / rep1.operator_norm
    gap_change = abs(rep2.ess_gap_proxy / rep1.ess_gap_proxy - 1.0)
    ok = (
        all(v == 1 for v in neg_counts.values())
        and kernel_rel <= 1e-6
        and rep1.kernel_overlap >= 0.9999
        and gap_change <= 0.10
    )
    _verdict(
        4,
        "spectral claims",
        ok,
        f"neg counts {sorted(neg_counts.values())}, kernel |lambda|/||L|| {kernel_rel:.3e}, "
        f"kernel overlap {rep1.kernel_overlap:.6f}, gap change under refinement {gap_change:.3e}",
    )


def test_criterion_05_constrained_coercivity(spectral_reports):
    min_theta = np.inf
    max_change = 0.0
    max_min_mismatch = 0.0
    for op1, rep1, op2, _ in spectral_reports.values():
        th1 = constrained_theta(op1)
        th2 = constrained_theta(op2)
        min_theta = min(min_theta, th1, th2)
        max_change = max(max_change, abs(th2 / th1 - 1.0))
        unconstrained_min = float(np.linalg.eigvalsh(op1.matrix)[0])
        max_min_mismatch = max(max_min_mismatch, abs(unconstrained_min - rep1.neg_eigenvalue))
    ok = min_theta > 0 and max_change <= 0.05 and max_min_mismatch <= 1e-10
    _verdict(
        5,
        "constrained coercivity",
        ok,
        f"min theta {min_theta:.6f}, max change under doubling {max_change:.3e}, "
        f"unconstrained-min vs negative-eigenvalue mismatch {max_min_mismatch:.3e}",
    )


def test_criterion_06_modulation_exactness(cache_k1):
    grid = make_grid(1024, 200.0)
    speeds = np.array([3.0, 5.0])
    positions = np.array([-30.0, 30.0])
    u = train_field(grid, speeds, positions, cache_k1)
    g_speeds, g_positions = initial_guess(u, 2, 1.0)
    st = decompose(u, g_speeds, g_positions, cache=cache_k1)
    param_err = max(np.max(np.abs(st.speeds - speeds)), np.max(np.abs(st.positions - positions)))
    eps_rel = st.residual.l2_norm() / u.l2_norm()

    alpha = ACCEPT_SCENARIO.alpha
    u_pert, _ = build_initial_state(ACCEPT_SCENARIO, cache_k1)
    st_p = decompose(u_pert, speeds, ACCEPT_SCENARIO.positions0, cache=cache_k1)
    shift = max(
        np.max(np.abs(st_p.speeds - speeds)),
        np.max(np.abs(st_p.positions - ACCEPT_SCENARIO.positions0)),
    )
    eps_p = st_p.residual.l2_norm()
    ok = param_err <= 1e-8 and eps_rel <= 1e-10 and shift <= 5.0 * alpha and eps_p <= 5.0 * alpha
    _verdict(
        6,
        "modulation exactness",
        ok,
        f"exact-train param err {param_err:.3e}, eps rel {eps_rel:.3e}; "
        f"perturbed shift {shift:.3e} and eps {eps_p:.3e} vs 5*alpha {5 * alpha:.1e}",
    )


def test_criterion_07_monotonicity(stability_run, cache_k1):
    u0, _ = build_initial_state(ACCEPT_SCENARIO, cache_k1)
    bound = 1e-4 * momentum_S(u0)
    i_2 = [r["i_2"] for r in stability_run.records]
    max_increase = max(v - i_2[0] for v in i_2)
    ok = max_increase <= bound
    _verdict(
        7,
        "localized momentum monotonicity",
        ok,
        f"max I_2 increase {max_increase:.3e} vs bound 1e-4*S(u0) = {bound:.3e}",
    )


def test_criterion_08_apriori_bounds(stability_run):
    flags_ok = all(r["linfty_ok"] and r["slope_ok"] and r["sup_ok"] for r in stability_run.records)
    w0_ok = stability_run.init_info["w0_ok"]
    ok = flags_ok and w0_ok
    _verdict(
        8,
        "a priori bounds",
        ok,
        f"all frame checks ok {flags_ok} over {len(stability_run.records)} frames, "
        f"w0 min {stability_run.init_info['w0_min']:.4f} >= 0: {w0_ok}",
    )


def test_criterion_09_stability_scaling(sweep, stability_run):
    rows60 = [r for r in sweep.rows if r["L"] == 60.0]
    assert len(rows60) == len(SWEEP_ALPHAS) and not any(r["failed"] for r in sweep.rows)
    slope = float(
        np.polyfit(np.log([r["alpha"] for r in rows60]), np.log([r["sup_error"] for r in rows60]), 1)[0]
    )

    times = np.array([r["t"] for r in stability_run.records])
    errs = np.array([r["train_error"] for r in stability_run.records])
    half = 0.5 * times[-1]
    secular_ratio = float(np.max(errs[times > half]) / np.max(errs[(times <= half) & (times > 0)]))

    rows_a = sorted((r for r in sweep.rows if r["alpha"] == 1e-4), key=lambda r: r["L"])
    sup_by_l = [r["sup_error"] for r in rows_a]
    monotone = all(a >= b for a, b in zip(sup_by_l, sup_by_l[1:]))

    ok = 0.8 <= slope <= 1.2 and secular_ratio <= 2.0 and monotone
    _verdict(
        9,
        "orbital stability scaling",
        ok,
        f"log-log slope in alpha {slope:.4f}, secular ratio {secular_ratio:.4f}, "
        f"sup error over L=30/45/60 {['%.4e' % v for v in sup_by_l]} non-increasing: {monotone}",
    )


def test_criterion_10_infrastructure_invariants(rng):
    grid = make_grid(256, 70.0)
    worst_round = worst_sqrt = 0.0
    bounds_ok = True
    for _ in range(100):
        u = random_field(grid, rng, scale=float(rng.uniform(0.1, 5.0)))
        for a in (1.0, 4.0):
            uh = helmholtz_inverse(u, a)
            back = Field(grid, a * uh.samples - derivative(uh, 2).samples)
            worst_round = max(worst_round, (back - u).l2_norm() / u.l2_norm())
        w = sqrt_helmholtz_inverse4(u)
        ww = sqrt_helmholtz_inverse4(w)
        worst_sqrt = max(worst_sqrt, (ww - helmholtz_inverse(u, 4.0)).l2_norm() / u.l2_norm())
        norm_sq = integrate(Field(grid, u.samples**2))
        q = s_inner(u, u)
        bounds_ok = bounds_ok and 0.25 * norm_sq - 1e-12 <= q <= norm_sq + 1e-12
    psi_ok = all(psi_derivative_bounds_check(B)["ok"] for B in (4.0, 8.0, 16.0))
    ok = worst_round <= 1e-10 and worst_sqrt <= 1e-10 and bounds_ok and psi_ok
    _verdict(
        10,
        "infrastructure invariants",
        ok,
        f"symbol round-trip {worst_round:.3e}, sqrt-inverse composition {worst_sqrt:.3e}, "
        f"quadratic-form bounds {bounds_ok}, weight inequalities B in (4,8,16) {psi_ok}",
    )
