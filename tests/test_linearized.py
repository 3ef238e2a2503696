import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import circulant, eigh, qr, toeplitz

import dpwavelab.cli as cli
import dpwavelab.linearized as linearized
from dpwavelab.grid import Field, make_grid, s_inner, smoothing_operator
from dpwavelab.invariants import dS_dc_closed
from dpwavelab.linearized import (
    SpectralError,
    SpectralReport,
    assemble_L,
    constrained_theta,
    eigen_report,
)
from dpwavelab.soliton import SolitonParams, build_profile, min_period, sample_dx_on_grid, sample_on_grid


def _symbol_matrix(grid, symbol):
    """Dense matrix of the Fourier multiplier with the given real half-spectrum symbol, by transforming the identity."""
    eye_hat = np.fft.rfft(np.eye(grid.n), axis=0)
    return np.fft.irfft(symbol[:, None] * eye_hat, n=grid.n, axis=0)


def _dense_report(op, prof):
    """eigen_report from the full dense eigendecomposition, and all the eigenvalues."""
    vals, vecs = eigh(op.matrix)
    norm = float(np.max(np.abs(vals)))
    dphi = sample_dx_on_grid(prof, op.grid)[1].samples
    overlaps = np.abs(vecs.T @ dphi) / np.linalg.norm(dphi)
    k = int(np.argmax(overlaps))
    others = np.delete(vals, k)
    neg = others[others < -1e-10 * norm]
    pos = others[others > 1e-10 * norm]
    report = SpectralReport(
        neg_eigenvalue=float(neg[0]) if len(neg) else 0.0,
        neg_count=len(neg),
        kernel_eigenvalue=float(vals[k]),
        kernel_overlap=float(overlaps[k]),
        ess_gap_proxy=float(pos[0]),
        operator_norm=norm,
        eigenvalues=vals,
        eigenvectors=vecs.T,
    )
    return report, vals


def _dense_theta(op):
    """constrained_theta from a full QR of the smoothed op.phi, op.phi_x and the reduced matrix Z^T L Z."""
    v = np.column_stack([smoothing_operator(Field(op.grid, f)).samples for f in (op.phi, op.phi_x)])
    q_full, _ = qr(v, mode="full")
    z = q_full[:, 2:]
    return float(eigh(z.T @ op.matrix @ z, eigvals_only=True, subset_by_index=(0, 0))[0])


def _family_grid(c, kappa):
    nu = np.sqrt(1.0 - 2.0 * kappa / c)
    return make_grid(512, np.ceil(50.0 / nu / 10.0) * 10.0)


@pytest.fixture(scope="module")
def setup_c3():
    prof = build_profile(SolitonParams(3.0, 1.0))
    grid = make_grid(512, 100.0)
    op = assemble_L(prof, grid)
    return prof, grid, op


class TestAssemble:
    def test_symmetry(self, setup_c3):
        _, _, op = setup_c3
        m = op.matrix
        assert np.max(np.abs(m - m.T)) <= 1e-12 * np.max(np.abs(m))

    def test_constant_vector_action(self, setup_c3):
        # L(1) = -phi + (c - 2 kappa)/4 since the symbol at xi = 0 is (c - 2k)/4
        prof, grid, op = setup_c3
        phi = sample_on_grid(prof, grid).samples
        out = op.matrix @ np.ones(grid.n)
        assert np.allclose(out, -phi + (3.0 - 2.0) / 4.0, atol=1e-10)

    def test_plane_wave_symbol(self, setup_c3):
        # the nonlocal part alone acts on cos(xi x) by (c(1+xi^2) - 2k)/(4+xi^2)
        prof, grid, op = setup_c3
        phi = sample_on_grid(prof, grid).samples
        xi = 2.0 * np.pi * 7 / grid.period
        v = np.cos(xi * grid.nodes)
        sym = (3.0 * (1.0 + xi**2) - 2.0) / (4.0 + xi**2)
        assert np.allclose(op.matrix @ v, sym * v - phi * v, atol=1e-9)

    def test_rejects_unresolved_grid(self):
        prof = build_profile(SolitonParams(2.5, 1.0))
        with pytest.raises(ValueError):
            assemble_L(prof, make_grid(64, 30.0))


class TestSpectrum:
    def test_report_structure(self, setup_c3):
        _, _, op = setup_c3
        rep = eigen_report(op)
        assert rep.neg_count == 1
        assert rep.neg_eigenvalue < 0
        assert abs(rep.kernel_eigenvalue) <= 1e-6 * rep.operator_norm
        assert rep.kernel_overlap >= 0.9999
        assert rep.ess_gap_proxy > 0

    def test_kernel_residual_small(self, setup_c3):
        prof, grid, op = setup_c3
        dphi = sample_dx_on_grid(prof, grid)[1].samples
        res = np.linalg.norm(op.matrix @ dphi) / np.linalg.norm(dphi)
        assert res <= 1e-8

    def test_one_negative_eigenvalue_across_params(self, profiles):
        for (c, kappa), prof in profiles.items():
            rep = eigen_report(assemble_L(prof, _family_grid(c, kappa)))
            assert rep.neg_count == 1
            assert rep.kernel_overlap >= 0.999

    def test_gap_proxy_stable_under_refinement(self, setup_c3):
        prof, _, op = setup_c3
        rep = eigen_report(op)
        op2 = assemble_L(prof, make_grid(1024, 100.0))
        rep2 = eigen_report(op2)
        assert rep2.ess_gap_proxy == pytest.approx(rep.ess_gap_proxy, rel=0.1)
        assert rep2.neg_eigenvalue == pytest.approx(rep.neg_eigenvalue, rel=1e-4)

    def test_negative_direction_from_speed_derivative(self):
        # the quadratic form is negative on the c-derivative of the profile:
        # (L dphi/dc, dphi/dc) = -dS/dc < 0
        c, kappa = 3.0, 1.0
        grid = make_grid(512, 100.0)
        dc = 1e-5 * c
        hi = sample_on_grid(build_profile(SolitonParams(c + dc, kappa)), grid).samples
        lo = sample_on_grid(build_profile(SolitonParams(c - dc, kappa)), grid).samples
        dphi_dc = (hi - lo) / (2.0 * dc)
        prof = build_profile(SolitonParams(c, kappa))
        op = assemble_L(prof, grid)
        form = grid.h * dphi_dc @ (op.matrix @ dphi_dc)
        assert form < 0
        assert form == pytest.approx(-dS_dc_closed(c, kappa), rel=1e-2)


class TestConstrainedTheta:
    def test_positive_and_stable(self, setup_c3):
        prof, _, op = setup_c3
        theta = constrained_theta(op)
        assert theta > 0
        theta2 = constrained_theta(assemble_L(prof, make_grid(1024, 100.0)))
        assert theta2 == pytest.approx(theta, rel=0.05)

    def test_constraints_encode_s_orthogonality(self, setup_c3):
        # constrained_theta's columns are op.phi and op.phi_x smoothed by (1-d^2)(4-d^2)^-1
        prof, grid, op = setup_c3
        y = Field(grid, np.cos(2.0 * np.pi * 3 * grid.nodes / grid.period))
        for samples, f in zip((op.phi, op.phi_x), sample_dx_on_grid(prof, grid)):
            column = smoothing_operator(Field(grid, samples)).samples
            assert grid.h * (y.samples @ column) == pytest.approx(s_inner(y, f), rel=1e-10, abs=1e-12)

    def test_theta_below_gap_and_above_zero(self, setup_c3):
        _, _, op = setup_c3
        rep = eigen_report(op)
        theta = constrained_theta(op)
        # constrained minimum sits between 0 and the unconstrained positive gap
        assert 0 < theta <= rep.ess_gap_proxy + 1e-10

    def test_unconstrained_minimum_is_negative_eigenvalue(self, setup_c3):
        _, _, op = setup_c3
        rep = eigen_report(op)
        vals = np.linalg.eigvalsh(op.matrix)
        assert vals[0] == pytest.approx(rep.neg_eigenvalue, rel=1e-12)


@pytest.fixture(scope="module")
def dense_family(profiles):
    """Per (c, kappa) at n = 512: profile, operator, dense report, dense eigenvalues and dense theta."""
    out = {}
    for (c, kappa), prof in profiles.items():
        op = assemble_L(prof, _family_grid(c, kappa))
        report, vals = _dense_report(op, prof)
        out[(c, kappa)] = (prof, op, report, vals, _dense_theta(op))
    return out


class TestDenseOracles:
    @pytest.mark.parametrize("n", [64, 512])
    def test_circulant_assembly_matches_transformed_identity(self, profiles, n):
        prof = profiles[(3.0, 1.0)]
        grid = make_grid(n, 100.0)
        symbol = 3.0 * grid.smoothing_symbol - 2.0 * grid.helmholtz_symbol(4.0)
        oracle = _symbol_matrix(grid, symbol) - np.diag(sample_on_grid(prof, grid).samples)
        norm = np.max(np.abs(np.linalg.eigvalsh(oracle)))
        assert np.max(np.abs(assemble_L(prof, grid).matrix - oracle)) <= 1e-14 * norm

    def test_reflection_invariance_is_exact(self, dense_family):
        for _, op, _, _, _ in dense_family.values():
            r = -np.arange(op.grid.n) % op.grid.n
            assert np.array_equal(op.matrix[np.ix_(r, r)], op.matrix)

    def test_lowest_eigenvalues(self, dense_family):
        for _, op, dense, vals, _ in dense_family.values():
            low, vecs = linearized._window_pairs(op, 6)
            assert np.max(np.abs(low - vals[:6])) <= 1e-12 * dense.operator_norm
            residual = vecs @ op.matrix - low[:, None] * vecs
            assert np.max(np.linalg.norm(residual, axis=1)) <= 1e-12 * dense.operator_norm

    def test_report(self, dense_family):
        for _, op, dense, _, _ in dense_family.values():
            rep = eigen_report(op)
            assert rep.neg_count == dense.neg_count
            assert rep.neg_eigenvalue == pytest.approx(dense.neg_eigenvalue, rel=1e-12)
            assert rep.ess_gap_proxy == pytest.approx(dense.ess_gap_proxy, rel=1e-12)
            assert rep.operator_norm == pytest.approx(dense.operator_norm, rel=1e-12)
            assert rep.kernel_overlap == pytest.approx(dense.kernel_overlap, rel=1e-12)
            assert abs(rep.kernel_eigenvalue - dense.kernel_eigenvalue) <= 1e-12 * dense.operator_norm

    def test_theta(self, dense_family):
        for _, op, _, _, theta in dense_family.values():
            assert constrained_theta(op) == pytest.approx(theta, rel=1e-12)

    def test_repeated_solves_are_bitwise_identical(self, dense_family):
        _, op, _, _, _ = dense_family[(3.0, 1.0)]
        first, second = eigen_report(op), eigen_report(op)
        assert first == second
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        assert constrained_theta(op) == constrained_theta(op)

    def test_parity_blocks_merge_to_the_dense_low_end(self, profiles):
        op = assemble_L(profiles[(3.0, 1.0)], make_grid(256, 100.0))
        dense = np.linalg.eigvalsh(op.matrix)
        norm = np.max(np.abs(dense))
        r = -np.arange(op.grid.n) % op.grid.n
        for k in range(1, 9):
            vals, vecs = linearized._window_pairs(op, k)
            assert np.max(np.abs(vals - dense[:k])) <= 1e-12 * norm
            # every pair comes from one block: its eigenvector is exactly even or exactly odd
            for v in vecs:
                assert np.array_equal(v[r], v) or np.array_equal(v[r], -v)

    def test_circulant_matches_scipy_bitwise(self, profiles):
        # op.matrix is the circulant of the reflection-averaged kernel minus diag phi, built as the
        # symmetric Toeplitz matrix that a reflection-symmetric kernel's circulant is
        for n in (64, 256, 1024, 2048):
            op = assemble_L(profiles[(3.0, 1.0)], make_grid(n, 100.0))
            kernel = np.fft.irfft(op.symbol, n=n)
            oracle = circulant(0.5 * (kernel + kernel[-np.arange(n) % n])) - np.diag(op.phi)
            assert np.array_equal(op.matrix, oracle)

    def test_symmetric_toeplitz_matches_scipy_bitwise(self, dense_family):
        _, op, _, _, _ = dense_family[(3.0, 1.0)]
        column = op.matrix[:97, 0] + np.linspace(0.0, 1.0, 97)
        assert np.array_equal(linearized._symmetric_toeplitz(column), toeplitz(column))

    @pytest.mark.parametrize("scale", [3.0, 4.0])
    def test_window_widens_to_every_negative_eigenvalue(self, dense_family, scale):
        # phi scaled up binds more states below zero than the first 4 eigenpairs hold
        prof, op, _, _, _ = dense_family[(3.0, 1.0)]
        scaled = replace(op, phi=scale * op.phi)
        dense, _ = _dense_report(scaled, prof)
        assert dense.neg_count >= 3
        rep = eigen_report(scaled)
        assert rep.neg_count == dense.neg_count
        assert rep.neg_eigenvalue == pytest.approx(dense.neg_eigenvalue, rel=1e-12)
        assert abs(rep.ess_gap_proxy - dense.ess_gap_proxy) <= 1e-12 * dense.operator_norm


def _dense_top(op):
    """eigvalsh(op.matrix)[-1], from the even and the odd block under x -> -x, each half the size.

    L is reflection-invariant, so on the even grid functions it acts through the
    rows 0 ... n/2, each with column j folded onto column -j, and on the odd ones
    through the rows 1 ... n/2 - 1 with column -j subtracted. In the orthonormal
    coordinates (e_j +- e_-j)/sqrt2, or e_j at the fixed nodes 0 and n/2, the even
    block scales these by sqrt2 on the free rows and by sqrt(1/2) on the free
    columns, and the odd block keeps them.
    """
    n = op.grid.n
    half = n // 2
    rows = op.matrix[: half + 1]
    mirror = rows[:, :half:-1]
    even = rows[:, : half + 1].copy()
    even[:, 1:half] += mirror
    scale = np.full(half + 1, np.sqrt(2.0))
    scale[[0, half]] = 1.0
    even *= scale[:, None] / scale
    odd = rows[1:half, 1:half] - mirror[1:half]
    return max(np.linalg.eigvalsh(even)[-1], np.linalg.eigvalsh(odd)[-1])


def _window_top(op):
    """The largest eigenvalue of L, from the window around the Nyquist mode."""
    return linearized._window_pairs(op, 1, top=True)[0][0]


def _window_sizes(monkeypatch):
    """The sizes of the window blocks linearized.eigh solves, in call order."""
    sizes = []

    def counted(a):
        sizes.append(len(a))
        return np.linalg.eigh(a)

    monkeypatch.setattr(linearized, "eigh", counted)
    return sizes


class TestTopEigenvalueWindow:
    @pytest.mark.parametrize("n", [64, 512, 2048])
    def test_matches_dense_over_the_family(self, profiles, n):
        for (c, kappa), prof in profiles.items():
            op = assemble_L(prof, make_grid(n, _family_grid(c, kappa).period))
            dense = _dense_top(op)
            if n <= 512:
                assert dense == pytest.approx(np.linalg.eigvalsh(op.matrix)[-1], rel=1e-14)
            assert abs(_window_top(op) - dense) <= n * np.finfo(float).eps * abs(dense)

    def test_matches_dense_at_4096(self, profiles):
        op = assemble_L(profiles[(3.0, 1.0)], make_grid(4096, 100.0))
        dense = _dense_top(op)
        assert abs(_window_top(op) - dense) <= 4096 * np.finfo(float).eps * abs(dense)

    def test_window_over_every_mode_is_one_exact_solve(self, profiles, monkeypatch):
        # in the blocks of the n/2 + 1 and n/2 - 1 modes symmetric and antisymmetric under k -> n - k
        op = assemble_L(profiles[(3.0, 1.0)], make_grid(64, 100.0))
        sizes = _window_sizes(monkeypatch)
        top = _window_top(op)
        assert sizes == [33, 31]
        assert top == pytest.approx(np.linalg.eigvalsh(op.matrix)[-1], rel=1e-14)

    def test_window_widens_until_the_residual_is_small(self, profiles, monkeypatch):
        # at c = 4, kappa = 0.5, n = 512 the first two windows (97 and 193 modes, each solved as its
        # m + 1 symmetric and m antisymmetric modes) leave a Ritz residual of 1e-7 and 1e-8
        op = assemble_L(profiles[(4.0, 0.5)], make_grid(512, 100.0))
        sizes = _window_sizes(monkeypatch)
        top = _window_top(op)
        assert sizes == [49, 48, 97, 96, 193, 192]
        dense = np.linalg.eigvalsh(op.matrix)[-1]
        assert abs(top - dense) <= 512 * np.finfo(float).eps * abs(dense)

    def test_long_period_widens_to_every_mode(self, profiles, monkeypatch):
        # at period 800 no window short of all 2048 modes meets the estimate
        op = assemble_L(profiles[(4.0, 0.5)], make_grid(2048, 800.0))
        sizes = _window_sizes(monkeypatch)
        top = _window_top(op)
        assert sizes == [49, 48, 97, 96, 193, 192, 385, 384, 769, 768, 1025, 1023]
        dense = _dense_top(op)
        assert abs(top - dense) <= 2048 * np.finfo(float).eps * abs(dense)

    @pytest.mark.parametrize("n, m", [(64, 5), (64, 32), (512, 48), (2048, 96), (2048, 768), (2048, 1024)])
    def test_split_window_keeps_the_window_eigenvalues(self, profiles, n, m):
        # Oracle: the unsplit window of the 2m + 1 modes around mode 0 or n/2 (every mode at m = n/2), a
        # symmetric Toeplitz matrix in the mode index plus the symbol on its diagonal.
        op = assemble_L(profiles[(4.0, 0.5)], make_grid(n, 100.0))
        phi_hat = np.fft.rfft(op.phi).real / n
        symbol = np.concatenate((op.symbol, op.symbol[-2:0:-1]))
        for centre in (0, n // 2):
            modes = np.arange(n) if 2 * m == n else (centre + np.arange(-m, m + 1)) % n
            lag = np.arange(len(modes))
            window = linearized._symmetric_toeplitz(-phi_hat[np.minimum(lag, n - lag)])
            window[np.diag_indices(len(modes))] += symbol[modes]
            even, odd = linearized._window_blocks(op.symbol, phi_hat, m, centre)
            assert (len(even), len(odd)) == ((n // 2 + 1, n // 2 - 1) if 2 * m == n else (m + 1, m))
            assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)
            split = np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd))))
            whole = np.linalg.eigvalsh(window)
            assert np.max(np.abs(split - whole)) <= len(modes) * np.finfo(float).eps * np.max(np.abs(whole))

    @pytest.mark.parametrize("pair, n, period, sizes", [
        ((3.0, 1.0), 2048, 100.0, [49, 48]),
        ((3.0, 1.0), 1024, 300.0, [49, 48, 97, 96, 193, 192]),
    ])
    def test_top_in_the_antisymmetric_block(self, profiles, monkeypatch, pair, n, period, sizes):
        # With the Nyquist mode's symbol lowered by 1 the top eigenvector pairs n/2 - 1 with n/2 + 1, and
        # the antisymmetric combination is the higher one; the second Ritz value is the symmetric block's top.
        op = assemble_L(profiles[pair], make_grid(n, period))
        symbol = op.symbol.copy()
        symbol[n // 2] -= 1.0
        op = replace(op, symbol=symbol)
        even, odd = linearized._window_blocks(op.symbol, np.fft.rfft(op.phi).real / n, linearized._WINDOW_START, n // 2)
        assert np.linalg.eigvalsh(odd)[-1] > np.linalg.eigvalsh(even)[-1]
        solved = _window_sizes(monkeypatch)
        top = _window_top(op)
        assert solved == sizes
        dense = np.linalg.eigvalsh(op.matrix)[-1]
        assert abs(top - dense) <= n * np.finfo(float).eps * abs(dense)

    def test_no_dense_matrix_on_the_spectrum_path(self, profiles):
        # op.matrix alone would take 537 MB at n = 8192
        tracemalloc.start()
        try:
            op = assemble_L(profiles[(3.0, 1.0)], make_grid(8192, 100.0))
            rep = eigen_report(op)
            theta = constrained_theta(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert "matrix" not in vars(op)
        assert rep.neg_count == 1 and theta > 0


class TestLowEndWindow:
    @pytest.mark.parametrize("n", [1024, 2048, 8192])
    def test_window_does_not_grow_with_n(self, profiles, monkeypatch, n):
        # the low eigenvectors live at the modes near 0, whose spacing 2 pi / period does not depend on n; the
        # first window is read from phi_hat's decay and is the one that passes
        op = assemble_L(profiles[(3.0, 1.0)], make_grid(n, 100.0))
        sizes = _window_sizes(monkeypatch)
        linearized._window_pairs(op, 4)
        assert sizes == [193, 192]

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_spectrum_solves_each_window_once(self, monkeypatch, capsys, n):
        # the top, then the low end in one window; theta reads the low end's window and solves none: 4 eigh calls
        sizes = _window_sizes(monkeypatch)
        assert cli.main(["spectrum", "--c", "3", "--kappa", "1", "--period", "100", "--n", str(n)]) == 0
        assert sizes == [49, 48] + [193, 192]
        assert json.loads(capsys.readouterr().out)["theta"] > 0

    def test_theta_alone_solves_its_own_windows(self, profiles, monkeypatch):
        # the solve order does not matter: the report after theta starts at theta's window and solves the top only
        prof, grid = profiles[(3.0, 1.0)], make_grid(1024, 100.0)
        fresh = eigen_report(assemble_L(prof, grid))
        op = assemble_L(prof, grid)
        sizes = _window_sizes(monkeypatch)
        theta = constrained_theta(op)
        assert sizes == [193, 192]
        rep = eigen_report(op)
        assert sizes == [193, 192] + [49, 48]
        assert rep.ess_gap_proxy > theta > 0
        scalars = ("neg_eigenvalue", "neg_count", "kernel_eigenvalue", "kernel_overlap", "ess_gap_proxy", "operator_norm")
        for name in scalars:
            assert getattr(rep, name) == pytest.approx(getattr(fresh, name), rel=1e-12)
        assert rep.eigenvalues == pytest.approx(fresh.eigenvalues, rel=1e-12)

    def test_one_window_per_centre(self, profiles, monkeypatch):
        # a wider window replaces the narrower ones at its centre, so only the widest two are held (the top solves
        # two windows here, and the low end one, read from phi_hat's decay)
        op = assemble_L(profiles[(4.0, 0.5)], make_grid(2048, 100.0))
        sizes = _window_sizes(monkeypatch)
        eigen_report(op)
        constrained_theta(op)
        assert sizes == [49, 48, 97, 96] + [769, 768]
        assert {centre: m for centre, (m, _) in op._windows.items()} == {0: 768, 1024: 96}
        kept = sum(v.nbytes + vec.nbytes for _, pairs in op._windows.values() for v, vec in pairs)
        blocks = (769, 768, 97, 96)  # the even and odd blocks of the windows m = 768 and m = 96
        assert kept == sum(8 * (b + b * b) for b in blocks) == 9_612_320

    def test_solved_window_is_not_rebuilt(self, profiles, monkeypatch):
        op = assemble_L(profiles[(3.0, 1.0)], make_grid(1024, 100.0))
        first = eigen_report(op)
        built = []
        window_blocks = linearized._window_blocks
        monkeypatch.setattr(linearized, "_window_blocks", lambda *args: built.append(args) or window_blocks(*args))
        sizes = _window_sizes(monkeypatch)
        assert eigen_report(op) == first
        assert built == [] and sizes == []
        assert replace(op)._windows == {}


@pytest.fixture(scope="module")
def poschl_teller():
    """The lowest eigenvalues of H = -d^2 + 1 - 3 sech^2(x/2) and theta, its lowest on the complement of sech^2(x/2)
    and its derivative: dense, on 512 nodes over a period of 120, where both are converged to 1e-12."""
    grid = make_grid(512, 120.0)
    x = grid.nodes
    sech2 = 1.0 / np.cosh(0.5 * x) ** 2
    h = _symbol_matrix(grid, 1.0 + grid.wavenumbers**2) - np.diag(3.0 * sech2)
    basis = qr(np.column_stack((sech2, sech2 * np.tanh(0.5 * x))), mode="full")[0][:, 2:]
    theta = eigh(basis.T @ h @ basis, eigvals_only=True, subset_by_index=(0, 0))[0]
    return np.linalg.eigvalsh(h)[:3], float(theta)


class TestKdVLimit:
    # As c -> 2 kappa the DP soliton tends to a KdV soliton, and L divided by its essential spectrum's edge
    # s(0) = (c - 2 kappa) / 4, with x in units of the soliton's width, tends to the Poschl-Teller operator H
    # (Poschl & Teller, Z. Phys. 83, 1933; Bona, Souganidis & Strauss, Proc. R. Soc. A 411, 1987; Constantin &
    # Lannes, ARMA 192, 2009): eigenvalues -5/4, 0 and 3/4 below its continuum at 1. The oracle is outside the
    # code under test: no symbol, sample or window of L enters it. Each ratio moves off its limit linearly in
    # c - 2 kappa, by about 0.030, 0.041 and 0.013 times it for the negative eigenvalue, the gap and theta.
    SLOPE = 0.05

    def test_oracle(self, poschl_teller):
        low, theta = poschl_teller
        assert np.max(np.abs(low - [-1.25, 0.0, 0.75])) <= 1e-12
        assert 0.0 < theta < 0.75

    @pytest.mark.parametrize("c", [2.01, 2.02, 2.05])
    def test_ratios_to_the_edge_approach_poschl_teller(self, poschl_teller, c):
        params = SolitonParams(c, 1.0)
        op = assemble_L(build_profile(params), make_grid(1024, 1.5 * min_period(params)))
        rep, theta = eigen_report(op), constrained_theta(op)
        edge = (c - 2.0) / 4.0
        bound = self.SLOPE * (c - 2.0)
        assert rep.neg_count == 1
        assert abs(rep.neg_eigenvalue / edge + 1.25) <= bound
        assert abs(rep.ess_gap_proxy / edge - 0.75) <= bound
        assert abs(theta / edge - poschl_teller[1]) <= bound
        assert abs(rep.kernel_eigenvalue) <= 1e-10 * rep.operator_norm  # the band the report counts as zero


# (c, kappa, period or None for 1.5 min_period, n): the benchmark's cell, c / 2 kappa = 5 at kappa 1 and 2, a
# period of 300, the narrow end near c = 2 kappa and kappa = 0.5
START_CELLS = [
    (3.0, 1.0, 100.0, 1024),
    (10.0, 1.0, 100.0, 1024),
    (3.0, 1.0, 300.0, 1024),
    (2.02, 1.0, None, 2048),
    (2.0, 0.5, 100.0, 2048),
    (20.0, 2.0, None, 512),
]


def _spectrum_with_centres(op, monkeypatch):
    """eigen_report and constrained_theta of op, and the half-widths m of the windows around mode 0 they built."""
    low = []
    window_blocks = linearized._window_blocks

    def recorded(symbol, phi_hat, m, centre):
        if centre == 0:
            low.append(m)
        return window_blocks(symbol, phi_hat, m, centre)

    with monkeypatch.context() as patch:
        patch.setattr(linearized, "_window_blocks", recorded)
        return eigen_report(op), constrained_theta(op), low


class TestLowEndStart:
    @pytest.mark.parametrize("c, kappa, period, n", START_CELLS)
    def test_first_window_passes_and_matches_the_ladder(self, monkeypatch, c, kappa, period, n):
        # the first window around mode 0, read from phi_hat's decay, meets every test of the report and theta,
        # and gives what the doubling from m = 48 gives
        params = SolitonParams(c, kappa)
        prof = build_profile(params)
        grid = make_grid(n, 1.5 * min_period(params) if period is None else period)
        op = assemble_L(prof, grid)
        rep, theta, low = _spectrum_with_centres(op, monkeypatch)
        assert low == [min(linearized._first_rung(op._phi_hat), n // 2)]
        monkeypatch.setattr(linearized, "_first_rung", lambda phi_hat: linearized._WINDOW_START)
        ladder, ladder_theta, ladder_low = _spectrum_with_centres(assemble_L(prof, grid), monkeypatch)
        assert ladder_low[0] == 48 and ladder_low[-1] == low[0]
        atol = n * np.finfo(float).eps * ladder.operator_norm  # perfbench's reference tolerance
        for name in ("neg_eigenvalue", "kernel_eigenvalue", "kernel_overlap", "ess_gap_proxy", "operator_norm"):
            assert abs(getattr(rep, name) - getattr(ladder, name)) <= atol
        assert rep.neg_count == ladder.neg_count == 1
        assert np.max(np.abs(rep.eigenvalues - ladder.eigenvalues)) <= atol
        assert abs(theta - ladder_theta) <= atol


def _restricted_oracle(lam, c):
    """Eigenpairs of diag(lam) restricted to the complement of the unit vector c, by eigh in a full QR basis of it."""
    basis = qr(c[:, None], mode="full")[0][:, 1:]
    vals, vecs = eigh(basis.T @ np.diag(lam) @ basis)
    return vals, basis @ vecs


def _secular_cases():
    rng = np.random.default_rng(7)
    lam = np.sort(rng.uniform(-1.0, 3.0, 40))
    c = rng.standard_normal(40)
    cases = {"generic": (lam, c)}
    cases["c1 zero"] = (lam, np.where(np.arange(40) == 0, 0.0, c))
    cases["c1 below eps"] = (lam, np.where(np.arange(40) == 0, 1e-20, c))
    cases["c1 small"] = (lam, np.where(np.arange(40) == 0, 1e-6, c))
    cases["lambda1 repeated"] = (np.concatenate(([lam[1]], lam[1:])), c)
    cases["lambda2 repeated"] = (np.concatenate((lam[:2], [lam[2]], lam[2:-1])), c)
    cases["lambda1 three times"] = (np.concatenate(([lam[2]] * 2, lam[2:])), c)
    cases["lambda1 repeated, c zero on it"] = (np.concatenate(([lam[1]], lam[1:])), np.where(np.arange(40) < 2, 0.0, c))
    return {name: (lam, c / np.linalg.norm(c)) for name, (lam, c) in cases.items()}


SECULAR_CASES = _secular_cases()


def _bisected_root(pole, weight, j):
    """The root of sum weight / (pole - theta) between pole[j] and pole[j + 1] as (origin, offset), by bisection.

    The oracle of linearized._secular_root: the same origin, the pole nearer the
    root, and the offset bisected to neighbouring floats with every pole - theta
    taken as (pole - origin) - offset; the end away from the origin is returned.
    """
    half = 0.5 * (pole[j + 1] - pole[j])
    lower = (weight / ((pole - pole[j]) - half)).sum() >= 0.0
    origin = pole[j] if lower else pole[j + 1]
    diffs = pole - origin
    near, far = 0.0, half if lower else -half
    while True:
        mid = 0.5 * (near + far)
        if mid in (near, far):
            return origin, far
        if ((weight / (diffs - mid)).sum() >= 0.0) == lower:
            far = mid
        else:
            near = mid


def _clustered_poles(seed):
    """Ascending distinct poles, some clustered to 1e-9 or spread over twelve decades, and positive weights over 20 decades."""
    rng = np.random.default_rng(seed)
    cases = []
    for kind in range(4):
        size = int(rng.integers(3, 60))
        if kind == 0:
            pole = rng.uniform(-1.0, 3.0, size)
        elif kind == 1:
            pole = np.concatenate((1.0 + 1e-9 * rng.uniform(0.0, 1.0, size // 2), 2.0 + 1e-6 * rng.uniform(0.0, 1.0, size - size // 2)))
        elif kind == 2:
            pole = np.cumsum(10.0 ** rng.uniform(-12.0, 0.0, size))
        else:
            pole = rng.uniform(-1.0, 1.0, size) ** 3
        pole = np.unique(pole)
        weight = rng.standard_normal(len(pole)) ** 2 * 10.0 ** rng.uniform(-20.0, 0.0, len(pole))
        cases.append((pole, weight / weight.sum()))
    return cases


class TestSecularEquation:
    @pytest.mark.parametrize("case", list(SECULAR_CASES))
    def test_matches_projected_eigh(self, case):
        lam, c = SECULAR_CASES[case]
        vals, vecs = _restricted_oracle(lam, c)
        theta, second, y = linearized._constrained_lowest(lam, c)
        tol = 8 * len(lam) * np.finfo(float).eps * np.max(np.abs(lam))
        assert abs(theta - vals[0]) <= tol
        assert abs(second - vals[1]) <= tol
        assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-14)
        assert abs(y @ c) <= 1e-14
        if vals[1] - vals[0] > 1e-3:
            assert abs(y @ vecs[:, 0]) == pytest.approx(1.0, rel=1e-12)
        residual = lam * y - theta * y
        assert np.linalg.norm(residual - (c @ residual) * c) <= tol

    @pytest.mark.parametrize("case", list(SECULAR_CASES))
    def test_rational_roots_match_bisection_on_the_cases(self, case, monkeypatch):
        # the roots _constrained_lowest asks for, after its deflation, within 2 ulp of the bisected offset
        calls = []
        root = linearized._secular_root
        monkeypatch.setattr(linearized, "_secular_root", lambda *args: calls.append(args) or root(*args))
        linearized._constrained_lowest(*SECULAR_CASES[case])
        assert len(calls) == 2
        for pole, weight, j in calls:
            origin, offset = root(pole, weight, j)
            oracle_origin, oracle_offset = _bisected_root(pole, weight, j)
            assert origin == oracle_origin
            assert abs(offset - oracle_offset) <= 2 * np.spacing(abs(oracle_offset))

    @pytest.mark.parametrize("seed", range(25))
    def test_rational_roots_match_bisection_on_clustered_poles(self, seed):
        for pole, weight in _clustered_poles(seed):
            for j in range(min(2, len(pole) - 1)):
                origin, offset = linearized._secular_root(pole, weight, j)
                oracle_origin, oracle_offset = _bisected_root(pole, weight, j)
                assert origin == oracle_origin
                assert abs(offset - oracle_offset) <= 2 * np.spacing(abs(oracle_offset))


class TestSpectralErrors:
    # Each phase gets a fresh operator: an operator keeps the windows it has solved, and theta starts at the
    # widest of them. The report's first window is the top's (97 modes); theta's is the low end's first window,
    # read from phi_hat's decay (2 * 192 + 1 modes here).
    FIRST_WINDOW = (("eigen_report", 97), ("constrained_theta", 385))

    def test_lanczos_failure_names_phase(self, setup_c3, monkeypatch):
        # a NaN action of L shows in the first window's Ritz residual, in either phase
        prof, grid, _ = setup_c3
        monkeypatch.setattr(linearized.OperatorMatrix, "apply", lambda self, x: np.full_like(x, np.nan))
        for solve, (phase, modes) in zip((eigen_report, constrained_theta), self.FIRST_WINDOW):
            message = f"^{phase}: non-finite Ritz residual in the window of {modes} modes$"
            with pytest.raises(SpectralError, match=message) as info:
                solve(assemble_L(prof, grid))
            assert info.value.phase == phase

    def test_failed_window_solve_names_phase(self, setup_c3, monkeypatch):
        # numpy's LinAlgError is a ValueError, which the command line would report as a usage error
        prof, grid, _ = setup_c3

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linearized, "eigh", failing)
        for solve, (phase, modes) in zip((eigen_report, constrained_theta), self.FIRST_WINDOW):
            message = f"^{phase}: window of {modes} modes: Eigenvalues did not converge$"
            with pytest.raises(SpectralError, match=message) as info:
                solve(assemble_L(prof, grid))
            assert info.value.phase == phase
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_zero_phi_x_in_the_report(self, profiles):
        # it gave kernel_overlap nan and neg_count 0, with only a RuntimeWarning
        op = assemble_L(profiles[(3.0, 1.0)], make_grid(256, 100.0))
        with pytest.raises(SpectralError, match="^eigen_report: phi_x has norm 0.0") as info:
            eigen_report(replace(op, phi_x=np.zeros_like(op.phi_x)))
        assert info.value.phase == "eigen_report"

    @pytest.mark.parametrize("zero", ["phi", "phi_x"])
    def test_zero_constraint_column(self, profiles, zero):
        # a zero phi_x gave theta = 0.17524939705 from a NaN column, with only a RuntimeWarning
        op = assemble_L(profiles[(3.0, 1.0)], make_grid(256, 100.0))
        with pytest.raises(SpectralError, match="^constrained_theta: constraint columns have norms") as info:
            constrained_theta(replace(op, **{zero: np.zeros(op.grid.n)}))
        assert info.value.phase == "constrained_theta"

    def test_collinear_constraints(self, setup_c3):
        _, _, op = setup_c3
        with pytest.raises(SpectralError, match="collinear") as info:
            constrained_theta(replace(op, phi_x=2.0 * op.phi))
        assert info.value.phase == "constrained_theta"
