"""Discretized second variation at the soliton and its spectral structure.

L = -phi_c - 2 kappa (4 - d^2)^-1 + c (1 - d^2)(4 - d^2)^-1

assembled as a dense symmetric matrix: the nonlocal parts are exact Fourier
symbols conjugated through the DFT, the local part is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, qr

from .grid import PeriodicGrid, smoothing_operator
from .soliton import SolitonProfile, sample_dx_on_grid, sample_on_grid


@dataclass(frozen=True)
class OperatorMatrix:
    matrix: np.ndarray
    grid: PeriodicGrid
    c: float
    kappa: float


@dataclass(frozen=True)
class SpectralReport:
    neg_eigenvalue: float
    neg_count: int
    kernel_eigenvalue: float
    kernel_overlap: float
    neg_eigenvector: np.ndarray
    ess_gap_proxy: float
    operator_norm: float


def _symbol_matrix(grid: PeriodicGrid, symbol: np.ndarray) -> np.ndarray:
    """Dense matrix of the Fourier multiplier with the given real half-spectrum symbol (small-n oracle)."""
    eye_hat = np.fft.rfft(np.eye(grid.n), axis=0)
    return np.fft.irfft(symbol[:, None] * eye_hat, n=grid.n, axis=0)


def assemble_L(profile: SolitonProfile, grid: PeriodicGrid) -> OperatorMatrix:
    c = profile.params.c
    kappa = profile.params.kappa
    phi = sample_on_grid(profile, grid).samples  # raises if tail wrap too large
    symbol = c * grid.smoothing_symbol - 2.0 * kappa * grid.helmholtz_symbol(4.0)
    m = _symbol_matrix(grid, symbol)
    m = m - np.diag(phi)
    m = 0.5 * (m + m.T)
    return OperatorMatrix(matrix=m, grid=grid, c=c, kappa=kappa)


def eigen_report(op: OperatorMatrix, profile: SolitonProfile) -> SpectralReport:
    vals, vecs = eigh(op.matrix)
    norm = float(np.max(np.abs(vals)))

    dphi = sample_dx_on_grid(profile, op.grid).samples
    dphi = dphi / np.linalg.norm(dphi)
    overlaps = np.abs(vecs.T @ dphi)
    k = int(np.argmax(overlaps))
    kernel_eigenvalue = float(vals[k])
    kernel_overlap = float(overlaps[k])

    others = np.delete(vals, k)
    neg = others[others < -1e-10 * norm]
    pos = others[others > 1e-10 * norm]
    neg_eigenvalue = float(neg[0]) if len(neg) else 0.0
    neg_index = int(np.argmin(vals))
    return SpectralReport(
        neg_eigenvalue=neg_eigenvalue,
        neg_count=int(len(neg)),
        kernel_eigenvalue=kernel_eigenvalue,
        kernel_overlap=kernel_overlap,
        neg_eigenvector=vecs[:, neg_index].copy(),
        ess_gap_proxy=float(pos[0]) if len(pos) else 0.0,
        operator_norm=norm,
    )


def constraint_vectors(profile: SolitonProfile, grid: PeriodicGrid) -> np.ndarray:
    """Columns v1 = (1-d^2)(4-d^2)^-1 phi and v2 = same of phi_x.

    L2-orthogonality of y to these is equivalent to the S-orthogonality of y
    to phi and phi_x.
    """
    v1 = smoothing_operator(sample_on_grid(profile, grid))
    v2 = smoothing_operator(sample_dx_on_grid(profile, grid))
    return np.column_stack([v1.samples, v2.samples])


def constrained_theta(op: OperatorMatrix, profile: SolitonProfile) -> float:
    """Minimum eigenvalue of L restricted to the S-orthogonal complement of {phi, phi_x}."""
    v = constraint_vectors(profile, op.grid)
    norms = np.linalg.norm(v, axis=0)
    cosang = abs(float(v[:, 0] @ v[:, 1])) / (norms[0] * norms[1])
    if cosang > 1.0 - 1e-10:
        raise RuntimeError(f"constraint vectors nearly collinear (cos angle {cosang:.3e})")
    q_full, _ = qr(v, mode="full")
    z = q_full[:, 2:]
    reduced = z.T @ op.matrix @ z
    vals = eigh(reduced, eigvals_only=True, subset_by_index=(0, 0))
    return float(vals[0])
