"""Discretized second variation at the soliton and its spectral structure.

L = -phi_c - 2 kappa (4 - d^2)^-1 + c (1 - d^2)(4 - d^2)^-1

The nonlocal part is a Fourier multiplier and the local part a diagonal, so L
acts on a grid function in O(n log n). The low end of the spectrum and the
constrained coercivity constant come from implicitly restarted Lanczos (ARPACK
through eigsh) on that action. Only the top eigenvalue, which sits in a tight
cluster that Lanczos does not resolve, uses the dense matrix: phi is even, so L
commutes with the reflection x -> -x and its top eigenvalue is read, values
only, from the even and odd blocks. The operator carries its phi and phi_x
samples: phi_x is the kernel direction the report looks for, and the smoothed
phi and phi_x are the constraint columns of the constrained coercivity constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import circulant, eigh
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .grid import Field, PeriodicGrid, smoothing_operator
from .soliton import SolitonProfile, sample_dx_on_grid, sample_on_grid

_LANCZOS_SEED = 0  # seed of the fixed Lanczos start vector: repeated solves are bitwise identical


class SpectralError(RuntimeError):
    """An eigensolve failed; ``phase`` is "eigen_report" (the lowest eigenpairs) or "constrained_theta"."""

    def __init__(self, phase: str, message: str) -> None:
        super().__init__(f"{phase}: {message}")
        self.phase = phase


@dataclass(frozen=True)
class OperatorMatrix:
    """L on one grid: the dense matrix, the multiplier symbol and phi samples that apply it matrix-free, and phi_x."""

    matrix: np.ndarray
    grid: PeriodicGrid
    symbol: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.symbol * np.fft.rfft(x), n=self.grid.n) - self.phi * x


@dataclass(frozen=True)
class SpectralReport:
    neg_eigenvalue: float
    neg_count: int
    kernel_eigenvalue: float
    kernel_overlap: float
    ess_gap_proxy: float
    operator_norm: float


def _reflection(n: int) -> np.ndarray:
    """Node permutation of x -> -x on the grid: node j goes to node -j mod n."""
    return -np.arange(n) % n


def assemble_L(profile: SolitonProfile, grid: PeriodicGrid) -> OperatorMatrix:
    c = profile.params.c
    kappa = profile.params.kappa
    phi = sample_on_grid(profile, grid).samples  # raises if tail wrap too large
    symbol = c * grid.smoothing_symbol - 2.0 * kappa * grid.helmholtz_symbol(4.0)
    # The multiplier is the circulant of its kernel; averaging the kernel with its
    # reflection makes the matrix exactly symmetric and exactly reflection-invariant.
    kernel = np.fft.irfft(symbol, n=grid.n)
    m = circulant(0.5 * (kernel + kernel[_reflection(grid.n)]))
    m[np.diag_indices(grid.n)] -= phi
    phi_x = sample_dx_on_grid(profile, grid).samples
    return OperatorMatrix(matrix=m, grid=grid, symbol=symbol, phi=phi, phi_x=phi_x)


def _lanczos(phase: str, matvec, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of a symmetric operator, ascending, to machine precision."""
    # A generic start vector has both parities under x -> -x. From an even one, Lanczos reaches
    # the odd kernel phi_x only through round-off, and can skip eigenvalues (at n = 2048 it does).
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=matvec, dtype=float), k=k, which="SA", tol=0, v0=v0)
    except ArpackError as exc:
        raise SpectralError(phase, f"Lanczos for the {k} lowest eigenpairs failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def lowest_eigenpairs(op: OperatorMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues of L, ascending, and their unit eigenvectors as columns (1 <= k <= n - 2)."""
    if not 1 <= k <= op.grid.n - 2:
        raise ValueError(f"number of eigenpairs must be in [1, n - 2] = [1, {op.grid.n - 2}], got {k}")
    return _lanczos("eigen_report", op.apply, op.grid.n, k)


def _top_eigenvalue(op: OperatorMatrix) -> float:
    """Largest eigenvalue of L from its even and odd blocks under x -> -x, values only."""
    half = op.grid.n // 2
    rows = op.matrix[: half + 1]
    mirror = _reflection(op.grid.n)[: half + 1]
    # Even basis: e_j for the fixed nodes j = 0, n/2, (e_j + e_-j)/sqrt2 otherwise;
    # odd basis: (e_j - e_-j)/sqrt2 for 0 < j < n/2.
    scale = np.ones(half + 1)
    scale[[0, half]] = np.sqrt(0.5)
    even = scale[:, None] * (rows[:, : half + 1] + rows[:, mirror]) * scale
    odd = rows[1:half, 1:half] - rows[1:half, mirror[1:half]]
    top_even = eigh(even, eigvals_only=True, subset_by_index=(half, half))[0]
    top_odd = eigh(odd, eigvals_only=True, subset_by_index=(half - 2, half - 2))[0]
    return float(max(top_even, top_odd))


def eigen_report(op: OperatorMatrix) -> SpectralReport:
    n = op.grid.n
    top = _top_eigenvalue(op)
    dphi = op.phi_x / np.linalg.norm(op.phi_x)
    # Widen the window until a positive eigenvalue other than the kernel shows,
    # so that every negative eigenvalue is in it.
    k = min(4, n - 2)
    while True:
        vals, vecs = lowest_eigenpairs(op, k)
        norm = max(abs(vals[0]), abs(top))
        overlaps = np.abs(vecs.T @ dphi)
        kernel = int(np.argmax(overlaps))
        others = np.delete(vals, kernel)
        if others[-1] > 1e-10 * norm or k == n - 2:
            break
        k = min(2 * k, n - 2)

    neg = others[others < -1e-10 * norm]
    pos = others[others > 1e-10 * norm]
    return SpectralReport(
        neg_eigenvalue=float(neg[0]) if len(neg) else 0.0,
        neg_count=int(len(neg)),
        kernel_eigenvalue=float(vals[kernel]),
        kernel_overlap=float(overlaps[kernel]),
        ess_gap_proxy=float(pos[0]) if len(pos) else 0.0,
        operator_norm=float(norm),
    )


def constrained_theta(op: OperatorMatrix) -> float:
    """Minimum eigenvalue of L restricted to the S-orthogonal complement of {phi, phi_x}.

    The constraint columns are op.phi and op.phi_x smoothed by (1-d^2)(4-d^2)^-1:
    L2-orthogonality of y to them is S-orthogonality of y to phi and phi_x.
    Lanczos on P L P + s Q Q^T, where Q is an orthonormal basis of the
    constraint columns and P = I - Q Q^T. On range(P) this is the restricted L;
    on range(Q) it is s, the symbol's maximum, which bounds L from above
    because phi > 0, so the lowest eigenvalue is the restricted minimum.
    """
    v = np.column_stack([smoothing_operator(Field(op.grid, f)).samples for f in (op.phi, op.phi_x)])
    norms = np.linalg.norm(v, axis=0)
    cosang = abs(float(v[:, 0] @ v[:, 1])) / (norms[0] * norms[1])
    if cosang > 1.0 - 1e-10:
        raise SpectralError("constrained_theta", f"constraint vectors nearly collinear (cos angle {cosang:.3e})")
    q, _ = np.linalg.qr(v)
    shift = float(op.symbol.max())

    def matvec(x):
        qx = q.T @ x
        y = op.apply(x - q @ qx)
        return y - q @ (q.T @ y) + shift * (q @ qx)

    vals, _ = _lanczos("constrained_theta", matvec, op.grid.n, 1)
    return float(vals[0])
