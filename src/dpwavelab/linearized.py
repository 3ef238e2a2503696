"""Discretized second variation at the soliton and its spectral structure.

L = -phi_c - 2 kappa (4 - d^2)^-1 + c (1 - d^2)(4 - d^2)^-1

The nonlocal part is a Fourier multiplier and the local part a diagonal, so L
acts on a grid function in O(n log n). phi is even, so L commutes with the
reflection x -> -x and splits into an even and an odd block. The low end of the
spectrum and the constrained coercivity constant come from Lanczos with full
reorthogonalization on each block's action, in half-length coordinates, and the
two blocks' results are merged. Only the top eigenvalue, which sits in a tight
cluster that Lanczos does not resolve, uses the dense matrix: it is read, values
only, from the even block, and a Cholesky factorization certifies that the odd
block lies below it. The operator carries its phi and phi_x samples: phi_x is
the kernel direction the report looks for, and the smoothed phi and phi_x are
the constraint columns of the constrained coercivity constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with this module, not in a run's first transform
import numpy.random  # numpy loads it lazily; load it with this module, not in a run
from numpy.lib.stride_tricks import as_strided
from numpy.linalg import LinAlgError, cholesky
from numpy.linalg import eigvalsh as eigh

from .grid import Field, PeriodicGrid, smoothing_operator
from .soliton import SolitonProfile, sample_dx_on_grid, sample_on_grid

_LANCZOS_SEED = 0  # seed of the fixed Lanczos start vector: repeated solves are bitwise identical
_LANCZOS_TOL = 1e-14  # Ritz residual bound |beta_m s_mi|, relative to the largest Ritz value in magnitude
# A solve for k pairs still running after _LANCZOS_MAX_STEPS + 2k steps raises. Measured: k = 4 takes at most
# 200 steps (down to c = 2.05 kappa at n = 4096), and k up to 600 at n = 2048 at most 1.5k + 140.
_LANCZOS_MAX_STEPS = 500
_SQRT_HALF = np.sqrt(0.5)


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
    """The report, and the lowest eigenpairs it was read from: eigenvalues ascending, unit eigenvectors as columns."""

    neg_eigenvalue: float
    neg_count: int
    kernel_eigenvalue: float
    kernel_overlap: float
    ess_gap_proxy: float
    operator_norm: float
    eigenvalues: np.ndarray = field(repr=False, compare=False)
    eigenvectors: np.ndarray = field(repr=False, compare=False)


def _reflection(n: int) -> np.ndarray:
    """Node permutation of x -> -x on the grid: node j goes to node -j mod n."""
    return -np.arange(n) % n


def _circulant(c: np.ndarray) -> np.ndarray:
    """The circulant matrix with first column c: entry (i, j) is c[(i - j) mod n]."""
    n = len(c)
    ext = np.concatenate((c[::-1], c[:0:-1]))
    step = ext.strides[0]
    return as_strided(ext[n - 1:], shape=(n, n), strides=(-step, step)).copy()


@dataclass(frozen=True)
class _Parity:
    """Orthonormal half-length coordinates of the even or the odd grid functions under x -> -x.

    Even basis: e_j for the fixed nodes j = 0, n/2, (e_j + e_-j)/sqrt2 for 0 < j < n/2;
    odd basis: (e_j - e_-j)/sqrt2 for 0 < j < n/2.
    """

    n: int
    odd: bool

    @property
    def dim(self) -> int:
        return self.n // 2 - 1 if self.odd else self.n // 2 + 1

    def expand(self, a: np.ndarray) -> np.ndarray:
        """Grid functions from coordinates along the last axis."""
        half = self.n // 2
        v = np.zeros(a.shape[:-1] + (self.n,))
        inner = _SQRT_HALF * (a if self.odd else a[..., 1:half])
        v[..., 1:half] = inner
        v[..., half + 1:] = -inner[..., ::-1] if self.odd else inner[..., ::-1]
        if not self.odd:
            v[..., [0, half]] = a[..., [0, half]]
        return v

    def restrict(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of the orthogonal projection onto the block, the transpose of expand."""
        half = self.n // 2
        mirror = v[..., :half:-1]
        if self.odd:
            return _SQRT_HALF * (v[..., 1:half] - mirror)
        a = v[..., : half + 1].copy()
        a[..., 1:half] += mirror
        a[..., 1:half] *= _SQRT_HALF
        return a


def assemble_L(profile: SolitonProfile, grid: PeriodicGrid) -> OperatorMatrix:
    c = profile.params.c
    kappa = profile.params.kappa
    phi = sample_on_grid(profile, grid).samples  # raises if tail wrap too large
    symbol = c * grid.smoothing_symbol - 2.0 * kappa * grid.helmholtz_symbol(4.0)
    # The multiplier is the circulant of its kernel; averaging the kernel with its
    # reflection makes the matrix exactly symmetric and exactly reflection-invariant.
    kernel = np.fft.irfft(symbol, n=grid.n)
    m = _circulant(0.5 * (kernel + kernel[_reflection(grid.n)]))
    m[np.diag_indices(grid.n)] -= phi
    phi_x = sample_dx_on_grid(profile, grid).samples
    return OperatorMatrix(matrix=m, grid=grid, symbol=symbol, phi=phi, phi_x=phi_x)


def _lanczos(phase: str, matvec, dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of a symmetric operator on R^dim, ascending; eigenvectors as rows.

    Lanczos with full reorthogonalization: two classical Gram-Schmidt passes
    against the whole basis each step (one pass leaves it too far from
    orthogonal at n = 1024). Every 10 steps, and when the space is exhausted, the
    Ritz pairs of the tridiagonal T_m are checked; the k lowest stop at residual
    |beta_m s_mi| <= _LANCZOS_TOL max|theta|, and a solve that has not stopped
    after _LANCZOS_MAX_STEPS + 2k steps raises. The basis grows with the step
    count, so memory is O(m dim). The eigenvalues of one parity block are simple, so a
    random start vector reaches each of them.
    """
    v = np.random.default_rng(_LANCZOS_SEED).standard_normal(dim)
    v /= np.linalg.norm(v)
    basis = np.empty((min(dim, 32), dim))
    alpha: list[float] = []
    beta: list[float] = []
    m = 0
    while True:
        if m == len(basis):
            grown = np.empty((min(2 * m, dim), dim))
            grown[:m] = basis
            basis = grown
        basis[m] = v
        w = matvec(v)
        alpha.append(float(v @ w))
        m += 1
        for _ in range(2):
            w -= basis[:m].T @ (basis[:m] @ w)
        b = float(np.linalg.norm(w))
        if not np.isfinite(b):
            raise SpectralError(phase, f"Lanczos broke down at step {m}: non-finite beta {b}")
        exhausted = m == dim or b == 0.0
        if exhausted or (m >= k and m % 10 == 0):
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            if exhausted or np.all(np.abs(b * s[-1, :k]) <= _LANCZOS_TOL * np.max(np.abs(theta))):
                break
            if m >= _LANCZOS_MAX_STEPS + 2 * k:
                raise SpectralError(phase, f"Lanczos did not converge in {m} steps")
        beta.append(b)
        v = w / b
    if m < k:
        raise SpectralError(phase, f"Krylov space exhausted after {m} steps, short of {k} eigenpairs")
    return theta[:k], s[:, :k].T @ basis[:m]


def lowest_eigenpairs(op: OperatorMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues of L, ascending, and their unit eigenvectors as columns, from both parity blocks."""
    vals, vecs = [], []
    for odd in (False, True):
        parity = _Parity(op.grid.n, odd)
        block_vals, coords = _lanczos(
            "eigen_report", lambda a: parity.restrict(op.apply(parity.expand(a))), parity.dim, min(k, parity.dim)
        )
        vals.append(block_vals)
        vecs.append(parity.expand(coords))
    vals, vecs = np.concatenate(vals), np.concatenate(vecs)
    order = np.argsort(vals, kind="stable")[:k]
    return vals[order], vecs[order].T


def _top_eigenvalue(op: OperatorMatrix) -> float:
    """Largest eigenvalue of L from its even block under x -> -x, values only, certified against the odd block.

    top I - odd has a Cholesky factor exactly when the odd block lies below top;
    only when it fails are the eigenvalues of top I - odd computed.
    """
    n = op.grid.n
    half = n // 2
    # Row i of a block matrix is row i of L in the block's coordinates, times sqrt2
    # where coordinate i pairs node i with node -i: L is reflection-invariant.
    rows = op.matrix[: half + 1]
    even = _Parity(n, False).restrict(rows)
    even[1:half] *= np.sqrt(2.0)
    shifted = _Parity(n, True).restrict(rows[1:half])
    shifted *= -np.sqrt(2.0)
    top = float(eigh(even)[-1])
    shifted[np.diag_indices(half - 1)] += top  # top I - odd
    try:
        cholesky(shifted)
    except LinAlgError:
        top -= min(0.0, float(eigh(shifted)[0]))
    return top


def eigen_report(op: OperatorMatrix, k: int = 4) -> SpectralReport:
    """Negative, kernel and gap eigenvalues of L, read from its lowest eigenpairs; the first window holds max(k, 4)."""
    n = op.grid.n
    if not 1 <= k <= n - 2:
        raise ValueError(f"number of eigenpairs must be in [1, n - 2] = [1, {n - 2}], got {k}")
    top = _top_eigenvalue(op)
    dphi = op.phi_x / np.linalg.norm(op.phi_x)
    # Widen the window until a positive eigenvalue other than the kernel shows,
    # so that every negative eigenvalue is in it.
    k = max(k, 4)
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
        eigenvalues=vals,
        eigenvectors=vecs,
    )


def constrained_theta(op: OperatorMatrix) -> float:
    """Minimum eigenvalue of L restricted to the S-orthogonal complement of {phi, phi_x}.

    The constraint columns are op.phi and op.phi_x smoothed by (1-d^2)(4-d^2)^-1:
    L2-orthogonality of y to them is S-orthogonality of y to phi and phi_x. The
    smoothed phi is even and the smoothed phi_x odd, so each parity block carries
    one constraint column q, and theta is the smaller of the two blocks' minima.
    Lanczos on P L P + s q q^T with P = I - q q^T: on range(P) this is the
    restricted L; on q it is s, the symbol's maximum, which bounds L from above
    because phi > 0, so the lowest eigenvalue is the restricted minimum.
    """
    v = np.column_stack([smoothing_operator(Field(op.grid, f)).samples for f in (op.phi, op.phi_x)])
    norms = np.linalg.norm(v, axis=0)
    cosang = abs(float(v[:, 0] @ v[:, 1])) / (norms[0] * norms[1])
    if cosang > 1.0 - 1e-10:
        raise SpectralError("constrained_theta", f"constraint vectors nearly collinear (cos angle {cosang:.3e})")
    shift = float(op.symbol.max())
    theta = np.inf
    for odd, column in ((False, v[:, 0]), (True, v[:, 1])):
        parity = _Parity(op.grid.n, odd)
        q = parity.restrict(column)
        q /= np.linalg.norm(q)

        def matvec(x):
            qx = q @ x
            y = parity.restrict(op.apply(parity.expand(x - qx * q)))
            return y - (q @ y) * q + (shift * qx) * q

        vals, _ = _lanczos("constrained_theta", matvec, parity.dim, 1)
        theta = min(theta, float(vals[0]))
    return theta
