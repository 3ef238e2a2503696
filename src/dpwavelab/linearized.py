"""Discretized second variation at the soliton and its spectral structure.

L = -phi_c - 2 kappa (4 - d^2)^-1 + c (1 - d^2)(4 - d^2)^-1

The nonlocal part is a Fourier multiplier and the local part a diagonal, so L
acts on a grid function in O(n log n). phi is even, so L commutes with the
reflection x -> -x and splits into an even and an odd block. The low end of the
spectrum and the constrained coercivity constant come from Lanczos with full
reorthogonalization on each block's action, in half-length coordinates, and the
two blocks' results are merged. The top eigenvalue, which sits in a tight
cluster that Lanczos does not resolve, comes from a window of Fourier modes
around the Nyquist mode, widened until its Ritz residual is small. The window
splits into two blocks under k -> n - k; once it has grown to all n modes, their
eigenvalues are taken without eigenvectors. No solve reads op.matrix. The operator carries its phi and phi_x samples: phi_x is
the kernel direction the report looks for, and the smoothed phi and phi_x are
the constraint columns of the constrained coercivity constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with this module, not in a run's first transform
import numpy.random  # numpy loads it lazily; load it with this module, not in a run
from numpy.lib.stride_tricks import as_strided
from numpy.linalg import eigh, eigvalsh

from .grid import Field, PeriodicGrid, smoothing_operator
from .soliton import SolitonProfile, sample_dx_on_grid

_LANCZOS_SEED = 0  # seed of the fixed Lanczos start vector: repeated solves are bitwise identical
_LANCZOS_TOL = 1e-14  # Ritz residual bound |beta_m s_mi|, relative to the largest Ritz value in magnitude
# A solve for k pairs still running after _LANCZOS_MAX_STEPS + 2k steps raises. Measured: k = 4 takes at most
# 200 steps (down to c = 2.05 kappa at n = 4096), and k up to 600 at n = 2048 at most 1.5k + 140.
_LANCZOS_MAX_STEPS = 500
_SQRT_HALF = np.sqrt(0.5)
# First half-width m of the top eigenvalue's Fourier window. The m needed grows with the period. Measured:
# 48 for c = 3, kappa = 1 at period 100 up to n = 16384, 192 at period 300, 768 at period 800; c = 4,
# kappa = 0.5 at period 100 takes 96 to 192.
_WINDOW_START = 48


class SpectralError(RuntimeError):
    """An eigensolve failed; ``phase`` is "eigen_report" (the lowest eigenpairs) or "constrained_theta"."""

    def __init__(self, phase: str, message: str) -> None:
        super().__init__(f"{phase}: {message}")
        self.phase = phase


@dataclass(frozen=True)
class OperatorMatrix:
    """L on one grid: the multiplier symbol and phi samples that apply it matrix-free, and phi_x."""

    grid: PeriodicGrid
    symbol: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.symbol * np.fft.rfft(x), n=self.grid.n) - self.phi * x

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix of L, built on first read: an oracle for checks, read by no solve.

        The multiplier is the circulant of its kernel; averaging the kernel with its
        reflection makes the matrix exactly symmetric and exactly reflection-invariant.
        """
        kernel = np.fft.irfft(self.symbol, n=self.grid.n)
        m = _circulant(0.5 * (kernel + kernel[_reflection(self.grid.n)]))
        m[np.diag_indices(self.grid.n)] -= self.phi
        return m


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


def _symmetric_toeplitz(c: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with first column c: entry (i, j) is c[|i - j|]."""
    n = len(c)
    ext = np.concatenate((c[:0:-1], c))
    step = ext.strides[0]
    return as_strided(ext[n - 1:], shape=(n, n), strides=(-step, step)).copy()


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
    phi, phi_x = sample_dx_on_grid(profile, grid)  # raises if tail wrap too large
    symbol = c * grid.smoothing_symbol - 2.0 * kappa * grid.helmholtz_symbol(4.0)
    return OperatorMatrix(grid=grid, symbol=symbol, phi=phi.samples, phi_x=phi_x.samples)


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


def _hankel(h: np.ndarray, size: int) -> np.ndarray:
    """A read-only view of the size x size Hankel matrix whose entry (i, j) is h[i + j]."""
    step = h.strides[0]
    return as_strided(h, shape=(size, size), strides=(step, step), writeable=False)


def _window_blocks(symbol: np.ndarray, phi_hat: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """L on the window of the modes n/2 - m ... n/2 + m, split into its blocks under the reflection k -> n - k.

    symbol and phi_hat are on the rfft half spectrum, phi_hat the real rfft of phi
    over n, so p(l) = phi_hat[min(l, n - l)]. With the modes n/2 + i, the window's
    entry (i, j) is s_i delta_ij - p(i - j), and s_i = s_-i. The reflection maps i
    to -i. The symmetric block (i = 0 ... m) in the basis (e_i + e_-i)/sqrt2, or e_i
    at the fixed modes i = 0 and i = n/2, has entries s_i delta_ij - p(i - j) - p(i + j),
    times sqrt(1/2) per fixed index and with s_i doubled on a fixed diagonal; the
    antisymmetric block (the i that are not fixed) in (e_i - e_-i)/sqrt2 has
    s_i delta_ij - p(i - j) + p(i + j). At m = n/2 the window holds every mode.
    """
    n = 2 * (len(phi_hat) - 1)
    i = np.arange(m + 1)
    fixed = (i == 0) | (2 * i == n)
    lags = np.arange(2 * m + 1)
    p = phi_hat[np.minimum(lags, n - lags)]
    diff, plus = _symmetric_toeplitz(p[: m + 1]), _hankel(p, m + 1)
    s = symbol[n // 2 - i]
    w = np.where(fixed, _SQRT_HALF, 1.0)
    even = (np.diag(s * (1.0 + fixed)) - diff - plus) * w[:, None] * w
    free = np.flatnonzero(~fixed)
    odd = plus[np.ix_(free, free)] - diff[np.ix_(free, free)]
    odd[np.diag_indices(len(free))] += s[free]
    return even, odd


def _top_eigenvalue(op: OperatorMatrix) -> float:
    """Largest eigenvalue of L from a window of Fourier modes around the Nyquist mode.

    In the unitary DFT basis L is diag(s_k) - phi_hat_(k-j) / n. phi is
    reflection-even, so phi_hat is real and every window of modes is a real
    symmetric matrix. The symbol peaks at the Nyquist mode, where the top
    eigenvector lives. The window holds the 2m + 1 modes n/2 - m ... n/2 + m, and
    its top Ritz value theta bounds the top eigenvalue from below (Cauchy
    interlacing). The window is closed under k -> n - k, so it is solved as its
    symmetric (m + 1 modes) and antisymmetric (m modes) blocks, whose Ritz values
    together are the window's. m doubles from _WINDOW_START until the
    Kato-Temple-type error estimate |Ly - theta y|^2 / (theta - theta_2), with y
    the Ritz vector and theta_2 the second Ritz value over both blocks, is at most
    eps times the largest |Ritz value|; the residual takes one FFT pair. Once
    2m + 1 reaches n the window holds every mode, and its top eigenvalue, taken
    without eigenvectors, is exact.
    """
    n = op.grid.n
    phi_hat = np.fft.rfft(op.phi).real / n
    symbol = np.concatenate((op.symbol, op.symbol[-2:0:-1]))  # at every mode k = 0 .. n - 1
    m = _WINDOW_START
    while 2 * m + 1 < n:
        (even_vals, even_vecs), (odd_vals, odd_vecs) = (eigh(b) for b in _window_blocks(op.symbol, phi_hat, m))
        odd_top = odd_vals[-1] > even_vals[-1]
        vals, vec = (odd_vals, odd_vecs[:, -1]) if odd_top else (even_vals, even_vecs[:, -1])
        top = float(vals[-1])
        second = max(vals[-2], (even_vals if odd_top else odd_vals)[-1])
        # The Ritz vector on the modes n/2 +- i, i = 1 ... m; the symmetric block also holds the mode n/2 itself.
        pairs = n // 2 + np.arange(1, m + 1)
        y = np.zeros(n, dtype=complex)
        y[pairs] = _SQRT_HALF * vec[-m:]
        y[n - pairs] = -y[pairs] if odd_top else y[pairs]
        if not odd_top:
            y[n // 2] = vec[0]
        residual = (symbol - top) * y - np.fft.fft(op.phi * np.fft.ifft(y, norm="ortho"), norm="ortho")
        bound = np.finfo(float).eps * max(abs(min(even_vals[0], odd_vals[0])), abs(top))
        if np.linalg.norm(residual) ** 2 <= bound * (top - second):
            return top
        m *= 2
    return float(max(eigvalsh(block)[-1] for block in _window_blocks(op.symbol, phi_hat, n // 2)))


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
