"""Discretized second variation at the soliton and its spectral structure.

L = -phi_c - 2 kappa (4 - d^2)^-1 + c (1 - d^2)(4 - d^2)^-1

The nonlocal part is a Fourier multiplier and the local part a diagonal, so L
acts on a grid function in O(n log n). In the unitary DFT basis L is
diag(s_k) - phi_hat_(k-j) / n, and phi is even, so this matrix is real and
symmetric. Every eigensolve takes a window of it: the modes around mode 0 for
the low end of the spectrum and the constrained coercivity constant, where the
symbol is smallest and the low eigenvectors live, and the modes around the
Nyquist mode for the top eigenvalue, where the symbol peaks. L commutes with
the reflection x -> -x, which is k -> n - k on the modes, so each window splits
into a symmetric and an antisymmetric block, and each eigenvector is an even or
an odd grid function. A window widens until its wanted Ritz pairs meet a
Kato-Temple-type residual test, and once it holds all n modes its answer is
exact. No solve reads op.matrix. The operator carries its phi and phi_x
samples: phi_x is the kernel direction the report looks for, and the smoothed
phi and phi_x are the constraint columns of the constrained coercivity constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with this module, not in a run's first transform
from numpy.lib.stride_tricks import as_strided
from numpy.linalg import eigh

from .grid import Field, PeriodicGrid, smoothing_operator
from .soliton import SolitonProfile, sample_dx_on_grid

_SQRT_HALF = np.sqrt(0.5)
# First half-width m of every window. The m needed grows with the period. Measured: the top takes 48 for
# c = 3, kappa = 1 at period 100 up to n = 16384, 192 at period 300, 768 at period 800, and c = 4, kappa = 0.5
# at period 100 takes 96 to 192; the low end takes 192 for c = 3, kappa = 1 at period 100.
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


def assemble_L(profile: SolitonProfile, grid: PeriodicGrid) -> OperatorMatrix:
    c = profile.params.c
    kappa = profile.params.kappa
    phi, phi_x = sample_dx_on_grid(profile, grid)  # raises if tail wrap too large
    symbol = c * grid.smoothing_symbol - 2.0 * kappa * grid.helmholtz_symbol(4.0)
    return OperatorMatrix(grid=grid, symbol=symbol, phi=phi.samples, phi_x=phi_x.samples)


def _hankel(h: np.ndarray, size: int) -> np.ndarray:
    """A read-only view of the size x size Hankel matrix whose entry (i, j) is h[i + j]."""
    step = h.strides[0]
    return as_strided(h, shape=(size, size), strides=(step, step), writeable=False)


def _window_blocks(symbol: np.ndarray, phi_hat: np.ndarray, m: int, centre: int) -> tuple[np.ndarray, np.ndarray]:
    """L on the window of the modes centre - m ... centre + m, centre 0 or n/2, split into its blocks under k -> n - k.

    symbol and phi_hat are on the rfft half spectrum, phi_hat the real rfft of phi
    over n, so p(l) = phi_hat[min(l, n - l)]. With the modes centre + i, the
    window's entry (i, j) is s_i delta_ij - p(i - j), and s_i = symbol[|centre - i|]
    = s_-i. The reflection maps i to -i. The symmetric block (i = 0 ... m) in the
    basis (e_i + e_-i)/sqrt2, or e_i at the fixed modes i = 0 and i = n/2, has
    entries s_i delta_ij - p(i - j) - p(i + j), times sqrt(1/2) per fixed index and
    with s_i doubled on a fixed diagonal; the antisymmetric block (the i that are
    not fixed) in (e_i - e_-i)/sqrt2 has s_i delta_ij - p(i - j) + p(i + j). At
    m = n/2 the window holds every mode.
    """
    n = 2 * (len(phi_hat) - 1)
    i = np.arange(m + 1)
    fixed = (i == 0) | (2 * i == n)
    lags = np.arange(2 * m + 1)
    p = phi_hat[np.minimum(lags, n - lags)]
    diff, plus = _symmetric_toeplitz(p[: m + 1]), _hankel(p, m + 1)
    s = symbol[np.abs(centre - i)]
    w = np.where(fixed, _SQRT_HALF, 1.0)
    even = (np.diag(s * (1.0 + fixed)) - diff - plus) * w[:, None] * w
    free = np.flatnonzero(~fixed)
    odd = plus[np.ix_(free, free)] - diff[np.ix_(free, free)]
    odd[np.diag_indices(len(free))] += s[free]
    return even, odd


def _window_pairs(
    op: OperatorMatrix, phase: str, k: int, top: bool = False, columns: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of L, or with top the k highest, from a window of Fourier modes.

    Returns the eigenvalues, ascending (descending with top), and the unit
    eigenvectors as grid rows. The window holds the 2m + 1 modes centre - m ...
    centre + m, with centre 0 for the low end and n/2 for the top, and is solved
    as its two blocks under k -> n - k (_window_blocks). With columns, an even and
    an odd unit grid vector, the symmetric block is P B P + s q q^T with q the even
    column's coordinates on the window, P = I - q q^T and s the symbol's maximum,
    and the antisymmetric block likewise with the odd column. On range(P) this is
    B restricted to the complement of q; on q it is s, which bounds L from above
    because phi > 0, so the lowest eigenvalues are those of L restricted to the
    complement of both columns. Each window's Ritz values bound the eigenvalues
    they approximate (Cauchy interlacing). The k extreme Ritz pairs over both
    blocks are kept; their vectors take one inverse FFT to the grid and are
    symmetrized there, so each is exactly even or exactly odd. m doubles from
    _WINDOW_START until every kept pair's Kato-Temple-type estimate
    |Ly - theta y|^2 / gap is at most eps times the window's largest |Ritz value|:
    Ly is op.apply(y), projected by P with columns, and gap is the distance from
    theta to the nearest other Ritz value of its block. Once m = n/2 the window
    holds every mode, and its pairs are exact.
    """
    n = op.grid.n
    centre = n // 2 if top else 0
    phi_hat = np.fft.rfft(op.phi).real / n
    column_hats = None if columns is None else np.fft.fft(columns, norm="ortho")
    m = _WINDOW_START
    while True:
        m = min(m, n // 2)
        i = np.arange(m + 1)
        fixed = (i == 0) | (2 * i == n)
        weight = np.where(fixed, 1.0, _SQRT_HALF)  # of a coordinate on each of its modes centre + i and centre - i
        vals, gaps, modes, parity = [], [], [], []
        largest = 0.0
        for odd, block in enumerate(_window_blocks(op.symbol, phi_hat, m, centre)):
            idx = np.flatnonzero(~fixed) if odd else i
            plus, minus = (centre + idx) % n, (centre - idx) % n
            # The unitary DFT of a real even grid vector is real and symmetric; of a real odd one, -1j times
            # a real antisymmetric one.
            to_grid = -1j if odd else 1.0
            if columns is not None:
                q = (column_hats[odd, plus] / to_grid).real / weight[idx]
                q /= np.linalg.norm(q)
                b = block @ q
                block = block - np.outer(q, b) - np.outer(b, q) + (q @ b + op.symbol.max()) * np.outer(q, q)
            try:
                v, vec = eigh(block)
            except np.linalg.LinAlgError as exc:
                raise SpectralError(phase, f"window of {2 * m + 1} modes: {exc}") from exc
            largest = max(largest, abs(v[0]), abs(v[-1]))
            d = np.diff(v)
            keep = slice(max(len(v) - k, 0), None) if top else slice(k)
            vals.append(v[keep])
            gaps.append(np.minimum(np.append(np.inf, d), np.append(d, np.inf))[keep])
            coords = to_grid * weight[idx] * vec[:, keep].T
            a = np.zeros((len(coords), n), dtype=complex)
            a[:, minus] = -coords if odd else coords
            a[:, plus] = coords
            modes.append(a)
            parity.append(np.full(len(coords), -1.0 if odd else 1.0))
        vals, gaps, parity = np.concatenate(vals), np.concatenate(gaps), np.concatenate(parity)
        if len(vals) >= k:
            order = np.argsort(vals, kind="stable")
            order = (order[::-1] if top else order)[:k]
            y = np.fft.ifft(np.concatenate(modes)[order], norm="ortho").real
            y = 0.5 * (y + parity[order, None] * y[:, _reflection(n)])
            if 2 * m == n:
                return vals[order], y
            ly = op.apply(y)
            if columns is not None:
                q = columns[(parity[order] < 0).astype(int)]
                ly -= np.sum(ly * q, axis=1)[:, None] * q
            residual = np.sum((ly - vals[order, None] * y) ** 2, axis=1)
            if not np.all(np.isfinite(residual)):
                raise SpectralError(phase, f"non-finite Ritz residual in the window of {2 * m + 1} modes")
            if np.all(residual <= np.finfo(float).eps * largest * gaps[order]):
                return vals[order], y
        m *= 2


def lowest_eigenpairs(op: OperatorMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues of L, ascending, and their unit eigenvectors as columns, each even or odd."""
    vals, vecs = _window_pairs(op, "eigen_report", k)
    return vals, vecs.T


def _top_eigenvalue(op: OperatorMatrix) -> float:
    """Largest eigenvalue of L, from the window around the Nyquist mode, where the top eigenvector lives."""
    return float(_window_pairs(op, "eigen_report", 1, top=True)[0][0])


def eigen_report(op: OperatorMatrix, k: int = 4) -> SpectralReport:
    """Negative, kernel and gap eigenvalues of L, read from its lowest max(k, 4) eigenpairs, or more if needed."""
    n = op.grid.n
    if not 1 <= k <= n - 2:
        raise ValueError(f"number of eigenpairs must be in [1, n - 2] = [1, {n - 2}], got {k}")
    top = _top_eigenvalue(op)
    dphi = op.phi_x / np.linalg.norm(op.phi_x)
    # Take more eigenpairs until a positive eigenvalue other than the kernel shows,
    # so that every negative eigenvalue is among them.
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
    smoothed phi is even and the smoothed phi_x odd, so each block of the window
    around mode 0 carries one of them, and theta is the lowest Ritz value of the
    projected blocks (_window_pairs).
    """
    v = np.column_stack([smoothing_operator(Field(op.grid, f)).samples for f in (op.phi, op.phi_x)])
    norms = np.linalg.norm(v, axis=0)
    cosang = abs(float(v[:, 0] @ v[:, 1])) / (norms[0] * norms[1])
    if cosang > 1.0 - 1e-10:
        raise SpectralError("constrained_theta", f"constraint vectors nearly collinear (cos angle {cosang:.3e})")
    vals, _ = _window_pairs(op, "constrained_theta", 1, columns=(v / norms).T)
    return float(vals[0])
