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
exact. No solve reads op.matrix, and each solve starts at the widest window
the operator has solved at its centre, so no window is solved twice; the first
window around mode 0 is sized from the decay of phi_hat, so the low end is
usually solved in one window. The operator carries its phi and phi_x samples:
phi_x is the kernel direction the report looks for, and the smoothed phi and
phi_x are the constraint columns of the constrained coercivity constant, which
is read from the eigenpairs of the window blocks the report solved, by a
secular equation.
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
# The rungs m = 48 * 2^j of every window's doubling. The top window starts at the first at every operator
# (c = 3, kappa = 1 at period 100 stops there up to n = 16384; it needs 192 at period 300 and 768 at period 800).
_WINDOW_START = 48
# The window around mode 0 starts at the first rung at or above the first mode where |phi_hat| < _LOW_DECAY
# |phi_hat_0|. Over c / 2 kappa 1.01 to 5, kappa 0.5 to 2, periods 1.5 min_period to 800 and n 512 to 8192 that is
# the rung the doubling from 48 stops at (192 for c = 3, kappa = 1 at period 100), except c / 2 kappa = 5 at period
# 1.5 min_period and n >= 2048, which widens 384 -> 768. No threshold on |phi_hat| alone names every rung: from
# 5e-12 down smooth waves start a rung too high, and a start between rungs is too narrow for peaked waves.
_LOW_DECAY = 1e-10


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

    @cached_property
    def _windows(self) -> dict[int, tuple[int, list[tuple[np.ndarray, np.ndarray]]]]:
        """centre -> (m, eigenpairs (eigh) of the symmetric and antisymmetric blocks) of its widest window solved.

        Not a field, so that dataclasses.replace starts an empty one.
        """
        return {}

    @cached_property
    def _phi_hat(self) -> np.ndarray:
        """The real rfft of phi over n: phi_hat[l] is the Fourier coefficient of phi at modes l and n - l."""
        return np.fft.rfft(self.phi).real / self.grid.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.fft.irfft(self.symbol * np.fft.rfft(x), n=self.grid.n) - self.phi * x

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix of L, built on first read: an oracle for checks, read by no solve.

        The multiplier is the circulant of its kernel. Averaging the kernel with its
        reflection makes the matrix exactly symmetric and exactly reflection-invariant,
        and the circulant of a reflection-symmetric kernel is its symmetric Toeplitz matrix.
        """
        kernel = np.fft.irfft(self.symbol, n=self.grid.n)
        m = _symmetric_toeplitz(0.5 * (kernel + kernel[_reflection(self.grid.n)]))
        m[np.diag_indices(self.grid.n)] -= self.phi
        return m


@dataclass(frozen=True)
class SpectralReport:
    """The report, and the lowest eigenpairs it was read from: eigenvalues ascending, unit eigenvectors as rows."""

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


def _secular_root(pole: np.ndarray, weight: np.ndarray, j: int) -> tuple[float, float]:
    """The root of f(theta) = sum weight / (pole - theta) between pole[j] and pole[j + 1], as origin + offset.

    pole is ascending and weight positive, so f rises from -inf to +inf between
    the two poles. The origin is the pole nearer the root, and every pole - theta
    is taken as (pole - origin) - offset, so an offset far below the poles'
    spacing keeps its relative accuracy. The offset is found by the rational
    iteration of LAPACK's dlaed4 (R.-C. Li, LAPACK Working Note 89, 1993): at each
    iterate the sums over the poles up to j and above j are each modelled by one
    pole term at pole[j] or pole[j + 1] with the sum's derivative there, plus a
    constant that matches f, and the next iterate is the model's root, one unit in
    the last place further on, so that an iteration converging from one side
    crosses the root. Every evaluated offset narrows a bracket by the sign of f; an
    iterate outside it, or the tenth in a row that does not halve it, is replaced
    by the bracket's midpoint. As in bisection, the iteration ends when the
    bracket's ends are neighbouring floats and returns the end away from the origin.
    """
    half = 0.5 * (pole[j + 1] - pole[j])
    lower = (weight / ((pole - pole[j]) - half)).sum() >= 0.0
    origin = pole[j] if lower else pole[j + 1]
    diffs = pole - origin
    near, far = 0.0, half if lower else -half  # the root lies between the origin (near) and far
    offset, slow = far, 0  # start at the midpoint between the poles
    while True:
        gap = diffs - offset
        terms = weight / gap
        f = terms.sum()
        width = abs(far - near)
        if (f >= 0.0) == lower:
            far = offset
        else:
            near = offset
        mid = 0.5 * (near + far)
        if mid in (near, far):
            return origin, far
        slow = slow + 1 if abs(far - near) > 0.5 * width else 0
        slope = terms / gap
        below, above = slope[: j + 1].sum(), slope[j + 1:].sum()
        left, right = gap[j], gap[j + 1]
        a = (left + right) * f - left * right * (below + above)
        b = left * right * f
        c = f - left * below - right * above
        root = np.sqrt(abs(a * a - 4.0 * b * c))
        step = b / a if c == 0.0 else (a - root) / (2.0 * c) if a <= 0.0 else 2.0 * b / (a + root)
        offset += step
        offset += np.copysign(np.spacing(offset), step)
        if slow == 10 or not min(near, far) < offset < max(near, far):
            offset, slow = mid, 0


def _constrained_lowest(lam: np.ndarray, c: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The two lowest eigenvalues of diag(lam) restricted to the complement of the unit vector c, and the first's unit eigenvector.

    lam is ascending. An eigenvalue theta of the restriction that is no lam_i is a
    root of the secular equation sum c_i^2 / (lam_i - theta) = 0, one between each
    two neighbouring poles, with eigenvector c / (lam - theta) (Golub, SIAM Rev. 15,
    1973; Gander, Golub & von Matt, LAA 114/115, 1989). Deflation: a coordinate
    with |c_i| <= eps, as small as the rounding of c itself, is no pole, and its
    lam_i is an eigenvalue with eigenvector e_i; the lam_i within eps max|lam| of
    each other are one pole of weight sum c_i^2, and that lam is an eigenvalue once
    less often than it repeats, with an eigenvector in its eigenspace orthogonal to c.
    """
    eps = np.finfo(float).eps
    c = np.where(np.abs(c) > eps, c, 0.0)
    start = np.flatnonzero(np.append(True, np.diff(lam) > eps * np.max(np.abs(lam))))
    size = np.diff(np.append(start, len(lam)))
    pole, weight = lam[start], np.add.reduceat(c * c, start)
    live = weight > 0.0
    kept = np.repeat(np.arange(len(start)), size - live)  # the group of each deflated eigenvalue, ascending
    roots = [_secular_root(pole[live], weight[live], j) for j in range(min(2, np.count_nonzero(live) - 1))]
    lowest = np.sort(np.concatenate((pole[kept[:2]], [o + t for o, t in roots])))
    theta = lowest[0]
    if roots and theta == roots[0][0] + roots[0][1]:
        origin, offset = roots[0]
        diffs = np.repeat(pole - origin, size) - offset
        y = np.divide(c, diffs, out=np.zeros_like(c), where=c != 0.0)
    else:
        g = kept[0]
        group = slice(start[g], start[g] + size[g])
        j = group.start + int(np.argmin(np.abs(c[group])))
        y = np.zeros_like(c)
        if weight[g] > 0.0:
            y[group] = -c[j] / weight[g] * c[group]
        y[j] += 1.0
    return float(theta), float(lowest[1]) if len(lowest) > 1 else np.inf, y / np.linalg.norm(y)


def _first_rung(phi_hat: np.ndarray) -> int:
    """The first rung _WINDOW_START * 2^j at or above the first mode where |phi_hat| < _LOW_DECAY |phi_hat_0|.

    With no such mode on the half spectrum the rung lies beyond it, and the window holds every mode.
    """
    size = np.abs(phi_hat)
    below = np.flatnonzero(size < _LOW_DECAY * size[0])
    mode = below[0] if len(below) else len(size)
    m = _WINDOW_START
    while m < mode:
        m *= 2
    return m


def _window_pairs(op: OperatorMatrix, k: int, top: bool = False, columns: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of L, or with top the k highest, from a window of Fourier modes.

    Returns the eigenvalues, ascending (descending with top), and the unit
    eigenvectors as grid rows. The window holds the 2m + 1 modes centre - m ...
    centre + m, with centre 0 for the low end and n/2 for the top, and is solved
    as its two blocks under k -> n - k (_window_blocks). The operator keeps the
    widest window solved at each centre (op._windows), and every call starts at
    it; at a centre with none, the top starts at m = _WINDOW_START and the low end
    at the rung that phi_hat's decay names (_first_rung). With columns, an even
    and an odd unit grid vector, k is 1 and the pair is the lowest of L
    restricted to the complement of both columns: the symmetric block
    restricted to the complement of q, the even column's unit coordinates
    on the window, and the antisymmetric block likewise with the odd column, each
    read from its block's eigenpairs (V, lambda) through c = V^T q
    (_constrained_lowest). Each window's Ritz values bound the eigenvalues they
    approximate (Cauchy interlacing). The k extreme Ritz pairs over both blocks
    are kept; each mode pair centre +- i has one member on the rfft half
    spectrum, so their vectors take one inverse rfft to the grid and are
    symmetrized there, each exactly even or exactly odd. m doubles until every
    kept pair's Kato-Temple-type estimate |Ly - theta y|^2 / gap is at most eps
    times the window's largest |Ritz value|: Ly is op.apply(y), projected off the
    column of y's parity with columns, gap is the distance from theta to the
    nearest other Ritz value of its block, and with columns the largest |Ritz
    value| is the symbol's maximum (which bounds L from above, because phi > 0)
    or a larger |theta|. Once m = n/2 the window holds every mode, and its pairs
    are exact.
    """
    n = op.grid.n
    phase = "eigen_report" if columns is None else "constrained_theta"
    centre = n // 2 if top else 0
    column_hats = None if columns is None else np.fft.rfft(columns, norm="ortho")
    if centre in op._windows:
        m, pairs = op._windows[centre]
    else:
        m, pairs = min(_WINDOW_START if top else _first_rung(op._phi_hat), n // 2), None
    while True:
        if pairs is None:
            try:
                pairs = [eigh(block) for block in _window_blocks(op.symbol, op._phi_hat, m, centre)]
            except np.linalg.LinAlgError as exc:
                raise SpectralError(phase, f"window of {2 * m + 1} modes: {exc}") from exc
            op._windows[centre] = (m, pairs)
        i = np.arange(m + 1)
        fixed = (i == 0) | (2 * i == n)
        weight = np.where(fixed, 1.0, _SQRT_HALF)  # of a coordinate on each of its modes centre + i and centre - i
        vals, gaps, halves, parity = [], [], [], []
        largest = 0.0
        for odd, (v, vec) in enumerate(pairs):
            idx = np.flatnonzero(~fixed) if odd else i
            at = np.abs(centre - idx)  # the member of the mode pair centre +- idx on the half spectrum
            # The unitary DFT of a real even grid vector is real and symmetric; of a real odd one, -1j times
            # a real antisymmetric one, so an odd coordinate is negated at the top, where at is centre - idx.
            to_grid = -1j if odd else 1.0
            if columns is None:
                largest = max(largest, abs(v[0]), abs(v[-1]))
                d = np.diff(v)
                keep = slice(max(len(v) - k, 0), None) if top else slice(k)
                vals.append(v[keep])
                gaps.append(np.minimum(np.append(np.inf, d), np.append(d, np.inf))[keep])
                vec = vec[:, keep]
            else:
                q = (column_hats[odd, at] / to_grid).real / weight[idx]
                theta, second, y = _constrained_lowest(v, vec.T @ q / np.linalg.norm(q))
                largest = max(largest, op.symbol.max(), abs(theta))
                vals.append([theta])
                gaps.append([second - theta])
                vec = (vec @ y)[:, None]
            half = np.zeros((vec.shape[1], n // 2 + 1), dtype=complex)
            half[:, at] = (-to_grid if odd and top else to_grid) * weight[idx] * vec.T
            halves.append(half)
            parity.append(np.full(len(half), -1.0 if odd else 1.0))
        vals, gaps, parity = np.concatenate(vals), np.concatenate(gaps), np.concatenate(parity)
        if len(vals) >= k:
            order = np.argsort(vals, kind="stable")
            order = (order[::-1] if top else order)[:k]
            y = np.fft.irfft(np.concatenate(halves)[order], n=n, norm="ortho")
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
        m, pairs = min(2 * m, n // 2), None


def check_eigenpair_count(n: int, k: int) -> None:
    """Raise ValueError unless 1 <= k <= n - 2, the numbers of eigenpairs eigen_report takes on n nodes."""
    if not 1 <= k <= n - 2:
        raise ValueError(f"number of eigenpairs must be in [1, n - 2] = [1, {n - 2}], got {k}")


def eigen_report(op: OperatorMatrix, k: int = 4) -> SpectralReport:
    """Negative, kernel and gap eigenvalues of L, read from its lowest max(k, 4) eigenpairs, or more if needed."""
    n = op.grid.n
    check_eigenpair_count(n, k)
    dphi_norm = np.linalg.norm(op.phi_x)
    if not dphi_norm > 0.0:
        raise SpectralError("eigen_report", f"phi_x has norm {dphi_norm}, so it gives no kernel direction")
    top = _window_pairs(op, 1, top=True)[0][0]  # the largest eigenvalue
    dphi = op.phi_x / dphi_norm
    # Take more eigenpairs until a positive eigenvalue other than the kernel shows,
    # so that every negative eigenvalue is among them.
    k = max(k, 4)
    while True:
        vals, vecs = _window_pairs(op, k)
        norm = max(abs(vals[0]), abs(top))
        overlaps = np.abs(vecs @ dphi)
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
    blocks restricted to the complement of their column, read from the blocks'
    eigenpairs (_window_pairs). Like every solve, it starts at the widest window
    around mode 0 that op has solved, so after eigen_report it solves no window
    unless it must widen.
    """
    v = np.column_stack([smoothing_operator(Field(op.grid, f)).samples for f in (op.phi, op.phi_x)])
    norms = np.linalg.norm(v, axis=0)
    if not np.all(norms > 0.0):
        raise SpectralError("constrained_theta", f"constraint columns have norms {norms[0]} and {norms[1]}")
    cosang = abs(float(v[:, 0] @ v[:, 1])) / (norms[0] * norms[1])
    if cosang > 1.0 - 1e-10:
        raise SpectralError("constrained_theta", f"constraint vectors nearly collinear (cos angle {cosang:.3e})")
    vals, _ = _window_pairs(op, 1, columns=(v / norms).T)
    return float(vals[0])
