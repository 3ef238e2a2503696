import numpy as np
import pytest

from dpwavelab.grid import Field, make_grid
from dpwavelab.modulation import ProfileCache
from dpwavelab.soliton import SolitonParams, build_profile

# Parameter pairs exercised throughout the suite.
PARAM_PAIRS = [(3.0, 1.0), (5.0, 1.0), (2.5, 1.0), (4.0, 0.5)]


@pytest.fixture(scope="session")
def profiles():
    return {pair: build_profile(SolitonParams(*pair)) for pair in PARAM_PAIRS}


@pytest.fixture(scope="session")
def cache_k1():
    return ProfileCache(1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_field(grid, rng, scale=1.0, modes=None):
    """Band-limited random real field on the grid."""
    if modes is None:
        modes = grid.n // 4
    coeffs = np.zeros(grid.n, dtype=complex)
    idx = np.arange(1, modes + 1)
    coeffs[idx] = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    coeffs[-idx] = np.conj(coeffs[idx])
    coeffs[0] = rng.normal()
    samples = np.fft.ifft(coeffs).real
    norm = np.max(np.abs(samples))
    if norm > 0:
        samples *= scale / norm
    return Field(grid, samples)


def fitted_tail_decay(profile):
    """Least-squares slope of -log(phi) vs x over the last decade of the profile's table."""
    mask = profile.phis <= 10.0 * profile.phis[-1]
    return float(-np.polyfit(profile.xs[mask], np.log(profile.phis[mask]), 1)[0])
