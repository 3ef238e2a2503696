import csv
import json

import numpy as np

from dpwavelab.evolution import EvolutionConfig, Trajectory, evolve
from dpwavelab.grid import Field, make_grid
from dpwavelab.io import load_state, save_state, save_trajectory_binary, save_trajectory_csv


def load_trajectory_binary(frames_path, sidecar_path):
    """Read frames written by save_trajectory_binary: row-major little-endian float64, shape from the sidecar."""
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    grid = make_grid(meta["n"], meta["period"])
    frames = np.fromfile(frames_path, dtype="<f8").reshape(len(meta["times"]), grid.n)
    return Trajectory(times=[float(t) for t in meta["times"]], states=[Field(grid, row.copy()) for row in frames])


def small_trajectory():
    grid = make_grid(64, 20.0)
    u0 = Field(grid, 0.01 * np.cos(2.0 * np.pi * grid.nodes / grid.period))
    return evolve(u0, EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01, observer_stride=5))


def test_state_roundtrip(tmp_path):
    grid = make_grid(128, 35.0)
    u = Field(grid, np.sin(2.0 * np.pi * grid.nodes / grid.period))
    path = tmp_path / "state.json"
    save_state(u, str(path))
    v = load_state(str(path))
    assert v.grid == grid
    assert np.allclose(v.samples, u.samples, atol=1e-15)


def test_trajectory_csv(tmp_path):
    traj = small_trajectory()
    path = tmp_path / "snap.csv"
    save_trajectory_csv(traj, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "u"]
    assert len(rows) == 1 + len(traj.times) * traj.states[0].grid.n
    # repr round-trips floats exactly
    assert float(rows[1][2]) == traj.states[0].samples[0]


def test_trajectory_binary_roundtrip(tmp_path):
    traj = small_trajectory()
    frames = tmp_path / "frames.bin"
    sidecar = tmp_path / "frames.json"
    save_trajectory_binary(traj, str(frames), str(sidecar))
    back = load_trajectory_binary(str(frames), str(sidecar))
    assert back.times == traj.times
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.samples, b.samples)
