import csv
import json

import numpy as np
import pytest

from conftest import evolve_frames
from dpwavelab.evolution import EvolutionConfig, Trajectory, evolve
from dpwavelab.grid import Field, make_grid
from dpwavelab.io import FrameWriter, load_state, save_state


def load_trajectory_binary(frames_path, sidecar_path):
    """Read frames written by FrameWriter: row-major little-endian float64, shape from the sidecar."""
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    grid = make_grid(meta["n"], meta["period"])
    frames = np.fromfile(frames_path, dtype="<f8").reshape(len(meta["times"]), grid.n)
    return Trajectory(times=[float(t) for t in meta["times"]], states=[Field(grid, row.copy()) for row in frames])


def small_state():
    grid = make_grid(64, 20.0)
    return Field(grid, 0.01 * np.cos(2.0 * np.pi * grid.nodes / grid.period))


CONFIG = EvolutionConfig(kappa=1.0, t_end=0.1, dt=0.01, observer_stride=5)


def written_trajectory(outdir):
    """Evolve the small state through a FrameWriter into outdir; returns the writer and the collected frames."""
    u0 = small_state()
    with FrameWriter(u0.grid, str(outdir)) as frames:
        evolve(u0, CONFIG, frames)
    return frames, evolve_frames(u0, CONFIG)


def test_state_roundtrip(tmp_path):
    grid = make_grid(128, 35.0)
    u = Field(grid, np.sin(2.0 * np.pi * grid.nodes / grid.period))
    path = tmp_path / "state.json"
    save_state(u, str(path))
    v = load_state(str(path))
    assert v.grid == grid
    assert np.allclose(v.samples, u.samples, atol=1e-15)


def test_trajectory_csv(tmp_path):
    _, traj = written_trajectory(tmp_path)
    with open(tmp_path / "snapshots.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "u"]
    assert len(rows) == 1 + len(traj.times) * traj.states[0].grid.n
    # repr round-trips floats exactly
    assert float(rows[1][2]) == traj.states[0].samples[0]
    grid = traj.states[0].grid
    for k, (t, state) in enumerate(zip(traj.times, traj.states)):
        frame = rows[1 + k * grid.n : 1 + (k + 1) * grid.n]
        assert [float(r[0]) for r in frame] == [t] * grid.n
        assert np.array_equal([float(r[1]) for r in frame], grid.nodes)
        assert np.array_equal([float(r[2]) for r in frame], state.samples)


def test_trajectory_binary_roundtrip(tmp_path):
    frames, traj = written_trajectory(tmp_path)
    back = load_trajectory_binary(str(tmp_path / "frames.bin"), str(tmp_path / "frames.json"))
    assert back.times == traj.times == frames.times
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(frames.last, traj.states[-1].samples)


def test_writer_keeps_the_frames_before_an_error(tmp_path):
    u0 = small_state()
    with pytest.raises(RuntimeError, match="stopped"):
        with FrameWriter(u0.grid, str(tmp_path)) as frames:
            frames(0.0, u0.samples)
            frames(0.5, 2.0 * u0.samples)
            raise RuntimeError("stopped")
    back = load_trajectory_binary(str(tmp_path / "frames.bin"), str(tmp_path / "frames.json"))
    assert back.times == [0.0, 0.5]
    assert np.array_equal(back.states[1].samples, 2.0 * u0.samples)
    with open(tmp_path / "snapshots.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 2 * u0.grid.n
