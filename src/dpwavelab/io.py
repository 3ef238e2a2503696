"""State and trajectory persistence: JSON states, CSV snapshots, binary frames with sidecar."""

from __future__ import annotations

import csv
import json

import numpy as np

from .evolution import Trajectory
from .grid import Field, make_grid


def save_state(field: Field, path: str) -> None:
    doc = {"n": field.grid.n, "period": field.grid.period, "samples": field.samples.tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_state(path: str) -> Field:
    """The field save_state wrote; a document that is no object with n, period and samples raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"state {path}: expected a JSON object with n, period and samples, got {type(doc).__name__}")
    for key, kind, what in (("n", int, "an integer"), ("period", (int, float), "a number"), ("samples", list, "a list")):
        if key not in doc:
            raise ValueError(f"state {path}: field {key!r} is missing")
        if not isinstance(doc[key], kind):
            got = "null" if doc[key] is None else type(doc[key]).__name__
            raise ValueError(f"state {path}: field {key!r} must be {what}, got {got}")
    try:
        samples = np.asarray(doc["samples"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"state {path}: field 'samples' must hold numbers: {exc}") from exc
    return Field(make_grid(doc["n"], doc["period"]), samples)


def save_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Long-format rows (t, x, u), one row per node per stored frame."""
    grid = traj.states[0].grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "u"])
        for t, state in zip(traj.times, traj.states):
            for x, u in zip(grid.nodes, state.samples):
                writer.writerow([repr(t), repr(float(x)), repr(float(u))])


def save_trajectory_binary(traj: Trajectory, frames_path: str, sidecar_path: str) -> None:
    """Row-major float64 frames plus a JSON sidecar {n, period, times}."""
    grid = traj.states[0].grid
    frames = np.stack([s.samples for s in traj.states])
    frames.astype("<f8").tofile(frames_path)
    with open(sidecar_path, "w") as fh:
        json.dump({"n": grid.n, "period": grid.period, "times": list(traj.times)}, fh)

