"""State and trajectory persistence: JSON states, and frames streamed to CSV snapshots and binary rows with a sidecar."""

from __future__ import annotations

import json
import os

import numpy as np

from .grid import Field, PeriodicGrid, make_grid


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
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            got = "null" if doc[key] is None else type(doc[key]).__name__
            raise ValueError(f"state {path}: field {key!r} must be {what}, got {got}")
    try:
        samples = np.asarray(doc["samples"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"state {path}: field 'samples' must hold numbers: {exc}") from exc
    return Field(make_grid(doc["n"], doc["period"]), samples)


class FrameWriter:
    """The on_frame(t, samples) of one grid's evolve that writes each frame into outdir as it arrives.

    A frame appends its (t, x, u) rows, one per node, to snapshots.csv and its
    little-endian float64 row to frames.bin. On leaving its with block, also
    after an error, frames.json {n, period, times} lists the frames written.
    times and last, the last frame's samples, stay readable.
    """

    def __init__(self, grid: PeriodicGrid, outdir: str) -> None:
        self.grid, self.outdir, self.times, self.last = grid, outdir, [], None

    def __enter__(self) -> FrameWriter:
        self._csv = open(os.path.join(self.outdir, "snapshots.csv"), "w", newline="")
        self._bin = open(os.path.join(self.outdir, "frames.bin"), "wb")
        self._csv.write("t,x,u\r\n")  # the csv module's dialect: no float's repr, which round-trips it, needs quoting
        return self

    def __call__(self, t: float, samples: np.ndarray) -> None:
        self._csv.writelines(f"{t!r},{x!r},{u!r}\r\n" for x, u in zip(self.grid.nodes.tolist(), samples.tolist()))
        self._bin.write(samples.astype("<f8"))
        self.times.append(t)
        self.last = samples

    def __exit__(self, *exc_info) -> None:
        self._csv.close()
        self._bin.close()
        with open(os.path.join(self.outdir, "frames.json"), "w") as fh:
            json.dump({"n": self.grid.n, "period": self.grid.period, "times": self.times}, fh)
