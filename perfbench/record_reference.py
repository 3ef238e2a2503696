"""Record reference.json: each workload's gated values at the reference seed, with tolerances.

    python3 perfbench/record_reference.py

Run it only on a commit whose numbers are to become the reference. A value's
tolerance follows the tolerance of the code that produces it:

* quantities read at tracked positions (train sup_error and I_j increases, each
  sweep row's sup_error) move by at most decompose()'s Newton stop,
  NEWTON_TOL * ||u0||_2;
* the fitted sweep amplitude is linear in the rows' sup_error, so its
  tolerance is that bound carried through the fit;
* eigenvalues and theta come from a dense symmetric eigensolver, whose
  round-off is n * eps * ||L||;
* max_s_drift is round-off of the pseudospectral evolution: rk4_steps * n * eps.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NEWTON_TOL = 1e-10  # decompose(): stop when |r|_inf <= tol * ||u||_2
EPS = sys.float_info.epsilon


def _u0_norm(doc: dict) -> float:
    from dpwavelab.harness import Scenario, build_initial_state

    u0, _ = build_initial_state(Scenario.from_json(json.dumps(doc)))
    return u0.l2_norm()


def _tolerances(workload: str, values: dict) -> dict:
    base = workloads.scenario(workload, workloads.REFERENCE_SEED)
    out = {}
    if workload.startswith("train"):
        tracked = NEWTON_TOL * _u0_norm(base)
        steps = math.ceil(base["t_end"] / base["dt"])
        for key, value in values.items():
            atol = steps * base["grid_n"] * EPS if key == "max_s_drift" else tracked
            out[key] = {"value": value, "atol": atol}
    elif workload == "spectrum":
        for key, value in values.items():
            n = int(key.rsplit(".n", 1)[1])
            out[key] = {"value": value, "atol": n * EPS * values[f"operator_norm.n{n}"]}
    else:
        from dpwavelab.harness import Scenario

        gamma0 = Scenario.from_json(json.dumps(base)).gamma0
        weights = []
        for alpha in workloads.SWEEP_ALPHAS:
            for sep in workloads.SWEEP_SEPARATIONS:
                key = f"sup_error.alpha{alpha!r}.L{sep!r}"
                atol = NEWTON_TOL * _u0_norm(dict(base, alpha=alpha, separation=sep))
                out[key] = {"value": values[key], "atol": atol}
                weights.append((alpha + math.exp(-gamma0 * sep / 2.0), atol))
        # fitted = sum(e m) / sum(m m): each e moves by at most its atol.
        norm = sum(m * m for m, _ in weights)
        out["fitted_amplitude"] = {
            "value": values["fitted_amplitude"],
            "atol": sum(m * atol for m, atol in weights) / norm,
        }
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dpwavelab.cli

    reference = {}
    for workload in workloads.WORKLOADS:
        work = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_work-")
        try:
            argvs = workloads.commands(workload, workloads.REFERENCE_SEED, work)
            outputs = []
            for argv in argvs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = dpwavelab.cli.main(argv)
                outputs.append((code, buf.getvalue()))
        finally:
            shutil.rmtree(work)
        errors, values = workloads.check(workload, argvs, outputs)
        if errors:
            print(f"{workload}: not recording a failing result: {errors}", file=sys.stderr)
            return 1
        reference[workload] = _tolerances(workload, values)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
