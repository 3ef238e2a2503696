"""The benchmark's four workloads: their inputs, their CLI commands and their correctness gates.

Every workload is a list of ``dpwavelab`` CLI invocations, run the way a user
runs them. The workload seed goes into ``Scenario.seed`` and nowhere else;
``spectrum`` has no scenario and does not depend on the seed.

Stdlib only: this module is imported before dpwavelab, inside the timed set-up.
"""

from __future__ import annotations

import json
import math
import os

WORKLOADS = ("train-coarse", "train-dense", "spectrum", "sweep")

# Values at this seed are compared against reference.json.
REFERENCE_SEED = 3

# tests/test_acceptance.py::ACCEPT_SCENARIO at the commit that defined this
# benchmark, copied so that a later change to the test does not move the workload.
ACCEPT = {
    "kappa": 1.0,
    "speeds": [3.0, 5.0],
    "separation": 60.0,
    "alpha": 1e-3,
    "perturbation_kind": "bump",
    "grid_n": 1024,
    "grid_period": 200.0,
    "dt": 0.01,
    "t_end": 20.0,
    "observer_stride": 200,
    "weight_B": 3.0,
}
# Same 2000 RK4 steps, three waves and 101 observed frames: modulation dominates.
DENSE = dict(ACCEPT, speeds=[3.0, 4.0, 5.0], grid_period=300.0, observer_stride=20)

SWEEP_ALPHAS = (1e-4, 1e-3, 1e-2)
SWEEP_SEPARATIONS = (30.0, 60.0)
SWEEP_PARALLELISM = 2
SPECTRUM_SIZES = (1024, 2048)


def scenario(workload: str, seed: int) -> dict | None:
    """The workload's scenario document, or None for ``spectrum``."""
    if workload == "spectrum":
        return None
    return dict(DENSE if workload == "train-dense" else ACCEPT, seed=seed)


def commands(workload: str, seed: int, workdir: str) -> list[list[str]]:
    """Write the workload's inputs under workdir and return the argv of each CLI call."""
    if workload == "spectrum":
        return [
            ["spectrum", "--c", "3", "--kappa", "1", "--period", "100", "--n", str(n)]
            for n in SPECTRUM_SIZES
        ]
    config = os.path.join(workdir, "scenario.json")
    with open(config, "w") as fh:
        json.dump(scenario(workload, seed), fh)
    out = os.path.join(workdir, "out")
    os.makedirs(out)
    if workload == "sweep":
        return [[
            "sweep", "--config", config,
            "--alphas", ",".join(map(repr, SWEEP_ALPHAS)),
            "--separations", ",".join(map(repr, SWEEP_SEPARATIONS)),
            "--parallelism", str(SWEEP_PARALLELISM),
            "--out", out,
        ]]
    return [["stability", "--config", config, "--out", out]]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _verdicts(workload: str, doc: dict, n: int) -> tuple[list[str], dict]:
    """The command's own verdicts for one CLI output, and the values compared with the reference."""
    errors = []
    values = {}
    if workload.startswith("train"):
        alpha = ACCEPT["alpha"]
        if doc.get("apriori_all_ok") is not True:
            errors.append("apriori_all_ok is not true")
        if doc.get("w0_ok") is not True:
            errors.append("w0_ok is not true")
        if not (_finite(doc.get("sup_error")) and doc["sup_error"] <= 5.0 * alpha):
            errors.append(f"sup_error {doc.get('sup_error')} exceeds 5*alpha = {5.0 * alpha}")
        for key in sorted(doc):
            if key in ("sup_error", "max_s_drift") or (key.startswith("I_") and key.endswith("_max_increase")):
                values[key] = doc[key]
    elif workload == "spectrum":
        if doc.get("neg_count") != 1:
            errors.append(f"n={n}: neg_count {doc.get('neg_count')} != 1")
        if not (_finite(doc.get("kernel_overlap")) and doc["kernel_overlap"] > 0.999):
            errors.append(f"n={n}: kernel_overlap {doc.get('kernel_overlap')} <= 0.999")
        if not (_finite(doc.get("theta")) and doc["theta"] > 0):
            errors.append(f"n={n}: theta {doc.get('theta')} is not positive")
        for key in ("neg_eigenvalue", "theta", "ess_gap_proxy", "operator_norm"):
            values[f"{key}.n{n}"] = doc.get(key)
    else:
        rows = doc.get("rows", [])
        if len(rows) != len(SWEEP_ALPHAS) * len(SWEEP_SEPARATIONS):
            errors.append(f"sweep returned {len(rows)} rows")
        failed = [r for r in rows if r.get("failed")]
        if failed:
            errors.append(f"{len(failed)} failed sweep rows: {[r.get('error') for r in failed]}")
        if not _finite(doc.get("fitted_amplitude")):
            errors.append(f"fitted_amplitude {doc.get('fitted_amplitude')} is not finite")
        values["fitted_amplitude"] = doc.get("fitted_amplitude")
        for r in rows:
            values[f"sup_error.alpha{r['alpha']!r}.L{r['L']!r}"] = r.get("sup_error")
    return errors, values


def check(workload: str, argvs: list[list[str]], outputs: list) -> tuple[list[str], dict]:
    """Gate one repetition on the commands' exit codes and their own verdicts.

    ``outputs`` holds (exit code, captured stdout) per CLI call; an exit code
    that is not an int is the text of an exception the call raised. Returns the
    list of failed checks (empty when the repetition is correct) and the values
    that ``compare`` checks against the reference.
    """
    errors: list[str] = []
    values: dict = {}
    for argv, (code, text) in zip(argvs, outputs):
        if code != 0:
            errors.append(f"{argv[0]} exited with {code!r}")
            continue
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            errors.append(f"{argv[0]} printed no JSON document: {exc}")
            continue
        n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 0
        errs, vals = _verdicts(workload, doc, n)
        errors += errs
        values.update(vals)
    return errors, values


def compare(values: dict, expected: dict) -> list[str]:
    """Differences from the reference values, each beyond its stored tolerance."""
    errors = []
    for key in sorted(set(expected) | set(values)):
        if key not in expected or key not in values:
            errors.append(f"{key}: present in only one of output and reference")
            continue
        ref = expected[key]
        got = values[key]
        if not (_finite(got) and abs(got - ref["value"]) <= ref["atol"]):
            errors.append(f"{key} = {got!r} differs from reference {ref['value']!r} by more than {ref['atol']:.3g}")
    return errors
