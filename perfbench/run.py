"""The dpwavelab benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload train-coarse --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. Each repetition is a fresh Python process
(perfbench/rep.py) that imports dpwavelab from src/ and calls its CLI, one
repetition at a time. Repetitions are started while the next one is expected
to end within --seconds, and at least MIN_REPS are run.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, each the
median over the repetitions. --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics, each the median over the traced
repetitions, with trace.overhead_s = median traced run_s - median untraced
run_s. Every repetition is gated; one that fails counts in ``failed``.

The last line of stdout is the result JSON. Provenance, per-repetition
records and the spans of the last traced repetition are written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 2
REP_TIMEOUT_S = 120.0


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_provenance() -> dict:
    """Commit and dirtiness of the checkout, when it is the top of a git work tree."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": _git("rev-parse", "HEAD"), "git_dirty": bool(_git("status", "--porcelain"))}


def run_rep(workload: str, seed: int, work_root: str, trace: bool) -> dict:
    """Run one repetition; returns its record, with ``errors`` non-empty if it failed."""
    work = tempfile.mkdtemp(dir=work_root)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload, "--seed", str(seed), "--work", work]
    if trace:
        cmd.append("--trace")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    # Its own process group, so that a timed-out repetition is killed with the sweep's workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        return {"errors": [f"timed out after {REP_TIMEOUT_S} s"], "stderr": stderr[-4000:]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    try:
        rec = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"errors": [f"rep.py exited with {proc.returncode} and no record"], "stderr": stderr[-4000:], "elapsed_s": elapsed}
    if proc.returncode != 0:
        rec["errors"].append(f"rep.py exited with {proc.returncode}")
    rec["setup_s"] = rec.pop("ready") - spawned
    rec["elapsed_s"] = elapsed
    if rec["errors"]:
        rec["stderr"] = stderr[-4000:]
    return rec


def _warm_up() -> None:
    """Compile src/ and fault in the interpreter and libraries, as on a machine that has run dpwavelab before."""
    import compileall

    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", "import dpwavelab.cli"], cwd=ROOT, env=env, check=True, timeout=120)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dpwavelab", "cli.py")):
        print(f"no dpwavelab sources under {ROOT}/src: run from the root of a dpwavelab checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    _warm_up()
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    start = time.monotonic()
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(dict(run_rep(args.workload, args.seed, work_root, traced), traced=traced))
        longest = max(r.get("elapsed_s", 0.0) for r in reps)
        if len(reps) >= MIN_REPS and time.monotonic() - start + longest > args.seconds:
            break
    shutil.rmtree(work_root, ignore_errors=True)

    ok = [r for r in reps if not r["errors"]]
    failed = len(reps) - len(ok)
    for r in reps:
        if r["errors"]:
            print(f"failed repetition: {r['errors']}\n{r.get('stderr', '')}", file=sys.stderr)

    def median(key, traced):
        vals = [r[key] for r in ok if r["traced"] == traced]
        return statistics.median(vals) if vals else None

    if args.trace:
        traced_ok = [r for r in ok if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced_ok) for name in traced_ok[0]["layers"]} if traced_ok else {}
        if traced_ok and median("run_s", False) is not None:
            values["trace.overhead_s"] = median("run_s", True) - median("run_s", False)
    else:
        values = {name: median(name, False) for name in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        print(f"metrics without a value: {missing}", file=sys.stderr)

    provenance = dict(ok[0]["provenance"] if ok else {}, **_source_provenance())
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance,
        "repetitions": [{k: v for k, v in r.items() if k not in ("spans", "provenance")} for r in reps],
        "spans": next((r["spans"] for r in reversed(reps) if "spans" in r), None),
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    correct = failed == 0 and not missing
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
