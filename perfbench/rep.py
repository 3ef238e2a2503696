"""One repetition of a workload, in a fresh Python process.

    python3 perfbench/rep.py --workload train-coarse --seed 3 --work <empty dir> [--trace]

Imports dpwavelab from the checkout's src/, writes the workload's inputs under
--work, calls ``dpwavelab.cli.main`` for each of the workload's commands and
gates their outputs. Prints one JSON line: the monotonic time at which set-up
ended, run_s, cpu_s, peak_rss_mb, the gate's verdict, the values compared with
the reference, the library provenance and, with --trace, the per-layer metrics
and the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _openblas(package) -> dict:
    """Name, version and thread count of the OpenBLAS a wheel bundles, read through its C API."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), f"{package.__name__}.libs")
    info = {}
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info = {"library": os.path.basename(path), "config": get_config().decode(), "threads": get_threads()}
                break
    return info


def provenance() -> dict:
    import numpy
    import scipy

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _openblas(numpy),
        "scipy_blas": _openblas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dpwavelab.cli

    if not os.path.abspath(dpwavelab.cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"dpwavelab was imported from {dpwavelab.cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    argvs = workloads.commands(args.workload, args.seed, args.work)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
        reference = json.load(fh)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    cpu0 = _cpu_s(resource.RUSAGE_SELF)
    children0 = _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    outputs = []
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = dpwavelab.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        outputs.append((code, buf.getvalue()))
    run_s = time.perf_counter() - t0
    worker_cpu_s = _cpu_s(resource.RUSAGE_CHILDREN) - children0
    cpu_s = _cpu_s(resource.RUSAGE_SELF) - cpu0 + worker_cpu_s
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest child.
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    errors, values = workloads.check(args.workload, argvs, outputs)
    if args.seed == workloads.REFERENCE_SEED and not errors:
        errors = workloads.compare(values, reference[args.workload])
    doc = {
        "ready": ready,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "errors": errors,
        "values": values,
        "provenance": provenance(),
    }
    if tracer is not None:
        tracer.uninstall()
        parallelism = workloads.SWEEP_PARALLELISM if args.workload == "sweep" else 0
        layers = tracing.layer_metrics(tracer.spans, run_s, worker_cpu_s, parallelism)
        layers["evolution.rhs_ms"] = _rhs_ms(args.workload, args.seed)
        doc["layers"] = layers
        doc["spans"] = tracer.spans
    print(json.dumps(doc))
    return 0


def _rhs_ms(workload: str, seed: int) -> float:
    """Median time of one dp_rhs call on the workload's initial state; 0 for spectrum."""
    scenario = workloads.scenario(workload, seed)
    if scenario is None:
        return 0.0
    from dpwavelab.evolution import dp_rhs
    from dpwavelab.harness import Scenario, build_initial_state

    sc = Scenario.from_json(json.dumps(scenario))
    u0, _ = build_initial_state(sc)
    times = []
    for _ in range(200):
        t = time.perf_counter()
        dp_rhs(u0, sc.kappa, sc.dealias)
        times.append(time.perf_counter() - t)
    times.sort()
    return 1e3 * times[len(times) // 2]


if __name__ == "__main__":
    sys.exit(main())
