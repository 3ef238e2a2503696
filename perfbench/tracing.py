"""Spans recorded from outside the program, by wrapping dpwavelab's functions where callers resolve them.

A wrapper replaces the module attribute that the calling code looks up at run
time (``dpwavelab.harness.evolve`` is what ``run_stability`` calls, not
``dpwavelab.evolution.evolve``). Each call becomes a span: name, start, end,
parent and a few facts read from its arguments or result. Spans stay in memory
until the repetition ends. Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time

from workloads import SPECTRUM_SIZES


def _op_n(args, kw, out):
    return {"n": args[0].grid.n}


def _assembled(args, kw, out):
    return {"n": args[1].n, "bytes": out.matrix.nbytes}


def _evolved(args, kw, out):
    config = args[1]
    # Fixed-step RK4: evolve() takes ceil(t_end / dt) steps.
    return {"frames": len(out.times), "steps": math.ceil(config.t_end / config.dt - 1e-12)}


def _tracked(args, kw, out):
    return {"iterations": sum(st.iterations for st in out)}


# (module, attribute, span name, facts to keep). The module is the one whose
# namespace the caller resolves the name in.
TARGETS = [
    ("dpwavelab.cli", "main", "cli", None),
    ("dpwavelab.cli", "run_stability", "harness.run_stability", None),
    ("dpwavelab.cli", "run_sweep", "harness.run_sweep", None),
    ("dpwavelab.cli", "build_profile", "soliton.build_profile", None),
    ("dpwavelab.cli", "assemble_L", "linearized.assemble_L", _assembled),
    ("dpwavelab.cli", "eigen_report", "linearized.eigen_report", _op_n),
    ("dpwavelab.cli", "constrained_theta", "linearized.constrained_theta", _op_n),
    ("dpwavelab.linearized", "eigh", "linearized.eigh", None),
    ("dpwavelab.harness", "build_initial_state", "harness.build_initial_state", None),
    ("dpwavelab.harness", "evolve", "evolution.evolve", _evolved),
    ("dpwavelab.harness", "track", "modulation.track", _tracked),
    ("dpwavelab.harness", "apriori_checks", "diagnostics", None),
    ("dpwavelab.harness", "localized_momentum", "diagnostics", None),
    ("dpwavelab.harness", "momentum_S", "invariants", None),
    ("dpwavelab.harness", "hamiltonian_H", "invariants", None),
    ("dpwavelab.modulation", "decompose", "modulation.decompose", None),
    ("dpwavelab.modulation", "orthogonality_residual", "modulation.orthogonality_residual", None),
    ("dpwavelab.modulation", "build_profile", "soliton.build_profile", None),
    ("dpwavelab.modulation", "sample_on_grid", "soliton.sample", None),
    ("dpwavelab.modulation", "sample_dx_on_grid", "soliton.sample", None),
    ("dpwavelab.modulation", "s_inner", "grid.s_inner", None),
    ("dpwavelab.diagnostics", "derivative", "grid.spectral_op", None),
    ("dpwavelab.diagnostics", "helmholtz_inverse", "grid.spectral_op", None),
    ("dpwavelab.invariants", "derivative", "grid.spectral_op", None),
    ("dpwavelab.invariants", "helmholtz_inverse", "grid.spectral_op", None),
    ("dpwavelab.invariants", "sqrt_helmholtz_inverse4", "grid.spectral_op", None),
]


class Tracer:
    """Installs the wrappers; ``spans`` is a list of [name, start, end, parent index, facts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, fn, name, facts):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kw):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if facts is not None:
                span[4] = facts(args, kw, out)
            return out

        return traced

    def install(self) -> "Tracer":
        owners = [(importlib.import_module(mod), attr, name, facts) for mod, attr, name, facts in TARGETS]
        cache_cls = importlib.import_module("dpwavelab.modulation").ProfileCache
        owners.append((cache_cls, "get", "soliton.cache_get", None))
        for owner, attr, name, facts in owners:
            fn = getattr(owner, attr)
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, facts))
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], run_s: float, worker_cpu_s: float, parallelism: int) -> dict:
    """Per-layer metrics from one traced repetition.

    A layer the workload never reaches reads 0. ``worker_cpu_s`` is the CPU
    time of the repetition's child processes (the sweep pool's workers).
    """
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s[0] == name)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def self_time(name):
        return sum(d - c for s, d, c in zip(spans, dur, child_time) if s[0] == name)

    def fact(name, key):
        return sum(s[4][key] for s in spans if s[0] == name)

    frames = fact("evolution.evolve", "frames")
    steps = fact("evolution.evolve", "steps")
    iters = fact("modulation.track", "iterations")
    evolve_s = total("evolution.evolve")
    residual_evals = count("modulation.orthogonality_residual")
    gets = count("soliton.cache_get")
    misses = sum(1 for s in spans if s[0] == "soliton.build_profile" and s[3] >= 0 and spans[s[3]][0] == "soliton.cache_get")
    decompose_ms = [1e3 * d for s, d in zip(spans, dur) if s[0] == "modulation.decompose"]
    harness_self = self_time("harness.run_stability")

    out = {
        "evolution.evolve_s": evolve_s,
        "evolution.rk4_steps": steps,
        "evolution.step_ms": 1e3 * evolve_s / steps if steps else 0.0,
        "modulation.track_s": total("modulation.track"),
        "modulation.decompose_ms_p50": _percentile(decompose_ms, 50),
        "modulation.decompose_ms_p90": _percentile(decompose_ms, 90),
        "modulation.newton_iters": iters,
        "modulation.residual_evals": residual_evals,
        "modulation.residual_evals_per_iter": residual_evals / iters if iters else 0.0,
        "soliton.build_profile_calls": count("soliton.build_profile"),
        "soliton.build_profile_s": total("soliton.build_profile"),
        "soliton.cache_hit_ratio": 1.0 - misses / gets if gets else 0.0,
        "soliton.sample_calls": count("soliton.sample"),
        "soliton.sample_s": total("soliton.sample"),
        "grid.s_inner_calls": count("grid.s_inner"),
        "grid.s_inner_s": total("grid.s_inner"),
        "grid.spectral_op_s": total("grid.spectral_op"),
        "diagnostics.per_frame_ms": 1e3 * total("diagnostics") / frames if frames else 0.0,
        "invariants.per_frame_ms": 1e3 * total("invariants") / frames if frames else 0.0,
        "harness.initial_state_s": total("harness.build_initial_state"),
        "harness.self_s": harness_self,
        "harness.sweep_worker_cpu_s": worker_cpu_s,
        "harness.sweep_busy_frac": worker_cpu_s / (run_s * parallelism) if parallelism else 0.0,
        "cli.self_s": self_time("cli"),
        # Share of run_s inside the top-level spans: CLI self time, initial
        # state, evolve, track, per-frame diagnostics and invariants, or the
        # library calls of spectrum and sweep.
        "trace.coverage": (total("cli") - harness_self) / run_s,
    }

    def at_n(name, n):
        return sum(d for s, d in zip(spans, dur) if s[0] == name and s[4]["n"] == n)

    for n in SPECTRUM_SIZES:
        out[f"linearized.assemble_s.n{n}"] = at_n("linearized.assemble_L", n)
        out[f"linearized.eigen_report_s.n{n}"] = at_n("linearized.eigen_report", n)
        out[f"linearized.constrained_theta_s.n{n}"] = at_n("linearized.constrained_theta", n)
        # eigh is keyed by the n of the eigen_report or constrained_theta call around it.
        out[f"linearized.eigh_s.n{n}"] = sum(
            d for s, d in zip(spans, dur)
            if s[0] == "linearized.eigh" and s[3] >= 0 and (spans[s[3]][4] or {}).get("n") == n
        )
    out["linearized.matrix_mb.n2048"] = max(
        (s[4]["bytes"] / 1e6 for s in spans if s[0] == "linearized.assemble_L" and s[4]["n"] == 2048), default=0.0
    )
    return out
