"""Collect the stdout of paired perfbench/run.py runs into one BENCH json.

    python3 tools/bench_json.py -o BENCH.json \\
        parent/train-coarse/3=p0.out change/train-coarse/3=c0.out \\
        parent/train-coarse/3=p1.out change/train-coarse/3=c1.out ...

Each argument is SIDE/WORKLOAD/SEED=PATH: PATH holds the stdout of one
``perfbench/run.py`` run of WORKLOAD at SEED on the ``parent`` or the
``change`` side. The files of one side, workload and seed are repetitions in
the order given, and the i-th parent value of a metric pairs with the i-th
change value. For each workload, seed and metric the output holds the median
and quartiles of each side, the number of pairs the change wins (by the
metric's direction in BENCHMARK.json), the difference of the medians, the
parent's interquartile range and a verdict:

- ``gain``: the change wins at least 0.9 of the pairs, and its median moves
  the better way by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound``, a fraction of the parent's median;
- ``unresolved``: the parent's interquartile range exceeds that bound, and
  not every change run beats every parent run;
- ``unchanged``: none of these.

Only the end-to-end metrics have a bound, so a per-layer metric is never a
regression and never unresolved. Each side's distinct provenance lines
(Python, numpy and scipy versions, core count, commit) are kept.

Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

SIDES = ("parent", "change")
PROVENANCE_KEYS = ("python", "numpy", "scipy", "nproc", "cpu_model", "git_commit", "git_dirty")
GAIN_SHARE = 0.9  # share of the pairs a gain must win
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def parse_output(text: str) -> tuple[dict, dict]:
    """The provenance and the result line of one run.py stdout."""
    provenance, result = None, None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if "provenance" in doc and "metrics" not in doc:
            provenance = doc["provenance"]
        elif "metrics" in doc:
            result = doc
    if provenance is None or result is None:
        raise ValueError("no provenance line or no result line")
    return {k: provenance.get(k) for k in PROVENANCE_KEYS}, result


def parse_label(arg: str) -> tuple[str, str, int, str]:
    label, sep, path = arg.partition("=")
    parts = label.split("/")
    if not sep or not path or len(parts) != 3 or parts[0] not in SIDES:
        raise ValueError(f"expected SIDE/WORKLOAD/SEED=PATH with SIDE in {SIDES}, got {arg!r}")
    side, workload, seed = parts
    return side, workload, int(seed), path


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(metric: dict, parent: list[float], change: list[float], bound: float | None) -> str:
    """gain, regression, unresolved or unchanged for one metric's summary and its two sides' runs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * metric["median_diff"]
    if metric["change_wins"] >= GAIN_SHARE * metric["pairs"] and -worse_by > metric["parent_iqr"]:
        return "gain"
    if bound is not None:
        allowed = bound * abs(metric["parent"]["median"])
        if worse_by > allowed:
            return "regression"
        if metric["parent_iqr"] > allowed and max(sign * v for v in change) >= min(sign * v for v in parent):
            return "unresolved"
    return "unchanged"


def collect(runs: list[tuple[str, str, int, str]], directions: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """runs: (side, workload, seed, stdout text) in the order given; bounds: the end-to-end metrics' bounds."""
    bounds = bounds or {}
    provenance = {side: [] for side in SIDES}
    groups: dict[tuple[str, int], dict] = {}
    for side, workload, seed, text in runs:
        prov, result = parse_output(text)
        if prov not in provenance[side]:
            provenance[side].append(prov)
        group = groups.setdefault((workload, seed), {s: {"runs": 0, "failed": 0, "correct": True, "values": {}} for s in SIDES})
        g = group[side]
        g["runs"] += 1
        g["failed"] += result["failed"]
        g["correct"] = g["correct"] and result["correct"]
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                g["values"].setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    out = []
    for (workload, seed), group in sorted(groups.items()):
        metrics = {}
        for name in sorted(set(group["parent"]["values"]) & set(group["change"]["values"])):
            unit, parent = group["parent"]["values"][name]
            change = group["change"]["values"][name][1]
            better = directions.get(name, "lower")
            sign = 1.0 if better == "lower" else -1.0
            p, c = summarize(parent), summarize(change)
            metrics[name] = metric = {
                "unit": unit,
                "better": better,
                "parent": p,
                "change": c,
                "pairs": min(len(parent), len(change)),
                "change_wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
                "median_diff": c["median"] - p["median"],
                "parent_iqr": p["q3"] - p["q1"],
            }
            metric["verdict"] = verdict(metric, parent, change, bounds.get(name))
        out.append({
            "workload": workload,
            "seed": seed,
            **{side: {k: group[side][k] for k in ("runs", "failed", "correct")} for side in SIDES},
            "metrics": metrics,
        })
    return {"provenance": provenance, "groups": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs", nargs="+", metavar="SIDE/WORKLOAD/SEED=PATH")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    directions = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}
    runs = []
    for arg in args.runs:
        try:
            side, workload, seed, path = parse_label(arg)
            with open(path) as fh:
                runs.append((side, workload, seed, fh.read()))
        except (OSError, ValueError) as exc:
            parser.error(f"{arg}: {exc}")
    try:
        doc = collect(runs, directions, bounds)
    except ValueError as exc:
        parser.error(str(exc))
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
