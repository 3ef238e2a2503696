import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_json.py")
_spec = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

PROVENANCE = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "numpy_blas": {}, "nproc": 2, "git_commit": "abc"}


def stdout(run_s, hit_ratio=None, correct=True, failed=0, commit="abc"):
    """Canned perfbench/run.py stdout: a stderr-like line, the provenance line and the result line."""
    metrics = {"run_s": {"value": run_s, "unit": "s"}, "peak_rss_mb": {"value": None, "unit": "MB"}}
    if hit_ratio is not None:
        metrics["soliton.cache_hit_ratio"] = {"value": hit_ratio, "unit": "ratio"}
    result = {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}
    return "\n".join(["warming up", json.dumps({"provenance": dict(PROVENANCE, git_commit=commit)}), json.dumps(result)])


DIRECTIONS = {"run_s": "lower", "soliton.cache_hit_ratio": "higher"}


def test_medians_quartiles_and_wins():
    parent = [1.0, 0.8, 0.9, 1.1, 0.7]
    change = [0.5, 0.85, 0.6, 0.55, 0.75]
    runs = [("parent", "train-coarse", 3, stdout(v, commit="p")) for v in parent]
    runs += [("change", "train-coarse", 3, stdout(v, commit="c")) for v in change]
    doc = bench_json.collect(runs, DIRECTIONS)
    [group] = doc["groups"]
    assert (group["workload"], group["seed"]) == ("train-coarse", 3)
    assert group["parent"] == {"runs": 5, "failed": 0, "correct": True}
    run_s = group["metrics"]["run_s"]
    assert run_s["parent"] == {"median": 0.9, "q1": 0.8, "q3": 1.0, "n": 5}
    assert run_s["change"]["median"] == 0.6
    # pairs in order: 1.0/0.5, 0.8/0.85, 0.9/0.6, 1.1/0.55, 0.7/0.75
    assert (run_s["pairs"], run_s["change_wins"]) == (5, 3)
    assert run_s["median_diff"] == pytest.approx(-0.3)
    assert run_s["parent_iqr"] == pytest.approx(0.2)
    assert "peak_rss_mb" not in group["metrics"]  # no value on either side
    assert [p["git_commit"] for p in doc["provenance"]["parent"]] == ["p"]
    assert doc["provenance"]["change"][0]["numpy"] == "2.4.6" and "numpy_blas" not in doc["provenance"]["change"][0]


def test_higher_is_better_and_groups_by_seed():
    runs = [
        ("parent", "train-dense", 3, stdout(2.0, hit_ratio=0.7)),
        ("change", "train-dense", 3, stdout(1.5, hit_ratio=0.8, correct=False, failed=1)),
        ("parent", "train-dense", 11, stdout(2.0)),
        ("change", "train-dense", 11, stdout(2.5)),
    ]
    doc = bench_json.collect(runs, DIRECTIONS)
    seed3, seed11 = doc["groups"]
    assert seed3["metrics"]["soliton.cache_hit_ratio"]["change_wins"] == 1
    assert seed3["change"] == {"runs": 1, "failed": 1, "correct": False}
    assert seed11["seed"] == 11 and seed11["metrics"]["run_s"]["change_wins"] == 0
    assert len(doc["provenance"]["parent"]) == 1


def run_s_verdict(parent, change, bound=0.25):
    runs = [("parent", "sweep", 3, stdout(v)) for v in parent] + [("change", "sweep", 3, stdout(v)) for v in change]
    return bench_json.collect(runs, DIRECTIONS, {"run_s": bound})["groups"][0]["metrics"]["run_s"]["verdict"]


def test_verdict_gain():
    # 9 of 10 pairs won, median down 0.2 against a parent IQR of about 0.04
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.02, 0.98]
    change = [0.8, 0.82, 0.78, 0.81, 0.79, 0.83, 0.77, 0.8, 0.82, 1.05]
    assert run_s_verdict(parent, change) == "gain"
    assert run_s_verdict(parent, change[:-2] + [1.05, 1.05]) == "unchanged"  # 8 of 10 pairs


def test_verdict_regression():
    assert run_s_verdict([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3]) == "regression"
    assert run_s_verdict([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2]) == "unchanged"


def test_verdict_unresolved():
    # the parent's IQR (0.5) exceeds the bound (0.25 of its median 1.0)
    parent = [0.5, 0.75, 1.0, 1.25, 1.5]
    assert run_s_verdict(parent, [0.9, 1.0, 1.1, 1.05, 0.95]) == "unresolved"
    # beating that spread by more than the IQR on every pair is a gain
    assert run_s_verdict(parent, [0.4, 0.45, 0.3, 0.35, 0.42]) == "gain"
    # every change run beats every parent run, yet the medians differ by less than the IQR (0.75)
    assert run_s_verdict([0.9, 0.95, 1.3, 1.7, 2.0], [0.85, 0.86, 0.87, 0.88, 0.89]) == "unchanged"


def test_verdict_unchanged_and_per_layer_metrics_have_no_bound():
    assert run_s_verdict([1.0, 1.01, 0.99, 1.0], [1.01, 1.0, 1.0, 0.99]) == "unchanged"
    runs = [("parent", "train-dense", 3, stdout(1.0, hit_ratio=0.9)), ("change", "train-dense", 3, stdout(1.0, hit_ratio=0.1))]
    metrics = bench_json.collect(runs, DIRECTIONS, {"run_s": 0.25})["groups"][0]["metrics"]
    assert metrics["soliton.cache_hit_ratio"]["verdict"] == "unchanged"


def test_cli(tmp_path):
    paths = []
    for side, v in (("parent", 0.8), ("change", 0.5)):
        path = tmp_path / f"{side}.out"
        path.write_text(stdout(v))
        paths.append(f"{side}/sweep/3={path}")
    out = tmp_path / "bench.json"
    assert bench_json.main(["-o", str(out), *paths]) == 0
    doc = json.loads(out.read_text())
    assert doc["groups"][0]["metrics"]["run_s"]["change_wins"] == 1


@pytest.mark.parametrize("arg", ["sweep/3=x.out", "base/sweep/3=x.out", "parent/sweep/3", "parent/sweep/three=x.out"])
def test_rejects_bad_labels(arg):
    with pytest.raises(SystemExit) as exc:
        bench_json.main(["-o", "unused.json", arg])
    assert exc.value.code == 2


def test_rejects_output_without_result_line():
    with pytest.raises(ValueError):
        bench_json.parse_output(json.dumps({"provenance": PROVENANCE}))
