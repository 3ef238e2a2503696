import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dpwavelab.cli as cli
import dpwavelab.harness as harness
import dpwavelab.linearized as linearized
import dpwavelab.modulation as modulation
from dpwavelab.cli import main
from dpwavelab.evolution import BlowUpError
from dpwavelab.grid import make_grid
from dpwavelab.harness import Scenario
from dpwavelab.io import save_state
from dpwavelab.modulation import DecompositionError, ProfileCache, train_field
from dpwavelab.soliton import SolitonParams


def write_scenario(path, **overrides):
    base = dict(
        kappa=1.0,
        speeds=(3.0, 5.0),
        separation=30.0,
        alpha=1e-3,
        seed=1,
        grid_n=512,
        t_end=2.0,
        dt=0.01,
        observer_stride=100,
        weight_B=3.0,
    )
    base.update(overrides)
    with open(path, "w") as fh:
        fh.write(Scenario(**base).to_json())
    return str(path)


def test_soliton_subcommand(tmp_path, capsys):
    out = tmp_path / "profile.json"
    code = main(["soliton", "--c", "3", "--kappa", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    params = SolitonParams(3.0, 1.0)
    assert doc["amplitude"] == params.roots[0] == pytest.approx(0.76984, abs=1e-4)
    assert doc["decay_rate"] == params.nu and doc["tail_coeff"] == params.far_field(0.0)
    assert f"amplitude={params.roots[0]:.6f} decay={params.nu:.6f} " in capsys.readouterr().out


def test_soliton_invalid_params(tmp_path, capsys):
    code = main(["soliton", "--c", "1.5", "--kappa", "1", "--out", str(tmp_path / "p.json")])
    assert code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["soliton", "--c", "1e100", "--kappa", "1"],
    ["soliton", "--c", "3", "--kappa", "1e-300"],
    ["soliton", "--c", "inf", "--kappa", "1"],
    ["spectrum", "--c", "3", "--kappa", "1e-300", "--n", "64"],
    ["check-invariants", "--speeds", "inf"],
])
def test_unrepresentable_soliton_parameters(tmp_path, capsys, argv):
    # one error line naming c and kappa, no traceback and no warning
    out = ["--out", str(tmp_path / "profile.json")] if argv[0] == "soliton" else []
    assert main([*argv, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: soliton parameters ") and err.count("\n") == 1
    assert "c=" in err and "kappa=" in err and "nan" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c, kappa", [("1e308", "1e307"), ("1e308", "1"), ("2e77", "6e76")])
def test_soliton_parameters_beyond_float64_range(tmp_path, capsys, c, kappa):
    # one error line that names the overflow, not float64 resolution, with no warning on the way
    assert main(["soliton", "--c", c, "--kappa", kappa, "--out", str(tmp_path / "profile.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: soliton parameters c={float(c)}, kappa={float(kappa)} are out of float64's range")
    assert err.count("\n") == 1 and "resolution" not in err


def test_check_psi(capsys):
    assert main(["check-psi", "--B", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]


def test_check_psi_bad_B():
    assert main(["check-psi", "--B", "2"]) == 2


@pytest.mark.parametrize("B", ["inf", "5.7e102", "1e200"])
def test_check_psi_B_whose_cube_overflows(capsys, B):
    # psi's fourth derivative divides by B^3: 1e103 died with an OverflowError traceback, inf printed NaN
    assert main(["check-psi", "--B", B]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: weight scale B must exceed 2 and be at most 5.6438e+102, got ")
    assert captured.err.count("\n") == 1


def test_check_psi_largest_B(capsys):
    assert main(["check-psi", "--B", "5e102"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_spectrum(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    code = main(["spectrum", "--c", "3", "--kappa", "1", "--n", "512", "--period", "100", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["neg_count"] == 1
    assert doc["theta"] > 0


def test_spectrum_eigpairs(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    pairs = tmp_path / "pairs.csv"
    code = main([
        "spectrum", "--c", "3", "--kappa", "1", "--n", "512", "--period", "100",
        "--out", str(out), "--eigpairs", str(pairs), "--k", "5",
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    with open(pairs, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eigenvalue"] + [f"v_{i}" for i in range(512)]
    assert len(rows) == 1 + 5
    values = [float(row[0]) for row in rows[1:]]
    assert values == sorted(values)
    assert values[0] == pytest.approx(doc["neg_eigenvalue"], abs=1e-12)
    for row in rows[1:]:
        assert np.linalg.norm(np.array(row[1:], dtype=float)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", ["0", "63"])
def test_spectrum_eigpairs_unreachable_k(tmp_path, capsys, k):
    pairs = tmp_path / "pairs.csv"
    code = main(["spectrum", "--c", "3", "--kappa", "1", "--n", "64", "--eigpairs", str(pairs), "--k", k])
    assert code == 2
    assert "number of eigenpairs" in capsys.readouterr().err
    assert not pairs.exists()


@pytest.mark.parametrize("k", ["0", "-1", "63", "70"])
def test_spectrum_checks_k_without_eigpairs(monkeypatch, capsys, k):
    # --k was read only with --eigpairs, so an unreachable k exited 0; it is checked before any profile or solve
    def unreached(*args):
        raise AssertionError("spectrum built a profile before checking --k")

    monkeypatch.setattr(cli, "build_profile", unreached)
    assert main(["spectrum", "--c", "3", "--kappa", "1", "--n", "64", "--period", "70", "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: number of eigenpairs must be in [1, n - 2] = [1, 62], got {k}\n"


def test_spectrum_rejects_an_infinite_period(capsys):
    assert main(["spectrum", "--c", "3", "--kappa", "1", "--n", "64", "--period", "inf"]) == 2
    assert capsys.readouterr().err == "error: period must be positive and finite, got inf\n"


def test_spectrum_never_reads_the_dense_matrix(tmp_path, monkeypatch, capsys):
    def dense(self):
        raise AssertionError("the spectrum command read op.matrix")

    monkeypatch.setattr(linearized.OperatorMatrix, "matrix", property(dense))
    args = ["spectrum", "--c", "3", "--kappa", "1", "--n", "256", "--period", "100"]
    assert main(args + ["--eigpairs", str(tmp_path / "pairs.csv"), "--k", "5"]) == 0


def test_spectrum_solver_failure(monkeypatch, capsys):
    monkeypatch.setattr(linearized.OperatorMatrix, "apply", lambda self, x: np.full_like(x, np.nan))
    assert main(["spectrum", "--c", "3", "--kappa", "1", "--n", "512"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spectral error: eigen_report: ")
    assert "non-finite Ritz residual" in err


def test_spectrum_failed_window_solve(monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError: without the mapping it would exit 2 as a usage error
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linearized, "eigh", failing)
    assert main(["spectrum", "--c", "3", "--kappa", "1", "--n", "512"]) == 1
    assert capsys.readouterr().err == "spectral error: eigen_report: window of 97 modes: Eigenvalues did not converge\n"


def test_spectrum_long_period_answers(tmp_path, capsys):
    # at period 1600 every window widens to all n modes, where its answer is exact
    out = tmp_path / "spectrum.json"
    pairs = tmp_path / "pairs.csv"
    args = ["spectrum", "--c", "3", "--kappa", "1", "--n", "1024", "--period", "1600", "--out", str(out)]
    assert main(args + ["--eigpairs", str(pairs), "--k", "4"]) == 0
    assert capsys.readouterr().err == ""
    with open(pairs, newline="") as fh:
        low = np.array([float(row[0]) for row in list(csv.reader(fh))[1:]])
    op = linearized.assemble_L(cli.build_profile(cli.SolitonParams(3.0, 1.0)), make_grid(1024, 1600.0))
    dense = np.linalg.eigvalsh(op.matrix)
    assert np.max(np.abs(low - dense[:4])) <= 1024 * np.finfo(float).eps * np.max(np.abs(dense))
    assert json.loads(out.read_text())["neg_count"] == 1


def test_spectrum_eigpairs_solves_the_low_end_once(tmp_path, capsys, monkeypatch):
    phases = []
    window_pairs = linearized._window_pairs

    def counted(op, *args, columns=None, **kwargs):
        phases.append("eigen_report" if columns is None else "constrained_theta")
        return window_pairs(op, *args, columns=columns, **kwargs)

    monkeypatch.setattr(linearized, "_window_pairs", counted)
    args = ["spectrum", "--c", "3", "--kappa", "1", "--n", "256", "--period", "100"]
    assert main(args + ["--eigpairs", str(tmp_path / "pairs.csv"), "--k", "5"]) == 0
    # one window solve for the top, one for the report's low end and its pairs, one for theta
    assert phases == ["eigen_report"] * 2 + ["constrained_theta"]
    with_pairs = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(with_pairs, rel=1e-12, abs=1e-14)


def test_cli_and_spectrum_leave_out_scipy_linalg(tmp_path):
    # numpy is the only runtime dependency, so importing the CLI, a spectrum and a stability run load
    # no scipy module; scipy.linalg, scipy.sparse and scipy.interpolate would each add 0.2-0.3 s of
    # set-up to every run (2-vCPU Xeon). numpy.fft and numpy.random, which numpy loads lazily, load
    # with the package and not in a run.
    cfg = write_scenario(tmp_path / "scenario.json", t_end=0.5)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import dpwavelab.cli\n"
        "after_import = loaded()\n"
        "eager = 'numpy.fft' in sys.modules and 'numpy.random' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    dpwavelab.cli.main(['spectrum', '--c', '3', '--kappa', '1', '--n', '64'])\n"
        "    after_spectrum = loaded()\n"
        f"    code = dpwavelab.cli.main(['stability', '--config', {cfg!r}])\n"
        "print(json.dumps([after_import, after_spectrum, loaded(), eager, code]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [[], [], [], True, 0]


def test_decompose(tmp_path, capsys):
    grid = make_grid(512, 140.0)
    cache = ProfileCache(1.0)
    u = train_field(grid, [3.0, 5.0], [-15.0, 15.0], cache)
    state = tmp_path / "state.json"
    save_state(u, str(state))
    code = main(["decompose", "--state", str(state), "--n-waves", "2", "--kappa", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["speeds"] == pytest.approx([3.0, 5.0], abs=1e-8)
    assert doc["positions"] == pytest.approx([-15.0, 15.0], abs=1e-8)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "expected a JSON object with n, period and samples, got list"),
        ({"n": 64}, "field 'period' is missing"),
        ({"period": 100.0, "samples": [0.0] * 64}, "field 'n' is missing"),
        ({"n": 64, "period": 100.0}, "field 'samples' is missing"),
        ({"n": None, "period": 100.0, "samples": [0.0] * 64}, "field 'n' must be an integer, got null"),
        ({"n": 64, "period": None, "samples": [0.0] * 64}, "field 'period' must be a number, got null"),
        ({"n": 64, "period": 100.0, "samples": None}, "field 'samples' must be a list of numbers, got null"),
        ({"n": 64, "period": "100", "samples": [0.0] * 64}, "field 'period' must be a number, got str"),
        ({"n": 64, "period": 100.0, "samples": [{}] + [0.0] * 63}, "field 'samples' must be a list of numbers, got list"),
        ({"n": 64, "period": True, "samples": [0.0] * 64}, "field 'period' must be a number, got bool"),
        ({"n": True, "period": 100.0, "samples": [0.0] * 64}, "field 'n' must be an integer, got bool"),
        ({"n": 64, "period": 10**400, "samples": [0.0] * 64}, "field 'period' must be a number, got int"),
        ({"n": 64, "period": 100.0, "samples": [True] * 64}, "field 'samples' must be a list of numbers, got list"),
        ({"n": 64, "period": 100.0, "samples": ["1.5"] * 64}, "field 'samples' must be a list of numbers, got list"),
    ],
)
def test_decompose_rejects_a_malformed_state(tmp_path, capsys, doc, message):
    # these printed a TypeError, KeyError or OverflowError traceback
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    assert main(["decompose", "--state", str(state), "--n-waves", "1", "--kappa", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: state {state}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("n_waves", ["0", "-2"])
def test_decompose_rejects_fewer_than_one_wave(capsys, monkeypatch, n_waves):
    def guessing(*args, **kwargs):
        raise AssertionError("decomposed into fewer than one wave")

    monkeypatch.setattr(cli, "initial_guess", guessing)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--state", "state.json", "--n-waves", n_waves, "--kappa", "1"])
    assert exc.value.code == 2
    assert f"argument --n-waves: must be >= 1, got {n_waves}" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["-1", "0", "nan", "inf"])
def test_decompose_rejects_kappa_before_loading(capsys, monkeypatch, kappa):
    def loading(path):
        raise AssertionError("loaded the state before checking kappa")

    monkeypatch.setattr(cli, "load_state", loading)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--state", "state.json", "--n-waves", "2", "--kappa", kappa])
    assert exc.value.code == 2
    assert f"argument --kappa: must be finite and > 0, got {kappa}" in capsys.readouterr().err


def test_check_invariants(capsys):
    assert main(["check-invariants", "--kappa", "1", "--speeds", "3", "--n", "512"]) == 0
    out = capsys.readouterr().out
    assert "dS/dc" in out


def test_check_invariants_near_two_kappa(capsys):
    speeds = ["2.0005", "2.0015", "2.0025", "2.004"]
    assert main(["check-invariants", "--kappa", "1", "--n", "1024", "--speeds", ",".join(speeds)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == speeds


def test_stability(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "scenario.json")
    out = tmp_path / "run"
    code = main(["stability", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "summary.json").exists()


def test_stability_tracks_a_close_pair_from_the_scenario(tmp_path, capsys):
    # The automatic period is 110, so the peaks, 13 apart, are closer than period/(4N) = 13.75: a peak
    # search could not find frame 0's two waves, and the run's initial speeds and positions do.
    cfg = write_scenario(tmp_path / "scenario.json", separation=13.0, t_end=20.0, observer_stride=500)
    assert main(["stability", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["sup_error"] < 1e-2


def test_sweep_keeps_a_close_pair(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "scenario.json", t_end=20.0, observer_stride=500)
    assert main(["sweep", "--config", cfg, "--alphas", "1e-4,1e-3", "--separations", "13,30"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["alpha"], r["L"]) for r in rows] == [(1e-4, 13.0), (1e-4, 30.0), (1e-3, 13.0), (1e-3, 30.0)]
    assert not any(r["failed"] for r in rows)


def test_stability_decreasing_speeds_rejected(tmp_path, capsys):
    # validation lives in Scenario, so the config file itself cannot be built
    # with bad speeds; write the raw JSON by hand instead
    cfg = tmp_path / "bad.json"
    doc = json.loads(open(write_scenario(tmp_path / "good.json")).read())
    doc["speeds"] = [5.0, 3.0]
    cfg.write_text(json.dumps(doc))
    assert main(["stability", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "field, value", [("weight_B", 2.0), ("sigma0", -1.0), ("sigma0", 0.0), ("weight_B", float("inf")), ("sigma0", float("inf"))]
)
@pytest.mark.parametrize("command", ["stability", "sweep"])
def test_bad_weight_rejected_before_evolving(tmp_path, capsys, monkeypatch, command, field, value):
    def evolving(*args, **kwargs):
        raise AssertionError("evolved a scenario that fails validation")

    monkeypatch.setattr(harness, "evolve", evolving)
    monkeypatch.setattr(harness, "evolve_stack", evolving)
    cfg = tmp_path / "bad.json"
    doc = json.loads(open(write_scenario(tmp_path / "good.json")).read())
    doc[field] = value
    cfg.write_text(json.dumps(doc))
    sweep_args = ["--alphas", "1e-4,1e-3", "--separations", "25,30"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *sweep_args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert field in err


def _preparing(*args, **kwargs):
    raise AssertionError("built the initial state of a scenario that fails validation")


def _rejected_on_load(tmp_path, capsys, monkeypatch, command, **edits) -> str:
    """The command's stderr on the good scenario with edits: exit 2, one line, no initial state built."""
    monkeypatch.setattr(harness, "build_initial_state", _preparing)
    cfg = tmp_path / "bad.json"
    doc = json.loads(open(write_scenario(tmp_path / "good.json")).read())
    doc.update(edits)
    cfg.write_text(json.dumps(doc))
    sweep_args = ["--alphas", "1e-4,1e-3", "--separations", "25,30"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *sweep_args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "field, value",
    [("observer_stride", 0), ("dt", 0.0), ("t_end", -1.0), ("grid_n", 1000), ("grid_period", -5.0), ("dt", 1e30),
     ("dt", 1e-320)],
)
@pytest.mark.parametrize("command", ["stability", "sweep", "evolve"])
def test_bad_grid_or_stepping_rejected_on_load(tmp_path, capsys, monkeypatch, command, field, value):
    _rejected_on_load(tmp_path, capsys, monkeypatch, command, **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("alpha", float("nan")), ("alpha", float("inf")), ("seed", -1), ("speeds", [3.0, float("nan")]),
     ("speeds", [3.0, float("inf")])],
    ids=["alpha-nan", "alpha-inf", "seed-negative", "speeds-nan", "speeds-inf"],
)
@pytest.mark.parametrize("command", ["stability", "sweep"])
def test_bad_perturbation_or_speeds_rejected_on_load(tmp_path, capsys, monkeypatch, command, field, value):
    # An explicit period: auto-sizing would meet a non-finite speed first, the seam check does not.
    err = _rejected_on_load(tmp_path, capsys, monkeypatch, command, grid_period=200.0, **{field: value})
    assert err.startswith(f"configuration error: {field} must be ")


@pytest.mark.parametrize("grid_period", [None, 200.0])
@pytest.mark.parametrize("command", ["stability", "sweep"])
def test_unrepresentable_kappa_rejected_on_load(tmp_path, capsys, monkeypatch, command, grid_period):
    err = _rejected_on_load(tmp_path, capsys, monkeypatch, command, kappa=1e-300, grid_period=grid_period)
    assert "c=3.0, kappa=1e-300 are not representable" in err


def test_sweep_nonfinite_alpha_rejected_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "build_initial_state", _preparing)
    cfg = write_scenario(tmp_path / "scenario.json")
    assert main(["sweep", "--config", cfg, "--alphas", "1e-3,nan,1e-2", "--separations", "25,30"]) == 2
    assert capsys.readouterr().err == "configuration error: alpha must be finite and >= 0, got nan\n"


@pytest.mark.parametrize("command", ["stability", "sweep"])
def test_seam_collision_rejected_on_load(tmp_path, capsys, monkeypatch, command):
    # The acceptance scenario run to t_end 80: the c = 5 wave gains 160 on the c = 3 wave and
    # closes the 140-long gap across the seam of the period-200 box.
    def preparing(*args, **kwargs):
        raise AssertionError("built the initial state of a scenario whose waves collide across the seam")

    monkeypatch.setattr(harness, "build_initial_state", preparing)
    accept = dict(separation=60.0, seed=3, grid_n=1024, grid_period=200.0, t_end=20.0, observer_stride=200)
    doc = json.loads(open(write_scenario(tmp_path / "accept.json", **accept)).read())
    doc["t_end"] = 80.0
    cfg = tmp_path / "collision.json"
    cfg.write_text(json.dumps(doc))
    sweep_args = ["--alphas", "1e-4,1e-3", "--separations", "30,60"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *sweep_args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: grid_period 200.0 leaves a seam gap of -20 ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["stability", "sweep"])
@pytest.mark.parametrize("change, message", [
    ({"speeds": [3.0, 1e78]}, "soliton parameters c=1e+78, kappa=1.0 are not representable"),
    ({"speeds": [3.0], "separation": 0.0, "grid_period": 40.0}, "grid period 40.0 too small: wrapped tail "),
])
def test_unsampleable_wave_rejected_on_load(tmp_path, capsys, monkeypatch, command, change, message):
    # a later speed that SolitonParams rejects, or a period below the slowest wave's tail budget
    # (min_period 67.46 at c = 3), is a configuration error before any set-up
    def preparing(*args, **kwargs):
        raise AssertionError("built the initial state of a scenario whose waves cannot be sampled")

    monkeypatch.setattr(harness, "build_initial_state", preparing)
    doc = json.loads(open(write_scenario(tmp_path / "base.json")).read())
    doc.update(change)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    sweep_args = ["--alphas", "1e-4,1e-3", "--separations", "30,60"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *sweep_args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1


def test_evolve_rejects_inadmissible_data(tmp_path, capsys, monkeypatch):
    # w0 < 0 at alpha = 0 cannot be repaired by halving: evolve exits 2 before it evolves
    def evolving(*args, **kwargs):
        raise AssertionError("evolved inadmissible initial data")

    monkeypatch.setattr(harness, "check_w_positivity", lambda u0, kappa: {"min_value": -0.5, "ok": False})
    monkeypatch.setattr(cli, "evolve", evolving)
    cfg = write_scenario(tmp_path / "scenario.json", alpha=0.0, t_end=0.5)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: initial data cannot be made admissible: w0 min -5.000e-01 at alpha 0.000e+00\n"
    assert not (tmp_path / "out").exists()


def test_stability_blow_up(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "scenario.json", dt=2.0)
    assert main(["stability", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("BlowUpError: ") and err.count("\n") == 1


def test_stability_decomposition_failure(tmp_path, capsys, monkeypatch):
    def lost(*args, **kwargs):
        raise DecompositionError("speed left the admissible family")

    monkeypatch.setattr(modulation, "decompose", lost)
    cfg = write_scenario(tmp_path / "scenario.json", t_end=0.1)
    assert main(["stability", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == "DecompositionError: tracking failed at t=0.0: speed left the admissible family\n"


def test_stability_evolving_process_died(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "evolve", lambda *args, **kwargs: os._exit(3))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write_scenario(tmp_path / "scenario.json", t_end=0.1)
    assert main(["stability", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("EvolveProcessError: the evolve phase ended") and err.count("\n") == 1


@pytest.mark.parametrize("parallelism", ["0", "-3"])
def test_sweep_rejects_parallelism_below_one(capsys, monkeypatch, parallelism):
    def sweeping(*args, **kwargs):
        raise AssertionError("swept with parallelism below one")

    monkeypatch.setattr(cli, "run_sweep", sweeping)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", "scenario.json", "--alphas", "1e-4", "--separations", "30", "--parallelism", parallelism])
    assert exc.value.code == 2
    assert f"argument --parallelism: must be >= 1, got {parallelism}" in capsys.readouterr().err


def test_sweep_too_few_runs(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "scenario.json", t_end=1.0)
    assert main(["sweep", "--config", cfg, "--alphas", "1e-3", "--separations", "30"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("SweepError: sweep fit needs >= 4 successful runs") and err.count("\n") == 1


def test_sweep_too_few_runs_keeps_every_row(tmp_path, capsys, monkeypatch):
    # a sweep whose fit cannot run still emits its rows, the failed ones with their error type and phase
    sweep_chunk = harness._sweep_chunk

    def failing(scenarios):
        return [harness._failed_row(s, DecompositionError("lost the train"), "track") if s.separation == 30.0 else row
                for s, row in zip(scenarios, sweep_chunk(scenarios))]

    monkeypatch.setattr(harness, "_sweep_chunk", failing)
    cfg = write_scenario(tmp_path / "scenario.json", t_end=0.5)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", cfg, "--alphas", "1e-4,3e-4,1e-3", "--separations", "25,30", "--parallelism", "1"]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "SweepError: sweep fit needs >= 4 successful runs, got 3\n"
    doc = json.loads((out / "sweep.json").read_text())
    assert json.loads(captured.out) == doc and list(doc) == ["rows"]
    assert [(r["alpha"], r["L"]) for r in doc["rows"]] == [(a, L) for a in (1e-4, 3e-4, 1e-3) for L in (25.0, 30.0)]
    failed = [r for r in doc["rows"] if r["failed"]]
    assert [r["L"] for r in failed] == [30.0] * 3
    assert all(r["error_type"] == "DecompositionError" and r["phase"] == "track" for r in failed)


def test_missing_config_file():
    assert main(["stability", "--config", "/nonexistent/scenario.json"]) == 2


def test_malformed_config(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["stability", "--config", str(cfg)]) == 2


VALID_DOC = json.loads(Scenario(kappa=1.0, speeds=(3.0, 5.0), separation=30.0, grid_n=512, t_end=0.1).to_json())
_text = st.text(max_size=8)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_lists = st.lists(st.integers() | _text, max_size=3)
_objects = st.dictionaries(_text, st.integers(), max_size=2)
# JSON values that a field of each annotated type does not accept
WRONG = {
    "float": _text | st.booleans() | _lists | _objects,
    "int": _text | st.booleans() | _floats | _lists | _objects,
    "str": st.integers() | _floats | st.booleans() | _lists | _objects,
    "bool": st.integers() | _floats | _text | _lists | _objects,
    "tuple[float, ...]": _text | _floats | _objects | st.lists(_text | st.booleans() | st.none(), min_size=1, max_size=3),
}


@st.composite
def bad_scenarios(draw):
    """A JSON document that is not a scenario: not an object, a field of the wrong type, an unknown or a missing field."""
    defect = draw(st.sampled_from(["not an object", "wrong type", "unknown field", "missing field"]))
    if defect == "not an object":
        return draw(st.none() | st.booleans() | _floats | _text | st.lists(_floats, max_size=3))
    doc = dict(VALID_DOC)
    if defect == "wrong type":
        name = draw(st.sampled_from(sorted(doc)))
        kind, _, optional = {f.name: f.type for f in dataclasses.fields(Scenario)}[name].partition(" | ")
        doc[name] = draw(WRONG[kind] if optional else WRONG[kind] | st.none())
    elif defect == "unknown field":
        doc[draw(_text.filter(lambda key: key not in doc))] = draw(st.integers())
    else:
        del doc[draw(st.sampled_from(["kappa", "speeds", "separation"]))]
    return doc


@settings(max_examples=50, deadline=None)
@given(doc=bad_scenarios())
@example(doc=[1, 2])
@example(doc=dict(VALID_DOC, dt="0.01"))
@example(doc=dict(VALID_DOC, outputs="run"))  # the output directory is named by --out alone
def test_stability_config_fuzz(doc):
    # a document that is not a scenario exits 2 with one stderr line, never a traceback
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "scenario.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["stability", "--config", cfg, "--out", os.path.join(tmp, "out")])
    assert code == 2
    assert err.getvalue().startswith("configuration error: ") and err.getvalue().count("\n") == 1


def test_evolve_subcommand(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "scenario.json", t_end=0.5)
    out = tmp_path / "out"
    code = main(["evolve", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "snapshots.csv").exists()
    assert (out / "final_state.json").exists()
    times = json.loads((out / "frames.json").read_text())["times"]
    assert times == [0.0, 0.5]
    assert (out / "frames.bin").stat().st_size == len(times) * 512 * 8
    final = np.fromfile(out / "frames.bin", dtype="<f8")[-512:]
    assert json.loads((out / "final_state.json").read_text())["samples"] == final.tolist()


def test_evolve_failure_keeps_the_frames_before_it(tmp_path, capsys, monkeypatch):
    def failing(u0, config, on_frame):
        on_frame(0.0, u0.samples)
        on_frame(0.25, 2.0 * u0.samples)
        raise BlowUpError("sup norm 1.000e+03 exceeds blow-up guard 1.000e+02 at step 26")

    monkeypatch.setattr(cli, "evolve", failing)
    cfg = write_scenario(tmp_path / "scenario.json", t_end=0.5)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "BlowUpError: sup norm 1.000e+03 exceeds blow-up guard 1.000e+02 at step 26\n"
    n = 512
    assert json.loads((out / "frames.json").read_text())["times"] == [0.0, 0.25]
    assert (out / "frames.bin").stat().st_size == 2 * n * 8
    with open(out / "snapshots.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 2 * n
    assert not (out / "final_state.json").exists()


def test_evolve_memory_does_not_grow_with_the_frame_count(tmp_path, capsys):
    # the frames stream to their files; held in memory, 301 frames at n = 256 peaked 1.6 MB above 2 frames
    def peak(stride):
        cfg = write_scenario(tmp_path / "scenario.json", grid_n=256, t_end=3.0, observer_stride=stride)
        tracemalloc.start()
        try:
            assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(300)  # leaves out the first run's one-off allocations
    few, many = peak(300), peak(1)
    assert many - few <= 100_000


def test_sweep_subcommand(tmp_path, capsys):
    cfg = write_scenario(tmp_path / "scenario.json", t_end=1.0)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--config", cfg, "--alphas", "1e-4,1e-3", "--separations", "25,30", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert len(doc["rows"]) == 4
