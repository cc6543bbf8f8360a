import json
import os
from pathlib import Path

import numpy as np
import pytest

from oracles import csv_reference, energy_csv_reference, kernel_reference
from stratwave import Field, Grid, SolverConfig, field_to_csv, preset, solve
from stratwave.cli import main
from stratwave.runio import sha256_file
from stratwave.solver import datum_from_config


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def ost_config(tmp_path):
    return write_json(tmp_path / "model.json", {"preset": "ost"})


@pytest.fixture
def gauss_datum(tmp_path):
    return write_json(tmp_path / "datum.json",
                      {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1})


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("ost", "gost", "bo_perturbed", "chen_lee", "dgbo_perturbed"):
        assert name in out


def test_kernel_command(tmp_path, ost_config):
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               "--t", "1.0", "--grid", "N=16384,L=200"])
    assert rc == 0
    assert out.exists()
    report = json.loads(out.with_suffix(".json").read_text())
    assert abs(report["mass"] - 1.0) <= 1e-8
    assert report["tail_slope_right"] == pytest.approx(-2.0, abs=0.15)
    assert report["A_predicted"] == pytest.approx(1 / np.pi)


def test_kernel_csv_is_real(tmp_path, ost_config, capsys):
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               "--t", "1.0", "--grid", "N=16384,L=200", "--window", "15", "90"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])
    sym, params = preset("ost")
    ref = kernel_reference(1.0, Grid(16384, 200.0), sym, params).samples
    re = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)
    assert np.max(np.abs(re - ref.real)) <= 1e-12 * np.max(np.abs(ref))
    # decay-fit on the file gives the kernel report's exponents
    assert main(["decay-fit", "--in", str(out), "--window", "15,90"]) == 0
    fit = json.loads(capsys.readouterr().out)
    report = json.loads(out.with_suffix(".json").read_text())
    for side in ("left", "right"):
        assert fit[side]["exponent"] == pytest.approx(
            -report[f"tail_slope_{side}"], rel=1e-12)


def test_kernel_rejects_invalid_n(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json",
                     {"symbol": {"kind": "kdv"}, "m": 2, "n": 5, "k": 1,
                      "eta": 1.0})
    rc = main(["--quiet", "--out", str(tmp_path / "k.csv"), "kernel",
               "--config", cfg, "--t", "1.0", "--grid", "N=1024,L=50"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "5 + 4d" in err


def test_config_schema_error_carries_path(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json",
                     {"symbol": {"kind": "nope"}, "m": 2, "n": 1, "k": 1,
                      "eta": 1.0})
    rc = main(["--quiet", "--out", str(tmp_path / "k.csv"), "kernel",
               "--config", cfg, "--t", "1.0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "symbol" in err and "kind" in err


def test_simulate_run_directory(tmp_path, ost_config, gauss_datum):
    out = tmp_path / "run1"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.1", "--dt", "0.01",
               "--grid", "N=1024,L=50", "--snapshots", "0.05,0.1"])
    assert rc == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["version"]
    assert set(manifest["outputs"]) == {"snapshot_t0.05.csv", "snapshot_t0.1.csv",
                                        "energy.csv"}
    for name, digest in manifest["outputs"].items():
        assert sha256_file(out / name) == digest
    energy_lines = (out / "energy.csv").read_text().splitlines()
    assert energy_lines[0] == "t,l2,dissipation"
    assert len(energy_lines) == 12  # header + 11 steps


def test_simulate_csv_bytes_match_per_row_reference(tmp_path, ost_config,
                                                    gauss_datum):
    out = tmp_path / "run1"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.1", "--dt", "0.01",
               "--grid", "N=1024,L=50", "--snapshots", "0.05,0.1"])
    assert rc == 0
    sym, params = preset("ost")
    u0 = datum_from_config(json.loads(Path(gauss_datum).read_text()), Grid(1024, 50.0))
    traj = solve(sym, params, u0,
                 SolverConfig(dt=0.01, T=0.1, snapshot_times=(0.05, 0.1)))
    energy_csv_reference(traj, tmp_path / "energy.csv")
    assert (out / "energy.csv").read_bytes() == (tmp_path / "energy.csv").read_bytes()
    for t, snap in zip(traj.times, traj.snapshots):
        ref = tmp_path / f"ref_t{t:g}.csv"
        csv_reference(snap, ref)
        assert (out / f"snapshot_t{t:g}.csv").read_bytes() == ref.read_bytes()


def test_simulate_refuses_existing_dir(tmp_path, ost_config, gauss_datum, capsys):
    out = tmp_path / "run2"
    out.mkdir()
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.1", "--dt", "0.01",
               "--grid", "N=1024,L=50"])
    assert rc == 1
    assert not list(out.iterdir())  # nothing partial

def test_simulate_deterministic_outputs(tmp_path, ost_config, gauss_datum):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["--quiet", "--seed", "7", "--out", str(out), "simulate",
                   "--config", ost_config, "--datum", gauss_datum,
                   "--T", "0.05", "--dt", "0.01", "--grid", "N=1024,L=50"])
        assert rc == 0
        outs.append(out)
    for fname in ("snapshot_t0.05.csv", "energy.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_simulate_picard_mode(tmp_path, ost_config, gauss_datum):
    out = tmp_path / "picrun"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.05", "--dt", "0.01",
               "--mode", "picard", "--grid", "N=1024,L=50"])
    assert rc == 0
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["diagnostics"]["picard"]["converged"]
    assert (out / "snapshot_t0.05.csv").exists()


def test_simulate_picard_writes_every_snapshot(tmp_path, ost_config, gauss_datum):
    common = ["--quiet", "simulate", "--config", ost_config, "--datum", gauss_datum,
              "--T", "0.05", "--dt", "0.01", "--grid", "N=1024,L=50"]
    runs = {}
    for name, extra in (("pic", ["--mode", "picard", "--snapshots", "0.02,0.05"]),
                        ("pic_T", ["--mode", "picard"]),
                        ("etd", ["--snapshots", "0.02,0.05"])):
        runs[name] = tmp_path / name
        assert main(["--out", str(runs[name])] + common + extra) == 0
    manifest = json.loads((runs["pic"] / "run.json").read_text())
    assert set(manifest["outputs"]) == {"snapshot_t0.02.csv", "snapshot_t0.05.csv"}
    assert "snapshots" not in manifest["diagnostics"]["picard"]
    assert {p.name for p in runs["pic_T"].iterdir()} == {"run.json",
                                                         "snapshot_t0.05.csv"}
    # the fixed point does not depend on which times are written out
    assert ((runs["pic"] / "snapshot_t0.05.csv").read_bytes()
            == (runs["pic_T"] / "snapshot_t0.05.csv").read_bytes())

    def load(run, t):
        data = np.loadtxt(run / f"snapshot_t{t}.csv", delimiter=",", skiprows=1)
        return data[:, 1] + 1j * data[:, 2]

    dx = 100.0 / 1024
    for t in ("0.02", "0.05"):
        diff = load(runs["pic"], t) - load(runs["etd"], t)
        assert np.sqrt(np.sum(np.abs(diff) ** 2) * dx) <= 1e-6
    assert np.max(np.abs(load(runs["pic"], "0.02") - load(runs["pic"], "0.05"))) > 1e-6


@pytest.mark.parametrize("snapshots", ["0.02,0.025", "0.02,0.020000000001", "0.02,0.06"])
def test_simulate_picard_rejects_bad_snapshots(tmp_path, capsys, monkeypatch,
                                               ost_config, gauss_datum, snapshots):
    import stratwave.solver as solver_module

    def no_propagator(*args, **kwargs):
        raise AssertionError("built a propagator before checking the snapshot times")

    monkeypatch.setattr(solver_module, "EtdPropagator", no_propagator)
    out = tmp_path / "picrun"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.05", "--dt", "0.01",
               "--mode", "picard", "--grid", "N=1024,L=50", "--snapshots", snapshots])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error [BadParameter]" in err and "snapshot time" in err
    assert "Traceback" not in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


def test_simulate_picard_linear_only(tmp_path, ost_config):
    datum = write_json(tmp_path / "datum.json",
                       {"kind": "gaussian", "sigma0": 1.0, "amp": 0.5})
    common = ["simulate", "--config", ost_config, "--datum", datum,
              "--T", "0.05", "--dt", "0.01", "--grid", "N=1024,L=50"]
    fields = {}
    for name, extra in (("pic", ["--mode", "picard"]),
                        ("pic_lin", ["--mode", "picard", "--linear-only"]),
                        ("etd_lin", ["--mode", "etd", "--linear-only"])):
        out = tmp_path / name
        assert main(["--quiet", "--out", str(out)] + common + extra) == 0
        data = np.loadtxt(out / "snapshot_t0.05.csv", delimiter=",", skiprows=1)
        fields[name] = data[:, 1] + 1j * data[:, 2]
    dx = 100.0 / 1024

    def l2(a, b):
        return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * dx))

    assert l2(fields["pic_lin"], fields["etd_lin"]) <= 1e-10
    assert l2(fields["pic_lin"], fields["pic"]) > 1e-6  # the flag is honoured


def test_simulate_rejects_off_grid_snapshots(tmp_path, ost_config, gauss_datum,
                                             capsys):
    out = tmp_path / "offgrid"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.2", "--dt", "0.001",
               "--grid", "N=256,L=20", "--snapshots", "0.1,0.1004,0.1507"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "BadParameter" in err and "Traceback" not in err
    assert not out.exists()


def test_decay_fit_command(tmp_path, ost_config, capsys):
    out = tmp_path / "kernel.csv"
    main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
          "--t", "1.0", "--grid", "N=16384,L=200"])
    rc = main(["decay-fit", "--in", str(out), "--window", "15,90"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["right"]["exponent"] == pytest.approx(2.0, abs=0.15)
    assert report["left"]["valid"] is True


@pytest.mark.parametrize("bad_line,error", [
    ("-1.75,abc,0", "error [BadParameter]"),   # non-numeric value
    ("-1.75,1", "error [BadParameter]"),       # ragged row
    ("0.01,1,0", "error [GridMismatch]"),      # x off the uniform grid
])
def test_decay_fit_rejects_malformed_csv(tmp_path, capsys, bad_line, error):
    g = Grid(16, 2.0)
    path = tmp_path / "f.csv"
    field_to_csv(Field(g, np.ones(g.N)), path)
    lines = path.read_text().splitlines()
    row = 2 if bad_line.startswith("-1.75") else 9  # x[1] = -1.75, x[8] = 0
    lines[row] = bad_line
    path.write_text("\n".join(lines) + "\n")
    fit = tmp_path / "fit.json"
    rc = main(["--out", str(fit), "decay-fit", "--in", str(path), "--window", "0.5,1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err
    assert not fit.exists()


def test_experiment_energy(tmp_path, ost_config, gauss_datum):
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"},
        "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.002, "T": 0.2},
        "datum": {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1},
        "experiment": {"kind": "energy"},
    })
    out = tmp_path / "energyrun"
    rc = main(["--quiet", "--out", str(out), "experiment", "energy",
               "--config", cfg])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] and report["checks"]["growth_bound"]


def test_experiment_growth(tmp_path):
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"},
        "grid": {"N": 4096, "L": 100},
        "solver": {"dt": 0.002, "T": 0.1, "snapshots": [0.05, 0.1]},
        "datum": {"kind": "growth", "gamma": 0.3, "c0": 0.01},
        "experiment": {"kind": "growth"},
    })
    out = tmp_path / "growthrun"
    rc = main(["--quiet", "--out", str(out), "experiment", "growth",
               "--config", cfg])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    assert max(report["envelopes"]) <= 0.02


def test_experiment_failure_exit_code(tmp_path):
    # impossible envelope bound: report exists, passed=false, exit code 2
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"},
        "grid": {"N": 4096, "L": 100},
        "solver": {"dt": 0.002, "T": 0.1},
        "datum": {"kind": "growth", "gamma": 0.3, "c0": 0.01},
        "experiment": {"kind": "growth", "bound": 1e-9},
    })
    out = tmp_path / "failrun"
    rc = main(["--quiet", "--out", str(out), "experiment", "growth",
               "--config", cfg])
    assert rc == 2
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False


def test_experiment_dichotomy_guard_exit_code(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "chen_lee"},
        "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.01, "T": 0.1},
        "experiment": {"kind": "dichotomy", "gamma_datum": 3.0},
    })
    rc = main(["--quiet", "--out", str(tmp_path / "clrun"), "experiment",
               "dichotomy", "--config", cfg])
    assert rc == 1
    assert "ExcludedParameters" in capsys.readouterr().err
    assert not (tmp_path / "clrun").exists()   # atomicity on failure


def test_experiment_kind_mismatch(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"},
        "grid": {"N": 1024, "L": 50},
        "experiment": {"kind": "energy"},
    })
    rc = main(["--quiet", "--out", str(tmp_path / "x"), "experiment", "growth",
               "--config", cfg])
    assert rc == 1


def test_acceptance_unknown_id_skipped(tmp_path, capsys):
    out = tmp_path / "summary.json"
    rc = main(["--out", str(out), "acceptance", "--only", "K-MOD-EVEN",
               "NO-SUCH-ID"])
    captured = capsys.readouterr()
    assert "NO-SUCH-ID" in captured.err
    assert rc == 0   # the known criterion passes
    summary = json.loads(out.read_text())
    assert summary["skipped"] == ["NO-SUCH-ID"]
    assert summary["n_passed"] == 1


@pytest.mark.parametrize("selection", [
    ["--suite", "[]"],
    ["--only"],
    ["--only", "NO-SUCH-ID"],
    ["--suite", '["NO-SUCH-ID"]'],
])
def test_acceptance_without_known_criterion_rejected(tmp_path, capsys, selection):
    out = tmp_path / "summary.json"
    if selection[0] == "--suite":
        (tmp_path / "suite.json").write_text(selection[1])
        selection = ["--suite", str(tmp_path / "suite.json")]
    rc = main(["--out", str(out), "acceptance", *selection])
    assert rc == 1
    assert "no known criterion id" in capsys.readouterr().err
    assert not out.exists()


def test_acceptance_suite_of_non_strings_rejected(tmp_path, capsys):
    suite = write_json(tmp_path / "suite.json", [["K-MASS"]])
    assert main(["--out", str(tmp_path / "s.json"), "acceptance", "--suite", suite]) == 1
    assert "config error" in capsys.readouterr().err


def test_stratwave_out_env(tmp_path, ost_config, gauss_datum, monkeypatch):
    monkeypatch.setenv("STRATWAVE_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    rc = main(["--quiet", "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.05", "--dt", "0.01",
               "--grid", "N=1024,L=50"])
    assert rc == 0
    runs = list((tmp_path / "root").iterdir())
    assert len(runs) == 1 and (runs[0] / "run.json").exists()


@pytest.mark.parametrize("grid", ["N=4096", "L=100", "foo", "N=4096,L=x",
                                  "N=4096.5,L=100", "N=4096;L=100"])
@pytest.mark.parametrize("command", ["kernel", "simulate"])
def test_malformed_grid_is_config_error(tmp_path, ost_config, gauss_datum,
                                        capsys, grid, command):
    args = {"kernel": ["kernel", "--config", ost_config, "--t", "1.0"],
            "simulate": ["simulate", "--config", ost_config, "--datum",
                         gauss_datum, "--T", "0.1", "--dt", "0.01"]}[command]
    rc = main(["--quiet", "--out", str(tmp_path / "out"), *args, "--grid", grid])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "--grid" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--config", "m.json", "--t", "1.0", "--window", "1", "x"],
    ["kernel", "--t", "1.0"],                       # --config is required
    ["decay-fit", "--in", "k.csv", "--window", "20;120"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["kernel", "--help"]])
def test_version_and_help_exit_0(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


@pytest.mark.parametrize("kind,cfg,missing", [
    ("dichotomy", {"experiment": {"kind": "dichotomy"}}, "gamma_datum"),
    ("energy", {"experiment": {"kind": "energy"}}, "datum"),
    ("growth", {"experiment": {"kind": "growth"},
                "datum": {"kind": "gaussian", "sigma0": 1.0}}, "gamma"),
])
def test_experiment_schema_per_kind(tmp_path, capsys, kind, cfg, missing):
    path = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.01, "T": 0.1}, **cfg})
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", kind, "--config", path])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"'{missing}' is a required property" in err
    assert "Traceback" not in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("kind,experiment,datum", [
    ("dichotomy", {"gamma_datum": 2.5, "window": [1]}, None),
    ("lowerbound", {"windows": []}, {"kind": "gaussian", "sigma0": 1.0}),
    ("lowerbound", {"windows": [[1, "2"]]}, {"kind": "gaussian", "sigma0": 1.0}),
    ("weighted", {"p": "2"}, {"kind": "gaussian", "sigma0": 1.0}),
    ("growth", {"bound": [1.0]}, {"kind": "growth", "gamma": 0.3}),
    ("dichotomy", {"gamma_datum": 2.5, "exponent_tol": None}, None),
])
def test_experiment_parameters_typed(tmp_path, capsys, kind, experiment, datum):
    cfg = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
           "solver": {"dt": 0.01, "T": 0.1},
           "experiment": {"kind": kind, **experiment}}
    if datum is not None:
        cfg["datum"] = datum
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", kind, "--config",
               write_json(tmp_path / "exp.json", cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "$.experiment." in err
    assert "Traceback" not in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


def test_simulate_picard_memory_guard(tmp_path, capsys, monkeypatch, ost_config,
                                      gauss_datum):
    import stratwave.solver as solver_module
    monkeypatch.setattr(solver_module, "_physical_memory", lambda: 1024)
    out = tmp_path / "picrun"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.05", "--dt", "0.01",
               "--mode", "picard", "--grid", "N=1024,L=50"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error [BadParameter]" in err and "physical memory" in err
    assert "Traceback" not in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


def test_kernel_memory_guard(tmp_path, capsys, monkeypatch, ost_config):
    import stratwave.kernel as kernel_module
    monkeypatch.setattr(kernel_module, "_physical_memory", lambda: 1024)
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               "--t", "1.0", "--grid", "N=1024,L=50"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error [BadParameter]" in err and "physical memory" in err
    assert "Traceback" not in err
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("model,applies", [
    ({"symbol": {"kind": "bo"}, "m": 3, "n": 3, "k": 1, "eta": 1.0}, False),
    ({"preset": "ost"}, True),
])
def test_kernel_report_theory_applies(tmp_path, model, applies):
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config",
               write_json(tmp_path / "model.json", model), "--t", "1.0",
               "--grid", "N=16384,L=200"])
    assert rc == 0
    assert json.loads(out.with_suffix(".json").read_text())["theory_applies"] is applies
