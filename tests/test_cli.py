import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cli_cases import SMALL_RUNS, small_run, tier1_tests
from oracles import csv_reference, energy_csv_reference, kernel_reference
import stratwave
from stratwave import Field, Grid, SolverConfig, field_to_csv, preset, solve
from stratwave.acceptance import CRITERIA, run_criterion
from stratwave.analysis import EXPERIMENT_SCHEMAS
from stratwave.cli import main
from stratwave.runio import load_json, sha256_file
from stratwave.solver import datum_from_config


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# every row of tests/cli_cases.py whose node id is in this file, run in-process
globals().update(tier1_tests("test_cli.py"))


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


def test_kernel_command_prints_its_mass(tmp_path, ost_config, capsys):
    out = tmp_path / "kernel.csv"
    assert main(["--out", str(out), "kernel", "--config", ost_config,
                 "--t", "1.0", "--grid", "N=1024,L=50"]) == 0
    mass = json.loads(out.with_suffix(".json").read_text())["mass"]
    assert capsys.readouterr().out == f"kernel written to {out}; mass={mass:.12f}\n"


def test_kernel_csv_is_real(tmp_path, ost_config, capsys):
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               "--t", "1.0", "--grid", "N=16384,L=200", "--window", "15", "90"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])
    sym, params = preset("ost")
    ref = kernel_reference(1.0, Grid(16384, 200.0), sym, params)
    re = np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)
    assert np.max(np.abs(re - ref.real)) <= 1e-12 * np.max(np.abs(ref))
    # decay-fit on the file gives the kernel report's exponents
    assert main(["decay-fit", "--in", str(out), "--window", "15,90"]) == 0
    fit = json.loads(capsys.readouterr().out)
    report = json.loads(out.with_suffix(".json").read_text())
    for side in ("left", "right"):
        assert fit[side]["exponent"] == pytest.approx(
            -report[f"tail_slope_{side}"], rel=1e-12)


def test_kernel_writes_both_files_or_neither(tmp_path, ost_config, capsys):
    # the report's path is a directory: the CSV used to be left behind
    out = tmp_path / "zz"
    out.with_suffix(".json").mkdir()
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               "--t", "1.0", "--grid", "N=1024,L=50"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error: [Errno 21]")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))
    assert list(out.with_suffix(".json").iterdir()) == []


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

@pytest.mark.parametrize("extra", [["--snapshots", "0.05,0.1"], ["--mode", "picard"]],
                         ids=["etd", "picard"])
def test_experiment_trajectory_reruns_a_simulate_run(tmp_path, ost_config, gauss_datum,
                                                     extra):
    # the config that simulate records gives, through experiment trajectory,
    # the same files byte for byte and its diagnostics as report.json
    sim, exp = tmp_path / "sim", tmp_path / "exp"
    assert main(["--quiet", "--out", str(sim), "simulate", "--config", ost_config,
                 "--datum", gauss_datum, "--T", "0.1", "--dt", "0.01",
                 "--grid", "N=1024,L=50", *extra]) == 0
    manifest = json.loads((sim / "run.json").read_text())
    assert manifest["config"]["experiment"] == {"kind": "trajectory"}
    assert main(["--quiet", "--out", str(exp), "experiment", "trajectory", "--config",
                 write_json(tmp_path / "cfg.json", manifest["config"])]) == 0
    rerun = json.loads((exp / "run.json").read_text())
    assert set(rerun["outputs"]) == set(manifest["outputs"]) | {"report.json"}
    for name in manifest["outputs"]:
        assert (exp / name).read_bytes() == (sim / name).read_bytes()
    assert load_json(exp / "report.json") == manifest["diagnostics"]
    assert rerun["config"] == manifest["config"]


def test_simulate_deterministic_outputs(tmp_path, ost_config, gauss_datum):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["--quiet", "--out", str(out), "simulate",
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


def test_decay_fit_command(tmp_path, ost_config, capsys):
    out = tmp_path / "kernel.csv"
    main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
          "--t", "1.0", "--grid", "N=16384,L=200"])
    rc = main(["decay-fit", "--in", str(out), "--window", "15,90"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["right"]["exponent"] == pytest.approx(2.0, abs=0.15)
    assert report["left"]["valid"] is True


def test_decay_fit_out_writes_the_printed_report(tmp_path, ost_config, capsys):
    kernel = tmp_path / "kernel.csv"
    assert main(["--quiet", "--out", str(kernel), "kernel", "--config", ost_config,
                 "--t", "1.0", "--grid", "N=16384,L=200", "--window", "15", "90"]) == 0
    fit = tmp_path / "fit.json"
    rc = main(["--out", str(fit), "decay-fit", "--in", str(kernel), "--window", "15,90"])
    assert rc == 0
    assert fit.read_text() == capsys.readouterr().out
    report = json.loads(kernel.with_suffix(".json").read_text())
    for side in ("left", "right"):
        assert json.loads(fit.read_text())[side]["exponent"] == pytest.approx(
            -report[f"tail_slope_{side}"], rel=1e-12)


def test_decay_fit_out_makes_its_parents_and_a_failed_write_leaves_none(tmp_path, capsys,
                                                                        monkeypatch):
    # --out under a missing directory used to be an i/o error, and the
    # report was written in place, not through a RunDirectory
    g = Grid(2 ** 12, 400.0)
    field_to_csv(Field(g, (1.0 + g.x ** 2) ** -1.0), tmp_path / "f.csv")
    new = tmp_path / "missing"
    args = ["--out", str(new / "fit.json"), "decay-fit", "--in", str(tmp_path / "f.csv"),
            "--window", "10,90"]
    assert main(args) == 0
    assert (new / "fit.json").read_text() == capsys.readouterr().out
    (new / "fit.json").unlink()
    new.rmdir()

    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(stratwave.cli, "write_json", fail)   # not a StratwaveError
    with pytest.raises(RuntimeError, match="injected failure"):
        main(args)
    assert not new.exists() and not list(tmp_path.glob("**/.tmp-*"))


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


def test_experiment_energy_of_a_zero_datum_reads_back(tmp_path):
    # its envelope is 0 everywhere: the ratio used to be 0/0, written as NaN,
    # which load_json refuses
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.002, "T": 0.2}, "datum": {"kind": "gaussian", "amp": 0},
        "experiment": {"kind": "energy"}})
    out = tmp_path / "energyrun"
    assert main(["--quiet", "--out", str(out), "experiment", "energy", "--config", cfg]) == 0
    report = load_json(out / "report.json")
    assert report["max_envelope_ratio"] == 0.0 and report["peak_energy"] == 0.0
    assert report["passed"]


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
    # a lower-bound window in the datum's core, far from the tail's
    # asymptotics (ratio about 10): report exists, passed=false, exit code 2
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"},
        "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.01, "T": 0.1},
        "datum": {"kind": "gaussian", "sigma0": 1.0},
        "experiment": {"kind": "lowerbound", "windows": [[1, 2]]},
    })
    out = tmp_path / "failrun"
    rc = main(["--quiet", "--out", str(out), "experiment", "lowerbound",
               "--config", cfg])
    assert rc == 2
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False


def test_cli_runs_without_jsonschema(tmp_path, ost_config):
    # configs are validated by stratwave itself: with jsonschema made
    # unimportable, a kernel and an experiment still validate and run
    exp = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": {"N": 256, "L": 20},
        "solver": {"dt": 0.01, "T": 0.05},
        "datum": {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1},
        "experiment": {"kind": "energy"}})
    kernel = ["--quiet", "--out", "k.csv", "kernel", "--config", ost_config,
              "--t", "1.0", "--grid", "N=1024,L=50"]
    energy = ["--quiet", "--out", "e", "experiment", "energy", "--config", exp]
    code = ("import sys; sys.modules['jsonschema'] = None\n"
            "from stratwave.cli import main\n"
            f"sys.exit(main({kernel!r}) or main({energy!r}))")
    env = {**os.environ, "PYTHONPATH": str(Path(stratwave.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "k.csv").exists() and (tmp_path / "e" / "report.json").exists()


def test_experiment_energy_reproduces_e_grow(tmp_path):
    # the criterion's config, run from a file, gives its measured values bit for bit
    (cfg,) = CRITERIA["E-GROW"][1]
    out = tmp_path / "run"
    assert main(["--quiet", "--out", str(out), "experiment", "energy", "--config",
                 write_json(tmp_path / "e-grow.json", cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    measured = run_criterion("E-GROW").measured
    assert report["max_envelope_ratio"] == measured["max_ratio"]
    assert report["peak_energy"] == measured["peak_energy"]


GOLDEN = json.loads((Path(__file__).resolve().parent / "acceptance_golden.json").read_text())


@pytest.mark.parametrize("cid", ["K-TAIL-1", "K-CONST", "K-DERIV", "S-CONV", "S-XCHECK"])
def test_experiment_reproduces_the_criterion(tmp_path, cid):
    # the criterion's config, run from a file, gives through its verdict the
    # measured values that make_acceptance_golden.py recorded, bit for bit
    _, (cfg,), verdict = CRITERIA[cid]
    kind, out = cfg["experiment"]["kind"], tmp_path / "run"
    assert main(["--quiet", "--out", str(out), "experiment", kind, "--config",
                 write_json(tmp_path / f"{cid}.json", cfg)]) == 0
    passed, measured = verdict(json.loads((out / "report.json").read_text()))
    assert passed and measured == GOLDEN[cid]


@pytest.mark.parametrize("window", [None, [10.0, 80.0], [10, 80]])
def test_experiment_kernel_reports_what_the_kernel_command_reports(tmp_path, window):
    # the same bytes, also when JSON gives the window as ints
    model, out = {"preset": "ost"}, tmp_path / "k.csv"
    assert main(["--quiet", "--out", str(out), "kernel", "--config",
                 write_json(tmp_path / "model.json", model), "--t", "1.0",
                 "--grid", "N=16384,L=200", *(["--window", "10", "80"] if window else [])]) == 0
    experiment = {"kind": "kernel", "t": 1.0, **({"window": window} if window else {})}
    cfg = write_json(tmp_path / "exp.json", {"model": model, "grid": {"N": 16384, "L": 200},
                                             "experiment": experiment})
    assert main(["--quiet", "--out", str(tmp_path / "run"), "experiment", "kernel",
                 "--config", cfg]) == 0
    report = (tmp_path / "run" / "report.json").read_bytes()
    assert report == out.with_suffix(".json").read_bytes()
    assert (tmp_path / "run" / "kernel.csv").read_bytes() == out.read_bytes()


def test_experiment_decay_matches_simulate_then_decay_fit(tmp_path, capsys):
    model, datum = {"preset": "ost"}, {"kind": "algebraic", "gamma": 2.0, "c": 0.5}
    assert main(["--quiet", "--out", str(tmp_path / "sim"), "simulate",
                 "--config", write_json(tmp_path / "model.json", model),
                 "--datum", write_json(tmp_path / "datum.json", datum),
                 "--T", "0.1", "--dt", "0.01", "--grid", "N=1024,L=50"]) == 0
    fit = tmp_path / "fit.json"
    assert main(["--quiet", "--out", str(fit), "decay-fit", "--in",
                 str(tmp_path / "sim" / "snapshot_t0.1.csv"), "--window", "5,20"]) == 0
    assert capsys.readouterr().out == fit.read_text()
    # the same bytes, also when JSON gives the window as ints
    for i, window in enumerate(([5.0, 20.0], [5, 20])):
        cfg = write_json(tmp_path / f"exp{i}.json", {
            "model": model, "grid": {"N": 1024, "L": 50.0}, "solver": {"dt": 0.01, "T": 0.1},
            "datum": datum, "experiment": {"kind": "decay", "window": window}})
        assert main(["--quiet", "--out", str(tmp_path / f"exp{i}"), "experiment", "decay",
                     "--config", cfg]) == 0
        assert (tmp_path / f"exp{i}" / "report.json").read_bytes() == fit.read_bytes(), window
    fits = json.loads(fit.read_text())
    assert sorted(fits) == ["left", "right"] and fits["right"]["valid"]


def test_experiment_lowerbound_command(tmp_path, capsys):
    # linear-only evolution of an algebraic datum, on the default windows
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": {"N": 4096, "L": 100},
        "solver": {"dt": 0.01, "T": 0.1, "linear_only": True},
        "datum": {"kind": "algebraic", "gamma": 3.0},
        "experiment": {"kind": "lowerbound"}})
    out = tmp_path / "run"
    rc = main(["--out", str(out), "experiment", "lowerbound", "--config", cfg])
    assert capsys.readouterr().out == f"report: {out / 'report.json'}\n"
    report = json.loads((out / "report.json").read_text())
    assert report["windows"] == [[11.25, 22.5], [16.875, 33.75], [22.5, 45.0]]
    assert len(report["ratio_series"]) == 3
    assert rc == (0 if report["passed"] else 2)
    assert report["passed"] == (0.5 <= report["outer_ratio_min"]
                                and report["outer_ratio_max"] <= 2.0)


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


def test_acceptance_leaves_the_criterion_configs_unchanged(tmp_path):
    # E-MONO and E-GROW run from the module-level configs, which no runner
    # changes; the benchmark's `--threads 1` gives the default summary
    before = copy.deepcopy(CRITERIA)
    summaries = []
    for threads in ([], ["--threads", "1"]):
        out = tmp_path / f"summary{len(threads)}.json"
        assert main(["--quiet", "--out", str(out), "acceptance", *threads,
                     "--only", "E-MONO", "E-GROW"]) == 0
        summaries.append([{**r, "seconds": None}
                          for r in json.loads(out.read_text())["results"]])
    assert summaries[0] == summaries[1]
    assert [r["id"] for r in summaries[0]] == ["E-MONO", "E-GROW"]
    assert CRITERIA == before


def test_acceptance_prints_results_in_criterion_order(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["--out", str(out), "acceptance", "--only", "CL-GUARD", "K-MOD-EVEN"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [
        ["[PASS]", "CL-GUARD"], ["[PASS]", "K-MOD-EVEN"]]
    assert lines[2:] == [f"2/2 criteria passed; summary at {out}"]


def test_acceptance_suite_and_only_exclude_each_other(tmp_path, capsys):
    # --only used to win over --suite without a word
    suite = write_json(tmp_path / "suite.json", ["K-MASS"])
    out = tmp_path / "s.json"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), "acceptance", "--suite", suite,
              "--only", "K-MOD-EVEN"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--only" in err and "not allowed with argument --suite" in err
    assert not out.exists()


def test_stratwave_out_env(tmp_path, ost_config, gauss_datum, monkeypatch):
    monkeypatch.setenv("STRATWAVE_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    rc = main(["--quiet", "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.05", "--dt", "0.01",
               "--grid", "N=1024,L=50"])
    assert rc == 0
    runs = list((tmp_path / "root").iterdir())
    assert len(runs) == 1 and (runs[0] / "run.json").exists()


def test_experiment_dichotomy_passes_only_configured_parameters(tmp_path,
                                                                monkeypatch):
    # the defaults live in dichotomy_experiment alone, and the datum block
    # is passed as it is
    import stratwave.analysis as analysis_module

    seen = []

    def record(*args, **kwargs):
        seen.append((args[2], kwargs))
        return {"passed": True}

    monkeypatch.setattr(analysis_module, "dichotomy_experiment", record)
    datum = {"kind": "algebraic", "gamma": 2.5}
    for extra in ({}, {"window": [5, 20]}):
        cfg = write_json(tmp_path / "exp.json", {
            "model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
            "solver": {"dt": 0.01, "T": 0.1}, "datum": datum,
            "experiment": {"kind": "dichotomy", **extra}})
        out = tmp_path / f"run{len(seen)}"
        assert main(["--quiet", "--out", str(out), "experiment", "dichotomy",
                     "--config", cfg]) == 0
    assert seen == [(datum, {"window": None}), (datum, {"window": [5.0, 20.0]})]


@pytest.mark.parametrize("argv", [
    ["kernel", "--config", "m.json", "--t", "1.0", "--window", "1", "x"],
    ["--seed", "7", "presets"],                     # nothing is random: no --seed
    ["kernel", "--t", "1.0"],                       # --config is required
    ["decay-fit", "--in", "k.csv", "--window", "20;120"],
    ["--threads", "0", "acceptance", "--only", "K-MOD-EVEN"],   # used to run serially
    ["acceptance", "--threads", "2", "--only", "K-MOD-EVEN"],   # one criterion at a time
    ["--threads", "1", "presets"],                  # --threads is acceptance's alone
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


def _input_run(kind: str, value: float) -> dict:
    """small_run with the datum's amplitude at value; a kernel kind, which
    reads no datum, builds its kernel at t = value on a small grid."""
    if kind.startswith("kernel"):
        return {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
                "experiment": {"kind": kind, "t": value, "window": [10, 20]}}
    return small_run(kind, **{SMALL_RUNS[kind][3]: value})


@pytest.mark.parametrize("kind", sorted(EXPERIMENT_SCHEMAS))
def test_every_experiment_kind_reads_its_datum(tmp_path, kind):
    # the datum's amplitude (a kernel kind's t) reaches the files of every
    # kind: report.json, and for trajectory, whose report holds no value of
    # u, its CSVs; every report.json reads back through load_json
    digests = []
    for value in (0.5, 1.0):
        cfg = write_json(tmp_path / "exp.json", _input_run(kind, value))
        out = tmp_path / f"run{value}"
        assert main(["--quiet", "--out", str(out), "experiment", kind,
                     "--config", cfg]) in (0, 2)
        assert load_json(out / "report.json")
        digests.append(load_json(out / "run.json")["outputs"])
    names = ([name for name in digests[0] if name != "report.json"]
             if kind == "trajectory" else ["report.json"])
    assert names and all(digests[0][name] != digests[1][name] for name in names)


def test_simulate_picard_memory_guard(tmp_path, capsys, monkeypatch, ost_config,
                                      gauss_datum):
    import stratwave.spectral as spectral_module
    # room for the grid's 8192 bytes, not for the iterate's 16 x 6 x 342
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: 9000)
    out = tmp_path / "picrun"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.05", "--dt", "0.01",
               "--mode", "picard", "--grid", "N=1024,L=50"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error [BadParameter]" in err and "physical memory" in err
    assert "picard iterate storage" in err
    assert "Traceback" not in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


def test_kernel_memory_guard(tmp_path, capsys, monkeypatch, ost_config):
    import stratwave.spectral as spectral_module
    # room for the grid's 8192 bytes, not for the kernel build's 17 x 1024
    monkeypatch.setattr(spectral_module, "_physical_memory", lambda: 9000)
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               "--t", "1.0", "--grid", "N=1024,L=50"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error [BadParameter]" in err and "physical memory" in err
    assert "kernel build" in err
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
