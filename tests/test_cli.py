import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import csv_reference, energy_csv_reference, kernel_reference
import stratwave
from stratwave import Field, Grid, SolverConfig, field_to_csv, preset, solve
from stratwave.acceptance import CRITERIA, run_criterion
from stratwave.analysis import EXPERIMENT_SCHEMAS
from stratwave.cli import main
from stratwave.errors import NonFinite
from stratwave.runio import load_json, sha256_file, validate_config
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


@pytest.mark.parametrize("name", ["k.json", "sub/k.json"])
def test_kernel_rejects_out_that_its_report_would_overwrite(tmp_path, ost_config,
                                                           capsys, name):
    # the report goes to out.with_suffix(".json"): for a .json out, the CSV
    out = tmp_path / name
    before = sorted(tmp_path.iterdir())
    rc = main(["--out", str(out), "kernel", "--config", ost_config,
               "--t", "1.0", "--grid", "N=1024,L=50"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "--out" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


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


@pytest.mark.parametrize("t,names", [
    ("1e6", "overflows"), ("1e300", "overflows"),   # exp(Re L t) > float64 max
    ("1e3", "default window"),                      # starts past 0.45 L
])
def test_kernel_rejects_t_too_large_for_the_box(tmp_path, ost_config, capsys, t, names):
    # both used to print numpy RuntimeWarnings or a window error naming
    # neither t nor L
    out = tmp_path / "k.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--out", str(out), "kernel", "--config", ost_config,
                   "--t", t, "--grid", "N=256,L=10"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error [BadParameter]")
    assert names in lines[0] and f"t = {float(t)}" in lines[0]
    assert "L = 10.0" in lines[0] or names == "overflows"
    assert not out.exists()


@pytest.mark.parametrize("t", ["1700", "1860"])
def test_kernel_rejects_a_kernel_without_unit_mass(tmp_path, ost_config, capsys, t):
    # below the exp-overflow guard, with a window that skips the default
    # window's check: t = 1700 used to exit 0 with a mass of about -1e263,
    # and t = 1860 to print an overflow RuntimeWarning from the report
    out = tmp_path / "k.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--out", str(out), "kernel", "--config", ost_config,
                   "--t", t, "--grid", "N=256,L=10", "--window", "1", "4"])
    assert rc == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error [BadParameter]")
    assert f"t = {float(t)}" in lines[0] and "mass" in lines[0]
    assert captured.out == "" and list(tmp_path.iterdir()) == [Path(ost_config)]


def test_model_of_neither_form_is_a_config_error(tmp_path, capsys):
    # neither a preset nor a complete explicit model: the error names both
    # forms' failure, not one form's first missing key
    cfg = write_json(tmp_path / "model.json", {"symbol": {"kind": "kdv"}, "m": 3})
    rc = main(["--out", str(tmp_path / "k.csv"), "kernel", "--config", cfg,
               "--t", "1.0", "--grid", "N=256,L=10"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config error: $.model: {'symbol': {'kind': 'kdv'}, 'm': 3} is not valid "
        "under any of the given schemas\n")
    assert not (tmp_path / "k.csv").exists()


def test_invalid_json_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text('{"preset": "ost",')
    rc = main(["--out", str(tmp_path / "k.csv"), "kernel", "--config", str(bad),
               "--t", "1.0", "--grid", "N=256,L=10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: not valid JSON")
    assert len(err.splitlines()) == 1


_GROWTH_EXP = ('{"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50}, '
               '"solver": {"dt": 0.002, "T": 0.1}, '
               '"datum": {"kind": "growth", "gamma": 0.3, "c0": 0.01}, '
               '"experiment": {"kind": "growth", "bound": %s}}')
_GAUSS_DATUM = '{"kind": "gaussian", "sigma0": 1.0, "amp": %s}'


@pytest.mark.parametrize("field,value", [("bound", "NaN"), ("amp", "Infinity"),
                                         ("amp", "-Infinity"), ("amp", "1e999")])
def test_non_finite_json_number_is_a_config_error(tmp_path, ost_config, capsys,
                                                  field, value):
    # Python's json reads NaN, Infinity and 1e999: a NaN growth bound (a field
    # since removed) used to fail the science check (exit 2), an infinite
    # amplitude the solver; the file is refused before any schema is read
    bad = tmp_path / "bad.json"
    if field == "bound":
        bad.write_text(_GROWTH_EXP % value)
        args = ["experiment", "growth", "--config", str(bad)]
    else:
        bad.write_text(_GAUSS_DATUM % value)
        args = ["simulate", "--config", ost_config, "--datum", str(bad),
                "--T", "0.02", "--dt", "0.005", "--grid", "N=256,L=20"]
    reason = ("1e999 is too large for a float" if value == "1e999"
              else f"{value} is not a JSON number")
    out = tmp_path / "out"
    assert main(["--quiet", "--out", str(out), *args]) == 1
    assert capsys.readouterr().err == f"config error: {bad}: not valid JSON ({reason})\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "simulate"])
def test_integer_beyond_float_range_is_a_config_error(tmp_path, ost_config, capsys,
                                                      command):
    # an int literal past float range used to end in an OverflowError traceback
    # where the grid (grid.L) or the datum (amp) converts it
    huge = "1" + "0" * 400
    bad = tmp_path / "bad.json"
    if command == "experiment":
        bad.write_text('{"model": {"preset": "ost"}, "grid": {"N": 256, "L": %s}, '
                       '"solver": {"dt": 0.01, "T": 0.1}, "datum": %s, '
                       '"experiment": {"kind": "energy"}}' % (huge, _GAUSS_DATUM % 1))
        args = ["experiment", "energy", "--config", str(bad)]
    else:
        bad.write_text(_GAUSS_DATUM % huge)
        args = ["simulate", "--config", ost_config, "--datum", str(bad),
                "--T", "0.02", "--dt", "0.005", "--grid", "N=256,L=20"]
    out = tmp_path / "out"
    assert main(["--quiet", "--out", str(out), *args]) == 1
    assert capsys.readouterr().err == (f"config error: {bad}: not valid JSON "
                                       f"({huge} is too large for a float)\n")
    assert not out.exists()


_OST_SMALL = {"model": {"preset": "ost"}, "grid": {"N": 256, "L": 20},
              "solver": {"dt": 0.01, "T": 0.05}, "datum": {"kind": "gaussian"}}


@pytest.mark.parametrize("kind,cfg,error", [
    # sigma0 ** 2 past the float range: an OverflowError traceback
    ("energy", {**_OST_SMALL, "datum": {"kind": "gaussian", "sigma0": 1e200}},
     "config error: the datum {'kind': 'gaussian', 'sigma0': 1e+200} has non-finite"),
    # 171! converted to a float in the tail constant J: an OverflowError traceback
    ("kernel", {"model": {"symbol": {"kind": "kdv"}, "m": 3, "n": 171, "k": 1, "eta": 1},
                "grid": {"N": 256, "L": 20}, "experiment": {"kind": "kernel", "t": 1,
                                                          "window": [1, 9]}},
     "error [BadParameter]: the tail constant J of m = 3, n = 171"),
    # exp(L dt) past float64: five RuntimeWarnings, then error [NonFinite]
    ("energy", {**_OST_SMALL, "model": {"preset": "ost", "eta": 1e12},
                "solver": {"dt": 0.1, "T": 0.1}},
     "error [BadParameter]: dt = 0.1 overflows the propagator: max Re L(xi) dt = 3.8"),
    # L itself past float64: RuntimeWarnings from dissipation_symbol first
    ("energy", {**_OST_SMALL, "model": {"preset": "ost", "eta": 1e200},
                "grid": {"N": 256, "L": 1e-40}},
     "error [BadParameter]: the linear symbol L(xi) is not finite"),
    # |u|^p underflows to 0 after one step: an all-zero series that passed
    ("weighted", {**_OST_SMALL, "experiment": {"kind": "weighted", "p": 1e308}},
     "error [BadParameter]: sum |u|^p w dx is 0 for a nonzero field"),
    # |u|^p overflows: Infinity and NaN in a report.json that load_json refuses
    ("weighted", {**_OST_SMALL, "solver": {"dt": 1e-5, "T": 1e-4},
                  "datum": {"kind": "gaussian", "amp": 1000},
                  "experiment": {"kind": "weighted", "p": 1000}},
     "error [BadParameter]: sum |u|^p w dx is inf for a nonzero field"),
    # |x|^171 past float64: Infinity in every ratio, which load_json refuses
    ("lowerbound", {"model": {"symbol": {"kind": "kdv"}, "m": 3, "n": 170, "k": 1,
                              "eta": 1e-290},
                    "grid": {"N": 1024, "L": 400}, "solver": {"dt": 0.01, "T": 0.05},
                    "datum": {"kind": "algebraic", "gamma": 3.0}},
     "error [BadParameter]: |x|^{n+1} |u| / (A |int u0|) is beyond the float64 "
     "range for n = 170 on the window [45.0, 90.0]"),
    # |x|^171 past float64: fitted_C and max_rel_dev Infinity
    ("kernel", {"model": {"symbol": {"kind": "kdv"}, "m": 3, "n": 170, "k": 1, "eta": 1},
                "grid": {"N": 4096, "L": 400}, "experiment": {"kind": "kernel", "t": 1}},
     "error [BadParameter]: |x|^{n+1} |K| is beyond the float64 range for n = 170 "
     "on the window [10.0, 180.0]"),
], ids=["datum", "tail-constant", "propagator", "symbol", "norm-underflow",
        "norm-overflow", "lower-bound-power", "kernel-power"])
def test_float_range_is_one_typed_line(tmp_path, capsys, kind, cfg, error):
    # no traceback and no RuntimeWarning (an error under this suite's
    # filterwarnings), one line and no run directory
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", kind, "--config",
               write_json(tmp_path / "exp.json", {"experiment": {"kind": kind}, **cfg})])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("cfg", [
    # i^103 from 1j ** 103 had a real part that swamped the damping
    {**_OST_SMALL, "model": {"symbol": {"kind": "kdv"}, "m": 2, "n": 102, "k": 1, "eta": 1.0},
     "datum": {"kind": "gaussian", "sigma0": 2.0, "amp": 0.5},
     "solver": {"dt": 1e-3, "T": 0.01}},
    # z^2 in phi_2(z = L dt) past float64 while exp(z) is 0: a NonFinite state
    {**_OST_SMALL, "model": {"symbol": {"kind": "kdv"}, "m": 2, "n": 2, "k": 1, "eta": 1e160}},
], ids=["n-102", "eta-1e160"])
def test_float_range_edges_that_run(tmp_path, cfg):
    # no RuntimeWarning (an error under this suite's filterwarnings)
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", "energy", "--config",
               write_json(tmp_path / "exp.json", {**cfg, "experiment": {"kind": "energy"}})])
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["passed"] is True


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_bytes(b'\xff{"preset": "ost"}')
    rc = main(["--out", str(tmp_path / "k.csv"), "kernel", "--config", str(bad),
               "--t", "1.0", "--grid", "N=256,L=10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: not valid JSON ('utf-8' codec")
    assert len(err.splitlines()) == 1


def test_missing_input_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "none.csv"
    rc = main(["decay-fit", "--in", str(missing), "--window", "1,2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(missing) in err
    assert len(err.splitlines()) == 1


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

def test_simulate_blow_up_exits_1_with_one_non_finite_line(tmp_path, ost_config, capsys):
    # no retry at a smaller dt: a blow-up is an error, as in every experiment kind
    datum = write_json(tmp_path / "big.json", {"kind": "gaussian", "sigma0": 1.0,
                                               "amp": 1000.0})
    out = tmp_path / "run"
    rc = main(["--out", str(out), "simulate", "--config", ost_config, "--datum", datum,
               "--T", "0.05", "--dt", "0.01", "--grid", "N=256,L=20"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error [NonFinite]: non-finite state at t = 0.05\n"
    assert captured.out == ""
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("command", ["kernel", "simulate", "experiment"])
def test_a_failed_run_leaves_no_parent_directory_it_made(tmp_path, ost_config, capsys,
                                                        command):
    # the missing parents of --out used to stay behind, empty
    datum = write_json(tmp_path / "big.json", {"kind": "gaussian", "sigma0": 1.0,
                                               "amp": 1000.0})
    exp = write_json(tmp_path / "exp.json", _small_run("convergence", amp=0.0))
    new = tmp_path / "new"
    args = {"kernel": ["--out", str(new / "k.csv"), "kernel", "--config", ost_config,
                       "--t", "1e6", "--grid", "N=256,L=10"],
            "simulate": ["--out", str(new / "deeper" / "run"), "simulate", "--config",
                         ost_config, "--datum", datum, "--T", "0.05", "--dt", "0.01",
                         "--grid", "N=256,L=20"],
            "experiment": ["--out", str(new / "run"), "experiment", "convergence",
                           "--config", exp]}[command]
    assert main(["--quiet", *args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error [")
    assert not new.exists() and not list(tmp_path.glob(".tmp-*"))


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


@pytest.mark.parametrize("value,count", [(np.inf, 102), (np.nan, 10)])
def test_decay_fit_refuses_non_finite_samples(tmp_path, capsys, value, count):
    # |x|^-2 tails, spoiled by inf beyond |x| = 10 or by 10 NaN samples in
    # (5, 6): the first fit used to report a NaN exponent as valid, with a
    # RuntimeWarning, and the second to drop the NaN samples silently
    g = Grid(1024, 50.0)
    samples = (1.0 + g.x ** 2) ** -1.0
    if np.isinf(value):
        samples[np.abs(g.x) > 10.0] = value
    else:
        samples[np.flatnonzero((g.x > 5.0) & (g.x < 6.0))[:count]] = value
    path, fit = tmp_path / "f.csv", tmp_path / "fit.json"
    field_to_csv(Field(g, samples), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--out", str(fit), "decay-fit", "--in", str(path), "--window", "5,20"])
    assert rc == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error [BadParameter]: ")
    side = "left" if np.isinf(value) else "right"
    assert f"{side} window [5.0, 20.0]: {count} non-finite samples" in lines[0]
    assert captured.out == "" and not fit.exists()


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


def test_experiment_float_grid_size_is_bad_parameter(tmp_path, capsys):
    # 1024.0 is an integer to JSON Schema 2020-12, but not a grid size
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": {"N": 1024.0, "L": 50},
        "solver": {"dt": 0.002, "T": 0.2},
        "datum": {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1},
        "experiment": {"kind": "energy"}})
    out = tmp_path / "energyrun"
    assert main(["--quiet", "--out", str(out), "experiment", "energy",
                 "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error [BadParameter]: N must be an integer, got 1024.0\n")
    assert not out.exists()


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


def test_experiment_dichotomy_guard_exit_code(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "chen_lee"},
        "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.01, "T": 0.1},
        "datum": {"kind": "algebraic", "gamma": 3.0},
        "experiment": {"kind": "dichotomy"},
    })
    rc = main(["--quiet", "--out", str(tmp_path / "clrun"), "experiment",
               "dichotomy", "--config", cfg])
    assert rc == 1
    assert "ExcludedParameters" in capsys.readouterr().err
    assert not (tmp_path / "clrun").exists()   # atomicity on failure


@pytest.mark.parametrize("T", [0.0004, 0.0105])
def test_experiment_weighted_partial_steps_exit_1(tmp_path, capsys, T):
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"},
        "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.001, "T": T},
        "datum": {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1},
        "experiment": {"kind": "weighted"},
    })
    out = tmp_path / "wrun"
    rc = main(["--quiet", "--out", str(out), "experiment", "weighted",
               "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error [BadParameter]") and "whole number of steps" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


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


def test_experiment_kind_mismatch(tmp_path, capsys):
    # valid for energy, and for growth but for its kind: the kind's own
    # schema names the mismatch
    cfg = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
           "solver": {"dt": 0.01, "T": 0.1},
           "datum": {"kind": "growth", "gamma": 0.3},
           "experiment": {"kind": "energy"}}
    validate_config(cfg, EXPERIMENT_SCHEMAS["energy"])
    out = tmp_path / "x"
    rc = main(["--quiet", "--out", str(out), "experiment", "growth",
               "--config", write_json(tmp_path / "exp.json", cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: $.experiment.kind") and "'growth'" in err
    assert len(err.splitlines()) == 1
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


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


@pytest.mark.parametrize("kind", ["kernel", "kernel_derivative"])
@pytest.mark.parametrize("block,value", [("datum", {"kind": "gaussian", "sigma0": 1.0}),
                                         ("solver", {"dt": 0.01, "T": 0.1})])
def test_experiment_kernel_refuses_blocks_it_does_not_read(tmp_path, capsys, kind, block,
                                                           value):
    cfg = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50}, block: value,
           "experiment": {"kind": kind, "t": 1.0, "window": [5, 20]}}
    out = tmp_path / "run"
    assert main(["--quiet", "--out", str(out), "experiment", kind, "--config",
                 write_json(tmp_path / "exp.json", cfg)]) == 1
    assert capsys.readouterr().err == (f"config error: $: Additional properties are not "
                                       f"allowed ('{block}' was unexpected)\n")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("experiment,missing", [
    ({"kind": "kernel"}, "t"),
    ({"kind": "kernel_derivative", "window": [5, 20]}, "t"),
    ({"kind": "kernel_derivative", "t": 1.0}, "window"),   # no default for d_x K
])
def test_experiment_kernel_needs_t_and_a_derivative_window(tmp_path, capsys, experiment,
                                                           missing):
    cfg = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50}, "experiment": experiment}
    out = tmp_path / "run"
    assert main(["--quiet", "--out", str(out), "experiment", experiment["kind"], "--config",
                 write_json(tmp_path / "exp.json", cfg)]) == 1
    assert capsys.readouterr().err == (f"config error: $.experiment: '{missing}' is a "
                                       f"required property\n")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


def test_experiment_convergence_of_a_zero_datum_is_bad_parameter(tmp_path, capsys):
    # u(T) is 0 at every dt, so log2(d12 / d23) has no value
    out = tmp_path / "run"
    assert main(["--quiet", "--out", str(out), "experiment", "convergence", "--config",
                 write_json(tmp_path / "exp.json", _small_run("convergence", amp=0.0))]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error [BadParameter]: ")
    assert "no order to observe" in lines[0]
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


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


def test_experiment_lowerbound_refuses_a_window_with_no_sample(tmp_path, capsys):
    # [10, 10.01] falls between two samples of the grid (dx = 0.098)
    cfg = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.01, "T": 0.1, "linear_only": True},
        "datum": {"kind": "algebraic", "gamma": 3.0},
        "experiment": {"kind": "lowerbound", "windows": [[10.0, 10.01]]}})
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--quiet", "--out", str(out), "experiment", "lowerbound", "--config", cfg])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(lines) == 1
    assert lines[0].startswith("error [BadParameter]: window [10.0, 10.01] holds no sample")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


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


@pytest.mark.parametrize("command", ["kernel", "simulate", "experiment"])
def test_infinite_box_size_is_bad_parameter(tmp_path, ost_config, gauss_datum,
                                            capsys, command):
    # L = inf (from --grid, or JSON Infinity) used to reach the solver
    # (NonFinite) or the kernel's resolution check (UnderResolved) after a
    # RuntimeWarning; in a JSON config, Infinity is not valid JSON
    grid = ["--grid", "N=256,L=inf"]
    exp = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": {"N": 256, "L": float("inf")},
        "solver": {"dt": 0.01, "T": 0.1},
        "datum": {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1},
        "experiment": {"kind": "energy"}})
    args = {"kernel": ["kernel", "--config", ost_config, "--t", "1.0", *grid],
            "simulate": ["simulate", "--config", ost_config, "--datum",
                         gauss_datum, "--T", "0.1", "--dt", "0.01", *grid],
            "experiment": ["experiment", "energy", "--config", exp]}[command]
    rc = main(["--quiet", "--out", str(tmp_path / "out"), *args])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    if command == "experiment":
        assert lines == [f"config error: {exp}: not valid JSON "
                         "(Infinity is not a JSON number)"]
    else:
        assert len(lines) == 1 and lines[0].startswith("error [BadParameter]")
        assert "finite" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("snapshots", ["a", "0.005,,0.01"])
def test_simulate_malformed_snapshots_is_config_error(tmp_path, ost_config,
                                                      gauss_datum, capsys, snapshots):
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.02", "--dt", "0.005",
               "--grid", "N=256,L=20", "--snapshots", snapshots])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --snapshots") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["etd", "picard"])
@pytest.mark.parametrize("snapshots", ["nan", "inf", "0.01,-inf"])
def test_simulate_non_finite_snapshots_is_bad_parameter(tmp_path, ost_config,
                                                        gauss_datum, capsys,
                                                        mode, snapshots):
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--T", "0.02", "--dt", "0.005",
               "--mode", mode, "--grid", "N=256,L=20", "--snapshots", snapshots])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error [BadParameter]")
    assert "not finite" in lines[0]
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


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


@pytest.mark.parametrize("kind,cfg,missing", [
    ("dichotomy", {"experiment": {"kind": "dichotomy"}}, "datum"),
    ("energy", {"experiment": {"kind": "energy"}}, "datum"),
    ("growth", {"experiment": {"kind": "growth"},
                "datum": {"kind": "growth", "c0": 0.01}}, "gamma"),
    # every kind reads its datum, so every kind requires it
    *((kind, {"experiment": {"kind": kind, **experiment}}, "datum")
      for kind, experiment in (("weighted", {}), ("growth", {}), ("lowerbound", {}),
                               ("decay", {"window": [5, 20]}), ("convergence", {}),
                               ("crosscheck", {}))),
])
def test_experiment_schema_per_kind(tmp_path, capsys, kind, cfg, missing):
    path = write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
        "solver": {"dt": 0.01, "T": 0.1}, **cfg})
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", kind, "--config", path])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"'{missing}' is a required property" in err
    assert "Traceback" not in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


_ALGEBRAIC = {"kind": "algebraic", "gamma": 2.5}


@pytest.mark.parametrize("kind,experiment,datum", [
    ("dichotomy", {"window": [1]}, _ALGEBRAIC),
    ("lowerbound", {"windows": []}, {"kind": "gaussian", "sigma0": 1.0}),
    ("lowerbound", {"windows": [[1, "2"]]}, {"kind": "gaussian", "sigma0": 1.0}),
    ("weighted", {"p": "2"}, {"kind": "gaussian", "sigma0": 1.0}),
    # out of range: each of these used to exit 1 with error [BadParameter]
    # from the runner
    ("weighted", {"p": 1}, {"kind": "gaussian", "sigma0": 1.0}),
    ("weighted", {"gamma": 1}, {"kind": "gaussian", "sigma0": 1.0}),
])
def test_experiment_parameters_typed(tmp_path, capsys, kind, experiment, datum):
    cfg = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
           "solver": {"dt": 0.01, "T": 0.1}, "datum": datum,
           "experiment": {"kind": kind, **experiment}}
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", kind, "--config",
               write_json(tmp_path / "exp.json", cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: $.experiment.{next(iter(experiment))}")
    assert err.count("\n") == 1
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("experiment", [{}])
def test_experiment_growth_needs_a_growth_datum(tmp_path, capsys, experiment):
    # an algebraic datum used to end in a KeyError traceback for c0, which
    # the bound 2 c0 reads
    cfg = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
           "solver": {"dt": 0.01, "T": 0.1}, "datum": {"kind": "algebraic", "gamma": 0.3},
           "experiment": {"kind": "growth", **experiment}}
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", "growth", "--config",
               write_json(tmp_path / "exp.json", cfg)])
    assert rc == 1
    assert capsys.readouterr().err == "config error: $.datum.kind: 'growth' was expected\n"
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


_GAUSSIAN = {"kind": "gaussian", "sigma0": 1.0}
#: kind -> (experiment parameters, datum) of a config its schema accepts;
#: a kernel config holds no datum and no solver block
_MINIMAL = {"dichotomy": ({}, _ALGEBRAIC),
            "weighted": ({}, _GAUSSIAN), "lowerbound": ({}, _GAUSSIAN),
            "energy": ({}, _GAUSSIAN), "decay": ({"window": [5, 20]}, _GAUSSIAN),
            "growth": ({}, {"kind": "growth", "gamma": 0.3}),
            "kernel": ({"t": 1.0}, None),
            "kernel_derivative": ({"t": 1.0, "window": [5, 20]}, None),
            "convergence": ({}, _GAUSSIAN),
            "crosscheck": ({}, _GAUSSIAN),
            "trajectory": ({}, _GAUSSIAN)}


def _blocks(datum) -> dict:
    """The solver and datum blocks of a _MINIMAL config."""
    return {} if datum is None else {"solver": {"dt": 0.01, "T": 0.1}, "datum": datum}


# test_experiment_kernel_refuses_blocks_it_does_not_read covers the kernel kinds
@pytest.mark.parametrize("kind", sorted(set(EXPERIMENT_SCHEMAS)
                                        - {"kernel", "kernel_derivative"}))
@pytest.mark.parametrize("field", ["snapshots", "linear_only", "mode"])
def test_experiment_solver_fields_per_kind(tmp_path, capsys, kind, field):
    # a kind that does not read a solver field rejects it
    experiment, datum = _MINIMAL[kind]
    value = {"snapshots": [0.05], "linear_only": True, "mode": "picard"}[field]
    cfg = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
           "solver": {"dt": 0.01, "T": 0.1, field: value}, "datum": datum,
           "experiment": {"kind": kind, **experiment}}
    if (kind, field) in {("growth", "snapshots"), ("lowerbound", "linear_only"),
                         ("trajectory", field)}:
        validate_config(cfg, EXPERIMENT_SCHEMAS[kind])   # a kind that reads it
        return
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", kind, "--config",
               write_json(tmp_path / "exp.json", cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: $.solver") and f"'{field}'" in err
    assert "Traceback" not in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


#: experiment kind -> the experiment parameters its runner reads
_READS = {"dichotomy": {"window"},
          "weighted": {"p", "gamma"}, "growth": set(), "lowerbound": {"windows"},
          "energy": set(), "decay": {"window"}, "kernel": {"t", "window"},
          "kernel_derivative": {"t", "window"},
          "convergence": set(), "crosscheck": set(), "trajectory": set()}
#: no kind reads gamma_datum and amplitude, which the datum block replaced,
#: nor exponent_tol, improvement_fraction and bound, which became constants
_PARAMETER_VALUES = {"gamma_datum": 2.5, "window": [5, 20], "amplitude": 1.0,
                     "exponent_tol": 0.1, "improvement_fraction": 0.5, "p": 2.0,
                     "gamma": 0.5, "bound": 0.02, "windows": [[5, 10]], "t": 1.0}


@pytest.mark.parametrize("kind", sorted(EXPERIMENT_SCHEMAS))
@pytest.mark.parametrize("parameter", sorted(_PARAMETER_VALUES))
def test_experiment_parameters_per_kind(tmp_path, capsys, kind, parameter):
    # a kind that does not read an experiment parameter rejects it
    experiment, datum = _MINIMAL[kind]
    cfg = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50}, **_blocks(datum),
           "experiment": {"kind": kind, **experiment,
                          parameter: _PARAMETER_VALUES[parameter]}}
    if parameter in _READS[kind]:
        validate_config(cfg, EXPERIMENT_SCHEMAS[kind])
        return
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", kind, "--config",
               write_json(tmp_path / "exp.json", cfg)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config error: $.experiment: Additional properties are not allowed "
        f"('{parameter}' was unexpected)\n")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


#: kind -> (grid, experiment parameters, datum, its amplitude key) of a
#: 10-step run
_SMALL_RUNS = {
    "dichotomy": ({"N": 4096, "L": 100}, {}, {"kind": "algebraic", "gamma": 3.0}, "c"),
    "weighted": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
    "growth": ({"N": 1024, "L": 50}, {}, {"kind": "growth", "gamma": 0.3}, "c0"),
    "lowerbound": ({"N": 1024, "L": 50}, {}, {"kind": "algebraic", "gamma": 3.0}, "c"),
    "energy": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
    "decay": ({"N": 1024, "L": 50}, {"window": [2, 10]},
              {"kind": "algebraic", "gamma": 3.0}, "c"),
    "convergence": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
    "crosscheck": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
    "trajectory": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
}


def _small_run(kind: str, **datum) -> dict:
    grid, experiment, base, _ = _SMALL_RUNS[kind]
    return {"model": {"preset": "ost"}, "grid": grid, "solver": {"dt": 0.01, "T": 0.1},
            "datum": {**base, **datum}, "experiment": {"kind": kind, **experiment}}


@pytest.mark.parametrize("kind", sorted(set(EXPERIMENT_SCHEMAS)
                                        - {"kernel", "kernel_derivative"}))
def test_every_experiment_kind_reads_its_datum(tmp_path, kind):
    # the datum's amplitude reaches the files of every kind: report.json,
    # and for trajectory, whose report holds no value of u, its CSVs
    amplitude = _SMALL_RUNS[kind][3]
    digests = []
    for value in (0.5, 1.0):
        cfg = write_json(tmp_path / "exp.json", _small_run(kind, **{amplitude: value}))
        out = tmp_path / f"run{value}"
        assert main(["--quiet", "--out", str(out), "experiment", kind,
                     "--config", cfg]) in (0, 2)
        digests.append(json.loads((out / "run.json").read_text())["outputs"])
    names = ([name for name in digests[0] if name != "report.json"]
             if kind == "trajectory" else ["report.json"])
    assert names and all(digests[0][name] != digests[1][name] for name in names)


@pytest.mark.parametrize("preset_name,datum,error", [
    ("ost", {"kind": "gaussian", "sigma0": 1.0}, "BadParameter"),
    ("ost", {"kind": "zero_mean_algebraic", "gamma": 3.0}, "BadParameter"),
    # the excluded pair is reported first, whatever the datum
    ("chen_lee", {"kind": "gaussian", "sigma0": 1.0}, "ExcludedParameters"),
])
def test_experiment_dichotomy_needs_an_algebraic_datum(tmp_path, capsys, preset_name,
                                                       datum, error):
    cfg = {**_small_run("dichotomy"), "model": {"preset": preset_name}, "datum": datum}
    out = tmp_path / "run"
    assert main(["--quiet", "--out", str(out), "experiment", "dichotomy", "--config",
                 write_json(tmp_path / "exp.json", cfg)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error [{error}]: ")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


_DGBO_NO_A = {"symbol": {"kind": "dgbo"}, "m": 3, "n": 2, "k": 1, "eta": 1.0}


@pytest.mark.parametrize("command", ["kernel", "simulate", "experiment"])
def test_dgbo_symbol_without_a_is_a_config_error(tmp_path, capsys, gauss_datum, command):
    model = write_json(tmp_path / "model.json", _DGBO_NO_A)
    exp = write_json(tmp_path / "exp.json", {
        "model": _DGBO_NO_A, "grid": {"N": 256, "L": 20}, "solver": {"dt": 0.01, "T": 0.05},
        "datum": {"kind": "gaussian", "sigma0": 1.0}, "experiment": {"kind": "energy"}})
    out = tmp_path / "out"
    argv = {"kernel": ["kernel", "--config", model, "--t", "1.0", "--grid", "N=256,L=20"],
            "simulate": ["simulate", "--config", model, "--datum", gauss_datum,
                         "--T", "0.05", "--dt", "0.01", "--grid", "N=256,L=20"],
            "experiment": ["experiment", "energy", "--config", exp]}[command]
    assert main(["--quiet", "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "symbol: 'a' is a required property" in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


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


def test_grid_memory_guard(tmp_path, capsys, ost_config):
    # x alone would take 8 x 2^40 bytes; the guard raises before allocating
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               "--t", "1.0", "--grid", "N=1099511627776,L=8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error [BadParameter]" in err
    assert "a grid of N=1099511627776 points needs 8796093022208 bytes" in err
    assert "physical memory" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("t,kind", [("inf", "BadParameter"), ("nan", "BadParameter")])
def test_kernel_rejects_a_non_finite_t(tmp_path, capsys, ost_config, t, kind):
    # --t inf used to end in RuntimeWarnings and a window error, and --t nan
    # in UnderResolved ("decay scale nan")
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               f"--t={t}", "--grid", "N=256,L=10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{kind}]: kernel construction requires")
    assert ("finite" in err) == (kind == "BadParameter")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("t", ["-inf", "0", "-1"])
def test_kernel_t_not_positive_is_a_config_error(tmp_path, capsys, ost_config, t):
    # --t is the kernel config's experiment.t, which must be positive
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config", ost_config,
               f"--t={t}", "--grid", "N=256,L=10"])
    assert rc == 1
    assert capsys.readouterr().err == (f"config error: $.experiment.t: {float(t)!r} is "
                                       f"less than or equal to the minimum of 0\n")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("flag,value", [("--dt", "nan"), ("--T", "inf"),
                                        ("--T", "nan")])
def test_simulate_rejects_non_finite_dt_and_T(tmp_path, capsys, ost_config,
                                              gauss_datum, flag, value):
    args = {"--dt": "0.01", "--T": "0.05", flag: value}
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", gauss_datum, "--grid", "N=256,L=20",
               *[item for pair in args.items() for item in pair]])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error [BadParameter]: dt, T and picard_tol must be finite")
    assert "Traceback" not in err
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


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


@pytest.mark.parametrize("model", [
    {"preset": "ost", "k": 3},              # only gost reads k
    {"preset": "bo_perturbed", "a": 0.3},   # only dgbo_perturbed reads a
    # a top-level a beside a symbol: the symbol's own a is the one read
    {"symbol": {"kind": "dgbo", "a": 0.5}, "a": 0.3, "m": 3, "n": 2, "k": 1, "eta": 1.0},
    # only a dgbo symbol reads a
    {"symbol": {"kind": "kdv", "a": 0.5}, "m": 3, "n": 1, "k": 1, "eta": 1.0},
])
def test_model_key_the_model_does_not_read_is_a_config_error(tmp_path, capsys, model):
    # each used to validate and run with the key dropped: ost with k = 1,
    # the dgbo symbol with a = 0.5
    out = tmp_path / "kernel.csv"
    rc = main(["--quiet", "--out", str(out), "kernel", "--config",
               write_json(tmp_path / "model.json", model), "--t", "1.0",
               "--grid", "N=256,L=20"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    unread = "'k'" if "k" in model and "preset" in model else "'a'"
    assert f"Additional properties are not allowed ({unread} was unexpected)" in err
    assert not out.exists()


@pytest.mark.parametrize("datum,unread", [
    ({"kind": "algebraic", "gamma": 3.0, "sigma0": 2.0}, "sigma0"),
    ({"kind": "zero_mean_algebraic", "gamma": 3.0, "amp": 2.0}, "amp"),
    ({"kind": "gaussian", "sigma0": 1.0, "c": 0.5}, "c"),
    ({"kind": "growth", "gamma": 0.3, "c": 0.5}, "c"),
])
def test_datum_key_its_kind_does_not_read_is_a_config_error(tmp_path, capsys, ost_config,
                                                            datum, unread):
    # each used to build the datum with the key dropped (the gaussian one
    # bit for bit the default amp = 1 one)
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
               "--datum", write_json(tmp_path / "datum.json", datum),
               "--T", "0.05", "--dt", "0.01", "--grid", "N=256,L=20"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"config error: $.datum: Additional properties are not allowed "
                   f"('{unread}' was unexpected)\n")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("datum", [
    {"kind": "gaussian", "sigma0": 1e-200},                         # sigma0 ** 2 underflows
    {"kind": "zero_mean_algebraic", "gamma": 0.5, "c": 1e308},      # c x overflows
])
def test_datum_with_non_finite_samples_is_a_config_error(tmp_path, capsys, ost_config,
                                                         datum):
    # each used to print numpy RuntimeWarnings and exit with error [NonFinite]
    # after two dt halvings
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--quiet", "--out", str(out), "simulate", "--config", ost_config,
                   "--datum", write_json(tmp_path / "datum.json", datum),
                   "--T", "0.01", "--dt", "0.0025", "--grid", "N=256,L=20"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: the datum ")
    assert "non-finite samples" in lines[0] and datum["kind"] in lines[0]
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


def _linear_lowerbound(tmp_path, grid: dict, T: float) -> str:
    return write_json(tmp_path / "exp.json", {
        "model": {"preset": "ost"}, "grid": grid,
        "solver": {"dt": T, "T": T, "linear_only": True},
        "datum": {"kind": "algebraic", "gamma": 3.0},
        "experiment": {"kind": "lowerbound"}})


@pytest.mark.parametrize("grid,T,error,names", [
    # max Re L T = 0.385 x 3000 > log(float64 max): exp(L T) used to overflow
    # to inf, and the report held NaN ratios with exit code 2
    ({"N": 4096, "L": 100.0}, 3000.0, "BadParameter", "overflows the kernel"),
    # Nyquist 20.1 < 8 x the decay scale 4.64 at T = 0.01: the kernel build
    # refuses this grid, and the linear-only run used to go ahead on it
    ({"N": 256, "L": 20.0}, 0.01, "UnderResolved", "Nyquist"),
])
def test_experiment_lowerbound_linear_only_uses_the_kernel_checks(tmp_path, capsys,
                                                                 grid, T, error, names):
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", "lowerbound",
               "--config", _linear_lowerbound(tmp_path, grid, T)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error [{error}]: ")
    assert names in lines[0]
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))
