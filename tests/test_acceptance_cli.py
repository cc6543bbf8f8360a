"""`stratwave acceptance` and its inputs: the error rule, the recorded
configs, repeated criterion ids, and the `--grid` keys.

The error rule: a StratwaveError raised inside any criterion, a config or a
function, is that criterion's FAIL, named in its line and summary entry;
the suite goes on and exits 2.  Any other exception is a package bug and
propagates.
"""

import json
from pathlib import Path

import pytest

from stratwave import acceptance, analysis
from stratwave.acceptance import CRITERIA
from stratwave.cli import main
from stratwave.errors import BadParameter

GOLDEN = json.loads((Path(__file__).resolve().parent / "acceptance_golden.json").read_text())


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _raise_bad_parameter(*args, **kwargs):
    raise BadParameter("injected failure")


@pytest.mark.parametrize("cid, patch", [
    # a config criterion: the runner of its experiment kind raises
    ("E-GROW", lambda mp: mp.setitem(analysis.EXPERIMENTS, "energy",
                                     (_raise_bad_parameter, {}))),
    # a function criterion: a call inside it raises
    ("K-SEMI", lambda mp: mp.setattr(acceptance, "convolve", _raise_bad_parameter)),
])
def test_a_criterion_that_raises_is_a_fail_and_the_suite_goes_on(
        tmp_path, capsys, monkeypatch, cid, patch):
    patch(monkeypatch)
    out = tmp_path / "summary.json"
    rc = main(["--out", str(out), "acceptance", "--only", cid, "CL-GUARD", "K-MOD-EVEN"])
    assert rc == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"[FAIL] {cid} ")
    assert "raised BadParameter: injected failure" in lines[0]
    assert [line.split()[:2] for line in lines[1:3]] == [
        ["[PASS]", "CL-GUARD"], ["[PASS]", "K-MOD-EVEN"]]
    summary = json.loads(out.read_text())
    failed, *others = summary["results"]
    assert failed["id"] == cid and not failed["passed"]
    assert failed["error"] == "BadParameter: injected failure"
    assert failed["measured"] == {}
    assert failed["configs"] == list(CRITERIA[cid][1])
    assert [r["id"] for r in others] == ["CL-GUARD", "K-MOD-EVEN"]
    assert all(r["passed"] and "error" not in r for r in others)
    assert (summary["n_passed"], summary["n_total"]) == (2, 3)


def test_a_criterion_config_the_schema_refuses_is_a_fail(tmp_path, capsys, monkeypatch):
    # run_experiment checks each config, so a bad one no longer ends the suite
    # with a KeyError from inside the runner
    expected, (cfg,), verdict = acceptance.CRITERIA["E-GROW"]
    bad = {key: value for key, value in cfg.items() if key != "model"}
    monkeypatch.setitem(acceptance.CRITERIA, "E-GROW", (expected, (bad,), verdict))
    out = tmp_path / "summary.json"
    assert main(["--out", str(out), "acceptance", "--only", "E-GROW", "K-MOD-EVEN"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[FAIL] E-GROW ")
    assert "raised ConfigInvalid: $: 'model' is a required property" in lines[0]
    assert lines[1].startswith("[PASS] K-MOD-EVEN ")
    failed = json.loads(out.read_text())["results"][0]
    assert failed["error"] == "ConfigInvalid: $: 'model' is a required property"


def test_an_exception_that_is_not_a_stratwave_error_propagates(tmp_path, monkeypatch):
    # a package bug, not a verdict: no summary is written
    def bug(cfg):
        raise ZeroDivisionError("bug")
    monkeypatch.setitem(analysis.EXPERIMENTS, "energy", (bug, {}))
    out = tmp_path / "summary.json"
    with pytest.raises(ZeroDivisionError):
        main(["--quiet", "--out", str(out), "acceptance", "--only", "E-GROW"])
    assert not out.exists()


def test_cl_guard_config_from_the_summary_is_refused_by_experiment(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    assert main(["--quiet", "--out", str(summary_path), "acceptance",
                 "--only", "CL-GUARD"]) == 0
    (result,) = json.loads(summary_path.read_text())["results"]
    assert result["measured"] == {"raised": 1.0}
    (cfg,) = result["configs"]
    out = tmp_path / "run"
    rc = main(["--quiet", "--out", str(out), "experiment", "dichotomy", "--config",
               write_json(tmp_path / "cl-guard.json", cfg)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error [ExcludedParameters]: ")
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


def test_k_mass_configs_from_the_summary_rerun_to_its_golden_value(tmp_path):
    summary_path = tmp_path / "summary.json"
    assert main(["--quiet", "--out", str(summary_path), "acceptance",
                 "--only", "K-MOD-EVEN", "K-MASS"]) == 0
    function, k_mass = json.loads(summary_path.read_text())["results"]
    assert function["configs"] == []
    assert len(k_mass["configs"]) == 15
    worst = 0.0
    for i, cfg in enumerate(k_mass["configs"]):
        out = tmp_path / f"run{i}"
        assert main(["--quiet", "--out", str(out), "experiment", "kernel", "--config",
                     write_json(tmp_path / f"k-mass{i}.json", cfg)]) == 0
        worst = max(worst, abs(json.loads((out / "report.json").read_text())["mass"] - 1.0))
    assert worst == GOLDEN["K-MASS"]["worst_mass_error"]


def test_acceptance_opens_its_out_before_the_first_criterion(tmp_path, capsys, monkeypatch):
    # an --out under a regular file used to fail only after every criterion
    # had run, and the summary was written in place, not through a RunDirectory
    ran = []
    monkeypatch.setattr(acceptance, "run_criterion", ran.append)
    (tmp_path / "afile").write_text("")
    assert main(["--quiet", "--out", str(tmp_path / "afile" / "s.json"), "acceptance",
                 "--only", "K-MOD-EVEN"]) == 1
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert ran == [] and not list(tmp_path.glob(".tmp-*"))

    def fail(cid):
        raise RuntimeError("injected failure")    # not a StratwaveError: it propagates

    monkeypatch.setattr(acceptance, "run_criterion", fail)
    new = tmp_path / "new"
    with pytest.raises(RuntimeError, match="injected failure"):
        main(["--quiet", "--out", str(new / "s.json"), "acceptance", "--only", "K-MOD-EVEN"])
    assert not new.exists() and not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("selection", [
    ["--only", "K-MOD-EVEN", "CL-GUARD", "K-MOD-EVEN"],
    ["--suite", '["K-MOD-EVEN", "CL-GUARD", "K-MOD-EVEN"]'],
])
def test_acceptance_refuses_a_repeated_criterion_id(tmp_path, capsys, selection):
    # it used to run twice and count twice in n_total
    if selection[0] == "--suite":
        (tmp_path / "suite.json").write_text(selection[1])
        selection = ["--suite", str(tmp_path / "suite.json")]
    out = tmp_path / "summary.json"
    rc = main(["--out", str(out), "acceptance", *selection])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "listed more than once: K-MOD-EVEN" in err[0]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("grid", ["N=1024,L=50,X=3", "N=1024,L=50,N=2048",
                                  "N=1024,N=1024,L=50", "L=50,N=1024,L=60"])
@pytest.mark.parametrize("command", ["kernel", "simulate"])
def test_grid_refuses_an_unknown_or_repeated_key(tmp_path, capsys, grid, command):
    # an unknown key used to be dropped and a repeated one to win silently
    model = write_json(tmp_path / "model.json", {"preset": "ost"})
    datum = write_json(tmp_path / "datum.json", {"kind": "gaussian", "sigma0": 1.0})
    args = {"kernel": ["kernel", "--config", model, "--t", "1.0"],
            "simulate": ["simulate", "--config", model, "--datum", datum,
                         "--T", "0.1", "--dt", "0.01"]}[command]
    out = tmp_path / "out"
    rc = main(["--quiet", "--out", str(out), *args, "--grid", grid])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: --grid {grid!r}")
    assert not out.exists()
