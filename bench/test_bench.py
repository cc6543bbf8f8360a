"""Tests of the benchmark itself: span arithmetic, patching, checks, names.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times, tail_value  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: per-layer metrics the worker adds to layer_metrics' output
WORKER_LAYERS = {"proc.cpu_s", "proc.warmup_s", "trace.overhead_frac"}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, 0, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 3.0),
        Span(3, 1, "b", 2.0, 5.0),    # overlaps a: the cover is [1, 5]
        Span(4, 3, "c", 2.5, 4.5),    # grandchild: no effect on root
        Span(5, 1, "d", 8.0, 12.0),   # clipped to the parent's end
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st[3] == pytest.approx(3.0 - 2.0)
    assert st[2] == pytest.approx(2.0)


def test_layer_metrics_on_a_synthetic_run():
    steps = [Span(10 + i, 1, "solver.step", 1.0 + i, 1.0 + i + 0.001 * (i + 1))
             for i in range(20)]
    spans = [Span(1, 0, "solver.solve", 0.0, 30.0), *steps,
             Span(2, 1, "fft.ifft", 25.0, 26.0, {"points": 8, "bytes": 256})]
    m = layer_metrics(spans)
    assert m["solver.step.calls"] == 20
    assert m["solver.step.tail_ms"] == pytest.approx(10.0)  # ten samples above it
    assert m["solver.step.p50_ms"] == pytest.approx(10.5)
    assert m["solver.solve.self_s"] == pytest.approx(30.0 - 0.21 - 1.0)
    assert (m["fft.calls"], m["fft.points"]) == (1, 8)
    assert m["fft.computed_mb"] == pytest.approx(256 / 1e6)
    assert tail_value([]) == 0.0 and tail_value([3.0, 1.0]) == 3.0


def _bindings():
    import numpy.fft
    import stratwave
    import stratwave.cli
    import stratwave.runio
    import stratwave.solver
    return {
        "solver.solve": stratwave.solver.solve,
        "cli.solve": stratwave.cli.solve,
        "package.solve": stratwave.solve,
        "cli.main": stratwave.cli.main,
        "fft": numpy.fft.fft,
        "step": stratwave.solver.EtdPropagator.step,
        "init": stratwave.solver.EtdPropagator.__init__,
        "commit": stratwave.runio.RunDirectory.commit,
    }


def test_tracer_wraps_every_binding_and_restores_the_originals():
    from stratwave.spectral import Field, Grid, to_spectral  # noqa: F401
    import stratwave.spectral

    before = _bindings()
    with Tracer() as tr:
        inside = _bindings()
        assert all(inside[k] is not before[k] for k in before)
        assert inside["solver.solve"] is inside["cli.solve"] is inside["package.solve"]
        grid = Grid(16, 1.0)
        stratwave.spectral.to_spectral(Field(grid, np.ones(16)))
    assert _bindings() == before
    outer = [s for s in tr.spans if s.name == "spectral.to_spectral"]
    inner = [s for s in tr.spans if s.name == "fft.fft"]
    assert len(outer) == 1 and len(inner) == 1
    assert inner[0].parent == outer[0].id and outer[0].parent == 0
    assert inner[0].info == {"points": 16, "bytes": 2 * 16 * 16}  # complex in, complex out

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_scaled_seconds_cancel_a_uniform_slowdown():
    ref = speed.REFERENCE_S
    assert speed.scaled([1.0], [ref, ref]) == [1.0]
    # the host at half speed: the run and the references around it take twice as long
    assert speed.scaled([2.0], [2 * ref, 2 * ref]) == [1.0]
    # each duration uses the mean of the two references that bracket it
    assert speed.scaled([1.0, 3.0], [ref / 2, 3 * ref / 2, 3 * ref / 2]) == pytest.approx([1.0, 2.0])
    with pytest.raises(ValueError):
        speed.scaled([1.0], [ref])


class _FileWorkload(workloads.Workload):
    """Writes one file per run; runs after the first write corrupted bytes."""

    name = "stub"

    def __init__(self):
        self.runs = 0

    def prepare(self, workdir, seed):
        pass

    def run(self, out):
        out.mkdir()
        (out / "data").write_text("ok" if self.runs == 0 else "corrupted")
        self.runs += 1
        return [0]

    def check(self, out):
        text = (out / "data").read_text()
        return [] if text == "ok" else [f"bad content {text!r}"]

    def digest(self, out):
        return (out / "data").read_text()


def test_a_corrupted_output_counts_as_failed(tmp_path):
    result = worker.measure(_FileWorkload(), tmp_path, 0.0, False, None)
    assert result["warmup_problems"] == []
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["problems"] == ["bad content 'corrupted'"]
    assert result["outputs_identical"] is False
    assert not any(tmp_path.iterdir())  # every run's outputs are deleted


def test_manifest_check_catches_a_changed_file(tmp_path):
    (tmp_path / "snapshot_t1.csv").write_text("x,re,im\n0,1,0\n")
    digest = workloads._sha256(tmp_path / "snapshot_t1.csv")
    (tmp_path / "run.json").write_text(json.dumps({"outputs": {"snapshot_t1.csv": digest}}))
    assert workloads.manifest_problems(tmp_path) == []
    (tmp_path / "snapshot_t1.csv").write_text("x,re,im\n0,2,0\n")
    assert workloads.manifest_problems(tmp_path) == [
        "snapshot_t1.csv: sha256 does not match run.json"]


def test_acceptance_check_requires_every_criterion_to_pass(tmp_path):
    results = [{"id": cid, "passed": True, "expected": "", "measured": {}, "seconds": 1.0}
               for cid in workloads.ACCEPTANCE_IDS]
    summary = {"results": results, "skipped": [], "n_passed": 9, "n_total": 9}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    wl = workloads.AcceptanceSmall()
    assert wl.check(tmp_path) == []
    results[0]["passed"], summary["n_passed"] = False, 8
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert wl.check(tmp_path) == ["criteria failed: ['K-MOD-EVEN']"]


@pytest.mark.parametrize("name", ["evolve_large", "kernel_io", "acceptance_small"])
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.WORKLOADS[name]().prepare(d, seed)
        return {p.name: p.read_text() for p in d.iterdir()}

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    if name != "kernel_io":  # kernel_io's seed moves t, an argument, not a file
        assert first != inputs(8, "c")


def test_metric_and_workload_names_are_valid_and_in_sync():
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[section]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) for n in names), names
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(layer_metrics([])) | WORKER_LAYERS == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert tracer.FFT_FUNCS == ("fft", "ifft", "rfft", "irfft")


def test_driver_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernel_io",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
