"""The CLI refusal rule as one table: CASES, and the checker each row runs.

The rule: bad input ends as exit 1 and one typed stderr line ("config
error: ...", "error [<type>]: ...", "i/o error: ..."), never a traceback.
Stdout stays empty, and the case's directory is left as it was: no output,
no parent made for --out and no .tmp-* file, so no row lists the paths that
must not exist.  A row that runs (exit 0, or 2 for a failed verdict) runs
--quiet and checks an empty stderr and stdout instead, and no .tmp-* left.

Each row runs in a fresh directory that holds only its files, with relative
paths in its argv, and with every warning an error.  Tier-1 runs every row
in-process through stratwave.cli.main (tier1_tests).  Run as a script, the
file runs every row through the `stratwave` on PATH, one subprocess each,
under PYTHONWARNINGS=error:

    python tests/cli_cases.py

It exits 1 when any row breaks the rule.  pytest does not collect this file.

A new CLI refusal is one row here.  A row is named by its Tier-1 node id,
"<test file>::<test>[<id>]": most keep the id of the test they replaced.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from stratwave import Field, Grid, field_to_csv, kernel_field, preset


@dataclass(frozen=True)
class Case:
    """One CLI run and what it must do."""
    name: str               # its Tier-1 node id, "<file>::<test>[<id>]"
    argv: tuple             # after `stratwave`, with paths relative to the case's directory
    files: dict = field(default_factory=dict)   # name -> a JSON value, str, bytes or Field
    err: str = ""           # the one stderr line; "" for a run, whose stderr is empty
    prefix: bool = False    # err is the line's start, not the whole line
    code: int = 1

    def write(self, where: Path) -> None:
        for name, content in self.files.items():
            path = where / name
            if isinstance(content, Field):
                field_to_csv(content, path)
            elif isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content if isinstance(content, str) else json.dumps(content))

    def check(self, where: Path, code: int, out: str, err: str) -> None:
        """AssertionError naming every part of the rule the run broke."""
        problems = []
        if code != self.code:
            problems.append(f"exit {code}, not {self.code}")
        line = err[:-1]
        if not (err == "" if not self.err else err.endswith("\n") and "\n" not in line and (
                line.startswith(self.err) if self.prefix else line == self.err)):
            problems.append(f"stderr {err!r}, not {'empty' if not self.err else repr(self.err)}"
                            f"{' and more' if self.prefix else ''}")
        if out:
            problems.append(f"stdout {out!r}")
        left = sorted(str(path.relative_to(where)) for path in where.rglob("*"))
        if any(Path(path).name.startswith(".tmp-") for path in left):
            problems.append(f"a .tmp-* left in {left}")
        if self.code == 1 and left != sorted(self.files):
            problems.append(f"left {sorted(set(left) - set(self.files))}")
        assert not problems, "; ".join(problems)


OST = {"preset": "ost"}
GAUSS = {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1}
ALGEBRAIC = {"kind": "algebraic", "gamma": 3.0}


def kernel(t="1.0", grid="N=256,L=10", *extra, out="k.csv", quiet=True) -> tuple:
    """`stratwave kernel` on model.json."""
    return (*(["--quiet"] if quiet else []), "--out", out, "kernel", "--config", "model.json",
            f"--t={t}", "--grid", grid, *extra)


def simulate(*extra, T="0.05", dt="0.01", grid="N=256,L=20", datum="datum.json", out="run",
             quiet=True) -> tuple:
    """`stratwave simulate` of model.json from datum."""
    return (*(["--quiet"] if quiet else []), "--out", out, "simulate", "--config", "model.json",
            "--datum", datum, "--T", T, "--dt", dt, "--grid", grid, *extra)


def experiment(kind: str, out="run", config="exp.json") -> tuple:
    """`stratwave --quiet experiment kind` on config."""
    return ("--quiet", "--out", out, "experiment", kind, "--config", config)


#: kind -> (grid, experiment parameters, datum, its amplitude key) of a 10-step run
SMALL_RUNS = {
    "dichotomy": ({"N": 4096, "L": 100}, {}, ALGEBRAIC, "c"),
    "weighted": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
    "growth": ({"N": 1024, "L": 50}, {}, {"kind": "growth", "gamma": 0.3}, "c0"),
    "lowerbound": ({"N": 1024, "L": 50}, {}, ALGEBRAIC, "c"),
    "energy": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
    "decay": ({"N": 1024, "L": 50}, {"window": [2, 10]}, ALGEBRAIC, "c"),
    "convergence": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
    "crosscheck": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
    "trajectory": ({"N": 1024, "L": 50}, {}, {"kind": "gaussian", "sigma0": 1.0}, "amp"),
}


def small_run(kind: str, **datum) -> dict:
    grid, parameters, base, _ = SMALL_RUNS[kind]
    return {"model": OST, "grid": grid, "solver": {"dt": 0.01, "T": 0.1},
            "datum": {**base, **datum}, "experiment": {"kind": kind, **parameters}}


_OST_SMALL = {"model": OST, "grid": {"N": 256, "L": 20}, "solver": {"dt": 0.01, "T": 0.05},
              "datum": {"kind": "gaussian"}}
_ENERGY = {**_OST_SMALL, "datum": {"kind": "gaussian", "sigma0": 1.0},
           "experiment": {"kind": "energy"}}
_GAUSS_DATUM = '{"kind": "gaussian", "sigma0": 1.0, "amp": %s}'
_HUGE = "1" + "0" * 400
_KDV_170 = {"symbol": {"kind": "kdv"}, "m": 3, "n": 170, "k": 1}
_DGBO_NO_A = {"symbol": {"kind": "dgbo"}, "m": 3, "n": 2, "k": 1, "eta": 1.0}
_GAUSSIAN = {"kind": "gaussian", "sigma0": 1.0}      # amp 1, where GAUSS has 0.1
_ALGEBRAIC_25 = {"kind": "algebraic", "gamma": 2.5}

#: kind -> (experiment parameters, datum) of a config its schema accepts;
#: a kernel config holds no datum and no solver block
MINIMAL = {"dichotomy": ({}, _ALGEBRAIC_25), "weighted": ({}, _GAUSSIAN),
           "lowerbound": ({}, _GAUSSIAN), "energy": ({}, _GAUSSIAN),
           "decay": ({"window": [5, 20]}, _GAUSSIAN),
           "growth": ({}, {"kind": "growth", "gamma": 0.3}),
           "kernel": ({"t": 1.0}, None),
           "kernel_derivative": ({"t": 1.0, "window": [5, 20]}, None),
           "convergence": ({}, _GAUSSIAN), "crosscheck": ({}, _GAUSSIAN),
           "trajectory": ({}, _GAUSSIAN)}


def minimal(kind: str, solver=None, **parameters) -> dict:
    experiment, datum = MINIMAL[kind]
    blocks = {} if datum is None else {"solver": {"dt": 0.01, "T": 0.1, **(solver or {})},
                                       "datum": datum}
    return {"model": OST, "grid": {"N": 1024, "L": 50}, **blocks,
            "experiment": {"kind": kind, **experiment, **parameters}}


#: the experiment parameters that some kind reads, or that none reads any
#: more (gamma_datum and amplitude, which the datum block replaced, and
#: exponent_tol, improvement_fraction and bound, which became constants)
_PARAMETER_VALUES = {"gamma_datum": 2.5, "window": [5, 20], "amplitude": 1.0,
                     "exponent_tol": 0.1, "improvement_fraction": 0.5, "p": 2.0,
                     "gamma": 0.5, "bound": 0.02, "windows": [[5, 10]], "t": 1.0}
#: kind -> the experiment parameters its runner reads
_READS = {"dichotomy": {"window"}, "weighted": {"p", "gamma"}, "lowerbound": {"windows"},
          "decay": {"window"}, "kernel": {"t", "window"}, "kernel_derivative": {"t", "window"}}
#: (kind, solver field) pairs of a kind that reads the field
_SOLVER_READS = {("growth", "snapshots"), ("lowerbound", "linear_only"),
                 *(("trajectory", name) for name in ("snapshots", "linear_only", "mode"))}


def _csv_text(f: Field) -> str:
    """The text that field_to_csv writes for f."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        field_to_csv(f, path)
        return path.read_text()


def _with_line(text: str, index: int, line: str) -> str:
    """text with its line at index (0 the header) replaced."""
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def _spoiled_tails(value: float) -> Field:
    """|x|^-2 tails on N = 1024, L = 50, spoiled by value beyond |x| = 10
    (inf) or at the first 10 samples in (5, 6) (nan)."""
    grid = Grid(1024, 50.0)
    xs = grid.x.tolist()
    spoiled = ({x for x in xs if abs(x) > 10.0} if value == float("inf")
               else set([x for x in xs if 5.0 < x < 6.0][:10]))
    return Field(grid, [value if x in spoiled else 1.0 / (1.0 + x * x) for x in xs])


_ONES_16 = _csv_text(Field(Grid(16, 2.0), [1.0] * 16))
#: the kernel.csv of `stratwave kernel --t 1 --grid N=1024,L=50` for OST
_KERNEL_1024 = kernel_field(1.0, Grid(1024, 50.0), *preset("ost"))
_KERNEL_1024_CSV = _csv_text(_KERNEL_1024)
_PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
_MODEL = {"model.json": OST}
_MODEL_DATUM = {"model.json": OST, "datum.json": GAUSS}
_BIG_DATUM = {"kind": "gaussian", "sigma0": 1.0, "amp": 1000.0}
_OVERFLOW = "overflows the kernel: max Re L(xi) t = "
_ABOVE = ", above log(float64 max) = 709.783"
_ONE_POINT = ("left window [10.05, 10.06]: 1 points (< 3, the least a fit with a stderr "
              "needs)")
_NON_FINITE_DATUM = "has non-finite samples on the grid N=256, L=20.0"
_NO_POINT = "left window [10.01, 10.02]: 0 points over 0.00 decades (< 30/decade)"
_EXCLUDED = "(m, n) = (2, 1): the dichotomy result excludes (2, 1) and (2, 2d)"
_NOT_ALGEBRAIC = "the dichotomy runs from an algebraic datum and its zero-mean twin, not from a"

CASES = [
    *(Case(f"test_cli.py::test_kernel_rejects_out_that_its_report_would_overwrite[{out}]",
           kernel("1.0", "N=1024,L=50", out=out, quiet=False), _MODEL,
           f"config error: --out '{out}': the kernel CSV would be overwritten by its .json "
           f"report") for out in ("k.json", "sub/k.json")),
    # each used to print numpy RuntimeWarnings, or a window error naming neither t nor L
    *(Case(f"test_cli.py::test_kernel_rejects_t_too_large_for_the_box[{t}-{what}]",
           kernel(t, quiet=False), _MODEL, f"error [BadParameter]: {err}")
      for t, what, err in (
          ("1e6", "overflows", f"t = 1000000.0 {_OVERFLOW}380268{_ABOVE}"),
          ("1e300", "overflows", f"t = 1e+300 {_OVERFLOW}3.80268e+299{_ABOVE}"),
          ("1e3", "default window", "the default window starts at 100, past 0.45 L = 4.5, for "
                                    "t = 1000.0 and L = 10.0; pass a window or a larger L"))),
    # below the overflow guard, with a window that skips the default window's
    # check: t = 1700 used to exit 0 with a mass of about -1e263, and t = 1860
    # to print an overflow RuntimeWarning from the report
    *(Case(f"test_cli.py::test_kernel_rejects_a_kernel_without_unit_mass[{t}]",
           kernel(t, "N=256,L=10", "--window", "1", "4", quiet=False), _MODEL,
           f"error [BadParameter]: the kernel at t = {float(t)} has mass ", prefix=True)
      for t in ("1700", "1860")),
    # neither a preset nor a complete explicit model: the error names both forms
    Case("test_cli.py::test_model_of_neither_form_is_a_config_error",
         kernel(quiet=False), {"model.json": {"symbol": {"kind": "kdv"}, "m": 3}},
         "config error: $.model: {'symbol': {'kind': 'kdv'}, 'm': 3} is not valid under any "
         "of the given schemas"),
    Case("test_cli.py::test_invalid_json_config_is_a_config_error", kernel(quiet=False),
         {"model.json": '{"preset": "ost",'}, "config error: model.json: not valid JSON (",
         prefix=True),
    # Python's json reads NaN, Infinity and 1e999: the file is refused before any schema
    Case("test_cli.py::test_non_finite_json_number_is_a_config_error[bound-NaN]",
         experiment("growth", out="out", config="bad.json"),
         {"bad.json": '{"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50}, '
                      '"solver": {"dt": 0.002, "T": 0.1}, '
                      '"datum": {"kind": "growth", "gamma": 0.3, "c0": 0.01}, '
                      '"experiment": {"kind": "growth", "bound": NaN}}'},
         "config error: bad.json: not valid JSON (NaN is not a JSON number)"),
    *(Case(f"test_cli.py::test_non_finite_json_number_is_a_config_error[amp-{value}]",
           simulate(T="0.02", dt="0.005", datum="bad.json", out="out"),
           {**_MODEL, "bad.json": _GAUSS_DATUM % value},
           f"config error: bad.json: not valid JSON ({value} is {reason})")
      for value, reason in (("Infinity", "not a JSON number"), ("-Infinity", "not a JSON number"),
                            ("1e999", "too large for a float"))),
    # an int literal past float range used to end in an OverflowError traceback
    Case("test_cli.py::test_integer_beyond_float_range_is_a_config_error[experiment]",
         experiment("energy", out="out", config="bad.json"),
         {"bad.json": '{"model": {"preset": "ost"}, "grid": {"N": 256, "L": %s}, '
                      '"solver": {"dt": 0.01, "T": 0.1}, "datum": %s, '
                      '"experiment": {"kind": "energy"}}' % (_HUGE, _GAUSS_DATUM % 1)},
         f"config error: bad.json: not valid JSON ({_HUGE} is too large for a float)"),
    Case("test_cli.py::test_integer_beyond_float_range_is_a_config_error[simulate]",
         simulate(T="0.02", dt="0.005", datum="bad.json", out="out"),
         {**_MODEL, "bad.json": _GAUSS_DATUM % _HUGE},
         f"config error: bad.json: not valid JSON ({_HUGE} is too large for a float)"),
    # each used to end in a traceback or a RuntimeWarning, or to write Infinity
    # or NaN into a report.json that load_json refuses
    *(Case(f"test_cli.py::test_float_range_is_one_typed_line[{name}]", experiment(kind),
           {"exp.json": {"experiment": {"kind": kind}, **cfg}}, err)
      for name, kind, cfg, err in (
          # sigma0 ** 2 past the float range: an OverflowError traceback
          ("datum", "energy", {**_OST_SMALL, "datum": {"kind": "gaussian", "sigma0": 1e200}},
           "config error: the datum {'kind': 'gaussian', 'sigma0': 1e+200} "
           f"{_NON_FINITE_DATUM}"),
          # 171! converted to a float in the tail constant J
          ("tail-constant", "kernel",
           {"model": {**_KDV_170, "n": 171, "eta": 1}, "grid": {"N": 256, "L": 20},
            "experiment": {"kind": "kernel", "t": 1, "window": [1, 9]}},
           "error [BadParameter]: the tail constant J of m = 3, n = 171, eta = 1.0 is beyond "
           "the float64 range"),
          # exp(L dt) past float64: five RuntimeWarnings, then error [NonFinite]
          ("propagator", "energy", {**_OST_SMALL, "model": {"preset": "ost", "eta": 1e12},
                                    "solver": {"dt": 0.1, "T": 0.1}},
           f"error [BadParameter]: dt = 0.1 overflows the propagator: max Re L(xi) dt = "
           f"3.80268e+10{_ABOVE}"),
          # L itself past float64: RuntimeWarnings from dissipation_symbol first
          ("symbol", "energy", {**_OST_SMALL, "model": {"preset": "ost", "eta": 1e200},
                                "grid": {"N": 256, "L": 1e-40}},
           "error [BadParameter]: the linear symbol L(xi) is not finite on Grid(N=256, "
           "L=1e-40) for eta = 1e+200: it overflows float64"),
          # |u|^p underflows to 0 after one step: an all-zero series that passed
          ("norm-underflow", "weighted",
           {**_OST_SMALL, "experiment": {"kind": "weighted", "p": 1e308}},
           "error [BadParameter]: sum |u|^p w dx is 0 for a nonzero field: p = 1e+308 takes "
           "|u|^p out of the float64 range"),
          ("norm-overflow", "weighted",
           {**_OST_SMALL, "solver": {"dt": 1e-5, "T": 1e-4},
            "datum": {"kind": "gaussian", "amp": 1000},
            "experiment": {"kind": "weighted", "p": 1000}},
           "error [BadParameter]: sum |u|^p w dx is inf for a nonzero field: p = 1000 takes "
           "|u|^p out of the float64 range"),
          # |x|^171 past float64: Infinity in every ratio
          ("lower-bound-power", "lowerbound",
           {"model": {**_KDV_170, "eta": 1e-290}, "grid": {"N": 1024, "L": 400},
            "solver": {"dt": 0.01, "T": 0.05}, "datum": ALGEBRAIC},
           "error [BadParameter]: |x|^{n+1} |u| / (A |int u0|) is beyond the float64 "
           "range for n = 170 on the window [45.0, 90.0]"),
          ("kernel-power", "kernel",
           {"model": {**_KDV_170, "eta": 1}, "grid": {"N": 4096, "L": 400},
            "experiment": {"kind": "kernel", "t": 1}},
           "error [BadParameter]: |x|^{n+1} |K| is beyond the float64 range for n = 170 "
           "on the window [10.0, 180.0]"),
          # one point per side: a NaN stderr in a valid fit
          ("decay-one-point", "decay",
           {**_OST_SMALL, "grid": {"N": 1024, "L": 50}, "datum": ALGEBRAIC,
            "experiment": {"kind": "decay", "window": [10.05, 10.06]}},
           f"error [InsufficientDecades]: {_ONE_POINT}"),
          ("kernel-one-point", "kernel",
           {"model": OST, "grid": {"N": 1024, "L": 50},
            "experiment": {"kind": "kernel", "t": 1, "window": [10.05, 10.06]}},
           f"error [InsufficientDecades]: {_ONE_POINT}"))),
    # float-range edges that run: i^103 from 1j ** 103 had a real part that
    # swamped the damping, and z^2 in phi_2(z = L dt) overflowed while exp(z) was 0
    *(Case(f"test_cli.py::test_float_range_edges_that_run[{name}]", experiment("energy"),
           {"exp.json": {**_OST_SMALL, **cfg, "experiment": {"kind": "energy"}}}, code=0)
      for name, cfg in (
          ("n-102", {"model": {"symbol": {"kind": "kdv"}, "m": 2, "n": 102, "k": 1, "eta": 1.0},
                     "datum": {"kind": "gaussian", "sigma0": 2.0, "amp": 0.5},
                     "solver": {"dt": 1e-3, "T": 0.01}}),
          ("eta-1e160", {"model": {"symbol": {"kind": "kdv"}, "m": 2, "n": 2, "k": 1,
                                   "eta": 1e160}}))),
    Case("test_cli.py::test_non_utf8_config_is_a_config_error", kernel(quiet=False),
         {"model.json": b'\xff{"preset": "ost"}'},
         "config error: model.json: not valid JSON ('utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte)"),
    Case("test_cli.py::test_missing_input_is_an_io_error",
         ("decay-fit", "--in", "none.csv", "--window", "1,2"), {},
         "i/o error: [Errno 2] No such file or directory: 'none.csv'"),
    Case("test_cli.py::test_kernel_rejects_invalid_n", kernel("1.0", "N=1024,L=50"),
         {"model.json": {"symbol": {"kind": "kdv"}, "m": 2, "n": 5, "k": 1, "eta": 1.0}},
         "config error: n = 5 = 5 + 4d is excluded: the kernel spectrum grows like "
         "exp(eta |xi|^5 t)"),
    Case("test_cli.py::test_config_schema_error_carries_path",
         ("--quiet", "--out", "k.csv", "kernel", "--config", "model.json", "--t", "1.0"),
         {"model.json": {"symbol": {"kind": "nope"}, "m": 2, "n": 1, "k": 1, "eta": 1.0}},
         "config error: $.model.symbol.kind: 'nope' is not one of ['kdv', 'bo', 'dgbo']"),
    # no retry at a smaller dt: a blow-up is an error, as in every experiment kind
    Case("test_cli.py::test_simulate_blow_up_exits_1_with_one_non_finite_line",
         simulate(datum="big.json", quiet=False), {**_MODEL, "big.json": _BIG_DATUM},
         "error [NonFinite]: non-finite state at t = 0.05"),
    # the missing parents of --out used to stay behind, empty
    *(Case(f"test_cli.py::test_a_failed_run_leaves_no_parent_directory_it_made[{name}]",
           kernel("1e6", out="new/k.csv", quiet=quiet), _MODEL,
           f"error [BadParameter]: t = 1000000.0 {_OVERFLOW}380268{_ABOVE}")
      for name, quiet in (("kernel", True), ("kernel-not-quiet", False))),
    Case("test_cli.py::test_a_failed_run_leaves_no_parent_directory_it_made[simulate]",
         simulate(datum="big.json", out="new/deeper/run"), {**_MODEL, "big.json": _BIG_DATUM},
         "error [NonFinite]: non-finite state at t = 0.05"),
    Case("test_cli.py::test_a_failed_run_leaves_no_parent_directory_it_made[experiment]",
         experiment("convergence", out="new/run"), {"exp.json": small_run("convergence", amp=0.0)},
         "error [BadParameter]: u(T) at dt, dt/2 and dt/4 differ by 0.0 and 0.0: no order "
         "to observe"),
    Case("test_cli.py::test_simulate_rejects_off_grid_snapshots",
         simulate("--snapshots", "0.1,0.1004,0.1507", T="0.2", dt="0.001"), _MODEL_DATUM,
         "error [BadParameter]: snapshot time 0.1004 is not a multiple of dt=0.001"),
    # a non-numeric value, a ragged row, an x off the uniform grid, a nonzero im
    *(Case(f"test_cli.py::test_decay_fit_rejects_malformed_csv[{bad_line}-{name}]",
           ("--out", "fit.json", "decay-fit", "--in", "f.csv", "--window", "0.5,1"),
           {"f.csv": _with_line(_ONES_16, 2 if bad_line.startswith("-1.75") else 9, bad_line)},
           err, prefix=err.endswith("CSV: "))
      for bad_line, name, err in (
          ("-1.75,abc,0", "error [BadParameter]",
           "error [BadParameter]: f.csv: not a numeric (x, re, im) CSV: "),
          ("-1.75,1", "error [BadParameter]",
           "error [BadParameter]: f.csv: not a numeric (x, re, im) CSV: "),
          ("0.01,1,0", "error [GridMismatch]",
           "error [GridMismatch]: f.csv: CSV x column does not match Grid(N=16, L=2.0)"),
          ("-1.75,1,1e-17", "error [BadParameter]: ",
           "error [BadParameter]: f.csv: expected real data; the im column is not 0"))),
    # the first used to report a NaN exponent as valid, the second to drop
    # the NaN samples silently
    *(Case(f"test_cli.py::test_decay_fit_refuses_non_finite_samples[{value}-{count}]",
           ("--out", "fit.json", "decay-fit", "--in", "f.csv", "--window", "5,20"),
           {"f.csv": _spoiled_tails(float(value))},
           f"error [BadParameter]: {side} window [5.0, 20.0]: {count} non-finite samples; "
           f"a tail fit needs finite values")
      for value, count, side in (("inf", 102, "left"), ("nan", 10, "right"))),
    # a decay-fit on a kernel CSV: one point per side, and an im of 1e-17
    Case("test_cli.py::test_decay_fit_refusals_on_a_kernel_csv[one-point]",
         ("--out", "fit.json", "decay-fit", "--in", "k.csv", "--window", "10.05,10.06"),
         {"k.csv": _KERNEL_1024}, f"error [InsufficientDecades]: {_ONE_POINT}"),
    Case("test_cli.py::test_decay_fit_refusals_on_a_kernel_csv[im-1e-17]",
         ("--out", "fit.json", "decay-fit", "--in", "im.csv", "--window", "10,20"),
         {"im.csv": _with_line(_KERNEL_1024_CSV, 99, _KERNEL_1024_CSV.splitlines()[99][:-1]
                               + "1e-17")},
         "error [BadParameter]: im.csv: expected real data; the im column is not 0"),
    # 1024.0 is an integer to JSON Schema 2020-12, but not a grid size
    Case("test_cli.py::test_experiment_float_grid_size_is_bad_parameter", experiment("energy"),
         {"exp.json": {"model": OST, "grid": {"N": 1024.0, "L": 50},
                       "solver": {"dt": 0.002, "T": 0.2}, "datum": GAUSS,
                       "experiment": {"kind": "energy"}}},
         "error [BadParameter]: N must be an integer, got 1024.0"),
    Case("test_cli.py::test_experiment_dichotomy_guard_exit_code", experiment("dichotomy"),
         {"exp.json": {"model": {"preset": "chen_lee"}, "grid": {"N": 1024, "L": 50},
                       "solver": {"dt": 0.01, "T": 0.1}, "datum": ALGEBRAIC,
                       "experiment": {"kind": "dichotomy"}}},
         f"error [ExcludedParameters]: {_EXCLUDED}"),
    *(Case(f"test_cli.py::test_experiment_weighted_partial_steps_exit_1[{T}]",
           experiment("weighted"),
           {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50},
                         "solver": {"dt": 0.001, "T": T}, "datum": GAUSS,
                         "experiment": {"kind": "weighted"}}}, f"error [BadParameter]: {err}")
      for T, err in ((0.0004, "require 0 < dt <= T"),
                     (0.0105, "T=0.0105 is not a positive whole number of steps of dt=0.001"))),
    # an energy config, which runs as energy, is a growth config but for its
    # kind: the kind's own schema names the mismatch
    *(Case(f"test_cli.py::test_experiment_kind_mismatch{name}", experiment(kind, out="x"),
           {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50},
                         "solver": {"dt": 0.01, "T": 0.1},
                         "datum": {"kind": "growth", "gamma": 0.3},
                         "experiment": {"kind": "energy"}}}, **outcome)
      for name, kind, outcome in (
          ("", "growth", {"err": "config error: $.experiment.kind: 'growth' was expected"}),
          ("_config_runs_as_its_own_kind", "energy", {"code": 0}))),
    *(Case(f"test_cli.py::test_experiment_kernel_refuses_blocks_it_does_not_read"
           f"[{block}-value{i}-{kind}]", experiment(kind),
           {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50}, block: value,
                         "experiment": {"kind": kind, "t": 1.0, "window": [5, 20]}}},
           f"config error: $: Additional properties are not allowed ('{block}' was unexpected)")
      for i, (block, value) in enumerate((("datum", _GAUSSIAN),
                                          ("solver", {"dt": 0.01, "T": 0.1})))
      for kind in ("kernel", "kernel_derivative")),
    *(Case(f"test_cli.py::test_experiment_kernel_needs_t_and_a_derivative_window"
           f"[experiment{i}-{missing}]", experiment(parameters["kind"]),
           {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50}, "experiment": parameters}},
           f"config error: $.experiment: '{missing}' is a required property")
      for i, (parameters, missing) in enumerate((
          ({"kind": "kernel"}, "t"),
          ({"kind": "kernel_derivative", "window": [5, 20]}, "t"),
          ({"kind": "kernel_derivative", "t": 1.0}, "window")))),   # no default for d_x K
    # u(T) is 0 at every dt, so log2(d12 / d23) has no value
    Case("test_cli.py::test_experiment_convergence_of_a_zero_datum_is_bad_parameter",
         experiment("convergence"), {"exp.json": small_run("convergence", amp=0.0)},
         "error [BadParameter]: u(T) at dt, dt/2 and dt/4 differ by 0.0 and 0.0: no order "
         "to observe"),
    # [10, 10.01] falls between two samples of the grid (dx = 0.098)
    Case("test_cli.py::test_experiment_lowerbound_refuses_a_window_with_no_sample",
         experiment("lowerbound"),
         {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50},
                       "solver": {"dt": 0.01, "T": 0.1, "linear_only": True},
                       "datum": ALGEBRAIC,
                       "experiment": {"kind": "lowerbound", "windows": [[10.0, 10.01]]}}},
         "error [BadParameter]: window [10.0, 10.01] holds no sample of the grid "
         "(dx = 0.0976562)"),
    # so does [10.01, 10.02], which holds no point to fit either; each used to
    # be refused only after the whole run
    *(Case(f"test_cli.py::test_a_window_the_grid_cannot_fill_is_refused[{kind}]",
           experiment(kind),
           {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50}, **blocks,
                         "experiment": {"kind": kind, **parameters}}}, err)
      for kind, blocks, parameters, err in (
          ("lowerbound", {"solver": {"dt": 0.01, "T": 0.1}, "datum": ALGEBRAIC},
           {"windows": [[10.01, 10.02]]},
           "error [BadParameter]: window [10.01, 10.02] holds no sample of the grid "
           "(dx = 0.0976562)"),
          ("decay", {"solver": {"dt": 0.01, "T": 0.1}, "datum": ALGEBRAIC},
           {"window": [10.01, 10.02]}, f"error [InsufficientDecades]: {_NO_POINT}"),
          ("dichotomy", {"solver": {"dt": 0.01, "T": 0.1}, "datum": ALGEBRAIC},
           {"window": [10.01, 10.02]}, f"error [InsufficientDecades]: {_NO_POINT}"),
          ("kernel_derivative", {}, {"t": 1.0, "window": [10.01, 10.02]},
           f"error [InsufficientDecades]: {_NO_POINT}"),
          ("kernel", {}, {"t": 1.0, "window": [10.01, 10.02]},
           f"error [InsufficientDecades]: {_NO_POINT}"))),
    *(Case(f"test_cli.py::test_acceptance_without_known_criterion_rejected[selection{i}]",
           ("--out", "summary.json", "acceptance", *selection), files,
           f"config error: {err}")
      for i, (selection, files, err) in enumerate((
          (["--suite", "suite.json"], {"suite.json": "[]"},
           "suite.json: no known criterion id in []"),
          (["--only"], {}, "--only: no known criterion id in []"),
          (["--only", "NO-SUCH-ID"], {}, "--only: no known criterion id in ['NO-SUCH-ID']"),
          (["--suite", "suite.json"], {"suite.json": '["NO-SUCH-ID"]'},
           "suite.json: no known criterion id in ['NO-SUCH-ID']")))),
    Case("test_cli.py::test_acceptance_suite_of_non_strings_rejected",
         ("--out", "s.json", "acceptance", "--suite", "suite.json"),
         {"suite.json": [["K-MASS"]]},
         "config error: suite file must be a JSON list of criterion ids"),
    *(Case(f"test_cli.py::test_malformed_grid_is_config_error[{command}-{grid}]",
           {"kernel": kernel, "simulate": simulate}[command](grid=grid, out="out"), _MODEL_DATUM,
           f"config error: --grid {grid!r}: expected N=<int>,L=<float> (ValueError: {why})")
      for command in ("kernel", "simulate")
      for grid, why in (
          ("N=4096", "keys ['N'], not N and L once each"),
          ("L=100", "keys ['L'], not N and L once each"),
          ("foo", "keys ['foo'], not N and L once each"),
          ("N=4096,L=x", "could not convert string to float: 'x'"),
          ("N=4096.5,L=100", "invalid literal for int() with base 10: '4096.5'"),
          ("N=4096;L=100", "keys ['N'], not N and L once each"))),
    # L = inf used to reach the solver (NonFinite) or the kernel's resolution
    # check (UnderResolved) after a RuntimeWarning; in JSON, Infinity is not valid
    Case("test_cli.py::test_infinite_box_size_is_bad_parameter[kernel]",
         kernel(grid="N=256,L=inf", out="out"), _MODEL,
         "error [BadParameter]: L must be positive and finite, got inf"),
    Case("test_cli.py::test_infinite_box_size_is_bad_parameter[simulate]",
         simulate(T="0.1", grid="N=256,L=inf", out="out"), _MODEL_DATUM,
         "error [BadParameter]: L must be positive and finite, got inf"),
    Case("test_cli.py::test_infinite_box_size_is_bad_parameter[experiment]",
         experiment("energy", out="out"),
         {"exp.json": {"model": OST, "grid": {"N": 256, "L": float("inf")},
                       "solver": {"dt": 0.01, "T": 0.1}, "datum": GAUSS,
                       "experiment": {"kind": "energy"}}},
         "config error: exp.json: not valid JSON (Infinity is not a JSON number)"),
    *(Case(f"test_cli.py::test_simulate_malformed_snapshots_is_config_error[{snapshots}]",
           simulate("--snapshots", snapshots, T="0.02", dt="0.005"), _MODEL_DATUM,
           f"config error: --snapshots {snapshots!r}: expected comma-separated times (could "
           f"not convert string to float: {bad!r})")
      for snapshots, bad in (("a", "a"), ("0.005,,0.01", ""))),
    *(Case(f"test_cli.py::test_simulate_non_finite_snapshots_is_bad_parameter"
           f"[{snapshots}-{mode}]",
           simulate("--mode", mode, "--snapshots", snapshots, T="0.02", dt="0.005"),
           _MODEL_DATUM,
           f"error [BadParameter]: snapshot time {snapshots.split(',')[-1]} is not finite")
      for snapshots in ("nan", "inf", "0.01,-inf") for mode in ("etd", "picard")),
    # every kind reads its datum, so every kind requires it
    *(Case(f"test_cli.py::test_experiment_schema_per_kind[{kind}-cfg{i}-{missing}]",
           experiment(kind),
           {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50},
                         "solver": {"dt": 0.01, "T": 0.1}, **cfg}},
           f"config error: {path}: '{missing}' is a required property")
      for i, (kind, cfg, path, missing) in enumerate((
          ("dichotomy", {"experiment": {"kind": "dichotomy"}}, "$", "datum"),
          ("energy", {"experiment": {"kind": "energy"}}, "$", "datum"),
          ("growth", {"experiment": {"kind": "growth"},
                      "datum": {"kind": "growth", "c0": 0.01}}, "$.datum", "gamma"),
          *((kind, {"experiment": {"kind": kind, **parameters}}, "$", "datum")
            for kind, parameters in (("weighted", {}), ("growth", {}), ("lowerbound", {}),
                                     ("decay", {"window": [5, 20]}), ("convergence", {}),
                                     ("crosscheck", {})))))),
    # out of range (the last two): each used to exit 1 with error [BadParameter]
    # from the runner
    *(Case(f"test_cli.py::test_experiment_parameters_typed[{kind}-experiment{i}-datum{i}]",
           experiment(kind),
           {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50},
                         "solver": {"dt": 0.01, "T": 0.1}, "datum": datum,
                         "experiment": {"kind": kind, **parameters}}},
           f"config error: $.experiment.{err}")
      for i, (kind, parameters, datum, err) in enumerate((
          ("dichotomy", {"window": [1]}, _ALGEBRAIC_25, "window: [1] is too short"),
          ("lowerbound", {"windows": []}, _GAUSSIAN, "windows: [] should be non-empty"),
          ("lowerbound", {"windows": [[1, "2"]]}, _GAUSSIAN,
           "windows[0][1]: '2' is not of type 'number'"),
          ("weighted", {"p": "2"}, _GAUSSIAN, "p: '2' is not of type 'number'"),
          ("weighted", {"p": 1}, _GAUSSIAN, "p: 1 is less than or equal to the minimum of 1"),
          ("weighted", {"gamma": 1}, _GAUSSIAN,
           "gamma: 1 is greater than or equal to the maximum of 1")))),
    # an algebraic datum used to end in a KeyError traceback for c0
    Case("test_cli.py::test_experiment_growth_needs_a_growth_datum[experiment0]",
         experiment("growth"),
         {"exp.json": {"model": OST, "grid": {"N": 1024, "L": 50},
                       "solver": {"dt": 0.01, "T": 0.1},
                       "datum": {"kind": "algebraic", "gamma": 0.3},
                       "experiment": {"kind": "growth"}}},
         "config error: $.datum.kind: 'growth' was expected"),
    # a kind that does not read a solver field refuses it; a kind that reads it runs
    *(Case(f"test_cli.py::test_experiment_solver_fields_per_kind[{name}-{kind}]",
           experiment(kind), {"exp.json": minimal(kind, solver={name: value})},
           **({"code": 0} if (kind, name) in _SOLVER_READS else
              {"err": f"config error: $.solver: Additional properties are not allowed "
                      f"('{name}' was unexpected)"}))
      for kind in sorted(set(MINIMAL) - {"kernel", "kernel_derivative"})
      for name, value in (("snapshots", [0.05]), ("linear_only", True), ("mode", "picard"))),
    # a kind that does not read an experiment parameter refuses it; a kind
    # that reads it runs (the dichotomy to a failed verdict, exit 2)
    *(Case(f"test_cli.py::test_experiment_parameters_per_kind[{name}-{kind}]",
           experiment(kind), {"exp.json": minimal(kind, **{name: value})},
           **({"code": 2 if kind == "dichotomy" else 0} if name in _READS.get(kind, ()) else
              {"err": f"config error: $.experiment: Additional properties are not allowed "
                      f"('{name}' was unexpected)"}))
      for kind in sorted(MINIMAL) for name, value in sorted(_PARAMETER_VALUES.items())),
    # weighted used to give its own line, that T is not a whole number of
    # steps, and a linear-only lowerbound, which steps nothing, ran on any grid
    *(Case(f"test_cli.py::test_experiment_dt_past_T_is_one_line_in_every_stepping_kind"
           f"[{kind}{suffix}{which}]", experiment(kind),
           {"exp.json": {**small_run(kind), "solver": {**grid, **solver}}},
           f"error [BadParameter]: {line}")
      for kind, suffix, solver in (*((kind, "", {}) for kind in SMALL_RUNS),
                                   ("lowerbound", "-linear_only", {"linear_only": True}))
      for which, grid, line in (("", {"dt": 0.2, "T": 0.1}, "require 0 < dt <= T"),
                                ("-whole-steps", {"dt": 0.03, "T": 0.1},
                                 "T=0.1 is not a positive whole number of steps of dt=0.03"))),
    Case("test_cli.py::test_experiment_dt_past_T_is_one_line_in_every_stepping_kind"
         "[lowerbound-linear_only-dt-5]", experiment("lowerbound"),
         {"exp.json": {"model": OST, "datum": ALGEBRAIC, "grid": {"N": 1024, "L": 100},
                       "solver": {"dt": 5.0, "T": 1.0, "linear_only": True},
                       "experiment": {"kind": "lowerbound"}}},
         "error [BadParameter]: require 0 < dt <= T"),
    # t / dt = ±1e308 / 1e-3 is ±inf, and round() of it used to escape as an
    # OverflowError traceback
    *(Case(f"test_cli.py::test_a_snapshot_time_whose_t_over_dt_overflows_is_one_line"
           f"[{t:g}-{command}]",
           experiment("growth") if command == "experiment-growth" else
           simulate(*mode, "--snapshots", f"0.005,{t}", T="0.01", dt="0.001",
                    grid="N=256,L=50", quiet=bool(mode)),
           {**_MODEL_DATUM, "exp.json": {**small_run("growth"), "solver": {
               "dt": 0.001, "T": 0.01, "snapshots": [0.005, t]}}},
           f"error [BadParameter]: snapshot time {t} outside [0, T]")
      for t in (1e308, -1e308)
      for command, mode in (("simulate-etd", ("--mode", "etd")),
                            ("simulate-picard", ("--mode", "picard")),
                            ("experiment-growth", ()), ("simulate", ()))),
    # it used to run at dt = 1e-3 and T = 1 unasked
    Case("test_cli.py::test_experiment_without_a_solver_block_is_a_config_error",
         experiment("energy"),
         {"exp.json": {key: block for key, block in small_run("energy").items()
                       if key != "solver"}},
         "config error: $: 'solver' is a required property"),
    # the excluded pair is reported first, whatever the datum
    *(Case(f"test_cli.py::test_experiment_dichotomy_needs_an_algebraic_datum"
           f"[{preset}-datum{i}-{error}]", experiment("dichotomy"),
           {"exp.json": {**small_run("dichotomy"), "model": {"preset": preset}, "datum": datum}},
           f"error [{error}]: {err}")
      for i, (preset, datum, error, err) in enumerate((
          ("ost", _GAUSSIAN, "BadParameter", f"{_NOT_ALGEBRAIC} gaussian datum"),
          ("ost", {"kind": "zero_mean_algebraic", "gamma": 3.0}, "BadParameter",
           f"{_NOT_ALGEBRAIC} zero_mean_algebraic datum"),
          ("chen_lee", _GAUSSIAN, "ExcludedParameters", _EXCLUDED)))),
    *(Case(f"test_cli.py::test_dgbo_symbol_without_a_is_a_config_error[{command}]", argv,
           {"model.json": _DGBO_NO_A, "datum.json": GAUSS,
            "exp.json": {**_ENERGY, "model": _DGBO_NO_A}},
           "config error: $.model.symbol: 'a' is a required property")
      for command, argv in (("kernel", kernel(grid="N=256,L=20", out="out")),
                            ("simulate", simulate(out="out")),
                            ("experiment", experiment("energy", out="out")))),
    # x alone would take 8 x 2^40 bytes; the guard raises before allocating
    Case("test_cli.py::test_grid_memory_guard", kernel(grid="N=1099511627776,L=8"), _MODEL,
         f"error [BadParameter]: a grid of N=1099511627776 points needs 8796093022208 bytes, "
         f"which exceeds the {_PHYSICAL_MEMORY} bytes of physical memory"),
    # --t inf used to end in RuntimeWarnings and a window error, and --t nan
    # in UnderResolved ("decay scale nan")
    *(Case(f"test_cli.py::test_kernel_rejects_a_non_finite_t[{t}-BadParameter]",
           kernel(t), _MODEL,
           f"error [BadParameter]: kernel construction requires a finite t, got {t}")
      for t in ("inf", "nan")),
    # --t is the kernel config's experiment.t, which must be positive
    *(Case(f"test_cli.py::test_kernel_t_not_positive_is_a_config_error[{t}]",
           kernel(t), _MODEL,
           f"config error: $.experiment.t: {float(t)!r} is less than or equal to the "
           f"minimum of 0") for t in ("-inf", "0", "-1")),
    *(Case(f"test_cli.py::test_simulate_rejects_non_finite_dt_and_T[{flag}-{value}]",
           simulate(**{flag[2:]: value}), _MODEL_DATUM,
           f"error [BadParameter]: dt and T must be finite, got {got}")
      for flag, value, got in (("--dt", "nan", "nan, 0.05"), ("--T", "inf", "0.01, inf"),
                               ("--T", "nan", "0.01, nan"))),
    # each used to validate and run with the key dropped: ost with k = 1,
    # the dgbo symbol with a = 0.5
    *(Case(f"test_cli.py::test_model_key_the_model_does_not_read_is_a_config_error[model{i}]",
           kernel(grid="N=256,L=20"), {"model.json": model},
           f"config error: {path}: Additional properties are not allowed ('{key}' was unexpected)")
      for i, (model, path, key) in enumerate((
          ({"preset": "ost", "k": 3}, "$.model", "k"),              # only gost reads k
          ({"preset": "bo_perturbed", "a": 0.3}, "$.model", "a"),   # only dgbo_perturbed reads a
          # a top-level a beside a symbol: the symbol's own a is the one read
          ({"symbol": {"kind": "dgbo", "a": 0.5}, "a": 0.3, "m": 3, "n": 2, "k": 1, "eta": 1.0},
           "$.model", "a"),
          # only a dgbo symbol reads a
          ({"symbol": {"kind": "kdv", "a": 0.5}, "m": 3, "n": 1, "k": 1, "eta": 1.0},
           "$.model.symbol", "a")))),
    *(Case(f"test_cli.py::test_experiment_key_its_block_does_not_read_is_a_config_error"
           f"[{block}]", experiment("energy", out=f"run-{block}", config=f"{block}.json"),
           {f"{block}.json": {**_OST_SMALL, "experiment": {"kind": "energy"}, block: value}},
           f"config error: $.{block}: Additional properties are not allowed "
           f"('{unread}' was unexpected)")
      for block, value, unread in (("datum", {"kind": "gaussian", "c": 0.5}, "c"),
                                   ("model", {"preset": "ost", "k": 3}, "k"))),
    *(Case(f"test_cli.py::test_datum_key_its_kind_does_not_read_is_a_config_error"
           f"[datum{i}-{unread}]", simulate(), {**_MODEL, "datum.json": datum},
           f"config error: $.datum: Additional properties are not allowed "
           f"('{unread}' was unexpected)")
      for i, (datum, unread) in enumerate((
          ({"kind": "algebraic", "gamma": 3.0, "sigma0": 2.0}, "sigma0"),
          ({"kind": "zero_mean_algebraic", "gamma": 3.0, "amp": 2.0}, "amp"),
          ({"kind": "gaussian", "sigma0": 1.0, "c": 0.5}, "c"),
          ({"kind": "growth", "gamma": 0.3, "c": 0.5}, "c")))),
    # each used to print RuntimeWarnings and exit with error [NonFinite]
    *(Case(f"test_cli.py::test_datum_with_non_finite_samples_is_a_config_error[datum{i}]",
           simulate(T="0.01", dt="0.0025"), {**_MODEL, "datum.json": datum},
           f"config error: the datum {datum} {_NON_FINITE_DATUM}")
      for i, datum in enumerate((
          {"kind": "gaussian", "sigma0": 1e-200},                      # sigma0 ** 2 underflows
          {"kind": "zero_mean_algebraic", "gamma": 0.5, "c": 1e308}))),   # c x overflows
    # max Re L T = 0.385 x 3000 > log(float64 max): exp(L T) used to overflow,
    # and a grid whose Nyquist 20.1 < 8 x the decay scale 4.64 at T = 0.01
    # went ahead, although the kernel build refuses it
    *(Case(f"test_cli.py::test_experiment_lowerbound_linear_only_uses_the_kernel_checks"
           f"[grid{i}-{T}-{error}-{names}]", experiment("lowerbound"),
           {"exp.json": {"model": OST, "grid": grid,
                         "solver": {"dt": T, "T": T, "linear_only": True},
                         "datum": ALGEBRAIC, "experiment": {"kind": "lowerbound"}}},
           f"error [{error}]: {err}")
      for i, (grid, T, error, names, err) in enumerate((
          ({"N": 4096, "L": 100.0}, 3000.0, "BadParameter", "overflows the kernel",
           f"t = 3000.0 {_OVERFLOW}1153.97{_ABOVE}"),
          ({"N": 256, "L": 20.0}, 0.01, "UnderResolved", "Nyquist",
           "Nyquist 20.1 < 8.0 x decay scale 4.64 for t=0.01; refine the grid or increase t")))),
    # 1e300 steps of dt = 1: the sample steps, cast to int64, used to raise a
    # RuntimeWarning before the run, which blows up at t = 13
    Case("test_cli.py::test_a_step_count_past_int64_is_one_line", experiment("weighted"),
         {"exp.json": {**_OST_SMALL, "grid": {"N": 256, "L": 50},
                       "solver": {"dt": 1, "T": 1e300}, "experiment": {"kind": "weighted"}}},
         "error [NonFinite]: non-finite state at t = 13"),
    # a repeated criterion used to run twice and count twice in n_total
    *(Case(f"test_acceptance_cli.py::test_acceptance_refuses_a_repeated_criterion_id"
           f"[selection{i}]", ("--out", "summary.json", "acceptance", *selection), files,
           f"config error: {source}: criterion id listed more than once: K-MOD-EVEN")
      for i, (selection, files, source) in enumerate((
          (["--only", "K-MOD-EVEN", "CL-GUARD", "K-MOD-EVEN"], {}, "--only"),
          (["--suite", "suite.json"], {"suite.json": ["K-MOD-EVEN", "CL-GUARD", "K-MOD-EVEN"]},
           "suite.json")))),
    # an unknown key used to be dropped and a repeated one to win silently
    *(Case(f"test_acceptance_cli.py::test_grid_refuses_an_unknown_or_repeated_key"
           f"[{command}-{grid}]",
           {"kernel": kernel, "simulate": simulate}[command](grid=grid, out="out"),
           {"model.json": OST, "datum.json": _GAUSSIAN},
           f"config error: --grid {grid!r}: expected N=<int>,L=<float> (ValueError: keys "
           f"{keys}, not N and L once each)")
      for command in ("kernel", "simulate")
      for grid, keys in (("N=1024,L=50,X=3", ["N", "L", "X"]),
                         ("N=1024,L=50,N=2048", ["N", "L", "N"]),
                         ("N=1024,N=1024,L=50", ["N", "N", "L"]),
                         ("L=50,N=1024,L=60", ["L", "N", "L"]))),
]


def tier1_tests(test_file: str) -> dict:
    """The Tier-1 tests of the rows named in test_file, as test name -> test
    function: each runs its rows in-process through stratwave.cli.main."""
    groups = {}
    for case in CASES:
        file, test = case.name.split("::")
        if file == test_file:
            groups.setdefault(test.split("[")[0], []).append(case)
    return {name: _tier1_test(cases) for name, cases in groups.items()}


def _tier1_test(cases: list):
    """A test of cases, parametrized by their ids unless it is one case with none."""
    import pytest

    if not cases[0].name.endswith("]"):
        def test(monkeypatch, capsys):
            _run_in_process(cases[0], monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("case", cases, ids=[case.name.split("[", 1)[1][:-1]
                                                 for case in cases])
    def test(case, monkeypatch, capsys):
        _run_in_process(case, monkeypatch, capsys)
    return test


def _run_in_process(case: Case, monkeypatch, capsys) -> None:
    """Run case through stratwave.cli.main in a fresh directory, every warning an error."""
    import warnings
    from stratwave.cli import main

    with tempfile.TemporaryDirectory() as tmp, monkeypatch.context() as patch:
        where = Path(tmp)
        case.write(where)
        patch.chdir(where)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(list(case.argv))
        captured = capsys.readouterr()
        case.check(where, code, captured.out, captured.err)


def run_installed() -> int:
    """Run every row through the `stratwave` on PATH; 1 when any breaks the rule."""
    exe = shutil.which("stratwave")
    if exe is None:
        print("no stratwave on PATH", file=sys.stderr)
        return 1
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            where = Path(tmp)
            case.write(where)
            done = subprocess.run([exe, *case.argv], cwd=where, capture_output=True, text=True,
                                  env={**os.environ, "PYTHONWARNINGS": "error"}, timeout=600)
            try:
                case.check(where, done.returncode, done.stdout, done.stderr)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {case.name}: {exc}")
    print(f"{len(CASES) - failed}/{len(CASES)} cases keep the CLI rule ({exe})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_installed())
