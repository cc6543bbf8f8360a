"""The four benchmark workloads: inputs from a seed, one run, its checks.

Each workload drives the package only through ``stratwave.cli.main`` (looked
up at call time, so a tracer's wrapper is seen).  ``prepare`` writes the
generated inputs; ``run`` is the timed part and returns the exit codes;
``check`` returns a list of problems (empty when the run is correct);
``digest`` hashes the outputs that the README promises are byte-identical
for identical config and seed.

The seed moves only input values, inside ranges narrow enough that the work
count does not depend on it: the same N, the same number of steps and three
Picard iterations for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

#: criteria run by acceptance_small, in registry order (the seed shuffles it)
ACCEPTANCE_IDS = ("K-MOD-EVEN", "K-MASS", "K-SEMI", "S-CONV", "S-XCHECK",
                  "E-MONO", "E-GROW", "T4-WEIGHTED", "CL-GUARD")
MODEL = {"preset": "ost"}


def _cli_main(argv) -> int:
    import stratwave.cli
    return stratwave.cli.main(argv)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_field(path: Path) -> np.ndarray:
    """Columns x, re, im of a field CSV as an (N, 3) array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def manifest_problems(rundir: Path) -> list[str]:
    """Problems with a run directory's run.json: missing, or a hash mismatch."""
    manifest = rundir / "run.json"
    if not manifest.is_file():
        return [f"{manifest} missing"]
    outputs = json.loads(manifest.read_text()).get("outputs", {})
    if not outputs:
        return ["run.json lists no outputs"]
    return [f"{name}: sha256 does not match run.json"
            for name, digest in sorted(outputs.items())
            if not (rundir / name).is_file() or _sha256(rundir / name) != digest]


def _manifest_digest(rundir: Path) -> str:
    outputs = json.loads((rundir / "run.json").read_text())["outputs"]
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


class Workload:
    name = ""

    def prepare(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def run(self, out: Path) -> list[int]:
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        raise NotImplementedError

    def digest(self, out: Path) -> str:
        return _manifest_digest(out)


class EvolveLarge(Workload):
    """`simulate`, ETD2, OST, algebraic datum, N=2^16, L=400, 250 steps."""

    name = "evolve_large"
    N, L, DT, T, SNAPS = 2 ** 16, 400.0, 1e-3, 0.25, (0.125, 0.25)

    def prepare(self, workdir, seed):
        rng = random.Random(seed)
        self.datum = {"kind": "algebraic", "gamma": rng.uniform(2.9, 3.1),
                      "c": rng.uniform(0.45, 0.55)}
        self.model_path, self.datum_path = workdir / "model.json", workdir / "datum.json"
        _write_json(self.model_path, MODEL)
        _write_json(self.datum_path, self.datum)
        dx = 2 * self.L / self.N
        x = -self.L + dx * np.arange(self.N)
        self.mass = float(np.sum(self.datum["c"] * (1 + x ** 2) ** (-self.datum["gamma"] / 2)) * dx)

    def run(self, out):
        return [_cli_main(["--quiet", "--out", str(out), "simulate",
                           "--config", str(self.model_path), "--datum", str(self.datum_path),
                           "--grid", f"N={self.N},L={self.L:g}", "--dt", f"{self.DT:g}",
                           "--T", f"{self.T:g}", "--snapshots", ",".join(f"{t:g}" for t in self.SNAPS),
                           "--mode", "etd"])]

    def check(self, out):
        problems = manifest_problems(out)
        if problems:
            return problems
        diag = json.loads((out / "run.json").read_text())["diagnostics"]
        n_steps = round(self.T / self.DT)
        if diag.get("n_steps") != n_steps or diag.get("dt_used") != self.DT:
            problems.append(f"ran {diag.get('n_steps')} steps of dt={diag.get('dt_used')}")
        for t in self.SNAPS:
            data = _read_field(out / f"snapshot_t{t:g}.csv")
            mass = float(np.sum(data[:, 1]) * (2 * self.L / self.N))
            # OST conserves mass: L(0) = 0 and the nonlinearity is a derivative
            if data.shape[0] != self.N or abs(mass - self.mass) > 1e-9 * abs(self.mass):
                problems.append(f"snapshot t={t:g}: mass {mass!r} vs datum {self.mass!r}")
        energy = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1, ndmin=2)
        if energy.shape[0] != n_steps + 1 or not np.all(np.isfinite(energy)):
            problems.append("energy series not finite or wrong length")
        return problems


class KernelIO(Workload):
    """`kernel` at N=2^19, L=3200 (the K-TAIL/K-CONST box), then `decay-fit`."""

    name = "kernel_io"
    N, L, WINDOW = 2 ** 19, 3200.0, (20.0, 200.0)

    def prepare(self, workdir, seed):
        self.t = random.Random(seed).uniform(0.9, 1.1)
        self.model_path = workdir / "model.json"
        _write_json(self.model_path, MODEL)

    def run(self, out):
        a, b = self.WINDOW
        return [_cli_main(["--quiet", "--out", str(out / "kernel.csv"), "kernel",
                           "--config", str(self.model_path), "--t", repr(self.t),
                           "--grid", f"N={self.N},L={self.L:g}",
                           "--window", f"{a:g}", f"{b:g}"]),
                _cli_main(["--out", str(out / "fit.json"), "decay-fit",
                           "--in", str(out / "kernel.csv"), "--window", f"{a:g},{b:g}"])]

    def check(self, out):
        report = json.loads((out / "kernel.json").read_text())
        fit = json.loads((out / "fit.json").read_text())
        problems = []
        if not abs(report["mass"] - 1.0) <= 1e-8:
            problems.append(f"kernel mass {report['mass']!r}")
        for side in ("left", "right"):
            exponent = -report[f"tail_slope_{side}"]
            if not abs(exponent - 2.0) <= 0.1:  # the K-TAIL-1 tolerance
                problems.append(f"{side} tail exponent {exponent!r} not 2 +- 0.1")
            read_back = fit[side]["exponent"]
            if not abs(read_back - exponent) <= 1e-12 * abs(exponent):
                problems.append(f"decay-fit {side} exponent {read_back!r} != kernel {exponent!r}")
        return problems

    def digest(self, out):
        h = hashlib.sha256()
        for name in ("kernel.csv", "kernel.json", "fit.json"):
            h.update((out / name).read_bytes())
        return h.hexdigest()


class DuhamelSmall(Workload):
    """`simulate --mode picard`, OST, Gaussian datum, N=2^12, L=64, 300 steps."""

    name = "duhamel_small"
    N, L, DT, T = 2 ** 12, 64.0, 1e-3, 0.3

    def prepare(self, workdir, seed):
        from stratwave.model import preset
        from stratwave.solver import SolverConfig, datum_from_config, solve
        from stratwave.spectral import Grid

        rng = random.Random(seed)
        datum = {"kind": "gaussian", "sigma0": rng.uniform(0.95, 1.05),
                 "amp": rng.uniform(0.009, 0.011)}
        self.model_path, self.datum_path = workdir / "model.json", workdir / "datum.json"
        _write_json(self.model_path, MODEL)
        _write_json(self.datum_path, datum)
        sym, params = preset(MODEL["preset"])
        u0 = datum_from_config(datum, Grid(self.N, self.L))
        traj = solve(sym, params, u0, SolverConfig(dt=self.DT, T=self.T, snapshot_times=(self.T,)))
        self.reference = traj.snapshots[-1].samples

    def run(self, out):
        return [_cli_main(["--quiet", "--out", str(out), "simulate", "--mode", "picard",
                           "--config", str(self.model_path), "--datum", str(self.datum_path),
                           "--grid", f"N={self.N},L={self.L:g}", "--dt", f"{self.DT:g}",
                           "--T", f"{self.T:g}"])]

    def check(self, out):
        problems = manifest_problems(out)
        if problems:
            return problems
        picard = json.loads((out / "run.json").read_text())["diagnostics"]["picard"]
        if not picard["converged"]:
            problems.append("picard did not converge")
        data = _read_field(out / f"snapshot_t{self.T:g}.csv")
        diff = data[:, 1] + 1j * data[:, 2] - self.reference
        l2 = math.sqrt(float(np.sum(np.abs(diff) ** 2)) * (2 * self.L / self.N))
        if not l2 <= 1e-6:  # the S-XCHECK tolerance
            problems.append(f"||u_picard - u_etd||_2 = {l2!r} > 1e-6")
        return problems


class AcceptanceSmall(Workload):
    """`acceptance` on nine criteria that are quick at HEAD, one thread."""

    name = "acceptance_small"

    def prepare(self, workdir, seed):
        order = list(ACCEPTANCE_IDS)
        random.Random(seed).shuffle(order)
        self.suite_path = workdir / "suite.json"
        _write_json(self.suite_path, order)

    def run(self, out):
        return [_cli_main(["--quiet", "--out", str(out / "summary.json"), "acceptance",
                           "--threads", "1", "--suite", str(self.suite_path)])]

    def check(self, out):
        summary = json.loads((out / "summary.json").read_text())
        ran = sorted(r["id"] for r in summary["results"])
        if ran != sorted(ACCEPTANCE_IDS) or summary["skipped"]:
            return [f"ran {ran}, skipped {summary['skipped']}"]
        if summary["n_passed"] != summary["n_total"]:
            failed = [r["id"] for r in summary["results"] if not r["passed"]]
            return [f"criteria failed: {failed}"]
        return []

    def digest(self, out):
        summary = json.loads((out / "summary.json").read_text())
        for r in summary["results"]:
            r.pop("seconds")  # wall time, the one field that is not reproducible
        return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (EvolveLarge, KernelIO, DuhamelSmall, AcceptanceSmall)}
