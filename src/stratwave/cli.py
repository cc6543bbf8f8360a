"""Command-line front end.

Exit-code contract: 0 = pass, 2 = a science assertion failed (reports exist
and say why), 1 = error (bad config, I/O, module errors).  Field data goes to
CSV, reports and manifests to JSON, so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import CRITERIA, run_acceptance
from .analysis import (dichotomy_experiment, growth_envelope, lower_bound_check,
                       mean, tail_exponent, weighted_persistence_experiment)
from .errors import ConfigInvalid, StratwaveError
from .kernel import asymptotic_coefficient, kernel_field, kernel_hat
from .model import PRESET_NAMES, model_from_config, preset
from .runio import (DATUM_SCHEMA, EXPERIMENT_SCHEMA, MODEL_SCHEMA, RunDirectory,
                    default_output_root, load_json, validate_config, write_json)
from .solver import SolverConfig, datum_from_config, solve
from .spectral import (Grid, SpectralField, field_from_csv, field_to_csv,
                       to_physical, to_spectral, wrap_contamination)

EXIT_PASS, EXIT_ERROR, EXIT_ASSERT = 0, 1, 2


def _checked_model(cfg: dict):
    """model_from_config with semantic failures mapped to ConfigInvalid."""
    from .errors import BadParameter, InvalidN, InvalidRange
    try:
        return model_from_config(cfg)
    except (InvalidN, InvalidRange, BadParameter) as exc:
        raise ConfigInvalid(str(exc), path="$") from exc


def _parse_grid(text: str) -> Grid:
    """Parse 'N=65536,L=400' into a Grid."""
    parts = dict(kv.split("=") for kv in text.split(","))
    return Grid(int(parts["N"]), float(parts["L"]))


def _config_tag(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:8]


def _resolve_out(args, cfg: dict, kind: str) -> Path:
    if args.out:
        return Path(args.out)
    return default_output_root() / f"{kind}-{_config_tag(cfg)}"


def cmd_presets(args) -> int:
    for name in PRESET_NAMES:
        sym, params = preset(name)
        print(f"{name:15s} symbol={sym.kind:5s} m={params.m} n={params.n} "
              f"k={params.k} alpha={params.alpha:.4f}")
    return EXIT_PASS


def cmd_kernel(args) -> int:
    cfg = load_json(args.config)
    validate_config(cfg, MODEL_SCHEMA)
    sym, params = _checked_model(cfg)
    grid = _parse_grid(args.grid)
    kf = kernel_field(args.t, grid, sym, params)

    win = (args.window if args.window
           else (max(10.0 * (params.eta * args.t) ** (1.0 / params.m), 5.0),
                 0.45 * grid.L))
    left, right = tail_exponent(kf.field, win)
    t_alpha = args.t ** params.alpha
    x = grid.x
    msk = (np.abs(x) >= win[0]) & (np.abs(x) <= win[1])
    fitted_c = float(np.max(np.abs(kf.field.samples[msk])
                            * (1 + np.abs(x[msk]) ** (params.n + 1))) * t_alpha)
    report = {
        "mass": kf.mass,
        "tail_slope_left": -left.exponent,
        "tail_slope_right": -right.exponent,
        "fitted_C": fitted_c,
        "A_predicted": asymptotic_coefficient(args.t, params),
        "window": list(win),
        "wrap_contamination": wrap_contamination(grid, win[1], params.n + 1),
    }
    out = Path(args.out) if args.out else Path("kernel.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    field_to_csv(kf.field, out)
    write_json(out.with_suffix(".json"), report)
    if not args.quiet:
        print(f"kernel written to {out}; mass={kf.mass:.12f}")
    return EXIT_PASS


def cmd_simulate(args) -> int:
    model_cfg = load_json(args.config)
    validate_config(model_cfg, MODEL_SCHEMA)
    datum_cfg = load_json(args.datum)
    validate_config(datum_cfg, DATUM_SCHEMA)
    sym, params = _checked_model(model_cfg)
    grid = _parse_grid(args.grid)
    u0 = datum_from_config(datum_cfg, grid)
    snaps = tuple(float(s) for s in args.snapshots.split(",")) if args.snapshots \
        else (args.T,)
    full_cfg = {"model": model_cfg, "datum": datum_cfg,
                "grid": {"N": grid.N, "L": grid.L},
                "solver": {"dt": args.dt, "T": args.T, "mode": args.mode,
                           "snapshots": list(snaps),
                           "linear_only": args.linear_only},
                "seed": args.seed}
    out = _resolve_out(args, full_cfg, "simulate")

    dt = args.dt
    rundir = RunDirectory(out)
    try:
        if args.mode == "picard":
            from .solver import picard_solve
            uT, rep = picard_solve(sym, params, u0,
                                   SolverConfig(dt=dt, T=args.T, mode="picard",
                                                linear_only=args.linear_only))
            field_to_csv(uT, rundir.register(f"snapshot_t{args.T:g}.csv"))
            diag = {"picard": rep, "dt_used": dt}
            final = rundir.commit(full_cfg, diag)
        else:
            attempts = 0
            while True:
                try:
                    traj = solve(sym, params, u0,
                                 SolverConfig(dt=dt, T=args.T, snapshot_times=snaps,
                                              linear_only=args.linear_only))
                    break
                except StratwaveError as exc:
                    # NonFinite recovery: halve dt a bounded number of times
                    from .errors import NonFinite
                    if isinstance(exc, NonFinite) and attempts < 2:
                        attempts += 1
                        dt *= 0.5
                        if not args.quiet:
                            print(f"instability at t={exc.t}; retrying with dt={dt}")
                        continue
                    raise
            for t, snap in zip(traj.times, traj.snapshots):
                field_to_csv(snap, rundir.register(f"snapshot_t{t:g}.csv"))
            with open(rundir.register("energy.csv"), "w") as fh:
                fh.write("t,l2,dissipation\n")
                for t, e, d in zip(traj.energy_times, traj.energy_series,
                                   traj.dissipation_series):
                    fh.write(f"{t:.17g},{e:.17g},{d:.17g}\n")
            diag = {"wrap_contamination_estimate":
                    wrap_contamination(grid, 0.45 * grid.L, params.n + 1),
                    "dt_used": dt, "n_steps": traj.diagnostics["n_steps"]}
            final = rundir.commit(full_cfg, diag)
    except BaseException:
        rundir.abort()
        raise
    if not args.quiet:
        print(f"run complete: {final}")
    return EXIT_PASS


def cmd_decay_fit(args) -> int:
    f = field_from_csv(args.infile)
    a, b = (float(v) for v in args.window.split(","))
    left, right = tail_exponent(f, (a, b))
    report = {
        side.side: {"slope": side.slope, "exponent": side.exponent,
                    "stderr": side.stderr, "r_squared": side.r_squared,
                    "valid": side.valid, "n_points": side.n_points,
                    "window": list(side.window)}
        for side in (left, right)
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_PASS


def cmd_experiment(args) -> int:
    cfg = load_json(args.config)
    validate_config(cfg, EXPERIMENT_SCHEMA)
    exp = cfg["experiment"]
    if exp["kind"] != args.kind:
        raise ConfigInvalid(
            f"config experiment.kind={exp['kind']!r} but subcommand is {args.kind!r}",
            path="$.experiment.kind")
    sym, params = _checked_model(cfg["model"])
    grid = Grid(cfg["grid"]["N"], cfg["grid"]["L"])
    solver_cfg = cfg.get("solver", {})
    dt = solver_cfg.get("dt", 1e-3)
    T = solver_cfg.get("T", 1.0)
    out = _resolve_out(args, cfg, f"experiment-{args.kind}")
    rundir = RunDirectory(out)
    try:
        if args.kind == "dichotomy":
            report = dichotomy_experiment(
                sym, params, gamma_datum=exp["gamma_datum"], T=T, grid=grid,
                dt=dt, window=tuple(exp["window"]) if "window" in exp else None,
                amplitude=exp.get("amplitude", 0.5),
                exponent_tol=exp.get("exponent_tol", 0.15),
                improvement_fraction=exp.get("improvement_fraction", 0.7))
        elif args.kind == "weighted":
            u0 = datum_from_config(cfg["datum"], grid)
            report = weighted_persistence_experiment(
                sym, params, u0, p=exp.get("p", 2.0), gamma=exp.get("gamma", 0.5),
                T=T, dt=dt)
        elif args.kind == "growth":
            u0 = datum_from_config(cfg["datum"], grid)
            gamma = cfg["datum"]["gamma"]
            c0 = cfg["datum"].get("c0", 0.01)
            snaps = tuple(solver_cfg.get("snapshots", [T]))
            traj = solve(sym, params, u0,
                         SolverConfig(dt=dt, T=T, snapshot_times=snaps))
            envs = [growth_envelope(s, gamma) for s in traj.snapshots]
            report = {"times": list(traj.times), "envelopes": envs,
                      "bound": exp.get("bound", 2.0 * c0),
                      "passed": max(envs) <= exp.get("bound", 2.0 * c0)}
        elif args.kind == "lowerbound":
            u0 = datum_from_config(cfg["datum"], grid)
            m0 = mean(u0)
            if solver_cfg.get("linear_only", False):
                khat = kernel_hat(T, grid.xi, sym, params)
                u = to_physical(SpectralField(
                    grid, khat * to_spectral(u0).coefficients))
            else:
                traj = solve(sym, params, u0,
                             SolverConfig(dt=dt, T=T, snapshot_times=(T,)))
                u = traj.snapshots[-1]
            report = lower_bound_check(
                u, T, params, m0,
                windows=[tuple(w) for w in exp["windows"]] if "windows" in exp
                else None)
            report["passed"] = report["passes"]
        elif args.kind == "energy":
            u0 = datum_from_config(cfg["datum"], grid)
            traj = solve(sym, params, u0, SolverConfig(dt=dt, T=T))
            increases = float(np.max(np.diff(traj.energy_series)))
            bound = traj.energy_series[0] * np.exp(params.eta * traj.energy_times) * 1.01
            growth_ok = bool(np.all(traj.energy_series <= bound))
            dissipative = params.n % 2 == 0 or params.n % 4 == 3
            checks = {"growth_bound": growth_ok}
            if dissipative:
                checks["monotone"] = increases <= 1e-10
            report = {"max_step_increase": increases,
                      "energy_initial": float(traj.energy_series[0]),
                      "energy_final": float(traj.energy_series[-1]),
                      "checks": checks, "passed": all(checks.values())}
        else:  # pragma: no cover - argparse restricts choices
            raise ConfigInvalid(f"unknown experiment kind {args.kind!r}")
        write_json(rundir.register("report.json"), report)
        final = rundir.commit(cfg)
    except BaseException:
        rundir.abort()
        raise
    if not args.quiet:
        print(f"report: {final / 'report.json'}")
    return EXIT_PASS if report.get("passed", True) else EXIT_ASSERT


def cmd_acceptance(args) -> int:
    ids = None
    if args.suite:
        suite = load_json(args.suite)
        if not isinstance(suite, list):
            raise ConfigInvalid("suite file must be a JSON list of criterion ids")
        ids = suite
    if args.only:
        ids = args.only
    results, skipped = run_acceptance(ids, threads=args.threads, quiet=args.quiet)
    for cid in skipped:
        print(f"[SKIP] {cid}: unknown criterion id", file=sys.stderr)
    summary = {
        "results": [{"id": r.cid, "passed": r.passed, "expected": r.expected,
                     "measured": r.measured, "seconds": round(r.seconds, 2)}
                    for r in results],
        "skipped": skipped,
        "n_passed": sum(r.passed for r in results),
        "n_total": len(results),
    }
    out = Path(args.out) if args.out else Path("acceptance-summary.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, summary)
    if not args.quiet:
        print(f"{summary['n_passed']}/{summary['n_total']} criteria passed; "
              f"summary at {out}")
    return EXIT_PASS if summary["n_passed"] == summary["n_total"] else EXIT_ASSERT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stratwave",
                                 description="spectral dispersive-dissipative lab")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--out", default=None, help="output file or directory")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quiet", action="store_true")
    # global flags are also accepted after the subcommand; SUPPRESS keeps the
    # main-parser value when the subcommand does not repeat them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="list model presets", parents=[common])
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("kernel", help="sample the semigroup kernel",
                       parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", default="N=65536,L=400")
    p.add_argument("--window", type=float, nargs=2, default=None)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("simulate", help="time-integrate the model equation",
                       parents=[common])
    p.add_argument("--config", required=True)
    p.add_argument("--datum", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--mode", choices=("etd", "picard"), default="etd")
    p.add_argument("--grid", default="N=65536,L=400")
    p.add_argument("--snapshots", default=None)
    p.add_argument("--linear-only", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decay-fit", help="fit tail exponents of a CSV field",
                       parents=[common])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", required=True, help="a,b")
    p.set_defaults(func=cmd_decay_fit)

    p = sub.add_parser("experiment", help="run a named experiment",
                       parents=[common])
    p.add_argument("kind", choices=("dichotomy", "weighted", "growth",
                                    "lowerbound", "energy"))
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("acceptance", help="run the acceptance suite",
                       parents=[common])
    p.add_argument("--suite", default=None, help="JSON list of criterion ids")
    p.add_argument("--only", nargs="*", default=None)
    p.set_defaults(func=cmd_acceptance)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    np.random.seed(args.seed)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except StratwaveError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
