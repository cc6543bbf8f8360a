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

from . import __version__
from .analysis import EXPERIMENT_SCHEMAS, run_experiment, tail_exponent
from .errors import ConfigInvalid, StratwaveError
from .model import PRESET_NAMES, preset
from .runio import (RunDirectory, default_output_root, load_json, validate_config,
                    write_json)
# unused here: bench/test_bench.py traces stratwave.cli.solve as one of solve's
# bindings, and bench/ changes only with the benchmark
from .solver import solve  # noqa: F401
from .spectral import field_from_csv, output_to_csv

EXIT_PASS, EXIT_ERROR, EXIT_ASSERT = 0, 1, 2


def _parse_grid(text: str) -> dict:
    """Parse 'N=65536,L=400' into a grid block {"N": 65536, "L": 400.0};
    anything malformed, a key other than N and L and a repeated key are
    ConfigInvalid."""
    pairs = [kv.split("=", 1) for kv in text.split(",")]
    keys = [pair[0] for pair in pairs]
    try:
        if sorted(keys) != ["L", "N"]:
            raise ValueError(f"keys {keys}, not N and L once each")
        parts = dict(pairs)
        return {"N": int(parts["N"]), "L": float(parts["L"])}
    except ValueError as exc:
        raise ConfigInvalid(f"--grid {text!r}: expected N=<int>,L=<float> "
                            f"({type(exc).__name__}: {exc})", path="--grid") from exc


def _parse_snapshots(text: str) -> list:
    """Parse '0.1,0.2' into snapshot times; a non-number is ConfigInvalid."""
    try:
        return [float(s) for s in text.split(",")]
    except ValueError as exc:
        raise ConfigInvalid(f"--snapshots {text!r}: expected comma-separated "
                            f"times ({exc})", path="--snapshots") from exc


def _window(text: str):
    """argparse type for 'a,b'; a malformed value is a usage error."""
    a, b = (float(v) for v in text.split(","))
    return a, b


def _config_tag(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:8]


def _resolve_out(args, cfg: dict, kind: str) -> Path:
    if args.out:
        return Path(args.out)
    return default_output_root() / f"{kind}-{_config_tag(cfg)}"


def _run(kind: str, cfg: dict, target: Path, commit, replace: bool = False) -> dict:
    """The one run path of kernel, simulate and experiment: validate cfg as
    a config of kind, run it (analysis.run_experiment), write its outputs as
    CSV into a RunDirectory for target, then commit(rundir, report).
    Returns the report; on a failure no output is left behind."""
    validate_config(cfg, EXPERIMENT_SCHEMAS[kind])
    rundir = RunDirectory(target, replace)
    try:
        report, outputs = run_experiment(cfg)
        for name, value in outputs.items():
            output_to_csv(value, rundir.register(name))
        commit(rundir, report)
    except BaseException:
        rundir.abort()
        raise
    return report


def cmd_presets(args) -> int:
    for name in PRESET_NAMES:
        sym, params = preset(name)
        print(f"{name:15s} symbol={sym.kind:5s} m={params.m} n={params.n} "
              f"k={params.k} alpha={params.alpha:.4f}")
    return EXIT_PASS


def cmd_kernel(args) -> int:
    """A kernel config; the kernel CSV goes to --out, the report beside it."""
    out = Path(args.out) if args.out else Path("kernel.csv")
    report_out = out.with_suffix(".json")
    if report_out == out:
        raise ConfigInvalid(f"--out {str(out)!r}: the kernel CSV would be "
                            f"overwritten by its .json report", path="--out")
    cfg = {"model": load_json(args.config), "grid": _parse_grid(args.grid),
           "experiment": {"kind": "kernel", "t": args.t,
                          **({"window": args.window} if args.window else {})}}

    def commit(rundir, report):
        write_json(rundir.register("kernel.json"), report)
        rundir.place({"kernel.csv": out, "kernel.json": report_out})

    report = _run("kernel", cfg, out, commit, replace=True)
    if not args.quiet:
        print(f"kernel written to {out}; mass={report['mass']:.12f}")
    return EXIT_PASS


def cmd_simulate(args) -> int:
    """A trajectory config, recorded in run.json with the report as its
    diagnostics."""
    cfg = {"model": load_json(args.config), "datum": load_json(args.datum),
           "grid": _parse_grid(args.grid),
           "solver": {"dt": args.dt, "T": args.T, "mode": args.mode,
                      "snapshots": (_parse_snapshots(args.snapshots) if args.snapshots
                                    else [args.T]),
                      "linear_only": args.linear_only},
           "experiment": {"kind": "trajectory"}}
    out = _resolve_out(args, cfg, "simulate")
    _run("trajectory", cfg, out, lambda rundir, report: rundir.commit(cfg, report))
    if not args.quiet:
        print(f"run complete: {out}")
    return EXIT_PASS


def cmd_decay_fit(args) -> int:
    text = json.dumps(tail_exponent(field_from_csv(args.infile), args.window),
                      indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_PASS


def cmd_experiment(args) -> int:
    cfg = load_json(args.config)
    out = _resolve_out(args, cfg, f"experiment-{args.kind}")

    def commit(rundir, report):
        write_json(rundir.register("report.json"), report)
        rundir.commit(cfg)

    report = _run(args.kind, cfg, out, commit)
    if not args.quiet:
        print(f"report: {out / 'report.json'}")
    return EXIT_PASS if report.get("passed", True) else EXIT_ASSERT


def cmd_acceptance(args) -> int:
    # imported here, so that the other commands do not load the criteria
    from .acceptance import CRITERIA, run_criterion

    ids, source = list(CRITERIA), None
    if args.suite:
        suite = load_json(args.suite)
        if not isinstance(suite, list) or not all(isinstance(c, str) for c in suite):
            raise ConfigInvalid("suite file must be a JSON list of criterion ids")
        ids, source = suite, args.suite
    elif args.only is not None:
        ids, source = args.only, "--only"
    if not any(cid in CRITERIA for cid in ids):
        # zero criteria would run, and 0/0 would read as a pass
        raise ConfigInvalid(f"{source}: no known criterion id in {ids}",
                            path=source)
    repeated = sorted({cid for cid in ids if ids.count(cid) > 1})
    if repeated:
        # a repeated criterion would run, and count in n_total, twice
        raise ConfigInvalid(f"{source}: criterion id listed more than once: "
                            f"{', '.join(repeated)}", path=source)
    skipped = [cid for cid in ids if cid not in CRITERIA]
    results = []
    for result in map(run_criterion, [cid for cid in ids if cid in CRITERIA]):
        if not args.quiet:
            print(result.line(), flush=True)
        results.append(result)
    for cid in skipped:
        print(f"[SKIP] {cid}: unknown criterion id", file=sys.stderr)
    summary = {
        "results": [{"id": r.cid, "passed": r.passed, "expected": r.expected,
                     "measured": r.measured, "seconds": round(r.seconds, 2),
                     "configs": r.configs, **({"error": r.error} if r.error else {})}
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (bad input); 2 stays 'a science assertion failed'."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="stratwave", description="spectral dispersive-dissipative lab")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--out", default=None, help="output file or directory")
    ap.add_argument("--quiet", action="store_true")
    # global flags are also accepted after the subcommand; SUPPRESS keeps the
    # main-parser value when the subcommand does not repeat them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
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
    p.add_argument("--window", type=_window, required=True, help="a,b")
    p.set_defaults(func=cmd_decay_fit)

    p = sub.add_parser("experiment", help="run a named experiment",
                       parents=[common])
    p.add_argument("kind", choices=tuple(EXPERIMENT_SCHEMAS))
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("acceptance", help="run the acceptance suite",
                       parents=[common])
    which = p.add_mutually_exclusive_group()
    which.add_argument("--suite", default=None, help="JSON list of criterion ids")
    which.add_argument("--only", nargs="*", default=None)
    # criteria run one at a time; kept only for bench/workloads.py's `--threads 1`
    p.add_argument("--threads", type=int, choices=(1,), default=1)
    p.set_defaults(func=cmd_acceptance)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
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
