"""Child process of bench/run.py: set up one workload, then (optionally) time it.

    python3 bench/worker.py --workdir DIR --workload NAME --seed N --role setup
    python3 bench/worker.py --workdir DIR --workload NAME --seed N --role measure
        --seconds S --trace 0|1 --result FILE [--spans FILE]

The worker imports stratwave from the src/ next to bench/ (and refuses any
other copy), writes the workload's inputs into --workdir and prints
``ready``; the parent times set-up from spawning the process to that line.  ``--role setup`` stops
there.  ``--role measure`` then makes one untimed warm-up run, as many timed
runs as fit in --seconds (at least one), each bracketed by runs of the
speed reference (speed.py), and with --trace 1 one more run under the
tracer; every run's outputs are checked.  It writes a JSON result to
--result and, when tracing, the spans to --spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import reference_s, scaled

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Outcome:
    wall: float
    problems: list
    digest: str | None


def import_package() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stratwave
    if Path(stratwave.__file__).resolve().parent != src / "stratwave":
        raise SystemExit(f"stratwave imported from {stratwave.__file__}, not {src}")


def one_run(wl, out: Path, tracer=None) -> Outcome:
    """Time wl.run (under tracer, if given), then check and delete its outputs."""
    codes, problems, digest = None, [], None
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            codes = wl.run(out)
        except (Exception, SystemExit) as exc:  # argparse exits; both count as failed
            problems = [f"run raised {exc!r}"]
        wall = time.perf_counter() - start
    if codes is not None:
        problems = [f"exit code {c}" for c in codes if c != 0]
    if not problems:
        try:
            problems = wl.check(out)
        except Exception as exc:  # missing or malformed outputs
            problems = [f"check raised {exc!r}"]
    if not problems:
        digest = wl.digest(out)
    shutil.rmtree(out, ignore_errors=True)
    return Outcome(wall, problems, digest)


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(wl, workdir: Path, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    warmup = one_run(wl, workdir / "warmup")
    reference_s()  # untimed too: the first call may pay numpy's one-off FFT set-up
    timed, refs = [], [reference_s()]
    deadline = time.perf_counter() + seconds
    # start a run only if one more like the last, and its reference, still end by the deadline
    while not timed or time.perf_counter() + timed[-1].wall + refs[-1] <= deadline:
        timed.append(one_run(wl, workdir / f"run{len(timed)}"))
        refs.append(reference_s())
    walls = [o.wall for o in timed]
    result = {"warmup_s": warmup.wall, "warmup_problems": warmup.problems,
              "walls": walls, "refs": refs, "scaled_walls": scaled(walls, refs),
              "peak_rss_mb": peak_rss_mb()}
    runs = [warmup] + timed
    if trace:
        from tracer import Tracer, layer_metrics, span_records

        tracer = Tracer()
        cpu = time.process_time()
        traced = one_run(wl, workdir / "traced", tracer)
        cpu = time.process_time() - cpu
        traced_scaled = scaled([traced.wall], [refs[-1], reference_s()])[0]
        runs.append(traced)
        timed.append(traced)
        layers = layer_metrics(tracer.spans)
        layers["proc.cpu_s"] = cpu
        layers["proc.warmup_s"] = warmup.wall
        layers["trace.overhead_frac"] = traced_scaled / statistics.median(result["scaled_walls"]) - 1
        result["layers"] = layers
        result["traced_wall_s"] = traced.wall
        if spans_path is not None:
            spans_path.write_text(json.dumps(span_records(tracer.spans)))
    result["attempted"] = len(timed)
    result["failed"] = sum(bool(o.problems) for o in timed)
    result["problems"] = [p for o in timed for p in o.problems]
    digests = {o.digest for o in runs}
    result["outputs_identical"] = len(digests) == 1 and None not in digests
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    if args.role == "measure" and None in (args.seconds, args.trace, args.result):
        ap.error("--role measure needs --seconds, --trace and --result")

    import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    wl.prepare(args.workdir, args.seed)
    print("ready", flush=True)
    if args.role == "setup":
        return 0
    # the package prints progress and decay-fit reports; keep stdout for "ready"
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        result = measure(wl, args.workdir, args.seconds, bool(args.trace), args.spans)
    import numpy
    result["numpy"] = numpy.__version__
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
