"""stratwave benchmark driver.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  For each workload the driver starts,
one at a time, SETUP_PROBES workers that only set up, then one measuring
worker (bench/worker.py), so ``peak_rss_mb`` belongs to that workload alone.

* ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s``
  (median of the timed runs) and ``setup_s`` (median over the set-up-only
  workers of spawn to ready), both in scaled seconds (bench/speed.py), and
  ``peak_rss_mb``.  The unscaled medians are printed as well.
* ``--trace 1`` reports the per-layer metrics, from one extra run under
  bench/tracer.py after the untimed warm-up and the timed runs.

Every run's outputs are checked; a run that raises, exits non-zero or fails
its check counts as failed, and ``failed_frac`` is failed over attempted.
Lines before the last name each metric with its unit; the last line is one
JSON object with keys correct, attempted, failed and metrics.  Full results,
with a machine stamp, go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import reference_s, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 8
#: seconds one workload may take in total, inside the 180 s a run is allowed
WORKLOAD_BUDGET_S = 170.0
PAGE_CACHE_NOTE = ("the page cache is never dropped, so kernel_io and the "
                   "snapshot writes measure writes into the page cache, not to disk")


class BenchError(Exception):
    pass


def spawn_worker(args: list, workdir: Path, deadline: float) -> float:
    """Run one worker to completion; returns seconds from spawn to its 'ready'."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, cwd=workdir, env=env, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(deadline - time.perf_counter(), 0.0)):
                raise BenchError("worker not ready before the deadline")
            line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            proc.wait(max(deadline - time.perf_counter(), 0.0))
            raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
        proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        return setup_s
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + WORKLOAD_BUDGET_S
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)]
    try:
        reference_s()  # untimed: the first call may pay numpy's one-off FFT set-up
        setup, refs = [], [reference_s()]
        for i in range(SETUP_PROBES):
            probe = workdir / f"setup{i}"
            probe.mkdir(parents=True)
            setup.append(spawn_worker([*common, "--workdir", str(probe), "--role", "setup"],
                                      probe, deadline))
            refs.append(reference_s())
        measured = workdir / "measure"
        measured.mkdir()
        result_file = workdir / "result.json"
        spans_file = results / f"{name}-seed{seed}-spans.json"
        spawn_worker(
            [*common, "--workdir", str(measured), "--role", "measure",
             "--seconds", str(seconds), "--trace", str(trace),
             "--result", str(result_file), "--spans", str(spans_file)],
            measured, deadline)
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(setup_samples=setup, setup_refs=refs, scaled_setups=scaled(setup, refs))
    result["failed_frac"] = result["failed"] / result["attempted"]
    result["correct"] = result["failed"] == 0 and not result["warmup_problems"]
    if trace:
        result["metrics"] = result.pop("layers")
    else:
        result["metrics"] = {"wall_s": statistics.median(result["scaled_walls"]),
                             "setup_s": statistics.median(result["scaled_setups"]),
                             "peak_rss_mb": result["peak_rss_mb"]}
    return result


def _git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(numpy_version: str) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "git_commit": _git_commit(), "src_lines": src_lines,
            "page_cache": PAGE_CACHE_NOTE}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="stratwave benchmark")
    ap.add_argument("--workload", required=True, choices=(*workloads, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds through spawn_worker's finally, which kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # pinned to one CPU, the driver's and the workers' references (speed.py)
    # run on the CPU that the work they bracket ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "stratwave" / "__init__.py").is_file():
        print(f"no stratwave source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = workloads if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        result["stamp"] = stamp(result["numpy"])
        result_path = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(result, indent=1) + "\n")
        for problem in result["warmup_problems"] + result["problems"]:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            value = result["metrics"][metric]
            print(f"{name} {metric} {value:.6g} {unit}")
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"{name} wall_raw_s {statistics.median(result['walls']):.6g} s (unscaled)")
            print(f"{name} setup_raw_s {statistics.median(result['setup_samples']):.6g} s (unscaled)")
        print(f"{name} failed_frac {result['failed_frac']:.6g} 1 "
              f"({result['failed']}/{result['attempted']} runs)")
        print(f"{name} outputs_identical {str(result['outputs_identical']).lower()}")
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
