"""In-memory span tracer that times calls into stratwave from outside it.

``Tracer`` wraps, while it is active:

* every public function of the package at every module that binds it by
  name (``solve`` is bound in ``stratwave.solver``, ``.cli``, ``.analysis``,
  ``.acceptance`` and the package itself, and all five bindings get the same
  wrapper), so calls between modules are seen whichever binding they use;
* ``EtdPropagator.__init__`` / ``.step`` and ``RunDirectory.commit`` on their
  classes;
* ``numpy.fft.fft/ifft/rfft/irfft``, which is how the package calls them.

Each call becomes a ``Span`` (id, parent id, name, start, end, info).  Spans
stay in a list until the caller writes them out; leaving the ``with`` block
puts every original binding back.  ``layer_metrics`` turns one traced run's
spans into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

from workloads import ACCEPTANCE_IDS

#: package modules whose bindings are patched; "" is the package itself
MODULES = ("", "model", "spectral", "kernel", "solver", "analysis", "acceptance",
           "runio", "cli")
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
#: (module, class, method, span name)
METHODS = (("solver", "EtdPropagator", "__init__", "solver.propagator_build"),
           ("solver", "EtdPropagator", "step", "solver.step"),
           ("runio", "RunDirectory", "commit", "runio.commit"))
MB = 1e6


@dataclass(slots=True)
class Span:
    id: int
    parent: int  # 0 for a span with no traced caller
    name: str
    start: float
    end: float
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _fft_info(args, kwargs, result) -> dict:
    a = args[0] if args else kwargs["a"]
    return {"points": a.size, "bytes": a.nbytes + result.nbytes}


#: span name -> info(args, kwargs, result), recorded after the call returns
ANNOTATE = {
    "spectral.field_to_csv": lambda a, k, r: _path_bytes(a[1] if len(a) > 1 else k["path"]),
    "runio.sha256_file": lambda a, k, r: _path_bytes(a[0] if a else k["path"]),
    "acceptance.run_criterion": lambda a, k, r: {"cid": r.cid, "passed": bool(r.passed)},
    "solver.picard_solve": lambda a, k, r: {"iterations": r[1]["iterations"]},
    **{f"fft.{f}": _fft_info for f in FFT_FUNCS},
}


class Tracer:
    """Context manager: patch the package and numpy.fft, record spans, restore."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = Span(sid, parent, name, start, end)
                spans.append(span)
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        import numpy.fft

        try:
            wrappers = {}
            for mname in MODULES:
                mod = importlib.import_module("stratwave" + (f".{mname}" if mname else ""))
                for attr, obj in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__name__.startswith("_")
                            or not obj.__module__.startswith("stratwave.")):
                        continue
                    if obj not in wrappers:
                        home = obj.__module__.split(".", 1)[1]
                        wrappers[obj] = self.wrap(obj, f"{home}.{obj.__name__}")
                    self._patch(mod, attr, wrappers[obj])
            for mname, cls, meth, name in METHODS:
                owner = getattr(importlib.import_module(f"stratwave.{mname}"), cls)
                self._patch(owner, meth, self.wrap(getattr(owner, meth), name))
            for f in FFT_FUNCS:
                self._patch(numpy.fft, f, self.wrap(getattr(numpy.fft, f), f"fft.{f}"))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def tail_value(values) -> float:
    """Value at the highest percentile with at least ten samples above it.

    With fewer than eleven samples no such percentile exists and the maximum
    is returned; with none, 0.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (0 where a layer was not called)."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by[name])

    def calls(name):
        return len(by[name])

    def summed(group, key):
        return sum(s.info[key] for s in group if s.info)

    selft = self_times(spans)
    step_ms = [s.duration * 1e3 for s in by["solver.step"]]
    fft = [s for f in FFT_FUNCS for s in by[f"fft.{f}"]]
    iterations = summed(by["solver.picard_solve"], "iterations")
    criteria = {s.info["cid"]: s for s in by["acceptance.run_criterion"] if s.info}

    m = {
        "solver.step.s": total("solver.step"),
        "solver.step.calls": calls("solver.step"),
        "solver.step.p50_ms": statistics.median(step_ms) if step_ms else 0.0,
        "solver.step.tail_ms": tail_value(step_ms),
        "solver.solve.self_s": sum(selft[s.id] for s in by["solver.solve"]),
        "solver.dissipation_rate.s": total("solver.dissipation_rate"),
        "solver.dissipation_rate.calls": calls("solver.dissipation_rate"),
        "solver.propagator_build.s": total("solver.propagator_build"),
        "solver.propagator_build.calls": calls("solver.propagator_build"),
        "solver.picard_solve.s": total("solver.picard_solve"),
        "solver.picard.iterations": iterations,
        "solver.picard.s_per_iter": (total("solver.picard_solve") / iterations
                                     if iterations else 0.0),
        "fft.calls": len(fft),
        "fft.s": sum(s.duration for s in fft),
        "fft.points": summed(fft, "points"),
        "fft.computed_mb": summed(fft, "bytes") / MB,
        "spectral.field_to_csv.s": total("spectral.field_to_csv"),
        "spectral.field_to_csv.mb": summed(by["spectral.field_to_csv"], "bytes") / MB,
        "spectral.field_from_csv.s": total("spectral.field_from_csv"),
        "spectral.to_physical.s": total("spectral.to_physical"),
        "spectral.to_spectral.s": total("spectral.to_spectral"),
        "kernel.kernel_field.s": total("kernel.kernel_field"),
        "kernel.kernel_field.calls": calls("kernel.kernel_field"),
        "model.linear_multiplier.calls": calls("model.linear_multiplier"),
        "analysis.tail_exponent.s": total("analysis.tail_exponent"),
        "analysis.weighted_persistence_experiment.s":
            total("analysis.weighted_persistence_experiment"),
        "runio.commit.s": total("runio.commit"),
        "runio.hashed_mb": summed(by["runio.sha256_file"], "bytes") / MB,
        "runio.validate_config.s": total("runio.validate_config"),
    }
    for cid in ACCEPTANCE_IDS:
        m[f"acceptance.{cid}.s"] = criteria[cid].duration if cid in criteria else 0.0
    m["acceptance.passed"] = summed(criteria.values(), "passed")
    m["cli.main.s"] = total("cli.main")
    return m


def span_records(spans) -> list:
    """Spans as JSON-ready rows [id, parent, name, start, end, info]."""
    return [[s.id, s.parent, s.name, s.start, s.end, s.info] for s in spans]
