"""Run directories, manifests, and config validation.

A run directory is created atomically: everything is written into a sibling
temp directory, the manifest (with content hashes of every output) is written
last, and the temp directory is renamed into place.  An interrupted run
leaves no partial target directory, nor the parent directories made for
it.  RunDirectory.place moves the outputs to paths of their own instead,
all of them or none.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import os
import shutil
import time
import uuid
from pathlib import Path

from . import __version__
from .errors import ConfigInvalid
from .model import _PRESET_READS, _SYMBOL_READS, PRESET_NAMES
from .solver import DATUM_KEYS


def _branch(tag: str, value: str, reads: dict, required=()) -> dict:
    """The schema that lets a block whose tag is value hold only tag and
    reads (key -> schema), and requires the required keys: an if/then, so
    that an error names the key at fault."""
    return {"if": {"properties": {tag: {"const": value}}, "required": [tag]},
            "then": {"required": list(required), "properties": {tag: {}, **reads},
                     "additionalProperties": False}}


# MODEL_SCHEMA and DATUM_SCHEMA are built from the builders' tables: the
# presets and symbol kinds with the keys each reads (stratwave.model), and
# the datum kinds with theirs (stratwave.solver.DATUM_KEYS)
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
MODEL_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["preset"]},
        {"required": ["symbol", "m", "n", "k", "eta"]},
    ],
    "properties": {
        "preset": {"enum": list(PRESET_NAMES)},
        "symbol": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": list(_SYMBOL_READS)}},
            "allOf": [_branch("kind", kind, reads, reads)
                      for kind, reads in _SYMBOL_READS.items()],
        },
    },
    "allOf": [*(_branch("preset", name, {"eta": _POSITIVE, **_PRESET_READS.get(name, {})})
                for name in PRESET_NAMES),
              {"if": {"required": ["symbol"]},
               "then": {"properties": {"symbol": {}, "m": {"enum": [2, 3]},
                                       "n": {"type": "integer", "minimum": 1},
                                       "k": {"type": "integer", "minimum": 1},
                                       "eta": _POSITIVE},
                        "additionalProperties": False}}],
}

GRID_SCHEMA = {
    "type": "object",
    "required": ["N", "L"],
    "properties": {
        "N": {"type": "integer", "minimum": 16},
        "L": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

DATUM_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": list(DATUM_KEYS)}},
    "allOf": [_branch("kind", kind, keys, [key for key in keys if "default" not in keys[key]])
              for kind, keys in DATUM_KEYS.items()],
}

SOLVER_SCHEMA = {
    "type": "object",
    "required": ["dt", "T"],
    "properties": {
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "mode": {"enum": ["etd", "picard"]},
        "snapshots": {"type": "array", "items": {"type": "number"}},
        "linear_only": {"type": "boolean"},
    },
    "additionalProperties": False,
}

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
#: the optional experiment parameters with their types and ranges
_PARAMETERS = {"window": _PAIR,
               "windows": {"type": "array", "items": _PAIR, "minItems": 1},
               "p": {"type": "number", "exclusiveMinimum": 1},
               "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
               "t": _POSITIVE}


def experiment_schema(kind: str, needs: dict | None = None, blocks=("solver", "datum"),
                      solver_reads=(), parameters=()) -> dict:
    """Schema of a config for the experiment kind: model, grid, the blocks
    of solver and datum it reads (all required but solver) and experiment,
    with experiment.kind fixed to kind, solver fields only dt, T and
    solver_reads, experiment fields only kind and parameters, and needs,
    the extra schema of what the kind requires."""
    solver = {**SOLVER_SCHEMA, "properties": {
        name: sub for name, sub in SOLVER_SCHEMA["properties"].items()
        if name in ("dt", "T", *solver_reads)}}
    common = {"model": MODEL_SCHEMA, "grid": GRID_SCHEMA, "solver": solver,
              "datum": DATUM_SCHEMA}
    read = ("model", "grid", *blocks)
    return {"allOf": [{
        "type": "object",
        "required": [name for name in read if name != "solver"] + ["experiment"],
        "properties": {
            **{name: common[name] for name in read},
            "experiment": {"type": "object", "required": ["kind"],
                           "properties": {"kind": {"const": kind},
                                          **{name: _PARAMETERS[name]
                                             for name in parameters}},
                           "additionalProperties": False},
        },
        "additionalProperties": False,
    }, needs or {}]}


# The schemas above are JSON Schema (Draft 2020-12).  _errors checks a config
# against them: it knows the keywords they use, and gives the messages and
# JSON paths of jsonschema's Draft202012Validator (which writes $.name for
# the plain property names the schemas declare); any other keyword raises.

def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    # 2020-12: a float with no fractional part is an integer, a bool is not
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _same(a, b) -> bool:
    """JSON equality of scalars: 1 equals 1.0, but True does not equal 1."""
    return a is b or (isinstance(a, bool) == isinstance(b, bool) and a == b)


def _errors(x, schema: dict, path: str):
    """Yield (json_path, message) for each way x fails schema, keyword by
    keyword in the schema's key order."""
    obj, arr, num = isinstance(x, dict), isinstance(x, list), _is_number(x)
    for key, v in schema.items():
        if key == "type":
            if not _TYPES[v](x):
                yield path, f"{x!r} is not of type {v!r}"
        elif key == "enum":
            if not any(_same(each, x) for each in v):
                yield path, f"{x!r} is not one of {v!r}"
        elif key == "const":
            if not _same(v, x):
                yield path, f"{v!r} was expected"
        elif key == "required":
            if obj:
                for name in v:
                    if name not in x:
                        yield path, f"{name!r} is a required property"
        elif key == "properties":
            if obj:
                for name, sub in v.items():
                    if name in x:
                        yield from _errors(x[name], sub, f"{path}.{name}")
        elif key == "additionalProperties" and v is False:
            extras = sorted(set(x) - schema.get("properties", {}).keys()) if obj else []
            if extras:
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} "
                             f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "minimum":
            if num and x < v:
                yield path, f"{x!r} is less than the minimum of {v!r}"
        elif key == "exclusiveMinimum":
            if num and x <= v:
                yield path, f"{x!r} is less than or equal to the minimum of {v!r}"
        elif key == "exclusiveMaximum":
            if num and x >= v:
                yield path, f"{x!r} is greater than or equal to the maximum of {v!r}"
        elif key == "items":
            if arr:
                for i, item in enumerate(x):
                    yield from _errors(item, v, f"{path}[{i}]")
        elif key == "minItems":
            if arr and len(x) < v:
                yield path, f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}"
        elif key == "maxItems":
            if arr and len(x) > v:
                yield path, f"{x!r} {'is expected to be empty' if v == 0 else 'is too long'}"
        elif key == "oneOf":
            valid = [b for b in v if next(_errors(x, b, path), None) is None]
            if not valid:
                yield path, f"{x!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                # jsonschema names the later valid branches, then the first
                listed = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield path, f"{x!r} is valid under each of {listed}"
        elif key == "allOf":
            for sub in v:
                yield from _errors(x, sub, path)
        elif key == "if":
            if next(_errors(x, v, path), None) is None:
                yield from _errors(x, schema.get("then", {}), path)
        elif key in ("then", "default"):
            pass    # then is applied by if, and default is an annotation
        else:
            raise NotImplementedError(f"schema keyword {key}: {v!r} is not implemented")


def validate_config(cfg: dict, schema: dict) -> None:
    """Raise ConfigInvalid naming the error with the least JSON path (the
    first of those) when cfg does not match schema."""
    errors = list(_errors(cfg, schema, "$"))
    if errors:
        path, message = min(errors, key=lambda e: e[0])
        raise ConfigInvalid(f"{path}: {message}", path=path)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{text} is too large for a float")
    return value


def _float_range_int(text: str) -> int:
    _finite_float(text)
    return int(text)


def load_json(path) -> dict:
    """The JSON value in the file at path; NaN, ±Infinity and number
    literals too large for a float are not accepted (an integer stays an
    int)."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant,
                             parse_float=_finite_float, parse_int=_float_range_int)
    except ValueError as exc:    # bad JSON, a non-UTF-8 byte, or a rejected number
        raise ConfigInvalid(f"{path}: not valid JSON ({exc})") from exc


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def default_output_root() -> Path:
    return Path(os.environ.get("STRATWAVE_OUT", "runs"))


class RunDirectory:
    """Atomic run outputs: files are registered into a temporary sibling of
    the target, then commit() renames it into place as the run directory,
    its manifest written last, or place() moves each file to a path of its
    own.  Either way the outputs appear all together or not at all."""

    def __init__(self, target: Path, replace: bool = False):
        """replace: the outputs go to their own paths (place), over any
        file there, so an existing target is no error."""
        self.target = Path(target)
        if self.target.exists() and not replace:
            raise ConfigInvalid(f"output directory {self.target} already exists")
        #: the target's missing ancestors, deepest first, which abort removes
        self._made = [path for path in self.target.parents if not path.exists()]
        self.target.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.target.parent / f".tmp-{self.target.name}-{uuid.uuid4().hex[:8]}"
        self._tmp.mkdir()
        self._start = time.time()
        self.outputs = []

    def register(self, relname: str) -> Path:
        """Declare an output file (hashed into the manifest at commit)."""
        self.outputs.append(relname)
        return self._tmp / relname

    def commit(self, config: dict, diagnostics: dict | None = None) -> Path:
        manifest = {
            "tool": "stratwave",
            "version": __version__,
            "config": config,
            "wall_seconds": round(time.time() - self._start, 3),
            "diagnostics": diagnostics or {},
            "outputs": {
                name: sha256_file(self._tmp / name) for name in self.outputs
            },
        }
        write_json(self._tmp / "run.json", manifest)
        os.rename(self._tmp, self.target)
        return self.target

    def place(self, paths: dict) -> None:
        """Move each output to paths[name], in registration order; when a
        move fails, the outputs moved before it are deleted again."""
        moved = []
        try:
            for name in self.outputs:
                os.replace(self._tmp / name, paths[name])
                moved.append(paths[name])
        except BaseException:
            for path in moved:
                os.unlink(path)
            raise
        finally:
            shutil.rmtree(self._tmp, ignore_errors=True)

    def abort(self) -> None:
        """Remove the temporary directory, then the ancestors made for the
        target, up to the first that is not empty."""
        shutil.rmtree(self._tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            for path in self._made:
                path.rmdir()
