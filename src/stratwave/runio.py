"""Run directories, manifests, and config validation for the CLI.

A run directory is created atomically: everything is written into a sibling
temp directory, the manifest (with content hashes of every output) is written
last, and the temp directory is renamed into place.  An interrupted run
leaves no partial target directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from pathlib import Path

from . import __version__
from .errors import ConfigInvalid

MODEL_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["preset"]},
        {"required": ["symbol", "m", "n", "k", "eta"]},
    ],
    "properties": {
        "preset": {"enum": ["ost", "gost", "bo_perturbed", "chen_lee",
                            "dgbo_perturbed"]},
        "symbol": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["kdv", "bo", "dgbo"]},
                "a": {"type": "number", "exclusiveMinimum": 0,
                      "exclusiveMaximum": 1},
            },
            "additionalProperties": False,
        },
        "m": {"enum": [2, 3]},
        "n": {"type": "integer", "minimum": 1},
        "k": {"type": "integer", "minimum": 1},
        "eta": {"type": "number", "exclusiveMinimum": 0},
        "a": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    },
    "additionalProperties": False,
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
    "properties": {
        "kind": {"enum": ["algebraic", "zero_mean_algebraic", "gaussian",
                          "growth"]},
        "gamma": {"type": "number"},
        "c": {"type": "number"},
        "sigma0": {"type": "number"},
        "amp": {"type": "number"},
        "c0": {"type": "number"},
    },
    "additionalProperties": False,
}

SOLVER_SCHEMA = {
    "type": "object",
    "required": ["dt", "T"],
    "properties": {
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "snapshots": {"type": "array", "items": {"type": "number"}},
        "linear_only": {"type": "boolean"},
    },
    "additionalProperties": False,
}

def experiment_schema(kind: str, needs: dict, fields: dict) -> dict:
    """Schema of a config for the experiment kind: the common fields with
    experiment.kind fixed to kind, and needs, the extra schema of what the
    kind reads; fields maps each optional experiment parameter to its type."""
    return {"allOf": [{
        "type": "object",
        "required": ["model", "grid", "experiment"],
        "properties": {
            "model": MODEL_SCHEMA,
            "grid": GRID_SCHEMA,
            "solver": SOLVER_SCHEMA,
            "datum": DATUM_SCHEMA,
            "experiment": {"type": "object", "required": ["kind"],
                           "properties": {"kind": {"const": kind}, **fields}},
        },
        "additionalProperties": False,
    }, needs]}


def validate_config(cfg: dict, schema: dict) -> None:
    import jsonschema  # on first use: commands that validate nothing never load it

    validator = jsonschema.Draft202012Validator(schema)
    errors = list(validator.iter_errors(cfg))
    if errors:
        err = min(errors, key=lambda e: e.json_path)
        raise ConfigInvalid(f"{err.json_path}: {err.message}", path=err.json_path)


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
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
    """Atomic run directory: populate, then commit() renames into place."""

    def __init__(self, target: Path):
        self.target = Path(target)
        if self.target.exists():
            raise ConfigInvalid(f"output directory {self.target} already exists")
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

    def abort(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)
