"""Config validation in stratwave.runio, checked against jsonschema.

runio interprets the JSON Schema (Draft 2020-12) keywords its schemas use;
jsonschema, a test dependency only, is the reference for every message and
JSON path.
"""

import copy
import re

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from stratwave import runio
from stratwave.analysis import EXPERIMENT_SCHEMAS
from stratwave.errors import ConfigInvalid
from stratwave.model import _PRESET_READS, _SYMBOL_READS, PRESET_NAMES, model_from_config
from stratwave.runio import (DATUM_SCHEMA, GRID_SCHEMA, MODEL_SCHEMA, SOLVER_SCHEMA,
                             validate_config)
from stratwave.solver import DATUM_KEYS, datum_from_config
from stratwave.spectral import Grid

SCHEMAS = {"model": MODEL_SCHEMA, "grid": GRID_SCHEMA, "datum": DATUM_SCHEMA,
           "solver": SOLVER_SCHEMA,
           **{f"experiment-{kind}": s for kind, s in EXPERIMENT_SCHEMAS.items()}}

_EXPLICIT = {"symbol": {"kind": "dgbo", "a": 0.5}, "m": 2, "n": 1, "k": 1, "eta": 1.0}
_COMMON = {"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
           "solver": {"dt": 0.01, "T": 0.1},
           "datum": {"kind": "growth", "gamma": 0.3, "c0": 0.01}}
#: schema name -> the configs that the mutations start from
SEEDS = {
    "model": [{"preset": "ost"}, {"preset": "gost", "k": 3, "eta": 0.5},
              {"preset": "dgbo_perturbed", "a": 0.3}, _EXPLICIT,
              {**_EXPLICIT, "symbol": {"kind": "kdv"}},
              {"preset": "gost", **_EXPLICIT}],   # valid under both oneOf branches
    "grid": [{"N": 1024, "L": 50}],
    "datum": [{"kind": "gaussian", "sigma0": 1.0, "amp": 0.1},
              {"kind": "algebraic", "gamma": 2, "c": 1},
              {"kind": "growth", "gamma": 0.3, "c0": 0.01},
              {"kind": "gaussian", "sigma0": 1.0, "amp": 0.1, "gamma": 2, "c": 1,
               "c0": 0.01}],
    "solver": [{"dt": 0.01, "T": 0.1, "mode": "picard", "snapshots": [0.05, 0.1],
                "linear_only": True}],
    "experiment-dichotomy": [{**_COMMON, "datum": {"kind": "algebraic", "gamma": 3.0,
                                                    "c": 0.5}, "experiment": {
        "kind": "dichotomy", "window": [5, 20]}}],
    "experiment-weighted": [{**_COMMON, "experiment": {"kind": "weighted", "p": 2,
                                                        "gamma": 0.5}}],
    "experiment-growth": [{**_COMMON, "solver": {"dt": 0.01, "T": 0.1,
                                                  "snapshots": [0.1]},
                           "experiment": {"kind": "growth"}}],
    "experiment-lowerbound": [{**_COMMON, "solver": {"dt": 0.01, "T": 0.1,
                                                      "linear_only": False},
                               "experiment": {"kind": "lowerbound",
                                              "windows": [[5, 10], [10, 20]]}}],
    "experiment-energy": [{**_COMMON, "experiment": {"kind": "energy"}}],
    "experiment-decay": [{**_COMMON, "experiment": {"kind": "decay", "window": [5, 20]}}],
    # a kernel config reads no solver or datum block
    "experiment-kernel": [{"model": {"preset": "ost"}, "grid": {"N": 1024, "L": 50},
                           "experiment": {"kind": "kernel", "t": 1.0, "window": [5, 20]}},
                          {"model": _EXPLICIT, "grid": {"N": 1024, "L": 50},
                           "experiment": {"kind": "kernel", "t": 0.5}}],
    "experiment-kernel_derivative": [{"model": _EXPLICIT, "grid": {"N": 1024, "L": 50},
                                      "experiment": {"kind": "kernel_derivative", "t": 1.0,
                                                     "window": [5, 20]}}],
    "experiment-convergence": [{**_COMMON, "experiment": {"kind": "convergence"}}],
    "experiment-crosscheck": [{**_COMMON, "experiment": {"kind": "crosscheck"}}],
    "experiment-trajectory": [{**_COMMON, "solver": {"dt": 0.01, "T": 0.1, "mode": "etd",
                                                      "snapshots": [0.05, 0.1],
                                                      "linear_only": False},
                               "experiment": {"kind": "trajectory"}}],
}


def _subschemas(schema):
    """schema and every schema nested in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    for key in ("oneOf", "allOf"):
        for sub in schema.get(key, ()):
            yield from _subschemas(sub)
    for key in ("items", "if", "then"):
        if key in schema:
            yield from _subschemas(schema[key])


#: every declared property name, and some undeclared ones
_KEYS = st.sampled_from(sorted({name for schema in SCHEMAS.values()
                                for sub in _subschemas(schema)
                                for name in sub.get("properties", {})}
                               | {"extra", "a-b", "x'y"}))
_SCALARS = st.one_of(
    st.sampled_from([None, True, False, 0, 1, 2, 3, 16, 1024, 1024.0, 1024.5, -1, 0.0,
                     -0.0, 0.5, 1.0, 2.0, 3.0, *PRESET_NAMES, *_SYMBOL_READS, *DATUM_KEYS,
                     "energy", "weighted", "kernel", "kernel_derivative", "", "x"]),
    st.integers(), st.floats(), st.text(max_size=3))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=6)


def _containers(node):
    """node and every dict or list inside it."""
    yield node
    for value in node.values() if isinstance(node, dict) else node:
        if isinstance(value, (dict, list)):
            yield from _containers(value)


def _mutate(cfg, data):
    """Replace, delete or add one to three values somewhere in cfg, or
    now and then replace cfg itself."""
    if data.draw(st.integers(0, 19)) == 0:
        return data.draw(_VALUES)
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(list(_containers(cfg))))
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if isinstance(node, dict) and (action == "add" or not node):
            node[data.draw(_KEYS)] = data.draw(_VALUES)
        elif isinstance(node, list) and (action == "add" or not node):
            node.append(data.draw(_VALUES))
        else:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                            else range(len(node))))
            if action == "delete":
                del node[key]
            else:
                node[key] = data.draw(_VALUES)
    return cfg


def _reference(cfg, schema):
    """jsonschema's errors as (json_path, message), in its order."""
    validator = jsonschema.Draft202012Validator(schema)
    return [(e.json_path, e.message) for e in validator.iter_errors(cfg)]


def _selected(cfg, schema):
    try:
        validate_config(cfg, schema)
    except ConfigInvalid as exc:
        return exc.path, str(exc)
    return None


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_config_matches_jsonschema(name, data):
    schema = SCHEMAS[name]
    cfg = _mutate(copy.deepcopy(data.draw(st.sampled_from(SEEDS[name]))), data)
    expected = _reference(cfg, schema)
    assert list(runio._errors(cfg, schema, "$")) == expected
    if expected:
        path, message = min(expected, key=lambda e: e[0])
        assert _selected(cfg, schema) == (path, f"{path}: {message}")
    else:
        assert _selected(cfg, schema) is None


@pytest.mark.parametrize("cfg,error", [
    ({"N": 1024.0, "L": 50}, None),
    ({"N": True, "L": 50}, "$.N: True is not of type 'integer'"),
    ({"N": 8.0, "L": 50}, "$.N: 8.0 is less than the minimum of 16"),
    ({"N": 1024, "L": 0}, "$.L: 0 is less than or equal to the minimum of 0"),
    ({"N": 1024}, "$: 'L' is a required property"),
    ({"N": 1024, "L": 1, "z": 0, "y": 0},
     "$: Additional properties are not allowed ('y', 'z' were unexpected)"),
])
def test_grid_errors(cfg, error):
    # the 2020-12 integer takes 1024.0 and rejects True; messages as jsonschema's
    assert _selected(cfg, GRID_SCHEMA) == (None if error is None
                                           else (error.split(":")[0], error))


def test_model_valid_under_each_branch():
    cfg = {"preset": "gost", **_EXPLICIT}
    # the later valid branch is named first, the first valid branch last
    assert _selected(cfg, MODEL_SCHEMA) == ("$", (
        f"$: {cfg!r} is valid under each of "
        "{'required': ['symbol', 'm', 'n', 'k', 'eta']}, {'required': ['preset']}"))


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schemas_use_only_implemented_keywords(name):
    # each keyword of each (sub)schema, alone, is interpreted without raising;
    # property names are plain, so that $.name is the JSON path jsonschema writes
    for schema in _subschemas(SCHEMAS[name]):
        for key, value in schema.items():
            for probe in (None, {}, [], 1, "x"):
                list(runio._errors(probe, {key: value}, "$"))
        assert all(re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", p)
                   for p in schema.get("properties", {}))


@pytest.mark.parametrize("cfg,schema,error", [
    (True, {"enum": [1, 2]}, "$: True is not one of [1, 2]"),
    (False, {"enum": [0]}, "$: False is not one of [0]"),
    (0, {"const": False}, "$: False was expected"),
    (1.0, {"enum": [1, 2]}, None), (1, {"const": 1.0}, None),
    (True, {"const": True}, None)])
def test_enum_and_const_tell_bools_from_numbers(cfg, schema, error):
    # no shipped enum holds 0 or 1, so the fuzz cannot see this
    assert _reference(cfg, schema) == ([("$", error[3:])] if error else [])
    assert _selected(cfg, schema) == (error and ("$", error))


@pytest.mark.parametrize("schema", [{"pattern": "^x"}, {"multipleOf": 1},
                                    {"additionalProperties": True},
                                    {"properties": {"a": {"uniqueItems": True}}},
                                    {"maximum": 1}])
def test_unimplemented_keyword_raises(schema):
    with pytest.raises(NotImplementedError):
        validate_config({"a": [1]}, schema)


@pytest.mark.parametrize("cfg,schema", [
    ({"a": 1}, {"if": {"required": ["a"]}, "then": {"required": ["b"]}}),
    ({"c": 1}, {"if": {"required": ["a"]}, "then": {"required": ["b"]}}),
    ({"a": 1}, {"if": {"required": ["a"]}}),
    ({}, {"then": {"required": ["b"]}}),          # then without if checks nothing
    (2, {"default": 1, "const": 1})])             # default is an annotation
def test_if_then_and_default_as_jsonschema(cfg, schema):
    assert list(runio._errors(cfg, schema, "$")) == _reference(cfg, schema)


# ---------------------------------------------------------------------------
# MODEL_SCHEMA and DATUM_SCHEMA against the builders' tables they are built
# from: what the schema accepts builds, and each slip is refused
# ---------------------------------------------------------------------------

def _inside(schema):
    """A strategy for values that the key's schema accepts: numbers at
    least 1e-3 inside its range and in (-10, 10) or (low, low + 20)."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if schema.get("type") == "integer":
        return st.integers(schema["minimum"], schema["minimum"] + 8)
    low = schema.get("exclusiveMinimum", -10.0)
    high = schema.get("exclusiveMaximum", low + 20.0)
    return st.floats(low + 1e-3, high - 1e-3)


def _outside(schema):
    """Values out of the key's range (none when any number will do)."""
    if "enum" in schema:
        return [max(schema["enum"]) + 1, min(schema["enum"]) - 1]
    values = [schema[key] for key in ("exclusiveMinimum", "exclusiveMaximum") if key in schema]
    if "minimum" in schema:
        values.append(schema["minimum"] - 1)
    return values


#: the explicit form's keys besides symbol, with their schemas
_EXPLICIT_KEYS = {key: s for key, s in MODEL_SCHEMA["allOf"][-1]["then"]["properties"].items()
                  if key != "symbol"}
_ETA = _EXPLICIT_KEYS["eta"]
#: every key some model or datum block reads, and one that none reads
_ALL_KEYS = sorted({"preset", "symbol", "kind", "extra", "eta", *_EXPLICIT_KEYS,
                    *(key for table in (_PRESET_READS, _SYMBOL_READS, DATUM_KEYS)
                      for reads in table.values() for key in reads)})


def _draw_keys(draw, keys: dict, optional) -> dict:
    """Values inside each key's range, for each key that is not optional or
    that the draw keeps."""
    return {key: draw(_inside(s)) for key, s in keys.items()
            if not optional(key, s) or draw(st.booleans())}


@st.composite
def _block(draw, name):
    """A model or datum config that the builders' tables describe, with
    (path -> schema) of its keys, the paths it requires, and (path, the keys
    read there) of each of its objects; paths are tuples of keys."""
    if name == "datum":
        kind = draw(st.sampled_from(sorted(DATUM_KEYS)))
        keys = DATUM_KEYS[kind]
        cfg = {"kind": kind, **_draw_keys(draw, keys, lambda key, s: "default" in s)}
        required = [(key,) for key in ("kind", *keys) if "default" not in keys.get(key, {})]
        return cfg, {(key,): s for key, s in keys.items()}, required, [((), {"kind", *keys})]
    if draw(st.booleans()):
        preset = draw(st.sampled_from(PRESET_NAMES))
        keys = {"eta": _ETA, **_PRESET_READS.get(preset, {})}
        cfg = {"preset": preset, **_draw_keys(draw, keys, lambda key, s: True)}
        return (cfg, {(key,): s for key, s in keys.items()}, [("preset",)],
                [((), {"preset", *keys})])
    kind = draw(st.sampled_from(sorted(_SYMBOL_READS)))
    reads = _SYMBOL_READS[kind]
    cfg = {"symbol": {"kind": kind, **_draw_keys(draw, reads, lambda key, s: False)},
           **_draw_keys(draw, _EXPLICIT_KEYS, lambda key, s: False)}
    if cfg["n"] % 4 == 1 and cfg["n"] >= 5:
        cfg["n"] -= 1       # n = 5 + 4d passes the schema; validate_params refuses it
    return (cfg, {**{(key,): s for key, s in _EXPLICIT_KEYS.items()},
                  **{("symbol", key): s for key, s in reads.items()}},
            [("symbol",), *((key,) for key in _EXPLICIT_KEYS),
             *(("symbol", key) for key in ("kind", *reads))],
            [((), {"symbol", *_EXPLICIT_KEYS}), (("symbol",), {"kind", *reads})])


def _at(cfg: dict, path: tuple) -> dict:
    for key in path:
        cfg = cfg[key]
    return cfg


def _build(name, cfg):
    if name == "model":
        return model_from_config(cfg)
    return datum_from_config(cfg, Grid(64, 10.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(["model", "datum"]))
def test_generated_schemas_build_what_they_accept_and_refuse_each_slip(data, name):
    # every preset, symbol kind and datum kind: a config the schema accepts
    # builds; one required key dropped, one unread key added or one value
    # out of its range is refused by the schema, at a path in the block, and
    # by the builder
    cfg, keys, required, objects = data.draw(_block(name))
    experiment = {**SEEDS["experiment-energy"][0], name: cfg}
    validate_config(experiment, EXPERIMENT_SCHEMAS["energy"])
    _build(name, cfg)

    bad = copy.deepcopy(cfg)
    slip = data.draw(st.sampled_from(["drop", "add", "range"]))
    if slip == "drop":
        *parent, key = data.draw(st.sampled_from(required))
        del _at(bad, parent)[key]
    elif slip == "add":
        parent, reads = data.draw(st.sampled_from(objects))
        _at(bad, parent)[data.draw(st.sampled_from(sorted(set(_ALL_KEYS) - reads)))] = 1.0
    else:
        ranged = sorted(path for path, s in keys.items() if _outside(s))
        *parent, key = data.draw(st.sampled_from(ranged))
        _at(bad, parent)[key] = data.draw(st.sampled_from(_outside(keys[(*parent, key)])))
    with pytest.raises(ConfigInvalid) as exc:
        validate_config({**experiment, name: bad}, EXPERIMENT_SCHEMAS["energy"])
    assert exc.value.path.startswith(f"$.{name}")
    with pytest.raises(ConfigInvalid):
        _build(name, bad)


def test_abort_removes_only_the_empty_parents_it_made(tmp_path):
    # a failed run used to leave the missing parents of its target behind
    (tmp_path / "a").mkdir()
    rundir = runio.RunDirectory(tmp_path / "a" / "b" / "c" / "run")
    (tmp_path / "a" / "b" / "other.txt").write_text("not the run's")
    rundir.abort()
    assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["other.txt"]


def test_place_keeps_the_parents_it_made(tmp_path):
    rundir = runio.RunDirectory(tmp_path / "new" / "k.csv", replace=True)
    rundir.register("k.csv").write_text("x\n")
    rundir.place({"k.csv": tmp_path / "new" / "k.csv"})
    assert [p.name for p in (tmp_path / "new").iterdir()] == ["k.csv"]
