"""The package's lazy exports: `import stratwave` loads no submodule, and
each public name is resolved from its submodule on every access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratwave

SRC = str(Path(stratwave.__file__).resolve().parents[1])


def _loaded_after(code: str) -> set:
    """The stratwave and numpy modules a fresh interpreter holds after code."""
    probe = (f"{code}\nimport sys\n"
             "print(' '.join(m for m in sys.modules "
             "if m.split('.')[0] in ('stratwave', 'numpy')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import stratwave") == {"stratwave"}


def test_version_needs_no_submodule():
    assert _loaded_after("import stratwave; stratwave.__version__") == {"stratwave"}


def test_a_name_loads_its_submodule_and_what_it_imports():
    loaded = _loaded_after("from stratwave import StratwaveError")
    assert {m for m in loaded if m.startswith("stratwave")} == {"stratwave",
                                                                "stratwave.errors"}


def test_runio_loads_no_other_submodule_and_no_numpy():
    # the schemas live beside their readers, so the validator and run
    # directories import only errors and the package's __version__
    assert _loaded_after("import stratwave.runio") == {"stratwave", "stratwave.errors",
                                                        "stratwave.runio"}


def test_cli_does_not_load_the_acceptance_suite():
    loaded = _loaded_after("import stratwave.cli")
    assert "stratwave.cli" in loaded and "stratwave.acceptance" not in loaded


def test_every_exported_name_is_its_submodules_object():
    assert len(stratwave.__all__) == len(set(stratwave.__all__)) == 52
    listed = dir(stratwave)
    for name in stratwave.__all__:
        home = importlib.import_module(f"stratwave.{stratwave._HOME[name]}")
        assert getattr(stratwave, name) is getattr(home, name), name
        assert name in listed


def test_star_import_gives_the_exported_names():
    namespace = {}
    exec("from stratwave import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stratwave.__all__)


def test_submodules_are_attributes():
    code = "import stratwave; stratwave.runio.RunDirectory; stratwave.solver.solve"
    assert {"stratwave.runio", "stratwave.solver"} <= _loaded_after(code)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'stratwave' has no attribute 'no_such_name'"):
        stratwave.no_such_name
    with pytest.raises(ImportError):
        from stratwave import no_such_name  # noqa: F401
    assert not hasattr(stratwave, "_no_such_private")


def test_a_patched_binding_is_what_the_package_returns(monkeypatch):
    import stratwave.solver as solver_module

    def patched(*args, **kwargs):
        raise AssertionError("not called")

    original = stratwave.solve
    monkeypatch.setattr(solver_module, "solve", patched)
    assert stratwave.solve is patched
    monkeypatch.undo()
    # nothing cached: the restored original is seen again
    assert stratwave.solve is original is solver_module.solve
    assert "solve" not in vars(stratwave)
