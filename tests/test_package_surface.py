"""Dead-name guard: every public name defined in src/stratwave is used there.

A public top-level function or class, or a public method of a public class,
must be referenced (as a name or an attribute) somewhere in the package
outside its own definition and outside __init__.py, whose exports do not
count as use.  A name the package keeps for callers outside it goes in
ALLOWED with the reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stratwave"

#: public names kept without a caller in the package, and why
ALLOWED = {
    "to_spectral": "the full-spectrum forward transform; the oracle tests "
                   "compare against it and bench/test_bench.py traces it",
    "DispersionSymbol.custom": "the custom-symbol API for library users",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) for public top-level defs and their methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _unused_names(package: Path = PACKAGE) -> list:
    definitions, references = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [(path, name, node) for name, node in _public_definitions(tree)]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((path, node.attr, node.lineno))
    unused = []
    for path, name, node in definitions:
        short = name.rsplit(".", 1)[-1]
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(ref == short and not (ref_path == path and line in inside)
                   for ref_path, ref, line in references):
            unused.append(name)
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    unused = _unused_names()
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allowlist entry that gained a caller is stale
    assert sorted(set(ALLOWED) - set(unused)) == []


def test_guard_sees_an_unused_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return unused\n\n\n"
        "class Box:\n    def get(self):\n        return used()\n\n"
        "    def _hidden(self):\n        return 0\n\n\nBox().get()\n")
    (tmp_path / "__init__.py").write_text("from .mod import unused\n")
    assert _unused_names(tmp_path) == ["unused"]
