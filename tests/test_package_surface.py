"""Dead-name guard: every public name defined in src/stratwave is used there.

A public top-level function or class, or a public method of a public class,
must be referenced (as a name or an attribute) somewhere in the package
outside its own definition and outside __init__.py, whose exports do not
count as use.  A public field of a public class, an annotated class
attribute or a `self.<name> =` assignment in one of its methods, must be
read as an attribute (`obj.<name>`) somewhere in the package.  A name the
package keeps for callers outside it goes in ALLOWED with the reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stratwave"

#: public names kept without a caller in the package, and why
ALLOWED = {
    "to_spectral": "the full-spectrum forward transform; the oracle tests "
                   "compare against it and bench/test_bench.py traces it",
    "DispersionSymbol.custom": "the custom-symbol API for library users",
    "ConfigInvalid.path": "where in a config the error sits, for library callers; "
                          "tests/test_runio.py and tests/test_solver.py read it",
}


def _fields(cls: ast.ClassDef):
    """(name, statement) for each annotated class attribute of cls and each
    `self.<name> =` assignment in its methods."""
    for sub in cls.body:
        if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
            yield sub.target.id, sub
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    yield target.attr, node


def _public_definitions(tree: ast.Module):
    """(qualified name, node, is_field) for public top-level defs, their
    methods and their fields, each once."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, False
            seen = set()
            for name, stmt in _fields(node):
                if not name.startswith("_") and name not in seen:
                    seen.add(name)
                    yield f"{node.name}.{name}", stmt, True


def _unused_names(package: Path = PACKAGE) -> list:
    definitions, references = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [(path, *found) for found in _public_definitions(tree)]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path, node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                references.append((path, node.attr, node.lineno,
                                   isinstance(node.ctx, ast.Load)))
    unused = []
    for path, name, node, is_field in definitions:
        short = name.rsplit(".", 1)[-1]
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(ref == short and (read or not is_field)
                   and not (ref_path == path and line in inside)
                   for ref_path, ref, line, read in references):
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


def test_guard_sees_an_unused_field(tmp_path):
    # a field counts as used only when read as an attribute: the module-level
    # name `label` and the keyword `dropped=` are not reads
    (tmp_path / "mod.py").write_text(
        "class Box:\n    size: int\n    label: str\n\n"
        "    def __init__(self, dropped=0):\n        self.kept = 1\n"
        "        self.dropped = dropped\n        self._hidden = 2\n        self.kept += 1\n\n"
        "    def get(self):\n        return self.size + self.kept\n\n\n"
        "label = 'a name'\nBox(dropped=1).get()\n")
    assert _unused_names(tmp_path) == ["Box.label", "Box.dropped"]
