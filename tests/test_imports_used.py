"""Every name a tensormin module imports is used there or exported in its
``__all__``: a refactor that leaves a dead import behind fails here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tensormin"

# Imported for a reason the module's own code does not show.
ALLOWED = {
    # perfbench/spans.py rebinds tensormin.accel.run_inner, so the name must
    # exist in accel's namespace although accel no longer calls it.
    ("accel.py", "run_inner"),
}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    dead = [name for name in imported_names(tree)
            if name not in used and (path.name, name) not in ALLOWED]
    assert dead == [], "%s imports unused names %s" % (path.name, dead)
