"""Every name a tensormin module, test file or demo imports is used there or
exported in its ``__all__``: a refactor that leaves a dead import behind
fails here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tensormin"
FILES = [path for folder in (PACKAGE, ROOT / "tests", ROOT / "demos")
         for path in sorted(folder.glob("*.py"))]

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


def file_id(path):
    """A package module by its name, any other file by its path."""
    return path.name if path.parent == PACKAGE else str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", FILES, ids=file_id)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    dead = [name for name in imported_names(tree)
            if name not in used and (file_id(path), name) not in ALLOWED]
    assert dead == [], "%s imports unused names %s" % (file_id(path), dead)
