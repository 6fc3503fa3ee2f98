"""Which dyadic cells share leaf ids is decided in ``geometry`` alone.

A forest's tables and geometry's code-to-id helpers are read only in
``geometry.py``; every other module takes the common refinement from
``geometry._refinement``.  So is the bordered cell table's layout: its
per-axis edges and the index into it stay in ``geometry``, and other
modules build the table with ``geometry._bordered`` and read it with
``geometry._lookup``.  The median kernel derives the median rank from
the counts it is given, so no function takes it as an argument, and a
model derives its dropped tail from ``n``, ``S`` and ``m``.
"""

import ast
import dataclasses
import shutil
from pathlib import Path

from mfrde.estimator import FittedMFRDE

SRC = Path(__file__).resolve().parents[1] / "src"
# Forest tables and the helpers that read them, private to geometry.
GEOMETRY_ONLY = {"_leaf_table", "_level_base", "_bit_table", "_edges",
                 "_ids_of_codes", "_corner_sources", "_bordered_index"}


def geometry_leaks(root: Path) -> list[str]:
    """``module:name`` of each read of a ``GEOMETRY_ONLY`` name (an AST ``Name``,
    ``Attribute`` or import alias) in ``root/mfrde/*.py`` other than geometry."""
    leaks = []
    for path in sorted((root / "mfrde").glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in GEOMETRY_ONLY:
                leaks.append(f"{path.stem}:{name}")
    return leaks


def package_trees(root: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted((root / "mfrde").glob("*.py"))}


def test_only_geometry_reads_forest_tables():
    assert geometry_leaks(SRC) == []


def test_a_planted_table_read_is_found(tmp_path):
    shutil.copytree(SRC / "mfrde", tmp_path / "mfrde",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "mfrde" / "estimator.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _planted(forest):\n    return forest._leaf_table\n")
    assert geometry_leaks(tmp_path) == ["estimator:_leaf_table"]


def test_each_top_level_name_is_defined_once():
    # one lattice iterator, one corner pass: no module keeps its own copy
    modules: dict[str, list[str]] = {}
    for module, tree in package_trees(SRC).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                modules.setdefault(node.name, []).append(module)
    assert modules["_lattice"] == ["geometry"]
    assert {name: where for name, where in modules.items() if len(where) > 1} == {}


def test_no_function_takes_a_median_rank():
    taking = [f"{module}:{node.name}" for module, tree in package_trees(SRC).items()
              for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and "rank" in {a.arg for a in node.args.args + node.args.kwonlyargs}]
    assert taking == []


def test_dropped_is_no_init_field():
    assert "dropped" not in {f.name for f in dataclasses.fields(FittedMFRDE) if f.init}
