"""Every top-level function and class of the package has a reader in ``src/``."""

import ast
import shutil
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def dead_names(root: Path) -> list[str]:
    """``module:name`` of each top-level ``def`` and ``class`` in ``root/mfrde/*.py``
    that no code under ``root`` reads (an AST ``Name``, ``Attribute`` or import
    alias) and no ``__all__`` under ``root`` lists."""
    defined, used = [], set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.parent == root / "mfrde":
            defined += [(path.stem, node.name) for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update({node.name.rpartition(".")[2], node.asname})
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
    return [f"{module}:{name}" for module, name in defined if name not in used]


def test_every_top_level_name_is_read():
    assert dead_names(SRC) == []


def test_a_planted_helper_is_found(tmp_path):
    shutil.copytree(SRC / "mfrde", tmp_path / "mfrde",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "mfrde" / "geometry.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _planted_helper(x):\n    return x\n")
    assert dead_names(tmp_path) == ["geometry:_planted_helper"]
