"""No dead top-level helpers in the package.

A top-level function, class or constant of src/sparseblp that nothing in
src, tests or pipebench refers to, beside its own definition, is a dead
helper. A reference is a name, an attribute, an import, or a string equal
to the name (pipebench's SITES name what it wraps so).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPE = ("src", "tests", "pipebench")


def dead_helpers(root: Path) -> list[str]:
    """'path: name' of every dead top-level helper under root/src/sparseblp."""
    trees = {f.relative_to(root): ast.parse(f.read_text()) for d in SCOPE for f in (root / d).rglob("*.py")}
    defs, targets = {}, set()
    for f, tree in trees.items():
        if f.parts[:2] != ("src", "sparseblp"):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = f
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(t, ast.Name) and not t.id.startswith("__"):
                        defs[t.id] = f
                        targets.add(id(t))
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in targets:
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name.rpartition(".")[2], node.asname))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return sorted(f"{defs[name]}: {name}" for name in defs.keys() - used)


def test_every_top_level_helper_is_referenced():
    assert dead_helpers(ROOT) == []
