"""Dead-code check for the whole package: every module-level function, class
and method defined anywhere under ``src/repro`` — each subpackage and the
top-level modules (``errors.py``, ``jobs.py``) — is referenced somewhere
outside its own definition, in ``src/``, ``tests/``, ``benchmarks/`` or
``examples/``.

A reference is an identifier as code uses it — a name, an attribute, an
imported name — or a string constant equal to it (``getattr`` by name).
Dunder methods are called by the interpreter and are not checked.  Run it
directly to list the orphans::

    PYTHONPATH=src python tests/tools/test_unreferenced.py
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
CHECKED = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples")

Definition = Tuple[str, Path, int, int]  # (qualified name, file, first line, last line)


def definitions(path: Path, tree: ast.Module) -> List[Definition]:
    """Module-level functions and classes, and the methods of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, path, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                    if not (name.startswith("__") and name.endswith("__")):
                        out.append((f"{node.name}.{name}", path, item.lineno, item.end_lineno))
    return out


def references(tree: ast.Module) -> Dict[str, List[int]]:
    """Line numbers at which each identifier is used."""
    out: Dict[str, List[int]] = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id].append(node.lineno)
        elif isinstance(node, ast.Attribute):
            out[node.attr].append(node.lineno)
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]].append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out[node.value].append(node.lineno)
    return out


def unreferenced() -> List[str]:
    """``file:line name`` of every checked definition nobody refers to."""
    refs: Dict[Path, Dict[str, List[int]]] = {}
    defs: List[Definition] = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            refs[path] = references(tree)
            if CHECKED in path.parents:
                defs.extend(definitions(path, tree))
    orphans = []
    for qualname, path, first, last in defs:
        name = qualname.rsplit(".", 1)[-1]
        used = any(
            not (where == path and first <= line <= last)
            for where, names in refs.items()
            for line in names.get(name, ())
        )
        if not used:
            orphans.append(f"{path.relative_to(ROOT)}:{first} {qualname}")
    return orphans


def test_every_definition_is_referenced():
    assert unreferenced() == []


if __name__ == "__main__":
    print("\n".join(unreferenced()) or "no unreferenced definitions")
