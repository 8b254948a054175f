"""Dead-code check for the whole package: every module-level function, class
and method defined anywhere under ``src/repro`` — each subpackage and the
top-level modules (``errors.py``, ``jobs.py``) — is referenced somewhere
outside its own definition, in ``src/``, ``tests/``, ``benchmarks/`` or
``examples/``.

A reference is an identifier as code uses it — a name, an attribute, an
imported name — or a string constant equal to it (``getattr`` by name).
Dunder methods are called by the interpreter and are not checked.

Every field of a ``@dataclass`` under ``src/repro`` is *read* somewhere in
``src/``, ``benchmarks/`` or ``examples/``, or named in ``docs/`` as public
API.  A read is a load of a name or attribute, or a string constant equal
to the field's name (``getattr``, an ``asdict`` key).  A keyword argument
at a call site, an assignment and an augmented assignment are writes.  A
test reading a field does not count: a field only tests read is state the
program carries for nobody, unless ``docs/`` documents it.

Run it directly to list the orphans::

    PYTHONPATH=src python tests/tools/test_unreferenced.py
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
CHECKED = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "benchmarks", "examples")
FIELD_READERS = ("src", "benchmarks", "examples")
DOCS = ROOT / "docs"

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


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def dataclass_fields(path: Path, tree: ast.Module) -> List[Definition]:
    """The annotated fields of every ``@dataclass`` class, as ``Class.field``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    out.append((f"{node.name}.{item.target.id}", path, item.lineno, item.end_lineno))
    return out


def reads(tree: ast.Module) -> Dict[str, List[int]]:
    """Line numbers at which each identifier's value is read."""
    out: Dict[str, List[int]] = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id].append(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr].append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out[node.value].append(node.lineno)
    return out


def documented() -> Set[str]:
    """Every identifier inside a backtick code span in ``docs/``."""
    names: Set[str] = set()
    for path in DOCS.rglob("*.md"):
        for span in re.findall(r"`([^`]+)`", path.read_text()):
            names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def unread_fields() -> List[str]:
    """``file:line Class.field`` of every dataclass field nothing reads."""
    found: Dict[Path, Dict[str, List[int]]] = {}
    defs: List[Definition] = []
    for top in FIELD_READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found[path] = reads(tree)
            if CHECKED in path.parents:
                defs.extend(dataclass_fields(path, tree))
    docs = documented()
    orphans = []
    for qualname, path, first, last in defs:
        name = qualname.rsplit(".", 1)[-1]
        used = name in docs or any(
            not (where == path and first <= line <= last)
            for where, names in found.items()
            for line in names.get(name, ())
        )
        if not used:
            orphans.append(f"{path.relative_to(ROOT)}:{first} {qualname}")
    return orphans


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


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


if __name__ == "__main__":
    print("\n".join(unreferenced()) or "no unreferenced definitions")
    print("\n".join(unread_fields()) or "no unread dataclass fields")
