"""Nothing under ``src/repro`` lives without a non-test user, and tier-1 keeps
it so.  Seven checks share one parse of the tree (:func:`tree`):

1. Every module-level function, class and method — in each subpackage and
   the top-level modules (``errors.py``, ``jobs.py``) — is referenced
   somewhere outside its own definition, in ``src/``, ``tests/``,
   ``benchmarks/`` or ``examples/``.
2. A definition referenced only from ``tests/`` is named in the "Kept for
   tests" table of ``docs/API.md``, which says why it stays.
3. Every ``Class.member`` that ``docs/API.md`` names in a code span exists:
   a method, property, field, class attribute or ``self.`` attribute of
   that class or of a base.
4. Every field of a ``@dataclass`` is *read* in ``src/``, ``benchmarks/`` or
   ``examples/``, or named in ``docs/`` as public API.  A read is a load of
   a name or attribute, or a string constant equal to the field's name
   (``getattr``, an ``asdict`` key); a test reading a field does not count.
5. Every defaulted dataclass field is *set* by non-test code — a keyword or
   positional constructor argument, an attribute store or a string key —
   or named in the "Kept for tests" table.  A default that nothing
   overrides is a constant, not a knob.  Out of scope: ``CostModel`` and
   ``DeviceProfile`` fields (what-if components: every cost and device
   parameter is a knob by design), ``FaultSpec`` fields (an input format
   loaded from JSON) and ``field(default_factory=...)`` accumulators.
6. Every defaulted parameter of a function, method or constructor is
   *passed* by a non-test call — by keyword, by position or through a
   ``**`` splat — or named ``Func(param=)`` in the kept table.  Out of
   scope: ``main(argv=)`` and the ``storage/profiles.py`` device factories
   (device parameters are what-if knobs, as in check 5).
7. Every attribute a method under ``src/repro`` stores on ``self`` is *read*
   as an attribute (``obj.attr``, or ``getattr`` by a string constant) in
   ``src/``, ``benchmarks/`` or ``examples/``, or named in the "Kept for
   tests" table.  A counter that only ``+=`` touches and only tests read
   is work the measured path pays for nothing; so is a list that only
   ``self.attr.append(...)`` statements touch.

One more test checks the "Never run, kept because" table of docs/API.md,
which ``line_coverage.py`` gates on: every function a row names exists.

Checks 5 and 6 match a setter to its callee, not to a bare name.  A keyword
``k=`` counts for field ``C.k`` or parameter ``f(k=)`` only when the call
reaches that callee: it calls the name (``C``, ``f``, or ``obj.f`` for a
method), or it is ``cls(...)`` inside ``C``, ``super().__init__(...)`` in a
subclass of ``C`` or, for a field, ``dataclasses.replace``.  A keyword given
to a ``**kwargs`` function that has no parameter ``k`` of its own counts for
what that function's ``**`` splats call (``ScalePreset.options`` forwards
to ``Options``).  A ``self.k = ...`` store counts for its own class only.  A
call through a variable (``run_cls(seed, config)``) reaches nothing the
checker can name, so the kept table names what it passes.

A reference is an identifier as code uses it — a name, an attribute, an
imported name — or a string constant equal to it (``getattr`` by name).  A
re-export in a package ``__init__.py`` and an ``__all__`` entry are not
uses.  Dunder methods are called by the interpreter and are not checked,
except that check 6 reads ``__init__`` as its class's constructor.

Run it directly to list the findings::

    PYTHONPATH=src python tests/tools/test_unreferenced.py
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SEARCHED = ("src", "tests", "benchmarks", "examples")
FIELD_READERS = ("src", "benchmarks", "examples")
KEPT_HEADING = "## Kept for tests"
FIELD_RULE_EXEMPT = {"CostModel", "DeviceProfile", "FaultSpec"}
PARAM_RULE_EXEMPT_FILES = ("src/repro/storage/profiles.py",)  # the device factories
GROWERS = {"append", "extend", "add", "update"}

Definition = Tuple[str, Path, int, int]  # (qualified name, file, first line, last line)
Uses = Dict[str, List[Tuple[Path, int]]]  # identifier -> (file, line) of each use


class Signature(NamedTuple):
    """A function, method or constructor under ``src/repro``, as calls see it."""

    qualname: str  # ``f``, ``C.m``, or ``C`` for ``C.__init__``
    callee: str  # the name a call reaches it by: ``f``, ``m`` or ``C``
    path: Path
    node: ast.FunctionDef
    positional: List[str]  # what positional arguments fill, ``self`` / ``cls`` dropped
    params: Set[str]
    forwards: bool  # takes ``**kwargs``


class Call(NamedTuple):
    callee: str  # the name called, or the class ``cls(...)`` / ``super().__init__`` reaches
    node: ast.Call
    path: Path
    splat_own: Set[str]  # the enclosing function's own ``**kwargs`` name, if any


def _code_spans(text: str) -> List[str]:
    return re.findall(r"`([^`]+)`", text)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _name_of(node: ast.expr) -> str:
    """The name a class is called or subclassed by: ``C`` or ``mod.C``."""
    return getattr(node, "id", None) or getattr(node, "attr", "")


def _grows(node: ast.expr) -> bool:
    """Whether ``node`` is ``obj.name.append(...)`` (or ``extend``, ``add``,
    ``update``): a call that only grows a container, not a read of it."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in GROWERS
        and isinstance(node.func.value, ast.Attribute)
    )


def _reexports(path: Path, module: ast.Module) -> Set[int]:
    """``id()`` of the nodes that only re-export a name: the imported names
    of a package ``__init__.py`` and everything inside ``__all__``."""
    skip: Set[int] = set()
    for node in ast.walk(module):
        if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
            skip.update(id(alias) for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                skip.update(id(sub) for sub in ast.walk(node.value))
    return skip


class Tree:
    """One parse of a checkout and the use indexes the seven checks read."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.checked = root / "src" / "repro"
        self.tests = root / "tests"
        self.references: Uses = defaultdict(list)
        self.reads: Uses = defaultdict(list)
        self.attr_reads: Uses = defaultdict(list)  # loads of ``obj.name`` and string constants
        self.grown: Set[int] = set()  # id() of each ``obj.name`` in an ``obj.name.append(...)`` statement
        self.sets: Uses = defaultdict(list)  # string keys and stores on other than ``self``
        # attribute -> (class, file, line) of each ``self.attribute`` store in a method
        self.self_sets: Dict[str, List[Tuple[str, Path, int]]] = defaultdict(list)
        # keyword -> (callee, file, line) of each keyword that a ``**kwargs``
        # function without that parameter passes on to ``callee``
        self.forwarded: Dict[str, List[Tuple[str, Path, int]]] = defaultdict(list)
        self.splat_callees: Dict[int, Set[str]] = defaultdict(set)  # by id() of a function
        self.definitions: List[Definition] = []
        self.signatures: List[Signature] = []
        self.calls: Dict[str, List[Call]] = defaultdict(list)  # by callee
        self.classes: Dict[str, List[ast.ClassDef]] = defaultdict(list)  # by name
        self.class_files: List[Tuple[Path, ast.ClassDef]] = []
        modules = {}
        for top in SEARCHED:
            if (root / top).is_dir():
                for path in sorted((root / top).rglob("*.py")):
                    modules[path] = ast.parse(path.read_text(), filename=str(path))
        self.test_files = {path for path in modules if self.tests in path.parents}
        for path, module in modules.items():
            if self.checked in path.parents:
                self._define(path, module)
        for path, module in modules.items():
            readers = any(self.root / top in path.parents for top in FIELD_READERS)
            self._index(path, module, _reexports(path, module), readers, None, None)
        by_callee = defaultdict(list)
        for sig in self.signatures:
            by_callee[sig.callee].append(sig)
        for callee, calls in self.calls.items():
            sigs = by_callee.get(callee)
            if sigs and all(sig.forwards for sig in sigs):
                targets = set().union(*(self.splat_callees[id(sig.node)] for sig in sigs))
                for call in calls:
                    for kw in call.node.keywords:
                        if kw.arg and not any(kw.arg in sig.params for sig in sigs):
                            for target in targets:
                                self.forwarded[kw.arg].append((target, call.path, kw.value.lineno))
        api = root / "docs" / "API.md"
        self.api = api.read_text() if api.exists() else ""
        self.documented = {
            name
            for doc in (root / "docs").rglob("*.md")
            for span in _code_spans(doc.read_text())
            for name in re.findall(r"[A-Za-z_]\w*", span)
        }
        kept = self.api.split(KEPT_HEADING, 1)[1].split("\n## ", 1)[0] if KEPT_HEADING in self.api else ""
        self.kept = {
            name
            for span in _code_spans(kept)
            if "(" not in span
            for name in re.findall(r"[A-Za-z_]\w*(?:\.\w+)?", span)
        }
        self.kept_params = {
            f"{func}({param}=)"
            for span in _code_spans(kept)
            for func, params in re.findall(r"([A-Za-z_][\w.]*)\(([^)]*)\)", span)
            for param in re.findall(r"(\w+)=", params)
        }

    def is_test(self, path: Path) -> bool:
        return path in self.test_files

    def where(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def _define(self, path: Path, module: ast.Module) -> None:
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.definitions.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._sign(node.name, node.name, path, node, bound=False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = item.name
                        bound = "staticmethod" not in {_name_of(d) for d in item.decorator_list}
                        if name == "__init__":
                            self._sign(node.name, node.name, path, item, bound)
                        elif not (name.startswith("__") and name.endswith("__")):
                            self.definitions.append(
                                (f"{node.name}.{name}", path, item.lineno, item.end_lineno)
                            )
                            self._sign(f"{node.name}.{name}", name, path, item, bound)
        for node in ast.walk(module):
            if isinstance(node, ast.ClassDef):
                self.classes[node.name].append(node)
                self.class_files.append((path, node))

    def _sign(self, qualname: str, callee: str, path: Path, node: ast.FunctionDef, bound: bool) -> None:
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args][1 if bound else 0 :]
        params = set(positional) | {a.arg for a in args.kwonlyargs}
        self.signatures.append(
            Signature(qualname, callee, path, node, positional, params, args.kwarg is not None)
        )

    def _index(
        self,
        path: Path,
        node: ast.AST,
        skip: Set[int],
        readers: bool,
        cls: Optional[ast.ClassDef],
        fn: Optional[ast.FunctionDef],
    ) -> None:
        """Index every node under ``node``: its references and reads, its
        attribute stores (a ``self.`` one under its class), each call by
        the name of what it calls, and what each function's ``**`` splats
        call (where its ``**kwargs`` go).  ``skip`` holds the re-export
        nodes; ``cls`` and ``fn`` are the enclosing class and function."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Expr) and _grows(child.value):
                self.grown.add(id(child.value.func.value))
            if id(child) not in skip:
                self._use(path, child, readers, cls)
            if isinstance(child, ast.Call):
                kwarg = fn.args.kwarg if fn is not None else None
                call = _resolve(path, child, cls, {kwarg.arg} if kwarg else set())
                self.calls[call.callee].append(call)
                if fn is not None and any(kw.arg is None for kw in child.keywords):
                    self.splat_callees[id(fn)].add(call.callee)
            if isinstance(child, ast.ClassDef):
                self._index(path, child, skip, readers, child, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index(path, child, skip, readers, cls, child)
            else:
                self._index(path, child, skip, readers, cls, fn)

    def _use(self, path: Path, node: ast.AST, readers: bool, cls: Optional[ast.ClassDef]) -> None:
        name, ctx = None, None
        if isinstance(node, ast.Name):
            name, ctx = node.id, node.ctx
        elif isinstance(node, ast.Attribute):
            name, ctx = node.attr, node.ctx
            if isinstance(ctx, ast.Store):
                if cls is not None and getattr(node.value, "id", None) == "self":
                    self.self_sets[name].append((cls.name, path, node.lineno))
                else:
                    self.sets[name].append((path, node.lineno))
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                name, ctx = node.value, ast.Load()
                self.sets[name].append((path, node.lineno))
        if name is None:
            return
        self.references[name].append((path, node.lineno))
        if readers and isinstance(ctx, ast.Load):
            self.reads[name].append((path, node.lineno))
            if not isinstance(node, ast.Name) and id(node) not in self.grown:
                self.attr_reads[name].append((path, node.lineno))

    def non_test_calls(self, callee: str, path: Path, first: int, last: int) -> List[Call]:
        """The non-test calls of ``callee`` outside lines ``first..last`` of ``path``."""
        return [
            call
            for call in self.calls.get(callee, ())
            if not self.is_test(call.path) and not (call.path == path and first <= call.node.lineno <= last)
        ]

    def forwards_to(self, keyword: str, callees: Set[str], path: Path, first: int, last: int) -> bool:
        """Whether non-test code outside lines ``first..last`` of ``path``
        passes ``keyword`` to a ``**kwargs`` function that splats it into
        one of ``callees``."""
        return any(
            target in callees and not self.is_test(p) and not (p == path and first <= line <= last)
            for target, p, line in self.forwarded.get(keyword, ())
        )

    def outside(self, uses: Uses, name: str, path: Path, first: int, last: int):
        """The uses of ``name`` outside lines ``first..last`` of ``path``."""
        return [(p, line) for p, line in uses.get(name, ()) if not (p == path and first <= line <= last)]


def _resolve(path: Path, node: ast.Call, cls: Optional[ast.ClassDef], own: Set[str]) -> Call:
    """A call with its callee named: ``cls(...)`` inside a class calls that
    class, ``super().__init__(...)`` its first base."""
    callee = _name_of(node.func)
    if cls is not None and isinstance(node.func, ast.Name) and callee == "cls":
        callee = cls.name
    elif cls is not None and callee == "__init__" and cls.bases:
        callee = _name_of(cls.bases[0])
    return Call(callee, node, path, own)


def _passes(call: Call, positional: List[str], param: str, splat: bool = True) -> bool:
    """Whether ``call`` passes ``param``: by keyword, by position (a
    ``*args`` splat fills every later position) or, if ``splat``, through a
    ``**`` splat (but a splat of the caller's own ``**kwargs`` forwards what
    its callers passed, which :attr:`Tree.forwarded` counts)."""
    for kw in call.node.keywords:
        if kw.arg == param:
            return True
        if kw.arg is None and splat:
            value = kw.value
            if not (isinstance(value, ast.Name) and value.id in call.splat_own):
                return True
    if param in positional:
        index = positional.index(param)
        args = call.node.args[: index + 1]
        return any(isinstance(arg, ast.Starred) or i == index for i, arg in enumerate(args))
    return False


def dataclass_fields(tree: Tree, cls: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    """A dataclass's fields in ``__init__`` order, inherited ones first."""
    out: List[Tuple[str, ast.AnnAssign]] = []
    for base in cls.bases:
        for parent in tree.classes.get(_name_of(base), ()):
            if parent is not cls and _is_dataclass(parent):
                out.extend(dataclass_fields(tree, parent))
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if "ClassVar" not in ast.unparse(item.annotation):
                out.append((item.target.id, item))
    return out


def _has_plain_default(item: ast.AnnAssign) -> bool:
    value = item.value
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", getattr(value.func, "attr", "")) == "field":
        return not any(k.arg == "default_factory" for k in value.keywords)
    return True


@functools.lru_cache(maxsize=None)
def tree(root: Path = ROOT) -> Tree:
    return Tree(root)


def _own_fields(t: Tree) -> Iterator[Tuple[str, Path, ast.AnnAssign]]:
    """``(Class.field, file, node)`` for every field declared under ``src/repro``."""
    for path, cls in t.class_files:
        if _is_dataclass(cls):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{cls.name}.{item.target.id}", path, item


def unreferenced(root: Path = ROOT) -> List[str]:
    """Check 1: ``file:line name`` of every definition nothing refers to."""
    t = tree(root)
    return [
        f"{t.where(path)}:{first} {qualname}"
        for qualname, path, first, last in t.definitions
        if not t.outside(t.references, qualname.rsplit(".", 1)[-1], path, first, last)
    ]


def undocumented_test_only(root: Path = ROOT) -> List[str]:
    """Check 2: definitions only tests use that the kept table does not name."""
    t = tree(root)
    out = []
    for qualname, path, first, last in t.definitions:
        uses = t.outside(t.references, qualname.rsplit(".", 1)[-1], path, first, last)
        if uses and all(t.is_test(p) for p, _ in uses) and qualname not in t.kept:
            out.append(f"{t.where(path)}:{first} {qualname}")
    return out


def _members(t: Tree, cls_name: str, seen: frozenset = frozenset()) -> Set[str]:
    """What ``Class.member`` can name: the methods, class attributes and
    fields of every class so named, the ``self.`` attributes its methods
    store, and the same of its bases."""
    names: Set[str] = set()
    if cls_name in seen:
        return names
    for cls in t.classes.get(cls_name, ()):
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names.update(target.id for target in targets if isinstance(target, ast.Name))
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if getattr(node.value, "id", None) == "self":
                    names.add(node.attr)
        for base in cls.bases:
            names |= _members(t, _name_of(base), seen | {cls_name})
    return names


def stale_documented_members(root: Path = ROOT) -> List[str]:
    """Check 3: ``Class.member`` names in ``docs/API.md`` that do not exist."""
    t = tree(root)
    out = []
    for span in _code_spans(t.api):
        for cls_name, member in re.findall(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)", span):
            if cls_name not in t.classes and cls_name.isupper():
                continue  # not a class name: ``EXPERIMENTS.md``
            if member not in _members(t, cls_name):
                out.append(f"docs/API.md {cls_name}.{member}")
    return sorted(set(out))


def unread_fields(root: Path = ROOT) -> List[str]:
    """Check 4: ``file:line Class.field`` of every dataclass field nothing reads."""
    t = tree(root)
    out = []
    for qualname, path, item in _own_fields(t):
        name = qualname.rsplit(".", 1)[-1]
        if name not in t.documented and not t.outside(t.reads, name, path, item.lineno, item.end_lineno):
            out.append(f"{t.where(path)}:{item.lineno} {qualname}")
    return out


def unset_fields(root: Path = ROOT) -> List[str]:
    """Check 5: defaulted fields no non-test code sets and the kept table
    does not name."""
    t = tree(root)
    out = []
    for qualname, path, item in _own_fields(t):
        cls_name, name = qualname.split(".")
        if cls_name in FIELD_RULE_EXEMPT or not _has_plain_default(item) or qualname in t.kept:
            continue
        first, last = item.lineno, item.end_lineno
        fields = [f for f, _ in dataclass_fields(t, t.classes[cls_name][0])]
        constructed = t.non_test_calls(cls_name, path, first, last)
        replaced = t.non_test_calls("replace", path, first, last)
        if not (
            any(not t.is_test(p) for p, _ in t.outside(t.sets, name, path, first, last))
            or any(owner == cls_name and not t.is_test(p) for owner, p, _ in t.self_sets.get(name, ()))
            or any(_passes(call, fields, name, splat=False) for call in constructed)
            or any(_passes(call, [], name, splat=False) for call in replaced)
            or t.forwards_to(name, {cls_name, "replace"}, path, first, last)
        ):
            out.append(f"{t.where(path)}:{item.lineno} {qualname}")
    return out


def _defaulted(node: ast.FunctionDef) -> Iterator[Tuple[str, int]]:
    """``(parameter, line)`` of every parameter of ``node`` with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
    pairs += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    for arg, _ in pairs:
        yield arg.arg, arg.lineno


def unpassed_params(root: Path = ROOT) -> List[str]:
    """Check 6: ``file:line Func(param=)`` of every defaulted parameter no
    non-test call passes and the kept table does not name."""
    t = tree(root)
    out = []
    for sig in t.signatures:
        if t.where(sig.path) in PARAM_RULE_EXEMPT_FILES:
            continue
        first, last = sig.node.lineno, sig.node.end_lineno
        calls = t.non_test_calls(sig.callee, sig.path, first, last)
        for param, line in _defaulted(sig.node):
            finding = f"{sig.qualname}({param}=)"
            if (sig.qualname, param) == ("main", "argv") or finding in t.kept_params:
                continue
            if any(_passes(call, sig.positional, param) for call in calls):
                continue
            if t.forwards_to(param, {sig.callee}, sig.path, first, last):
                continue
            out.append(f"{t.where(sig.path)}:{line} {finding}")
    return out


def unread_attributes(root: Path = ROOT) -> List[str]:
    """Check 7: ``file:line Class.attr`` of every attribute stored on
    ``self`` under ``src/repro`` that non-test code never reads and the
    kept table does not name (one finding per class and attribute)."""
    t = tree(root)
    out = {}
    for name, stores in t.self_sets.items():
        if t.attr_reads.get(name):
            continue
        for cls_name, path, line in stores:
            qualname = f"{cls_name}.{name}"
            if t.checked in path.parents and qualname not in t.kept:
                out.setdefault(qualname, f"{t.where(path)}:{line} {qualname}")
    return sorted(out.values())


CHECKS = (
    unreferenced,
    undocumented_test_only,
    stale_documented_members,
    unread_fields,
    unset_fields,
    unpassed_params,
    unread_attributes,
)


def test_every_definition_is_referenced():
    assert unreferenced() == []


def test_test_only_definitions_are_documented():
    assert undocumented_test_only() == []


def test_documented_members_exist():
    assert stale_documented_members() == []


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_every_defaulted_field_is_set():
    assert unset_fields() == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_params() == []


def test_every_stored_attribute_is_read():
    assert unread_attributes() == []


def test_never_run_rows_name_existing_functions():
    from tests.tools.line_coverage import function_lines, kept_rows

    rows = kept_rows()
    stale = []
    for files, names, _why in rows:
        paths = [ROOT / "src" / "repro" / rel for rel in files]
        stale += [str(path) for path in paths if not path.is_file()]
        defined = {key[2] for path in paths if path.is_file() for key in function_lines(path)}
        stale += [f"{files} {name}" for name in names if name not in defined]
    assert rows and stale == []


PLANTED = {
    "src/repro/__init__.py": "",
    "src/repro/pkg/__init__.py": (
        "from repro.pkg.mod import Helper, Reexported\n"
        '__all__ = ["Helper", "Reexported"]\n'
    ),
    "src/repro/pkg/mod.py": (
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "class Helper:\n"
        "    def real(self):\n"
        "        self.never_set = 1  # Helper's attribute, not Config's field\n"
        "        self.tally = 0\n"
        "        self.history = []\n"
        "        self.history.append(1)  # grows it, not a read\n"
        "        self.tally += 1  # a store, not a read\n"
        "        return self.never_set\n"
        "\n"
        "    def only_tested(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        "class Reexported:\n"
        "    pass\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Config:\n"
        "    size: int\n"
        "    used: int = 1\n"
        "    never_set: int = 3\n"
        "    never_read: int = 0\n"
        "    forwarded: int = 0\n"
        "    log: list = field(default_factory=list)\n"
        "\n"
        "\n"
        "def build(**overrides):\n"
        "    return Config(0, **overrides)\n"
        "\n"
        "\n"
        "def scale(x, factor=2, tested=1, spare=0):\n"
        "    return x * factor * tested + spare\n"
        "\n"
        "\n"
        "def render(value, spare=0, never_set=0, width=8):\n"
        "    return value + spare + never_set + width\n"
        "\n"
        "\n"
        "def main():\n"
        "    config = Config(4, used=2, never_read=1)\n"
        "    config.log.append(config.size)\n"
        "    out = Helper().real() + config.used + config.never_set + build(forwarded=1).forwarded\n"
        "    return out + scale(1, 3) + render(0, spare=1, never_set=2)\n"
        "\n"
        "\n"
        "main()\n"
    ),
    "tests/test_mod.py": (
        "from repro.pkg.mod import Config, Helper, scale\n"
        "\n"
        "\n"
        "def test_helper():\n"
        "    assert Helper().only_tested() == 2\n"
        "    assert scale(2, tested=5) == 20\n"
        "    assert Config(1, never_set=5).never_set == 5\n"
        "    assert Config(1).never_read == 0  # a test's read is not a use\n"
        "    assert Helper().tally == 0\n"
    ),
    "docs/API.md": (
        "| Name | What it is |\n"
        "|---|---|\n"
        "| `Helper.real`, `Config.size` | fine |\n"
        "| `Helper.gone` | stale |\n"
        "\n"
        + KEPT_HEADING + "\n\n"
        "| Name | Kept because |\n"
        "|---|---|\n"
    ),
}


def _plant(root: Path, kept_rows: str = "") -> Path:
    for rel, text in PLANTED.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text + (kept_rows if rel == "docs/API.md" else ""))
    return root


def test_each_check_reports_its_plant(tmp_path):
    """A synthetic checkout with one planted case per check: each check
    reports its plant and nothing else, so none passes vacuously."""
    root = _plant(tmp_path / "planted")
    found = [[line.rsplit(" ", 1)[-1] for line in check(root)] for check in CHECKS]
    assert found == [
        ["Reexported"],  # used only through the package re-export and __all__
        ["Helper.only_tested"],  # only a test calls it
        ["Helper.gone"],  # named in docs/API.md, defined nowhere
        ["Config.never_read"],  # set by main, read by nothing
        # only a test overrides its default; ``render(never_set=)`` and
        # ``Helper``'s ``self.never_set`` set other names
        ["Config.never_set"],
        [
            "scale(tested=)",  # only a test passes it
            "scale(spare=)",  # the only ``spare=`` goes to render
            "render(width=)",  # no call passes it
        ],
        ["Helper.tally", "Helper.history"],  # stored on ``self``, read only by a test
    ]
    # Naming them in the kept table is what clears checks 2, 5, 6 and 7.
    kept = _plant(
        tmp_path / "kept",
        "| `Helper.only_tested`, `Config.never_set`, `scale(tested=, spare=)`, `Helper.tally`, "
        "`Helper.history` "
        "| a test needs it |\n",
    )
    assert undocumented_test_only(kept) == [] and unset_fields(kept) == []
    assert unread_attributes(kept) == []
    assert [line.rsplit(" ", 1)[-1] for line in unpassed_params(kept)] == ["render(width=)"]


if __name__ == "__main__":
    for check in CHECKS:
        print(f"{check.__name__}: " + ("\n  ".join([""] + check()) or "none"))
