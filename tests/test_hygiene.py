"""Source hygiene for every module under src/ and tests/.

- No module imports a name it never uses.  A name counts as used when it is
  read anywhere in the module or listed in its ``__all__`` (a package's
  re-exports).  An import line marked ``# noqa: F401`` is an intended
  side-effect import, such as a probe for an optional dependency.
- No module defines a private function, method or class (``_name``, not a
  dunder) that no module references: by name, as an attribute, in an import
  or as a string (``monkeypatch.setattr(module, "_name", ...)``).
- No function or lambda takes a parameter, other than ``self`` or ``cls``,
  that its body never reads.
- No module under ``src/emdarp`` defines a public top-level function or
  class that no module under ``src/``, ``tests/`` or ``perfbench/`` names,
  as an identifier, an attribute, an import or a string.
- No module under ``src/emdarp`` assigns a module-level name, other than a
  dunder, that no module under ``src/``, ``tests/`` or ``perfbench/`` names
  in the same sense; the assignment itself does not count.
- No class under ``src/emdarp`` defines a public method or property that no
  module under ``src/``, ``tests/`` or ``perfbench/`` names as an attribute
  or a string.  A class with a base from outside ``emdarp`` is exempt: its
  methods may override the base's, as ``cli._Parser.error`` overrides
  argparse's.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


def _unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _private_names(tree):
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _references(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


TREES = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in SOURCES}
REFERENCED = set().union(*(_references(tree) for tree in TREES.values()))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreferenced_private_definitions(path):
    unused = _private_names(TREES[path]).items()
    assert sorted((line, name) for name, line in unused if name not in REFERENCED) == []


BENCH_TREES = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
               for p in (ROOT / "perfbench").rglob("*.py")]
NAMED = REFERENCED.union(*map(_references, BENCH_TREES))
EMDARP = [p for p in SOURCES if p.is_relative_to(ROOT / "src" / "emdarp")]


@pytest.mark.parametrize("path", EMDARP, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreferenced_public_definitions(path):
    public = [(node.lineno, node.name) for node in TREES[path].body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert [(line, name) for line, name in public if name not in NAMED] == []


@pytest.mark.parametrize("path", EMDARP, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreferenced_module_level_names(path):
    body = TREES[path].body
    targets = [t for node in body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in body if isinstance(node, ast.AnnAssign)]
    bound = [(name.lineno, name.id) for target in targets for name in ast.walk(target)
             if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    assert [(line, name) for line, name in bound
            if name not in NAMED and not (name.startswith("__") and name.endswith("__"))] == []


ATTRIBUTES = {node.attr if isinstance(node, ast.Attribute) else node.value
              for tree in [*TREES.values(), *BENCH_TREES] for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              or isinstance(node, ast.Constant) and isinstance(node.value, str)}
CLASSES = {node.name for p in EMDARP for node in ast.walk(TREES[p])
           if isinstance(node, ast.ClassDef)}


@pytest.mark.parametrize("path", EMDARP, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreferenced_public_methods(path):
    dead = []
    for cls in ast.walk(TREES[path]):
        if not isinstance(cls, ast.ClassDef) or not all(
                isinstance(base, ast.Name) and base.id in CLASSES for base in cls.bases):
            continue
        dead += [(node.lineno, f"{cls.name}.{node.name}") for node in cls.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not node.name.startswith("_") and node.name not in ATTRIBUTES]
    assert dead == []


def _unused_parameters(tree):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        out += [(node.lineno, getattr(node, "name", "<lambda>"), arg.arg) for arg in params
                if arg.arg not in read and arg.arg not in ("self", "cls")]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_parameters(path):
    assert _unused_parameters(TREES[path]) == []
