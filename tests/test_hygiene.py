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
  module under ``src/``, ``tests/`` or ``perfbench/`` reads from a receiver
  that may hold the class or one of its instances.  A receiver's type comes
  from a small inference: ``self`` in a method, the class name, an
  annotation, a call of the class or of a function annotated to return it,
  a field annotated with it or with a list of it.  A receiver of another
  class (or of a base or subclass) does not count, nor does one known to
  hold no class of ``emdarp`` (a module, a builtin's result, a literal, a
  file from ``with open(...)``), nor a string other than the name that
  ``getattr``, ``setattr`` or ``hasattr`` reads.  A receiver of unknown
  type counts when some scope gives its name to the class (``g`` and
  ``graph`` hold an ``ExpandedGraph``).  So a dead ``write`` is not hidden
  by ``fh.write``, nor a dead ``error`` by the status string "error".  A
  class with a base from outside ``emdarp`` is exempt: its methods may
  override the base's, as ``cli._Parser.error`` overrides argparse's.
"""

import ast
import builtins
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


FOREIGN = "<foreign>"  # the type of a value that is no instance of a class defined here
CLASSES = {node.name for p in EMDARP for node in ast.walk(TREES[p])
           if isinstance(node, ast.ClassDef)}
ALL_NODES = [node for tree in [*TREES.values(), *BENCH_TREES] for node in ast.walk(tree)]
BUILTINS = set(dir(builtins))
BASES: dict = {}  # class name -> names of its bases, over every module
for _node in ALL_NODES:
    if isinstance(_node, ast.ClassDef):
        BASES.setdefault(_node.name, set()).update(
            base.id for base in _node.bases if isinstance(base, ast.Name))


def _annotated(node):
    """The class an annotation names (``C``, ``C | None``, ``"C"``), FOREIGN
    for a builtin type or a container of one, None when it cannot tell."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = {_annotated(node.left), _annotated(node.right)} - {"None"}
        return sides.pop() if len(sides) == 1 else None
    if isinstance(node, ast.Constant) and node.value is None:
        return "None"
    if isinstance(node, ast.Subscript):
        return _annotated(node.value)
    if isinstance(node, ast.Name):
        return node.id if node.id in CLASSES else FOREIGN if node.id in BUILTINS else None
    return None


RETURNS: dict = {}  # function name -> the types its return annotations name
for _node in ALL_NODES:
    if isinstance(_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        RETURNS.setdefault(_node.name, set()).add(
            _annotated(_node.returns) if _node.returns else None)


def _element(node):
    """The class of the items of a ``list[C]``, ``tuple[C, ...]`` or
    ``set[C]`` annotation, else None."""
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in (
            "list", "tuple", "set", "frozenset"):
        item = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
        return _annotated(item)
    return None


FIELDS: dict = {}  # class -> {attribute: its annotation in the class body}
for _node in ALL_NODES:
    if isinstance(_node, ast.ClassDef) and _node.name in CLASSES:
        FIELDS.setdefault(_node.name, {}).update(
            (item.target.id, item.annotation) for item in _node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))


def _field(expr, scope, cls):
    """The annotation of the field that the attribute *expr* reads, if its
    owner's type is a class with that field."""
    return FIELDS.get(_type(expr.value, scope, cls), {}).get(expr.attr)


def _items(expr, scope, cls):
    """The type of the items of *expr*: of a field annotated ``list[C]``
    and the like, else None."""
    return _element(_field(expr, scope, cls)) if isinstance(expr, ast.Attribute) else None


def _type(expr, scope, cls):
    """The type of *expr*, names typed by *scope*, inside class *cls*: a
    class name, FOREIGN, or None.  A call has its class's type, its
    function's return annotation, or FOREIGN for a builtin; an attribute
    of a FOREIGN value is FOREIGN, and a field of a class has the type
    its annotation names."""
    if isinstance(expr, ast.Name):
        return scope.get(expr.id)
    if isinstance(expr, ast.Attribute):
        if _type(expr.value, scope, cls) == FOREIGN:
            return FOREIGN
        field = _field(expr, scope, cls)
        return None if field is None else _annotated(field)
    if isinstance(expr, ast.Subscript):
        return _items(expr.value, scope, cls)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        name = expr.func.id
        if name == "super":
            return min(BASES.get(cls, ()), default=None)
        if scope.get(name) in BASES:  # a class: its constructor
            return scope[name]
        if name in RETURNS:
            return next(iter(RETURNS[name])) if len(RETURNS[name]) == 1 else None
        return FOREIGN if name in BUILTINS and name not in scope else None
    if isinstance(expr, (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Dict, ast.Set,
                         ast.ListComp, ast.SetComp, ast.DictComp)):
        return FOREIGN
    return None


def _own_nodes(body):
    """Every node of *body* outside the bodies of the functions, lambdas
    and classes it defines."""
    todo = list(body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _scope(body, outer, cls=None, args=None):
    """The type of each name in a scope: a function's (its *body* and
    *args*, a method's when *cls* is set) or a module's, over the names of
    the scopes around it (*outer*).  A name bound only by plain assignments,
    annotations and ``with ... as`` of one type has that type; so has an
    annotated parameter, and ``self`` or ``cls`` of a method its class.  An
    imported module is FOREIGN, a class is itself, any other name None."""
    scope = dict(outer)
    params = [] if args is None else args.posonlyargs + args.args + args.kwonlyargs
    params += [] if args is None else [a for a in (args.vararg, args.kwarg) if a]
    for pos, arg in enumerate(params):
        scope[arg.arg] = (cls if pos == 0 and cls and arg.arg in ("self", "cls")
                          else _annotated(arg.annotation) if arg.annotation else None)
    nodes = list(_own_nodes(body))
    for _ in range(2):  # once more, for names assigned from names
        kinds: dict = {}
        typed = set()
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                # a = value, or a, b = value_a, value_b
                target, value = node.targets[0], node.value
                pairs = ([(target, value)] if not isinstance(target, ast.Tuple) else
                         zip(target.elts, value.elts) if isinstance(value, ast.Tuple)
                         and len(value.elts) == len(target.elts) else ())
                for name, part in pairs:
                    if isinstance(name, ast.Name):
                        kinds.setdefault(name.id, set()).add(_type(part, scope, cls))
                        typed.add(id(name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                kinds.setdefault(node.target.id, set()).add(_annotated(node.annotation))
                typed.add(id(node.target))
            elif isinstance(node, (ast.For, ast.comprehension)) \
                    and isinstance(node.target, ast.Name):
                kinds.setdefault(node.target.id, set()).add(_items(node.iter, scope, cls))
                typed.add(id(node.target))
            elif isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                kinds.setdefault(node.optional_vars.id, set()).add(
                    _type(node.context_expr, scope, cls))
                typed.add(id(node.optional_vars))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    kinds.setdefault(name, set()).add(
                        alias.name if alias.name in CLASSES
                        else FOREIGN if isinstance(node, ast.Import)
                        and not alias.name.startswith("emdarp") else None)
            elif isinstance(node, ast.ClassDef):
                kinds.setdefault(node.name, set()).add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kinds.setdefault(node.name, set()).add(FOREIGN)
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and id(node) not in typed:
                kinds.setdefault(node.id, set()).add(None)  # loops, unpacking, walrus
            elif isinstance(node, ast.ExceptHandler) and node.name:
                kinds.setdefault(node.name, set()).add(None)
        scope.update({name: kind.pop() if len(kind) == 1 else None
                      for name, kind in kinds.items()})
    return scope


def _receivers(tree):
    """(receiver type, receiver name, attribute) of each attribute read in
    *tree*, and of each ``getattr``, ``setattr``, ``hasattr`` or
    ``monkeypatch.setattr`` by a string name; and (class, name) of each
    name that some scope of *tree* types as a class.  A receiver's name is
    its variable's or its attribute's, None for any other expression."""
    uses, named = set(), set()

    def use(receiver, attr, scope, cls):
        name = getattr(receiver, "id", getattr(receiver, "attr", None))
        uses.add((_type(receiver, scope, cls), name, attr))

    def visit(node, scope, cls):
        if isinstance(node, ast.Attribute):
            use(node.value, node.attr, scope, cls)
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
              and (getattr(node.func, "id", None) in ("getattr", "setattr", "hasattr")
                   or getattr(node.func, "attr", None) == "setattr")):
            use(node.args[0], node.args[1].value, scope, cls)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                body = child.body if isinstance(child.body, list) else [child.body]
                inner = _scope(body, scope, cls if isinstance(node, ast.ClassDef) else None,
                               child.args)
                named.update((kind, name) for name, kind in inner.items()
                             if kind in CLASSES and name != kind)
                visit(child, inner, cls)
            else:
                visit(child, scope, cls)

    visit(tree, _scope(tree.body, {}), None)
    return uses, named


USES, NAMED_AS = set(), {(_annotated(kind), attr) for fields in FIELDS.values()
                         for attr, kind in fields.items() if _annotated(kind) in CLASSES}
for _tree in [*TREES.values(), *BENCH_TREES]:
    _uses, _named_as = _receivers(_tree)
    USES |= _uses
    NAMED_AS |= _named_as


def _named(cls, method):
    """Whether some module reads *method* from a receiver that may be an
    instance (or the class) of *cls*: one whose type is *cls*, a base or a
    subclass of it, or one of unknown type whose name some scope gives to
    such a class (``g`` or ``graph`` for an ``ExpandedGraph``)."""
    related = {cls} | _ancestors(cls) | {sub for sub in BASES if cls in _ancestors(sub)}
    names = {name for kind, name in NAMED_AS if kind in related}
    return any(attr == method and (kind in related or kind is None and name in names)
               for kind, name, attr in USES)


def _ancestors(name):
    seen, todo = set(), [name]
    while todo:
        for base in BASES.get(todo.pop(), ()):
            if base not in seen:
                seen.add(base)
                todo.append(base)
    return seen


@pytest.mark.parametrize("path", EMDARP, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreferenced_public_methods(path):
    dead = []
    for cls in ast.walk(TREES[path]):
        if not isinstance(cls, ast.ClassDef) or not all(
                isinstance(base, ast.Name) and base.id in CLASSES for base in cls.bases):
            continue
        dead += [(node.lineno, f"{cls.name}.{node.name}") for node in cls.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not node.name.startswith("_") and not _named(cls.name, node.name)]
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
