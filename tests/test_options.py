"""Every parameter in `src/gral` is used: read by its body, and, when it
has a default, set by some call.  Every top-level definition is used too.

A default that no call overrides is an option nobody uses: it should be
a constant, or go.  The guard reads the source with `ast`.  A call sets
a parameter by keyword, by position (a call through an attribute skips
`self`), or through `*args`/`**kwargs`.  Calls are matched by the bare
name of the function, after `import ... as` aliases are undone, so a
name that two functions share pools their calls.  A class's `__init__`
is matched by calls to the class.

A parameter no body reads is passed for nothing.  A method's `self` is
exempt.

A top-level `def` or `class`, and each method or property of such a
class but its dunder methods, must be named by code in `src/gral` outside
its own body, or in `demos/` or `benchmarks/`.  Re-exports in `__init__.py`
and imports do not count, and neither do tests: a definition only tests
reach is checked for nothing that the library does.  A top-level
definition is named by its bare name or as an attribute; a member only as
an attribute (`x.name`, or `getattr`/`setattr` with a constant name), so a
local variable that shares its name does not count.
"""

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLERS = ("src", "tests", "demos", "benchmarks")


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _defaulted(tree):
    """(call name, label, [(position, parameter)]) for each def with defaults.

    The position counts from the first argument a call writes: it skips
    `self` on methods, and is None for keyword-only parameters.
    """
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = int(cls is not None and not static)
                named = [(i - skip, p.arg) for i, p in enumerate(pos)
                         if i >= len(pos) - len(a.defaults)]
                named += [(None, p.arg)
                          for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                name = cls if child.name == "__init__" and cls else child.name
                label = f"{cls}.{child.name}" if cls else child.name
                if named:
                    out.append((name, label, named))
                visit(child, None)
            else:
                visit(child, cls)
    visit(tree, None)
    return out


def _calls(tree):
    """name -> [(positional count, *args?, keywords, **kwargs?)]."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for n in node.names:
                if n.asname:
                    alias[n.asname] = n.name.rsplit(".", 1)[-1]
    calls = defaultdict(list)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name):
            name = alias.get(f.id, f.id)
        elif isinstance(f, ast.Attribute):
            name = f.attr
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        kws = {k.arg for k in node.keywords}
        calls[name].append((len(node.args), starred, kws - {None},
                            None in kws))
    return calls


def unset_parameters():
    calls = defaultdict(list)
    for _path, tree in _trees(*CALLERS):
        for name, cs in _calls(tree).items():
            calls[name].extend(cs)
    unset = []
    for path, tree in _trees("src/gral"):
        for name, label, params in _defaulted(tree):
            for index, param in params:
                if not any(star or kwstar or param in kws
                           or (index is not None and npos > index)
                           for npos, star, kws, kwstar in calls[name]):
                    unset.append(f"{path.stem}.{label}({param})")
    return unset


def test_every_defaulted_parameter_is_set_by_some_call():
    assert unset_parameters() == []


def _unread(tree):
    """(label, parameter) for each parameter its function's body never reads.

    A method's first parameter (`self`) is exempt.
    """
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                params += [p for p in (a.vararg, a.kwarg) if p is not None]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    params = params[1:]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                label = f"{cls}.{child.name}" if cls else child.name
                out.extend((label, p.arg) for p in params if p.arg not in read)
                visit(child, None)
            else:
                visit(child, cls)
    visit(tree, None)
    return out


def unread_parameters():
    return [f"{path.stem}.{label}({param})"
            for path, tree in _trees("src/gral")
            for label, param in _unread(tree)]


def test_every_parameter_is_read():
    assert unread_parameters() == []


# `replay_counterexample` re-runs the counterexample payloads that failing
# report entries carry, so its input comes from outside the library; its
# caller is to be the `gral replay` command that ROADMAP.md plans.
UNREACHED = {"suites.replay_counterexample"}


def _named(node) -> tuple[set, set]:
    """The identifiers `node` reads bare, and those it reads as attributes:
    `x.name`, or `getattr`/`setattr` with a constant name."""
    bare, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            bare.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs.add(n.attr)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id in ("getattr", "setattr") and len(n.args) > 1 \
                and isinstance(n.args[1], ast.Constant):
            attrs.add(n.args[1].value)
    return bare, attrs


def _members(cls):
    """Each method or property a class defines, but for dunder methods."""
    return [stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]


def unreached_definitions():
    """Top-level definitions named nowhere, bare or as an attribute, and
    class members never read as an attribute, outside their own bodies."""
    bare, attrs, defs = set(), set(), []

    def read(node, own=frozenset()):
        b, a = _named(node)
        bare.update(b - own)
        attrs.update(a - own)

    for path, tree in _trees("src/gral"):
        if path.name == "__init__.py":
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, False))
                if not isinstance(stmt, ast.ClassDef):
                    read(stmt, {stmt.name})
                    continue
                members = _members(stmt)
                defs += [(f"{path.stem}.{stmt.name}.{m.name}", m.name, True)
                         for m in members]
                for part in ast.iter_child_nodes(stmt):
                    own = {part.name} if part in members else set()
                    read(part, own | {stmt.name})
            else:
                read(stmt)
    for _path, tree in _trees("demos", "benchmarks"):
        read(tree)
    return [label for label, name, member in defs
            if name not in (attrs if member else bare | attrs)
            and label not in UNREACHED]


def test_every_definition_is_reached_from_outside_the_tests():
    assert unreached_definitions() == []
