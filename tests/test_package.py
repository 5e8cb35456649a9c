"""Every name, member and defaulted parameter in the package is used by the package.

A definition that only tests call is code no run executes, and a parameter
that no package caller passes is a knob no run turns; these checks keep
both from piling up.  Definitions are module-level functions, classes and
assigned names; a reference is any name or attribute read in a module other
than ``__init__.py``, so an import or a re-export alone does not count.
Members are the methods and properties of the package's classes, dunders
aside; each must be read as an attribute in such a module.  Dataclass and
NamedTuple fields are data, which callers outside the package may read, and
are not checked.  The exception is ``OptimizerConfig``: a field of it that
no call in the package or its tests sets is a setting nobody varies, and
belongs among the constants of ``optim``.  And every name a module
other than ``__init__.py``, whose imports are its re-exports, imports is
read in that module, as a linter's unused-import check would demand.
"""

import ast
from dataclasses import fields
from pathlib import Path

import bayesfir
from bayesfir.optim import OptimizerConfig

PACKAGE = Path(bayesfir.__file__).parent


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _modules():
    """(file name, syntax tree) of every package module but ``__init__.py``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text())


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _members(tree):
    """(class, name) of every method and property defined in a class body."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name


def _attributes_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_no_definition_is_unused():
    defined = []
    referenced = set()
    for module, tree in _modules():
        defined += [(module, name) for name in _defined(tree)]
        referenced.update(_referenced(tree))
    unused = sorted(
        f"{module}:{name}"
        for module, name in defined
        if name not in referenced and not _is_dunder(name)
    )
    assert not unused, f"defined but never used in the package: {unused}"


def test_every_member_is_read_in_the_package():
    members = []
    read = set()
    for module, tree in _modules():
        members += [(module, cls, name) for cls, name in _members(tree)]
        read.update(_attributes_read(tree))
    unread = sorted(
        f"{module}:{cls}.{name}"
        for module, cls, name in members
        if name not in read and not _is_dunder(name)
    )
    assert not unread, f"methods or properties no package module reads: {unread}"


def _imported(tree):
    """Names the module's import statements bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_read_in_its_module():
    unread = []
    for module, tree in _modules():
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{module}:{name}" for name in _imported(tree) if name not in read]
    assert not unread, f"imported but never read: {sorted(unread)}"


# entry points called from outside the package, with their defaulted parameters
ENTRY_POINTS = {("cli.py", "main")}


def _functions(tree):
    """(name, node, is_method) for module-level functions and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list
                    )
                    # a class is called by its own name to reach __init__
                    yield (node.name if item.name == "__init__" else item.name), item, not static


def _defaulted(node, is_method):
    """(position or None, name) of every parameter that has a default."""
    positional = node.args.posonlyargs + node.args.args
    offset = 1 if is_method else 0
    first = len(positional) - len(node.args.defaults)
    for index in range(first, len(positional)):
        yield index - offset, positional[index].arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def _passes(call, position, name):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def test_every_defaulted_parameter_is_passed_somewhere():
    defaulted = []
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for callee, call in _calls(tree):
            calls.setdefault(callee, []).append(call)
        for name, node, is_method in _functions(tree):
            if (path.name, name) in ENTRY_POINTS:
                continue
            for position, param in _defaulted(node, is_method):
                defaulted.append((path.name, name, position, param))
    unpassed = sorted(
        f"{module}:{name}({param})"
        for module, name, position, param in defaulted
        if not any(_passes(call, position, param) for call in calls.get(name, ()))
    )
    assert not unpassed, f"defaulted parameters no package call passes: {unpassed}"


def _keywords_set(tree):
    """Keyword names passed to OptimizerConfig(...) and replace(...) calls."""
    for callee, call in _calls(tree):
        if callee in ("OptimizerConfig", "replace"):
            yield from (kw.arg for kw in call.keywords if kw.arg is not None)


def test_every_optimizer_field_is_set_somewhere():
    set_somewhere = set()
    for folder in (PACKAGE, Path(__file__).parent):
        for path in sorted(folder.glob("*.py")):
            set_somewhere.update(_keywords_set(ast.parse(path.read_text())))
    unset = sorted(f.name for f in fields(OptimizerConfig) if f.name not in set_somewhere)
    assert not unset, f"OptimizerConfig fields no call in src/ or tests/ sets: {unset}"
