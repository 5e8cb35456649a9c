"""Every module-level name in the package is used by the package or exported.

A definition that only tests call is code no run executes; this check keeps
it from piling up.  Definitions are module-level functions, classes and
assigned names; a reference is any name or attribute read in a module other
than ``__init__.py``, so an import alone does not count.
"""

import ast
from pathlib import Path

import bayesfir

PACKAGE = Path(bayesfir.__file__).parent


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


def test_no_definition_is_unused_and_unexported():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined = []
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined += [(path.name, name) for name in _defined(tree)]
        referenced.update(_referenced(tree))
    unused = sorted(
        f"{module}:{name}"
        for module, name in defined
        if name not in referenced and name not in exported
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unused, f"defined but never used in the package nor exported: {unused}"
