"""Every public name has a caller in the package itself.

A name the package exports but never runs is kept alive by its tests alone;
such code belongs with the tests.  The check reads the sources' syntax
trees, so it needs no import of the package.
"""

import ast
from pathlib import Path

import thermoqubit

PACKAGE = Path(thermoqubit.__file__).parent
# the console script (pyproject.toml) calls cli.main from outside
ENTRY_POINTS = {"main"}


def _definitions_and_references(tree):
    """(function defs, references) of a module: each def as (name, node,
    is_root), each reference as (name, owning def node or None).  A
    reference is owned by its top-level function or method; code outside
    any def (module and class bodies) owns none and always runs."""
    defs, refs = [], []

    def visit(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if owner is None:
                    root = (child.name in ENTRY_POINTS and not in_class
                            or child.name.startswith("__"))
                    defs.append((child.name, child, root))
                visit(child, child if owner is None else owner, False)
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, owner))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, owner))
            visit(child, owner, in_class or isinstance(child, ast.ClassDef))

    visit(tree, None, False)
    return defs, refs


def referenced_names():
    """Names read by code that can run: module-level code, dunders, the
    entry point, and, to a fixed point, every function or method whose name
    such code reads (a property is live only when such code reads it).  A reference from inside the
    definition of the same name does not count."""
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            d, r = _definitions_and_references(ast.parse(path.read_text()))
            defs += d
            refs += r
    live = {node for _, node, root in defs if root}
    while True:
        names = {name for name, owner in refs
                 if owner is None or (owner in live and owner.name != name)}
        grown = live | {node for name, node, _ in defs if name in names}
        if grown == live:
            return names
        live = grown


def test_every_export_has_a_caller_in_the_package():
    unused = sorted(set(thermoqubit.__all__) - referenced_names())
    assert not unused, f"exported but never called in the package: {unused}"
