"""The static tier's source model: one parse per module file.

:func:`class_node` hands the interpreter and the capture scan the same
``ast.ClassDef`` for a kernel class.  Each module file is parsed once
per process, on first use, and its classes are indexed by
``__qualname__`` the way ``inspect`` finds a class: a function
contributes ``name.<locals>.``, so function-local and nested classes
resolve too.

Line numbers are class-relative, the numbering findings print and
``Op.line`` carries: line 1 is the first decorator line, or the
``class`` line when there is none.  A class that no other class
encloses is renumbered in place when its module is indexed; one inside
another class is renumbered on a copy, so the enclosing class keeps its
own numbering.
"""

from __future__ import annotations

import ast
import copy
import sys
from typing import Any, Dict, Tuple

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: qualname -> ClassDef
_Classes = Dict[str, ast.ClassDef]

#: module file -> (renumbered classes, enclosed classes not yet copied);
#: the static tier's only cache
_INDEX: Dict[str, Tuple[_Classes, _Classes]] = {}


def class_node(cls: Any) -> ast.ClassDef:
    """The parsed ``class`` statement of ``cls`` (or of an instance's class).

    Raises ``TypeError`` for a class with no source file and ``OSError``
    when the file cannot be read or does not define the class.
    """
    cls = cls if isinstance(cls, type) else type(cls)
    filename = getattr(sys.modules.get(cls.__module__), "__file__", None)
    if not filename:
        raise TypeError(f"{cls.__qualname__} has no source file")
    index = _INDEX.get(filename)
    if index is None:
        index = _INDEX[filename] = _index_module(filename)
    ready, enclosed = index
    qualname = cls.__qualname__
    node = ready.get(qualname)
    if node is None:
        if qualname not in enclosed:
            raise OSError(f"could not find class {qualname} in {filename}")
        node = ready[qualname] = _renumber(
            copy.deepcopy(enclosed.pop(qualname)))
    return node


def _index_module(filename: str) -> Tuple[_Classes, _Classes]:
    with open(filename, "rb") as f:
        tree = ast.parse(f.read(), filename)
    ready: _Classes = {}
    enclosed: _Classes = {}

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = prefix + child.name
                # the first definition of a name wins, as in ``inspect``
                if qualname not in ready and qualname not in enclosed:
                    (enclosed if in_class else ready)[qualname] = child
                visit(child, qualname + ".", True)
            elif isinstance(child, _FUNCTIONS):
                visit(child, f"{prefix}{child.name}.<locals>.", in_class)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    for node in ready.values():
        _renumber(node)
    return ready, enclosed


def _renumber(node: ast.ClassDef) -> ast.ClassDef:
    """Shift ``node`` so its first decorator (or ``class``) line is 1."""
    first = node.decorator_list[0].lineno if node.decorator_list \
        else node.lineno
    return ast.increment_lineno(node, 1 - first)
