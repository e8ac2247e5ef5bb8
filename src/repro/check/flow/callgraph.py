"""A lightweight, name-based call graph over the ``repro`` source tree.

The flow rules are intraprocedural, but two of them need one whole-tree
fact each:

* **LMP014** needs to know which functions are *sim-time-consuming
  generators* — generator functions that ``yield`` an engine wait
  (``timeout``, ``acquire``, ``wait``, a transfer, a migration), either
  directly or by ``yield from``-ing another such generator.  Calling
  one of those from a non-generator frame and discarding the result
  creates a generator that never runs: the wait silently evaporates.
* **LMP013** resolves positional arguments against the callee's
  parameter names, so a nanosecond value flowing into a ``..._bytes``
  parameter is caught across function boundaries.

Resolution is deliberately name-based (the last component of the call's
dotted name): no type inference, no import following.  Ambiguity is
handled by refusing to conclude — a bare name that maps to several
in-tree functions with conflicting facts contributes nothing.  That
keeps the graph cheap (one AST walk per module, shared with the flow
pass) and the rules it feeds low-noise.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import typing as _t

#: method names that produce a sim-time event when called on an engine,
#: resource, transport, or pool (the DES wait surface)
WAIT_ATTRS = frozenset(
    {
        "timeout",
        "acquire",
        "wait",
        "transfer",
        "migrate_extent",
    }
)


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_shallow(func: ast.AST) -> _t.Iterator[ast.AST]:
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclasses.dataclass
class FunctionInfo:
    """What the call graph knows about one function definition."""

    qualname: str  # module:Class.method or module:function
    name: str  # the bare name calls are matched on
    path: pathlib.Path
    lineno: int
    params: tuple[str, ...]
    is_generator: bool
    #: the function directly yields a WAIT_ATTRS call
    yields_wait: bool
    #: bare names of functions invoked via ``yield from name(...)``
    delegates: tuple[str, ...]
    #: bare names of every function called
    calls: tuple[str, ...]


class CallGraph:
    """Name-indexed registry of every function in the analyzed tree."""

    def __init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self._by_name: dict[str, list[FunctionInfo]] = {}
        self._time_consuming: frozenset[str] | None = None

    def add_module(self, tree: ast.AST, path: pathlib.Path, module: str) -> None:
        for info in _collect(tree, path, module):
            self.functions.append(info)
            self._by_name.setdefault(info.name, []).append(info)
            self._time_consuming = None  # registry changed; recompute lazily

    def lookup(self, bare_name: str) -> list[FunctionInfo]:
        return self._by_name.get(bare_name, [])

    def unique_params(self, bare_name: str) -> tuple[str, ...] | None:
        """Parameter names when every in-tree candidate agrees, else None."""
        candidates = self.lookup(bare_name)
        if not candidates:
            return None
        params = {info.params for info in candidates}
        if len(params) == 1:
            return candidates[0].params
        return None

    def time_consuming_generators(self) -> frozenset[str]:
        """Bare names whose every in-tree definition is a generator that
        (transitively) yields an engine wait.

        Requiring *every* candidate to agree keeps name collisions from
        turning an innocent helper into a flagged one.
        """
        if self._time_consuming is not None:
            return self._time_consuming
        waiting: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, infos in self._by_name.items():
                if name in waiting:
                    continue
                if all(
                    info.is_generator
                    and (
                        info.yields_wait
                        or any(d in waiting for d in info.delegates)
                    )
                    for info in infos
                ):
                    waiting.add(name)
                    changed = True
        self._time_consuming = frozenset(waiting)
        return self._time_consuming


def _collect(
    tree: ast.AST, path: pathlib.Path, module: str
) -> _t.Iterator[FunctionInfo]:
    class_stack: list[str] = []

    def visit(node: ast.AST) -> _t.Iterator[FunctionInfo]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                class_stack.append(child.name)
                yield from visit(child)
                class_stack.pop()
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield _describe(child, path, module, tuple(class_stack))
                yield from visit(child)  # nested defs too

    yield from visit(tree)


def _describe(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    path: pathlib.Path,
    module: str,
    classes: tuple[str, ...],
) -> FunctionInfo:
    scope = ".".join((*classes, func.name))
    params = tuple(
        arg.arg
        for arg in (
            *func.args.posonlyargs,
            *func.args.args,
            *func.args.kwonlyargs,
        )
    )
    is_generator = False
    yields_wait = False
    delegates: list[str] = []
    calls: list[str] = []
    for node in _walk_shallow(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            is_generator = True
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in WAIT_ATTRS
            ):
                yields_wait = True
            if isinstance(node, ast.YieldFrom) and isinstance(value, ast.Call):
                callee = _bare_callee(value)
                if callee is not None:
                    delegates.append(callee)
        elif isinstance(node, ast.Call):
            callee = _bare_callee(node)
            if callee is not None:
                calls.append(callee)
    return FunctionInfo(
        qualname=f"{module}:{scope}",
        name=func.name,
        path=path,
        lineno=func.lineno,
        params=params,
        is_generator=is_generator,
        yields_wait=yields_wait,
        delegates=tuple(delegates),
        calls=tuple(calls),
    )


def _bare_callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
