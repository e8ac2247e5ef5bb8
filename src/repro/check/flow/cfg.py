"""Intraprocedural control-flow graphs for Python functions.

The single-pass AST rules in :mod:`repro.check.rules` cannot see that a
handle freed on one branch is used on the next line, or that a lease is
released on the happy path but not on the exception path — those facts
live in the *control-flow graph*.  This module builds one CFG per
function with the edges the flow rules (LMP011–LMP015) need:

* one node per statement (plus synthetic ``entry`` / ``exit`` /
  ``raise-exit`` / handler / finally-entry nodes), so transfer
  functions stay statement-granular;
* ``exception`` edges from every statement that can raise (a call, a
  ``yield`` — interrupts arrive through yields — a ``raise``, an
  ``assert``) to the innermost handler chain, and from unmatched
  handlers outward;
* ``finally`` bodies instantiated once per continuation kind (normal
  completion, exception propagation, ``return``, and per-loop
  ``break`` / ``continue``), so an exceptional entry resumes its
  exception after the finally instead of leaking a fake path into the
  normal fall-through — sharing one instance across continuations
  would merge "raised" and "completed" states at the join;
* ``back`` edges for loop repetition so the worklist solver reaches a
  fixpoint over loop-carried state, and ``while``/``for`` ``else``
  clauses entered from the loop test (they run only when no ``break``
  fired);
* ``yield`` suspension points marked on their statement nodes —
  generators are the DES's process bodies, and several rules treat a
  suspension as both a can-raise point and a scheduling boundary.

The graph is deliberately *conservative*: it may contain edges no real
execution follows (a finally shared by two continuations), but every
real execution follows some path in the graph.  Rules that report
"on some path" findings therefore never miss a real path.
"""

from __future__ import annotations

import ast
import dataclasses
import typing as _t

#: edge kinds
NORMAL = "normal"
EXCEPTION = "exception"
BACK = "back"

#: synthetic node kinds (``stmt`` nodes carry the AST statement)
ENTRY = "entry"
EXIT = "exit"
RAISE_EXIT = "raise-exit"
STMT = "stmt"
HANDLER = "handler"
FINALLY = "finally"


@dataclasses.dataclass(frozen=True)
class Edge:
    """A directed CFG edge with its kind (normal / exception / back)."""

    src: int
    dst: int
    kind: str


@dataclasses.dataclass
class Node:
    """One CFG node: a statement or a synthetic control point."""

    id: int
    kind: str
    stmt: ast.stmt | None = None
    #: the statement contains a Yield / YieldFrom (a suspension point)
    is_yield: bool = False
    succ: list[Edge] = dataclasses.field(default_factory=list)
    pred: list[Edge] = dataclasses.field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def describe(self) -> str:
        if self.stmt is not None:
            return f"{type(self.stmt).__name__}@{self.line}"
        return self.kind


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.nodes: dict[int, Node] = {}
        self._next_id = 0
        self.entry = self._new(ENTRY).id
        self.exit = self._new(EXIT).id
        self.raise_exit = self._new(RAISE_EXIT).id
        self.is_generator = _is_generator(func)

    # -- construction ------------------------------------------------------

    def _new(self, kind: str, stmt: ast.stmt | None = None) -> Node:
        node = Node(id=self._next_id, kind=kind, stmt=stmt)
        self._next_id += 1
        self.nodes[node.id] = node
        return node

    def add_edge(self, src: int, dst: int, kind: str = NORMAL) -> None:
        for edge in self.nodes[src].succ:
            if edge.dst == dst and edge.kind == kind:
                return  # dedupe: finally merging can re-derive an edge
        edge = Edge(src=src, dst=dst, kind=kind)
        self.nodes[src].succ.append(edge)
        self.nodes[dst].pred.append(edge)

    # -- queries -----------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def statements(self) -> list[Node]:
        """Statement nodes in source order (synthetic nodes excluded)."""
        stmts = [n for n in self.nodes.values() if n.stmt is not None]
        stmts.sort(key=lambda n: (n.line, n.id))
        return stmts

    def edges(self) -> list[Edge]:
        return [e for node in self.nodes.values() for e in node.succ]

    def describe_edges(self) -> set[tuple[str, str, str]]:
        """``(src, dst, kind)`` descriptions — the golden-test surface."""
        return {
            (self.nodes[e.src].describe(), self.nodes[e.dst].describe(), e.kind)
            for e in self.edges()
        }


def _is_generator(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when *func* itself contains a yield (nested defs excluded)."""
    for node in _walk_shallow(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _walk_shallow(func: ast.AST) -> _t.Iterator[ast.AST]:
    """Walk *func* without descending into nested function/class defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def probe_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions a *node* for this statement actually evaluates.

    Compound statements get a node for their header only (the test, the
    iterable, the context managers); their bodies become nodes of their
    own, so probing the whole subtree would misattribute effects.
    Transfer functions must use this too: an ``If`` node's abstract
    effect is its test's, never its body's.
    """
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _contains_yield(stmt: ast.stmt) -> bool:
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom))
        for probe in probe_exprs(stmt)
        for n in _walk_shallow(probe)
    ) or any(
        isinstance(probe, (ast.Yield, ast.YieldFrom)) for probe in probe_exprs(stmt)
    )


def _can_raise(stmt: ast.stmt) -> bool:
    """Conservative can-raise test: calls, yields (thrown-in exceptions
    arrive through them), ``raise``, ``assert``, and ``await``."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for probe in probe_exprs(stmt):
        if isinstance(probe, (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)):
            return True
        for node in _walk_shallow(probe):
            if isinstance(node, (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)):
                return True
    return False


def _irrefutable(case: ast.match_case) -> bool:
    """True when the case always matches: an unguarded wildcard or bare
    capture (``case _:`` / ``case name:``), or an ``|``-pattern with an
    irrefutable alternative."""
    if case.guard is not None:
        return False

    def _pat(pattern: ast.pattern) -> bool:
        if isinstance(pattern, ast.MatchAs):
            return pattern.pattern is None or _pat(pattern.pattern)
        if isinstance(pattern, ast.MatchOr):
            return any(_pat(p) for p in pattern.patterns)
        return False

    return _pat(case.pattern)


@dataclasses.dataclass
class _TryCtx:
    """Exception routing for the innermost enclosing ``try`` (or the
    function body, whose targets are ``[raise_exit]``)."""

    #: nodes a raising statement gets exception edges to (handler
    #: headers, a finally entry, or the raise-exit)
    targets: list[int]
    #: entry of the exception-propagation finally instance, if this
    #: level has a finalbody (doubles as the "has a finally" marker)
    finally_entry: int | None = None
    #: continuations captured while building the protected region:
    #: source nodes that must traverse a dedicated finally instance
    #: before proceeding (wired when the ``try`` completes)
    routes_exit: list[int] = dataclasses.field(default_factory=list)
    routes_break: list[tuple["_LoopCtx", int]] = dataclasses.field(default_factory=list)
    routes_continue: list[tuple["_LoopCtx", int]] = dataclasses.field(
        default_factory=list
    )


@dataclasses.dataclass
class _LoopCtx:
    """Break/continue routing for the innermost enclosing loop."""

    head: int
    #: ``len(self._trys)`` when the loop was entered — a ``break`` or
    #: ``continue`` exits only trys *inside* the loop (stack index >=
    #: this), so finallys of enclosing trys must NOT intercept it
    try_depth: int = 0
    breaks: list[int] = dataclasses.field(default_factory=list)


class _Builder:
    """Recursive statement-list CFG builder."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.cfg = CFG(func)
        self._trys: list[_TryCtx] = [_TryCtx(targets=[self.cfg.raise_exit])]
        self._loops: list[_LoopCtx] = []

    def build(self) -> CFG:
        outs = self._block(self.cfg.func.body, [self.cfg.entry])
        for out in outs:
            self.cfg.add_edge(out, self.cfg.exit)
        return self.cfg

    # -- helpers -----------------------------------------------------------

    def _exc_targets(self) -> list[int]:
        return self._trys[-1].targets

    def _pending_finally(self, since: int = 0) -> _TryCtx | None:
        """The innermost try level with an unwired finally, if any.

        *since* restricts the search to try levels entered at stack
        index >= ``since`` — break/continue pass the loop's
        ``try_depth`` so only finallys of trys *inside* the loop
        intercept them (a finally enclosing the loop does not run)."""
        for ctx in reversed(self._trys[since:]):
            if ctx.finally_entry is not None:
                return ctx
        return None

    def _stmt_node(self, stmt: ast.stmt, preds: list[int]) -> Node:
        node = self.cfg._new(STMT, stmt)
        node.is_yield = _contains_yield(stmt)
        for pred in preds:
            self.cfg.add_edge(pred, node.id)
        if _can_raise(stmt):
            for target in self._exc_targets():
                self.cfg.add_edge(node.id, target, EXCEPTION)
        return node

    def _block(self, stmts: _t.Sequence[ast.stmt], preds: list[int]) -> list[int]:
        current = list(preds)
        for stmt in stmts:
            current = self._stmt(stmt, current)
        return current

    # -- statement dispatch ------------------------------------------------

    def _stmt(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, preds)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Return):
            return self._return(stmt, preds)
        if isinstance(stmt, ast.Raise):
            node = self._stmt_node(stmt, preds)
            # a bare raise with no enclosing handler still has its
            # exception edges from _stmt_node; nothing falls through
            _ = node
            return []
        if isinstance(stmt, ast.Break):
            return self._break(stmt, preds)
        if isinstance(stmt, ast.Continue):
            return self._continue(stmt, preds)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, preds)
        # simple statements (and nested defs, treated as opaque bindings)
        node = self._stmt_node(stmt, preds)
        return [node.id]

    def _if(self, stmt: ast.If, preds: list[int]) -> list[int]:
        test = self._stmt_node(stmt, preds)
        body_outs = self._block(stmt.body, [test.id])
        if stmt.orelse:
            else_outs = self._block(stmt.orelse, [test.id])
        else:
            else_outs = [test.id]  # condition false: fall through
        return body_outs + else_outs

    def _while(self, stmt: ast.While, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt, preds)
        loop = _LoopCtx(head=head.id, try_depth=len(self._trys))
        self._loops.append(loop)
        body_outs = self._block(stmt.body, [head.id])
        self._loops.pop()
        for out in body_outs:
            self.cfg.add_edge(out, head.id, BACK)
        # while/else runs only when the condition goes false (no break)
        if stmt.orelse:
            else_outs = self._block(stmt.orelse, [head.id])
        else:
            else_outs = [head.id]
        return else_outs + loop.breaks

    def _for(self, stmt: ast.For | ast.AsyncFor, preds: list[int]) -> list[int]:
        head = self._stmt_node(stmt, preds)
        loop = _LoopCtx(head=head.id, try_depth=len(self._trys))
        self._loops.append(loop)
        body_outs = self._block(stmt.body, [head.id])
        self._loops.pop()
        for out in body_outs:
            self.cfg.add_edge(out, head.id, BACK)
        if stmt.orelse:
            else_outs = self._block(stmt.orelse, [head.id])
        else:
            else_outs = [head.id]
        return else_outs + loop.breaks

    def _with(self, stmt: ast.With | ast.AsyncWith, preds: list[int]) -> list[int]:
        node = self._stmt_node(stmt, preds)
        return self._block(stmt.body, [node.id])

    def _return(self, stmt: ast.Return, preds: list[int]) -> list[int]:
        node = self._stmt_node(stmt, preds)
        pending = self._pending_finally()
        if pending is None:
            self.cfg.add_edge(node.id, self.cfg.exit)
        else:
            pending.routes_exit.append(node.id)
        return []

    def _break(self, stmt: ast.Break, preds: list[int]) -> list[int]:
        node = self._stmt_node(stmt, preds)
        loop = self._loops[-1] if self._loops else None
        if loop is None:
            return []  # malformed source; parse already accepted it though
        pending = self._pending_finally(since=loop.try_depth)
        if pending is None:
            loop.breaks.append(node.id)
        else:
            pending.routes_break.append((loop, node.id))
        return []

    def _continue(self, stmt: ast.Continue, preds: list[int]) -> list[int]:
        node = self._stmt_node(stmt, preds)
        loop = self._loops[-1] if self._loops else None
        if loop is None:
            return []
        pending = self._pending_finally(since=loop.try_depth)
        if pending is None:
            self.cfg.add_edge(node.id, loop.head, BACK)
        else:
            pending.routes_continue.append((loop, node.id))
        return []

    def _match(self, stmt: ast.Match, preds: list[int]) -> list[int]:
        node = self._stmt_node(stmt, preds)
        outs: list[int] = []
        for case in stmt.cases:
            outs.extend(self._block(case.body, [node.id]))
        # no-case-matched fall-through — unless the last case is an
        # unguarded irrefutable pattern (`case _:` / `case name:`),
        # which always matches, so the spurious path would only dilute
        # must-analysis precision
        if not stmt.cases or not _irrefutable(stmt.cases[-1]):
            outs.append(node.id)
        return outs

    def _try(self, stmt: ast.Try, preds: list[int]) -> list[int]:
        outer_targets = self._exc_targets()

        # the exception-propagation instance must exist before the
        # protected region is built (raising statements target it);
        # after it runs the exception resumes outward
        fin_entry: int | None = None
        if stmt.finalbody:
            fin_node = self.cfg._new(FINALLY)
            fin_entry = fin_node.id
            # the finally body itself raises to the *outer* targets
            for out in self._block(stmt.finalbody, [fin_entry]):
                for target in outer_targets:
                    self.cfg.add_edge(out, target, EXCEPTION)

        propagate = [fin_entry] if fin_entry is not None else list(outer_targets)

        handler_nodes: list[Node] = []
        for handler in stmt.handlers:
            hnode = self.cfg._new(HANDLER, None)
            # the header re-raises outward when the clause doesn't match
            for target in propagate:
                self.cfg.add_edge(hnode.id, target, EXCEPTION)
            handler_nodes.append(hnode)
        # attach source info for handler headers via a pseudo statement:
        # the handler's first body statement carries the position instead

        ctx = _TryCtx(
            targets=[h.id for h in handler_nodes] + propagate,
            finally_entry=fin_entry,
        )
        self._trys.append(ctx)
        body_outs = self._block(stmt.body, preds)
        self._trys.pop()

        # try/else runs after a clean body; its exceptions skip this
        # try's handlers but still funnel through the finally.  The
        # else/handler contexts share ``ctx``'s route lists so a
        # return/break/continue captured there resumes after the
        # finally exactly like one captured in the protected body.
        def _resume_ctx() -> _TryCtx:
            return _TryCtx(
                targets=propagate,
                finally_entry=fin_entry,
                routes_exit=ctx.routes_exit,
                routes_break=ctx.routes_break,
                routes_continue=ctx.routes_continue,
            )

        if stmt.orelse:
            self._trys.append(_resume_ctx())
            body_outs = self._block(stmt.orelse, body_outs)
            self._trys.pop()

        handler_outs: list[int] = []
        for handler, hnode in zip(stmt.handlers, handler_nodes):
            self._trys.append(_resume_ctx())
            handler_outs.extend(self._block(handler.body, [hnode.id]))
            self._trys.pop()

        if fin_entry is None:
            return body_outs + handler_outs

        def _instance(preds_: list[int]) -> list[int]:
            """A fresh finally instance entered from *preds_*."""
            fnode = self.cfg._new(FINALLY)
            for pred in preds_:
                self.cfg.add_edge(pred, fnode.id)
            return self._block(stmt.finalbody, [fnode.id])

        # normal completions get their own instance and fall through
        outs: list[int] = []
        if body_outs + handler_outs:
            outs = _instance(body_outs + handler_outs)

        # a captured return resumes its journey after a dedicated
        # instance (possibly through the next enclosing finally)
        if ctx.routes_exit:
            exit_outs = _instance(ctx.routes_exit)
            pending = self._pending_finally()
            if pending is None:
                for out in exit_outs:
                    self.cfg.add_edge(out, self.cfg.exit)
            else:
                pending.routes_exit.extend(exit_outs)

        # break/continue get one instance per loop, then chain through
        # any finally of a try that is still inside that loop; a
        # finally *enclosing* the loop never sees them
        def _per_loop(
            routes: list[tuple[_LoopCtx, int]],
        ) -> list[tuple[_LoopCtx, list[int]]]:
            grouped: dict[int, tuple[_LoopCtx, list[int]]] = {}
            for loop, src in routes:
                grouped.setdefault(id(loop), (loop, []))[1].append(src)
            return list(grouped.values())

        for loop, srcs in _per_loop(ctx.routes_break):
            break_outs = _instance(srcs)
            pending = self._pending_finally(since=loop.try_depth)
            if pending is None:
                loop.breaks.extend(break_outs)
            else:
                pending.routes_break.extend((loop, out) for out in break_outs)
        for loop, srcs in _per_loop(ctx.routes_continue):
            continue_outs = _instance(srcs)
            pending = self._pending_finally(since=loop.try_depth)
            if pending is None:
                for out in continue_outs:
                    self.cfg.add_edge(out, loop.head, BACK)
            else:
                pending.routes_continue.extend((loop, out) for out in continue_outs)
        return outs


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()


def iter_functions(
    tree: ast.AST,
) -> _t.Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in *tree*, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
