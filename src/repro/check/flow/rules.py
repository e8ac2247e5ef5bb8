"""The flow-sensitive lint rules (LMP011–LMP015).

The single-pass rules in :mod:`repro.check.rules` see one statement at
a time; these rules run the :mod:`repro.check.flow.solver` over each
function's CFG, so they see *orderings*: a handle used after the
statement that freed it, a lease released on the happy path but leaked
through an ``except`` arm, a nanosecond value flowing through three
assignments into a bytes-typed parameter.  Each rule predicts, at lint
time, a failure the runtime layers only catch when a trace happens to
hit it:

* **LMP011** predicts the :class:`~repro.errors.DoubleFreeError` /
  :class:`~repro.errors.StaleHandleError` paths the allocator arena
  raises at runtime;
* **LMP012** predicts the leaks the :class:`AllocSanitizer` and the
  lease sweeper report long after the leaking frame returned;
* **LMP013** predicts silent unit corruption (ns vs bytes) that no
  runtime layer can see at all — both are plain numbers by then;
* **LMP014** predicts waits that silently evaporate because a
  generator was called like a function;
* **LMP015** predicts cost models that compute a charge and never
  apply it to the DES clock.

They are ordinary :class:`~repro.check.rules.Rule` subclasses that
implement ``check_function`` instead of ``check``: the linter's driver
parses each file once, builds the call graph once, and hands every
flow rule the same per-function CFGs, so ``# noqa: LMP01x``
suppression, the ``--select`` filter, and all three output formats
treat them like any other rule.
"""

from __future__ import annotations

import ast

from repro.check.flow.callgraph import WAIT_ATTRS, CallGraph, dotted_name
from repro.check.flow.cfg import CFG, Node, probe_exprs
from repro.check.flow.solver import BACKWARD, Domain, solve
from repro.check.rules import LintContext, Rule, Violation


# ---------------------------------------------------------------------------
# shared syntactic helpers
# ---------------------------------------------------------------------------


def _calls_in(stmt: ast.stmt) -> list[ast.Call]:
    """Calls evaluated *by this statement's node*, in source order.

    Compound statements contribute only their header expressions
    (:func:`probe_exprs`); their bodies are separate CFG nodes and
    walking them here would misattribute effects to the header.
    """
    out: list[ast.Call] = []
    stack: list[ast.AST] = list(probe_exprs(stmt))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    out.sort(key=lambda c: (c.lineno, c.col_offset))
    return out


def _loop_bound_names(stmt: ast.stmt) -> set[str]:
    """Names (re)bound by a ``for`` target or ``with ... as`` clause."""
    targets: list[ast.expr] = []
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets.append(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets.extend(
            item.optional_vars for item in stmt.items if item.optional_vars is not None
        )
    names: set[str] = set()
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def _attr_call(call: ast.Call) -> tuple[str | None, str | None]:
    """(receiver dotted name, method name) for ``recv.method(...)``."""
    if isinstance(call.func, ast.Attribute):
        return dotted_name(call.func.value), call.func.attr
    return None, None


def _assign_targets(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target]
    return []


def _assign_value(stmt: ast.stmt) -> ast.expr | None:
    if isinstance(stmt, ast.Assign):
        return stmt.value
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return stmt.value
    return None


# ---------------------------------------------------------------------------
# LMP011 — handle use-after-free / use-after-relocate
# ---------------------------------------------------------------------------

#: allocator facts, in increasing severity (join keeps the worst)
_LIVE = "live"
_STALE = "stale"
_FREED = "freed"
_SEVERITY = {_LIVE: 0, _STALE: 1, _FREED: 2}

#: methods that grant a handle
_GRANT_ATTRS = frozenset({"allocate", "allocate_for"})
#: methods whose handle argument is *consumed* (state transition)
_FREE_ATTRS = frozenset({"free"})
_RELOCATE_ATTRS = frozenset({"relocate"})
#: methods whose handle argument is *dereferenced* (a use)
_DEREF_ATTRS = frozenset({"resolve", "read", "write", "load", "store"})
#: a compaction pass relocates every live block of its allocator
_COMPACT_ATTRS = frozenset({"compact"})

_HandleState = tuple[str, int]  # (fact, line it was established on)
_HandleEnv = dict[str, _HandleState]


class _HandleDomain(Domain[_HandleEnv]):
    def boundary(self, cfg: CFG) -> _HandleEnv:
        return {}

    def bottom(self, cfg: CFG) -> _HandleEnv:
        return {}

    def join(self, a: _HandleEnv, b: _HandleEnv) -> _HandleEnv:
        out = dict(a)
        for name, state in b.items():
            prior = out.get(name)
            if prior is None or _SEVERITY[state[0]] > _SEVERITY[prior[0]]:
                out[name] = state
        return out

    def transfer(self, node: Node, value: _HandleEnv) -> _HandleEnv:
        if node.stmt is None:
            return value
        env = dict(value)
        _handle_effects(node.stmt, env, None)
        return env


def _handle_arg(call: ast.Call) -> str | None:
    """The handle variable passed to an allocator op, if it is a plain name."""
    if call.args and isinstance(call.args[0], ast.Name):
        return call.args[0].id
    return None


def _handle_effects(
    stmt: ast.stmt, env: _HandleEnv, out: list[tuple[ast.Call, str, str, int]] | None
) -> None:
    """Apply *stmt*'s allocator effects to *env*; collect findings in *out*.

    Findings are ``(call, verb, handle, established_line)`` with verbs
    ``double-free`` / ``free-stale`` / ``use-freed`` / ``use-stale``.
    """
    for call in _calls_in(stmt):
        _recv, attr = _attr_call(call)
        if attr is None:
            continue
        if attr in _FREE_ATTRS:
            handle = _handle_arg(call)
            if handle is None:
                continue
            state = env.get(handle)
            if state is not None and out is not None:
                if state[0] == _FREED:
                    out.append((call, "double-free", handle, state[1]))
                elif state[0] == _STALE:
                    out.append((call, "free-stale", handle, state[1]))
            env[handle] = (_FREED, call.lineno)
        elif attr in _RELOCATE_ATTRS:
            handle = _handle_arg(call)
            if handle is None:
                continue
            state = env.get(handle)
            if state is not None and out is not None and state[0] != _LIVE:
                verb = "use-freed" if state[0] == _FREED else "use-stale"
                out.append((call, verb, handle, state[1]))
            env[handle] = (_STALE, call.lineno)
        elif attr in _DEREF_ATTRS:
            handle = _handle_arg(call)
            if handle is None:
                continue
            state = env.get(handle)
            if state is not None and out is not None and state[0] != _LIVE:
                verb = "use-freed" if state[0] == _FREED else "use-stale"
                out.append((call, verb, handle, state[1]))
        elif attr in _COMPACT_ATTRS:
            # compaction relocates every live block: all tracked handles
            # must be re-resolved through the CompactionReport move map
            for name, state in list(env.items()):
                if state[0] == _LIVE:
                    env[name] = (_STALE, call.lineno)

    # (re)bindings come last: `h = alloc.allocate(n)` tracks a fresh
    # handle regardless of what `h` held before
    value = _assign_value(stmt)
    if not isinstance(stmt, ast.AugAssign):
        for target in _assign_targets(stmt):
            if isinstance(target, ast.Name):
                env.pop(target.id, None)
        if isinstance(value, ast.Call):
            _recv, attr = _attr_call(value)
            if attr in _GRANT_ATTRS | _RELOCATE_ATTRS:
                for target in _assign_targets(stmt):
                    if isinstance(target, ast.Name):
                        env[target.id] = (_LIVE, stmt.lineno)
    if isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                env.pop(target.id, None)
    for name in _loop_bound_names(stmt):
        env.pop(name, None)
    # escapes: a handle stored into a container or attribute may be
    # freed/reloaded through that alias; stop tracking it
    for target in _assign_targets(stmt):
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            for name_node in ast.walk(_assign_value(stmt) or target):
                if isinstance(name_node, ast.Name) and name_node.id in env:
                    env.pop(name_node.id, None)
    for call in _calls_in(stmt):
        _recv, attr = _attr_call(call)
        if attr in ("append", "add", "put", "insert", "push", "extend", "register"):
            for arg in call.args:
                for name_node in ast.walk(arg):
                    if isinstance(name_node, ast.Name):
                        env.pop(name_node.id, None)


_LMP011_VERBS = {
    "double-free": (
        "handle {h!r} was already freed at line {line}; freeing it again "
        "raises DoubleFreeError at runtime"
    ),
    "free-stale": (
        "handle {h!r} went stale at line {line} (relocated by compaction); "
        "freeing it raises StaleHandleError — re-resolve through the "
        "CompactionReport move map first"
    ),
    "use-freed": (
        "handle {h!r} was freed at line {line} and is used here; this is "
        "the UseAfterFreeError path the sanitizer only catches at runtime"
    ),
    "use-stale": (
        "handle {h!r} went stale at line {line} (relocated by compaction) "
        "and is used here; re-resolve through the CompactionReport move map"
    ),
}


class HandleLifecycleRule(Rule):
    """LMP011 — allocator handle used after ``free``/``relocate``.

    Tracks :class:`~repro.mem.allocator.FreeListAllocator` facts
    (``allocate``/``free``/``relocate``/``compact``) through the CFG.
    A handle freed or relocated on *any* path reaching a later
    ``free``/``relocate``/``resolve``/``read``/``write`` of the same
    variable is reported — the static twin of the arena's
    ``DoubleFreeError``/``StaleHandleError``/``UseAfterFreeError``.
    """

    id = "LMP011"
    title = "allocator handle used after free/relocate"

    def check_function(self, cfg: CFG, ctx: LintContext) -> list[Violation]:
        result = solve(cfg, _HandleDomain())
        findings: list[Violation] = []
        seen: set[tuple[int, int, str]] = set()
        for node in cfg.statements():
            env = dict(result.before(node.id))
            hits: list[tuple[ast.Call, str, str, int]] = []
            _handle_effects(node.stmt or ast.Pass(), env, hits)
            for call, verb, handle, line in hits:
                key = (call.lineno, call.col_offset, verb)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    self.violation(
                        ctx, call, _LMP011_VERBS[verb].format(h=handle, line=line)
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# LMP012 — resource leaked on some path to exit
# ---------------------------------------------------------------------------

_HELD = "held"
_RELEASED = "released"
_MAYBE = "maybe"

#: methods whose *result* is an owned resource bound to a variable
_RES_GRANT_ATTRS = frozenset({"allocate", "allocate_for", "alloc", "grant", "span"})
#: methods that release by handle argument
_RES_RELEASE_BY_ARG = frozenset({"free", "release"})
#: receiver-side release (``sem.release()``)
_RES_RELEASE_ATTRS = frozenset({"release", "close"})

_ResState = tuple[str, int]  # (fact, acquire line)
_ResEnv = dict[str, _ResState]


class _ResourceDomain(Domain[_ResEnv]):
    def boundary(self, cfg: CFG) -> _ResEnv:
        return {}

    def bottom(self, cfg: CFG) -> _ResEnv:
        return {}

    def join(self, a: _ResEnv, b: _ResEnv) -> _ResEnv:
        out = dict(a)
        for key, state in b.items():
            prior = out.get(key)
            if prior is None:
                out[key] = state
            elif prior[0] != state[0]:
                out[key] = (_MAYBE, min(prior[1], state[1]))
        return out

    def transfer(self, node: Node, value: _ResEnv) -> _ResEnv:
        if node.stmt is None:
            return value
        env = dict(value)
        _resource_effects(node.stmt, env)
        return env

    def exception_value(self, node: Node, before: _ResEnv, after: _ResEnv) -> _ResEnv:
        # a grant is atomic with its binding statement's success: if
        # `h = pool.allocate(...)` raises, nothing was granted, so the
        # handler must not see `h` as held
        value = self.join(before, after)
        stmt = node.stmt
        granted = _assign_value(stmt) if stmt is not None else None
        if stmt is not None and isinstance(granted, ast.Call):
            _recv, attr = _attr_call(granted)
            if attr in _RES_GRANT_ATTRS:
                for target in _assign_targets(stmt):
                    if isinstance(target, ast.Name):
                        if target.id in before:
                            value[target.id] = before[target.id]
                        else:
                            value.pop(target.id, None)
        return value


def _resource_effects(stmt: ast.stmt, env: _ResEnv) -> None:
    for call in _calls_in(stmt):
        recv, attr = _attr_call(call)
        if attr is None:
            continue
        if attr == "acquire" and recv is not None:
            # ``yield x.acquire()``: the *receiver* is what must be
            # released; the event variable is just plumbing
            env[recv] = (_HELD, call.lineno)
        elif attr in _RES_RELEASE_ATTRS and not call.args and recv is not None:
            if recv in env:
                env[recv] = (_RELEASED, env[recv][1])
        if attr in _RES_RELEASE_BY_ARG and call.args:
            arg = call.args[0]
            if isinstance(arg, ast.Name) and arg.id in env:
                env[arg.id] = (_RELEASED, env[arg.id][1])
    value = _assign_value(stmt)
    if isinstance(value, ast.Call) and not isinstance(stmt, ast.AugAssign):
        _recv, attr = _attr_call(value)
        if attr in _RES_GRANT_ATTRS:
            for target in _assign_targets(stmt):
                if isinstance(target, ast.Name):
                    env[target.id] = (_HELD, stmt.lineno)
    # ownership escapes: returned, yielded, or stored away — the caller
    # (or the container's owner) is responsible for the release now
    escaped: set[str] = set()
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Name):
                escaped.add(node.id)
    for target in _assign_targets(stmt):
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            source = _assign_value(stmt)
            if source is not None:
                for node in ast.walk(source):
                    if isinstance(node, ast.Name):
                        escaped.add(node.id)
    for call in _calls_in(stmt):
        _recv, attr = _attr_call(call)
        if attr in ("append", "add", "put", "insert", "push", "extend", "register"):
            for arg in call.args:
                for node in ast.walk(arg):
                    if isinstance(node, ast.Name):
                        escaped.add(node.id)
    for name in escaped:
        env.pop(name, None)
    for name in _loop_bound_names(stmt):
        env.pop(name, None)


class ResourceLeakRule(Rule):
    """LMP012 — resource released on some paths to exit but not all.

    A lease, allocation, lock or span acquired in this function and
    released on at least one path to the normal exit, but *held* on
    another, leaks exactly on the path tests rarely exercise.  The
    classic shape is a ``.release()`` in a ``try`` body whose ``except``
    arm swallows the failure: an exception at a ``yield`` inside the
    ``try`` skips the release, the semaphore slot leaks, and every later
    waiter blocks forever.  A resource that is never released at
    all is assumed to transfer ownership (returned, stored, freed by
    the caller) and is not reported.
    """

    id = "LMP012"
    title = "resource leaked on some path to exit"

    def check_function(self, cfg: CFG, ctx: LintContext) -> list[Violation]:
        result = solve(cfg, _ResourceDomain())
        at_exit = result.before(cfg.exit)
        findings: list[Violation] = []
        for key in sorted(at_exit):
            fact, line = at_exit[key]
            if fact != _MAYBE:
                continue
            anchor = ast.Pass()
            anchor.lineno = line
            anchor.col_offset = 0
            findings.append(
                self.violation(
                    ctx,
                    anchor,
                    f"resource {key!r} acquired here is released on some "
                    "paths to exit but not all (an exception arm or early "
                    "return skips the release); move the release to a "
                    "finally/with, or # noqa: LMP012 with the reason the "
                    "unreleased path is impossible",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# LMP013 — unit confusion (ns vs bytes vs bandwidth)
# ---------------------------------------------------------------------------

_TIME = "ns"
_BYTES = "bytes"
_BW = "bytes/ns"

#: repro.units constructors, by bare name
_UNIT_CONSTRUCTORS: dict[str, str] = {
    "ns": _TIME,
    "us": _TIME,
    "ms": _TIME,
    "seconds": _TIME,
    "kib": _BYTES,
    "mib": _BYTES,
    "gib": _BYTES,
    "gb": _BYTES,
    "gbps": _BW,
    "mbps": _BW,
}

#: formatters whose argument must be of a specific unit
_UNIT_SINKS: dict[str, str] = {
    "fmt_time": _TIME,
    "fmt_size": _BYTES,
    "fmt_bandwidth": _BW,
    # feeding an already-typed value to a constructor re-scales it
    "ns": _TIME,
    "us": _TIME,
    "ms": _TIME,
    "seconds": _TIME,
    "kib": _BYTES,
    "mib": _BYTES,
    "gib": _BYTES,
    "gb": _BYTES,
}

_UnitEnv = dict[str, str]


def _unit_from_name(name: str) -> str | None:
    """Infer a unit from ``*_ns`` / ``*_bytes`` naming conventions."""
    lowered = name.lower()
    if (
        "per_ns" in lowered
        or "bytes_per" in lowered
        or lowered.endswith("_gbps")
        or lowered.endswith("_bw")
    ):
        return _BW
    if lowered.endswith("_ns"):
        return _TIME
    if lowered.endswith("_bytes"):
        return _BYTES
    return None


class _UnitDomain(Domain["_UnitEnv | None"]):
    """Unit taint environment.  ``None`` is the unreached value — the
    join is an *intersection* (a binding survives a merge only when
    every incoming path agrees), so the identity element cannot be the
    empty dict."""

    def boundary(self, cfg: CFG) -> _UnitEnv:
        env: _UnitEnv = {}
        args = cfg.func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            unit = _unit_from_name(arg.arg)
            if unit is not None:
                env[arg.arg] = unit
        return env

    def bottom(self, cfg: CFG) -> _UnitEnv | None:
        return None

    def join(self, a: _UnitEnv | None, b: _UnitEnv | None) -> _UnitEnv | None:
        if a is None:
            return b
        if b is None:
            return a
        # agreeing bindings survive; conflicting ones drop to unknown
        return {k: v for k, v in a.items() if b.get(k) == v}

    def transfer(self, node: Node, value: _UnitEnv | None) -> _UnitEnv | None:
        if value is None or node.stmt is None:
            return value
        env = dict(value)
        _unit_effects(node.stmt, env, None, None)
        return env


def _unit_of(
    expr: ast.expr, env: _UnitEnv, out: list[tuple[ast.AST, str, str, str]] | None
) -> str | None:
    """Evaluate *expr*'s unit; collect (node, kind, left, right) findings."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id, _unit_from_name(expr.id))
    if isinstance(expr, ast.Attribute):
        return _unit_from_name(expr.attr)
    if isinstance(expr, ast.UnaryOp):
        return _unit_of(expr.operand, env, out)
    if isinstance(expr, ast.IfExp):
        a = _unit_of(expr.body, env, out)
        b = _unit_of(expr.orelse, env, out)
        _unit_of(expr.test, env, out)
        return a if a == b else None
    if isinstance(expr, ast.Compare):
        units = [_unit_of(expr.left, env, out)]
        units.extend(_unit_of(c, env, out) for c in expr.comparators)
        known = [u for u in units if u is not None]
        if out is not None and len(set(known)) > 1:
            pair = sorted(set(known))
            out.append((expr, "compare", pair[0], pair[1]))
        return None
    if isinstance(expr, ast.BoolOp):
        for operand in expr.values:
            _unit_of(operand, env, out)
        return None
    if isinstance(expr, ast.BinOp):
        left = _unit_of(expr.left, env, out)
        right = _unit_of(expr.right, env, out)
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                if left != right:
                    if out is not None:
                        out.append((expr, "arith", left, right))
                    return None
                return left
            return left or right
        if isinstance(expr.op, ast.Mult):
            pair = {left, right}
            if pair == {_BW, _TIME}:
                return _BYTES
            return None
        if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
            if left == _BYTES and right == _TIME:
                return _BW
            if left == _BYTES and right == _BW:
                return _TIME
            if left is not None and left == right:
                return None  # dimensionless ratio
            if left is not None and right is None:
                return left  # scaling by a plain number
            return None
        return None
    if isinstance(expr, ast.Call):
        return _unit_of_call(expr, env, out)
    return None


def _unit_of_call(
    call: ast.Call, env: _UnitEnv, out: list[tuple[ast.AST, str, str, str]] | None
) -> str | None:
    name: str | None = None
    if isinstance(call.func, ast.Name):
        name = call.func.id
    elif isinstance(call.func, ast.Attribute):
        dotted = dotted_name(call.func)
        if dotted is not None and dotted.startswith("units."):
            name = call.func.attr
    arg_units = [_unit_of(arg, env, out) for arg in call.args]
    for kw in call.keywords:
        kw_unit = _unit_of(kw.value, env, out)
        if kw.arg is None or kw_unit is None:
            continue
        expected = _unit_from_name(kw.arg)
        if expected is not None and expected != kw_unit and out is not None:
            out.append((kw.value, f"kwarg {kw.arg}", expected, kw_unit))
    if name is not None:
        sink = _UNIT_SINKS.get(name)
        if (
            sink is not None
            and arg_units
            and arg_units[0] is not None
            and arg_units[0] != sink
            and out is not None
        ):
            out.append((call, f"argument of {name}()", sink, arg_units[0]))
        ctor = _UNIT_CONSTRUCTORS.get(name)
        if ctor is not None:
            return ctor
        if name in ("int", "float", "round", "abs"):
            return arg_units[0] if arg_units else None
        if name in ("min", "max", "sum"):
            known = {u for u in arg_units if u is not None}
            if len(known) > 1 and out is not None:
                pair = sorted(known)
                out.append((call, f"arguments of {name}()", pair[0], pair[1]))
            return arg_units[0] if len(known) == 1 and arg_units else None
    return None


def _unit_effects(
    stmt: ast.stmt,
    env: _UnitEnv,
    out: list[tuple[ast.AST, str, str, str]] | None,
    callgraph: CallGraph | None,
) -> None:
    # evaluate every expression the statement contains (for findings),
    # then apply bindings
    if isinstance(stmt, ast.AugAssign):
        target_unit: str | None = None
        if isinstance(stmt.target, ast.Name):
            target_unit = env.get(stmt.target.id, _unit_from_name(stmt.target.id))
        elif isinstance(stmt.target, ast.Attribute):
            target_unit = _unit_from_name(stmt.target.attr)
        value_unit = _unit_of(stmt.value, env, out)
        if (
            target_unit is not None
            and value_unit is not None
            and target_unit != value_unit
            and isinstance(stmt.op, (ast.Add, ast.Sub))
            and out is not None
        ):
            out.append((stmt, "augmented assignment", target_unit, value_unit))
        return
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        value = _assign_value(stmt)
        if value is None:
            return
        value_unit = _unit_of(value, env, out)
        for target in _assign_targets(stmt):
            if isinstance(target, ast.Name):
                declared = _unit_from_name(target.id)
                if (
                    declared is not None
                    and value_unit is not None
                    and declared != value_unit
                    and out is not None
                ):
                    out.append((stmt, f"assignment to {target.id}", declared, value_unit))
                if value_unit is not None:
                    env[target.id] = value_unit
                else:
                    env.pop(target.id, None)
            elif isinstance(target, ast.Tuple):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        env.pop(element.id, None)
        return
    # positional arguments into known in-tree callees
    if callgraph is not None and out is not None:
        for call in _calls_in(stmt):
            callee: str | None = None
            if isinstance(call.func, ast.Name):
                callee = call.func.id
            elif isinstance(call.func, ast.Attribute):
                callee = call.func.attr
            if callee is None or callee in _UNIT_SINKS or callee in _UNIT_CONSTRUCTORS:
                continue
            params = callgraph.unique_params(callee)
            if params is None:
                continue
            offset = 1 if params and params[0] in ("self", "cls") else 0
            for index, arg in enumerate(call.args):
                if offset + index >= len(params):
                    break
                expected = _unit_from_name(params[offset + index])
                if expected is None:
                    continue
                got = _unit_of(arg, env, None)
                if got is not None and got != expected:
                    out.append(
                        (arg, f"argument {params[offset + index]!r}", expected, got)
                    )
    # remaining statements get their header expressions checked
    for probe in probe_exprs(stmt):
        if isinstance(probe, ast.expr):
            _unit_of(probe, env, out)
        elif isinstance(probe, ast.stmt):
            for child in ast.iter_child_nodes(probe):
                if isinstance(child, ast.expr):
                    _unit_of(child, env, out)
    for name in _loop_bound_names(stmt):
        env.pop(name, None)


class UnitConfusionRule(Rule):
    """LMP013 — nanoseconds and bytes mixing in one expression.

    Taint starts at the :mod:`repro.units` constructors (``ns``/``us``/
    ``ms`` vs ``kib``/``mib``/``gib`` vs ``gbps``) and at ``*_ns`` /
    ``*_bytes`` names, and flows through assignments.  Adding,
    subtracting, comparing, or min/max-ing a time against a size — or
    passing one where the parameter name declares the other — is
    silent corruption no runtime layer can see (both are plain
    numbers), so it is an error here.
    """

    id = "LMP013"
    title = "unit confusion (ns vs bytes vs bandwidth)"

    def check_function(self, cfg: CFG, ctx: LintContext) -> list[Violation]:
        result = solve(cfg, _UnitDomain())
        findings: list[Violation] = []
        seen: set[tuple[int, int, str]] = set()
        for node in cfg.statements():
            if node.stmt is None:
                continue
            incoming = result.before(node.id)
            env = dict(incoming) if incoming is not None else {}
            hits: list[tuple[ast.AST, str, str, str]] = []
            _unit_effects(node.stmt, env, hits, ctx.callgraph)
            for where, kind, left, right in hits:
                key = (
                    getattr(where, "lineno", node.line),
                    getattr(where, "col_offset", 0),
                    kind,
                )
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    self.violation(
                        ctx,
                        where,
                        f"unit confusion in {kind}: {left} vs {right} "
                        "(ns-valued and bytes-valued expressions must not mix)",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# LMP014 — yield discipline for sim-time waits
# ---------------------------------------------------------------------------

#: waits whose bare-statement result is silently dropped: every DES wait
#: but ``wait``, which names blocking calls outside the DES too (a thread,
#: a barrier, a subprocess) whose bare statement does wait
_ENGINE_WAIT_ATTRS = WAIT_ATTRS - {"wait"}


class YieldDisciplineRule(Rule):
    """LMP014 — a sim-time wait that can never consume sim time.

    In the DES, time passes only when a generator *yields* an event.
    Two shapes silently break that: ``engine.timeout(d)`` (or
    ``sem.acquire()``, a transfer, a migration) as a bare statement —
    the event is created and dropped, the wait evaporates — and a call
    to an in-tree sim-time-consuming generator (one that yields waits,
    found through the call graph) whose generator object is discarded
    or yielded as a value instead of delegated with ``yield from`` or
    handed to ``engine.process(...)``.
    """

    id = "LMP014"
    title = "sim-time wait dropped without a yield"

    def check_function(self, cfg: CFG, ctx: LintContext) -> list[Violation]:
        waiting = ctx.callgraph.time_consuming_generators()
        findings: list[Violation] = []
        for node in cfg.statements():
            stmt = node.stmt
            if not isinstance(stmt, ast.Expr):
                continue
            value = stmt.value
            if isinstance(value, ast.Call):
                findings.extend(self._bare_call(value, cfg, ctx, waiting))
            elif isinstance(value, ast.Yield) and isinstance(value.value, ast.Call):
                callee = self._callee_name(value.value)
                if callee in waiting:
                    findings.append(
                        self.violation(
                            ctx,
                            value.value,
                            f"yield of generator {callee}() yields the generator "
                            "object itself, not its waits; use `yield from "
                            f"{callee}(...)` (or run it as its own process)",
                        )
                    )
        return findings

    def _callee_name(self, call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Name):
            return call.func.id
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        return None

    def _bare_call(
        self, call: ast.Call, cfg: CFG, ctx: LintContext, waiting: frozenset[str]
    ) -> list[Violation]:
        _recv, attr = _attr_call(call)
        if attr == "transfer" and any(
            kw.arg == "on_complete" for kw in call.keywords
        ):
            # callback fluid handoff: `fluid.transfer(..., on_complete=cb)`
            # hands the wait to the solver's completion callback — the
            # event is consumed, just not by a yield
            return []
        if attr in _ENGINE_WAIT_ATTRS:
            where = "generator" if cfg.is_generator else "non-generator frame"
            return [
                self.violation(
                    ctx,
                    call,
                    f".{attr}() creates a sim-time event that this bare "
                    f"statement immediately drops ({where}); yield it, or the "
                    "wait never happens",
                )
            ]
        callee = self._callee_name(call)
        if callee in waiting and callee is not None:
            frame = "generator" if cfg.is_generator else "non-generator frame"
            fix = (
                f"delegate with `yield from {callee}(...)`"
                if cfg.is_generator
                else f"run it with `engine.process({callee}(...))`"
            )
            return [
                self.violation(
                    ctx,
                    call,
                    f"{callee}() is a sim-time-consuming generator; calling it "
                    f"from this {frame} and discarding the result means none "
                    f"of its waits ever run — {fix}",
                )
            ]
        return []


# ---------------------------------------------------------------------------
# LMP015 — dead store to a charged-cost accumulator
# ---------------------------------------------------------------------------

_LiveSet = frozenset[str]


class _LivenessDomain(Domain[_LiveSet]):
    direction = BACKWARD

    def boundary(self, cfg: CFG) -> _LiveSet:
        return frozenset()

    def bottom(self, cfg: CFG) -> _LiveSet:
        return frozenset()

    def join(self, a: _LiveSet, b: _LiveSet) -> _LiveSet:
        return a | b

    def transfer(self, node: Node, value: _LiveSet) -> _LiveSet:
        if node.stmt is None:
            return value
        defs, uses = _defs_uses(node.stmt)
        return (value - defs) | uses


def _defs_uses(stmt: ast.stmt) -> tuple[frozenset[str], frozenset[str]]:
    """Names this statement's *node* stores and loads (header-granular:
    a compound statement's body belongs to other nodes)."""
    defs: set[str] = set()
    uses: set[str] = set()
    for probe in probe_exprs(stmt):
        for node in ast.walk(probe):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    defs.add(node.id)
                else:
                    uses.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # free variables of nested functions count as uses
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                        uses.add(inner.id)
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        uses.add(stmt.target.id)
    return frozenset(defs), frozenset(uses)


def _is_cost_name(name: str) -> bool:
    return "cost" in name.lower() and not name.startswith("_")


class DeadCostStoreRule(Rule):
    """LMP015 — a cost computed but never charged.

    The honest-accounting contract (compaction, migration, transfers)
    is that every modeled cost reaches the DES clock — as a
    ``yield engine.timeout(cost_ns)``, a field on a report, or a
    metrics charge.  A store to a cost-named variable whose value is
    dead on every outgoing path is a cost the model computed and then
    silently discarded: the scenario's timing claims are quietly wrong.
    """

    id = "LMP015"
    title = "dead store to a charged-cost accumulator"

    def check_function(self, cfg: CFG, ctx: LintContext) -> list[Violation]:
        result = solve(cfg, _LivenessDomain())
        # a statement can occupy several CFG nodes (finally bodies are
        # instantiated once per continuation); the store is dead only
        # when it is dead in EVERY instance — a cost read on the normal
        # fall-through is charged even if the exception instance dies
        candidates: dict[int, tuple[ast.stmt, str, list[bool]]] = {}
        for node in cfg.statements():
            stmt = node.stmt
            target: ast.Name | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                candidate = stmt.targets[0]
                if isinstance(candidate, ast.Name):
                    target = candidate
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(stmt.target, ast.Name) and _assign_value(stmt) is not None:
                    target = stmt.target
            if target is None or not _is_cost_name(target.id):
                continue
            assert stmt is not None
            entry = candidates.setdefault(id(stmt), (stmt, target.id, []))
            entry[2].append(target.id not in result.after(node.id))
        findings: list[Violation] = []
        for stmt, name, dead in candidates.values():
            if all(dead):
                findings.append(
                    self.violation(
                        ctx,
                        stmt,
                        f"cost accumulator {name!r} is computed here but "
                        "never read afterwards on any path — the cost is never "
                        "charged to the DES clock (or any report)",
                    )
                )
        return findings
