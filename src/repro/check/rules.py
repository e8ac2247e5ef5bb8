"""The ``LMP`` lint rules: simulation-correctness hazards as AST checks.

The whole evaluation rests on the DES being deterministic — ratios are
only trustworthy if reruns reproduce bit-identical traces.  Full-system
CXL simulators validate themselves against silicon; we have no
hardware, so these rules (plus the runtime sanitizers) are the
substitute.  Each rule is a small class with an id, a docstring that
doubles as its rationale, and an ``autofixable`` flag consumed by
``python -m repro check --fix``.

This module holds the rule base, the per-file context, and the
syntactic rules (LMP003–LMP010), which see one AST at a time.  The
flow rules in :mod:`repro.check.flow.rules` (LMP011–LMP015) share the
same base: they implement :meth:`Rule.check_function` over each
function's CFG instead of :meth:`Rule.check` over the whole tree.

Rules are scoped by *subsystem*: the first package component after
``repro`` (``sim``, ``core``, ``fabric``, ``hw``, …).  A rule with
``subsystems = None`` applies everywhere.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import pathlib
import typing as _t

from repro.check.flow.callgraph import CallGraph, dotted_name
from repro.check.flow.cfg import CFG, build_cfg, iter_functions


@dataclasses.dataclass(frozen=True)
class Violation:
    """One lint finding, pointing at a source location."""

    rule_id: str
    path: pathlib.Path
    line: int
    col: int
    message: str
    autofixable: bool = False
    #: for autofixable violations: the (lineno, col, end_lineno, end_col)
    #: span of the expression to rewrite, 1-based lines / 0-based cols
    fix_span: tuple[int, int, int, int] | None = None

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} {self.message}"


@dataclasses.dataclass(frozen=True)
class LintContext:
    """Where a module sits in the tree, plus what the flow rules share."""

    path: pathlib.Path
    subsystem: str | None  # first package component after "repro", if any
    #: every function in the linted modules, by name (LMP013/LMP014)
    callgraph: CallGraph = dataclasses.field(compare=False)
    #: the module's parse tree, which :attr:`cfgs` is built from
    tree: ast.AST | None = dataclasses.field(default=None, compare=False)

    @classmethod
    def for_path(
        cls,
        path: pathlib.Path,
        callgraph: CallGraph | None = None,
        tree: ast.AST | None = None,
    ) -> "LintContext":
        parts = path.parts
        subsystem: str | None = None
        for i, part in enumerate(parts):
            if part == "repro" and i + 2 < len(parts):
                # repro/<subsystem>/.../module.py
                subsystem = parts[i + 1]
                break
        return cls(
            path=path,
            subsystem=subsystem,
            callgraph=callgraph or CallGraph(),
            tree=tree,
        )

    @functools.cached_property
    def cfgs(self) -> tuple[CFG, ...]:
        """Each function's CFG, built on first use and shared by every
        flow rule that runs on this module."""
        if self.tree is None:
            return ()
        return tuple(build_cfg(func) for func in iter_functions(self.tree))


class Rule:
    """Base class: subclasses define ``id``, ``title``, and either
    ``check`` (whole tree) or ``check_function`` (one CFG at a time)."""

    id: _t.ClassVar[str] = "LMP000"
    title: _t.ClassVar[str] = ""
    autofixable: _t.ClassVar[bool] = False
    #: subsystems the rule applies to, or None for all modules
    subsystems: _t.ClassVar[frozenset[str] | None] = None

    def applies(self, ctx: LintContext) -> bool:
        return self.subsystems is None or ctx.subsystem in self.subsystems

    def check(self, tree: ast.AST, ctx: LintContext) -> list[Violation]:
        # per-continuation finally instances duplicate statement nodes
        # in a CFG; identical findings from two instances collapse to one
        return list(
            dict.fromkeys(
                violation
                for cfg in ctx.cfgs
                for violation in self.check_function(cfg, ctx)
            )
        )

    def check_function(self, cfg: CFG, ctx: LintContext) -> list[Violation]:
        raise NotImplementedError

    def violation(
        self,
        ctx: LintContext,
        node: ast.AST,
        message: str,
        fix_span: tuple[int, int, int, int] | None = None,
    ) -> Violation:
        return Violation(
            rule_id=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            autofixable=self.autofixable and fix_span is not None,
            fix_span=fix_span,
        )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "set"
    return False


def _is_dict_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "dict"
    return False


def _collect_typed_names(
    scope: ast.AST, predicate: _t.Callable[[ast.AST], bool]
) -> set[str]:
    """Names always bound by simple assignment to values matching
    *predicate* in *scope* (conservative: one other binding disqualifies)."""
    matches: dict[str, bool] = {}
    for node in ast.walk(scope):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                hit = predicate(value)
                matches[target.id] = matches.get(target.id, hit) and hit
    return {name for name, flag in matches.items() if flag}


def _collect_set_names(scope: ast.AST) -> set[str]:
    """Names assigned a set expression by simple assignment in *scope*.

    A name loses set-ness if any assignment binds it to something else
    (conservative: we only track names that are *always* sets here).
    """
    return _collect_typed_names(scope, _is_set_expr)


def _collect_dict_names(scope: ast.AST) -> set[str]:
    """Names always assigned dict expressions in *scope*."""
    return _collect_typed_names(scope, _is_dict_expr)


class SetIterationRule(Rule):
    """LMP003 — ``for`` over a bare set or dict view in dispatch paths.

    Set iteration order depends on element hashes, and for strings that
    order changes per process (``PYTHONHASHSEED``).  Dict views iterate
    in insertion order, which is deterministic only if the *insertion
    sequence* was — a dict populated from set iteration, ``**kwargs`` or
    hash-ordered sources silently inherits the nondeterminism.  When the
    loop body touches simulation state — sends invalidations, pops
    events — runs stop being reproducible.  Iterate ``sorted(...)`` (or
    keep an explicitly ordered ``list``) instead.  Autofix wraps the
    iterable — bare set, bare locally-built dict, ``.keys()`` or
    ``.values()`` view — in ``sorted(...)``.
    """

    id = "LMP003"
    title = "iteration over unordered set"
    autofixable = True
    subsystems = frozenset({"sim", "core", "fabric"})

    def _span(self, node: ast.expr) -> tuple[int, int, int, int] | None:
        if node.end_lineno is None or node.end_col_offset is None:
            return None
        return (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)

    def _dict_view(self, it: ast.expr, dict_names: set[str]) -> str | None:
        """Describe *it* if it iterates a tracked dict's view, else None."""
        if isinstance(it, ast.Name) and it.id in dict_names:
            return f"dict {it.id!r}"
        if (
            isinstance(it, ast.Call)
            and not it.args
            and not it.keywords
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in ("keys", "values")
            and isinstance(it.func.value, ast.Name)
            and it.func.value.id in dict_names
        ):
            return f"{it.func.value.id}.{it.func.attr}()"
        return None

    def check(self, tree: ast.AST, ctx: LintContext) -> list[Violation]:
        out: list[Violation] = []
        scopes: list[ast.AST] = [tree]
        scopes.extend(
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        seen: set[tuple[int, int]] = set()
        for scope in scopes:
            set_names = _collect_set_names(scope)
            dict_names = _collect_dict_names(scope)
            for node in ast.walk(scope):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                it = node.iter
                key = (it.lineno, it.col_offset)
                if key in seen:
                    continue
                if _is_set_expr(it) or (
                    isinstance(it, ast.Name) and it.id in set_names
                ):
                    seen.add(key)
                    out.append(
                        self.violation(
                            ctx,
                            node,
                            "for-loop over a set has hash-dependent order; "
                            "iterate sorted(...) or an ordered structure",
                            fix_span=self._span(it),
                        )
                    )
                    continue
                view = self._dict_view(it, dict_names)
                if view is not None:
                    seen.add(key)
                    out.append(
                        self.violation(
                            ctx,
                            node,
                            f"for-loop over {view} iterates in insertion "
                            "order, which is only as deterministic as the "
                            "insertion sequence; iterate sorted(...)",
                            fix_span=self._span(it),
                        )
                    )
        return out


_TIME_NAMES = frozenset({"now", "_now", "deadline", "sim_time", "elapsed", "when"})


class FloatTimeEqualityRule(Rule):
    """LMP004 — ``==`` / ``!=`` on simulated-time floats.

    Simulation time is a float accumulated by addition; two paths to
    "the same" instant differ in the last ulp, so equality silently
    becomes machine-specific.  Compare with ``<=`` ordering or an
    explicit tolerance (``math.isclose``).
    """

    id = "LMP004"
    title = "float equality on simulated time"
    subsystems = frozenset({"sim", "core", "fabric", "hw"})

    def _is_time_operand(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in _TIME_NAMES
        if isinstance(node, ast.Name):
            return node.id in _TIME_NAMES
        return False

    def check(self, tree: ast.AST, ctx: LintContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_time_operand(left) or self._is_time_operand(right):
                    # integer literals are exact: `t == 0` is fine
                    other = right if self._is_time_operand(left) else left
                    if isinstance(other, ast.Constant) and isinstance(other.value, int):
                        continue
                    out.append(
                        self.violation(
                            ctx,
                            node,
                            "float == on simulated time; use ordering or math.isclose",
                        )
                    )
        return out


class MutableDefaultRule(Rule):
    """LMP005 — mutable default arguments.

    A ``def f(xs=[])`` default is created once and shared by every
    call; state leaks across scenarios and across test runs, which is
    both a correctness bug and a reproducibility hazard.  Default to
    ``None`` and construct inside the function.
    """

    id = "LMP005"
    title = "mutable default argument"
    subsystems = None

    def check(self, tree: ast.AST, ctx: LintContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set", "bytearray")
                )
                if bad:
                    out.append(
                        self.violation(
                            ctx,
                            default,
                            "mutable default argument is shared across calls; "
                            "default to None",
                        )
                    )
        return out


class SetPopRule(Rule):
    """LMP006 — ``set.pop()`` / ``next(iter(set))`` picks an arbitrary element.

    ``some_set.pop()`` removes a hash-order-dependent element; in an
    event-dispatch or coherence path that choice changes which host gets
    invalidated first.  Use ``min``/``max`` or sort for a deterministic
    pick.
    """

    id = "LMP006"
    title = "arbitrary element choice from a set"
    subsystems = frozenset({"sim", "core", "fabric"})

    def check(self, tree: ast.AST, ctx: LintContext) -> list[Violation]:
        out: list[Violation] = []
        scopes: list[ast.AST] = [tree]
        scopes.extend(
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        seen: set[tuple[int, int]] = set()
        for scope in scopes:
            set_names = _collect_set_names(scope)
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue
                func = node.func
                # <tracked set>.pop() with no arguments
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "pop"
                    and not node.args
                    and not node.keywords
                    and isinstance(func.value, ast.Name)
                    and func.value.id in set_names
                ):
                    seen.add(key)
                    out.append(
                        self.violation(
                            ctx, node, "set.pop() removes an arbitrary element"
                        )
                    )
                # next(iter(<set expr>))
                elif (
                    isinstance(func, ast.Name)
                    and func.id == "next"
                    and node.args
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "iter"
                    and node.args[0].args
                    and (
                        _is_set_expr(node.args[0].args[0])
                        or (
                            isinstance(node.args[0].args[0], ast.Name)
                            and node.args[0].args[0].id in set_names
                        )
                    )
                ):
                    seen.add(key)
                    out.append(
                        self.violation(
                            ctx, node, "next(iter(set)) picks an arbitrary element"
                        )
                    )
        return out


#: call attributes that enter a synchronization scope (locks, semaphores,
#: barriers, leases — a lease *is* exclusive ownership of its buffer)
_SYNC_ENTRY_ATTRS = frozenset({"acquire", "wait"})
_WRITE_ATTRS = frozenset({"write", "write_v"})
#: timed accesses: a write unless their ``write`` flag (the ``write=``
#: keyword, else the last positional argument) is a literal ``False``
_TIMED_ATTRS = frozenset({"timed", "timed_v"})


def _is_write_call(call: ast.Call, attr: str) -> bool:
    if attr in _WRITE_ATTRS:
        return True
    if attr not in _TIMED_ATTRS:
        return False
    flags = [kw.value for kw in call.keywords if kw.arg == "write"]
    flag = flags[0] if flags else (call.args[-1] if call.args else None)
    return not (isinstance(flag, ast.Constant) and flag.value is False)


def _pos(node: ast.AST) -> tuple[int, int]:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


def _scopes(tree: ast.AST) -> list[ast.AST]:
    scopes: list[ast.AST] = [tree]
    scopes.extend(
        n
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return scopes


def _direct_walk(scope: ast.AST) -> _t.Iterator[ast.AST]:
    """Walk *scope* without descending into nested function definitions."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class SharedWriteOutsideSyncRule(Rule):
    """LMP007 — shared-region write with no sync scope in tenant code.

    ``cluster`` and ``workloads`` code runs many concurrent processes
    against one pool; a ``.write()`` / ``.write_v()`` (or a timed
    ``.timed()`` / ``.timed_v()`` whose write flag is not a literal
    ``False``) in a function that never enters a synchronization scope
    (no ``.acquire()`` or ``.wait()`` on a lock, semaphore, barrier, or
    lease manager before it) is exactly the shape the runtime race
    detector flags dynamically — this rule catches it statically,
    before the interleaving ever runs.  If the write is protected by construction
    (single writer, disjoint offsets reserved synchronously), suppress
    with ``# noqa: LMP007`` and say why in a comment.
    """

    id = "LMP007"
    title = "shared write outside a sync scope"
    subsystems = frozenset({"cluster", "workloads", "scale"})

    def check(self, tree: ast.AST, ctx: LintContext) -> list[Violation]:
        out: list[Violation] = []
        for scope in _scopes(tree):
            writes: list[ast.Call] = []
            sync_entries: list[tuple[int, int]] = []
            for node in _direct_walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in _SYNC_ENTRY_ATTRS:
                    sync_entries.append(_pos(node))
                elif _is_write_call(node, func.attr):
                    writes.append(node)
            for call in writes:
                assert isinstance(call.func, ast.Attribute)
                if any(entry <= _pos(call) for entry in sync_entries):
                    continue  # a sync scope was entered before this write
                out.append(
                    self.violation(
                        ctx,
                        call,
                        f".{call.func.attr}() on shared memory with no "
                        "preceding sync-scope entry (.acquire()/.wait()) in "
                        "this function; guard it or # noqa: LMP007 with a "
                        "reason",
                    )
                )
        return out


#: modules allowed to print: CLI surfaces whose *job* is stdout
_PRINT_EXEMPT_SUFFIXES = ("cli.py", "check/runner.py", "analysis/report.py")


class BarePrintRule(Rule):
    """LMP009 — bare ``print()`` in library code.

    A ``print()`` inside the simulator or its models writes straight to
    the host's stdout: it cannot be captured by the metrics pipeline,
    breaks quiet runs under pytest/CI, and tempts ad-hoc debugging
    output into committed code.  Route numbers through ``repro.obs``
    (spans/metrics) or return values for the caller to render.  The CLI
    (``cli.py``), the check runner, and the report renderers are
    exempt — stdout is their interface.
    Suppress intentional prints with ``# noqa: LMP009``.
    """

    id = "LMP009"
    title = "bare print() in library code"
    subsystems = None

    def applies(self, ctx: LintContext) -> bool:
        if "repro" not in ctx.path.parts:
            return False
        posix = ctx.path.as_posix()
        return not any(posix.endswith(suffix) for suffix in _PRINT_EXEMPT_SUFFIXES)

    def check(self, tree: ast.AST, ctx: LintContext) -> list[Violation]:
        out: list[Violation] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                out.append(
                    self.violation(
                        ctx,
                        node,
                        "bare print() in library code; route through repro.obs "
                        "metrics/spans or return the value (# noqa: LMP009 if "
                        "intentional)",
                    )
                )
        return out


#: host-clock reads, by ``time`` function and ``datetime`` method
_WALL_CLOCK_FUNCS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


#: ambient entropy sources: dotted call names whose result differs on
#: every invocation regardless of any seed
_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.randbits",
        "secrets.choice",
    }
)

#: ``random`` module attributes that build an isolated, seedable stream
#: rather than draw from the interpreter-global generator
_RANDOM_OK = frozenset({"Random", "SystemRandom"})

#: modules allowed to read the host clock: CLI surfaces that report
#: wall-clock timings as part of their human-facing output
_CLOCK_EXEMPT_SUFFIXES = ("cli.py", "check/runner.py")


class AmbientNondeterminismRule(Rule):
    """LMP010 — wall clock or ambient randomness in library code.

    ``time.time()`` / ``datetime.now()`` inside a simulated component
    leaks host time into the model, so results change run to run and
    the trace diff harness can never pass; simulated components must
    read ``engine.now`` only.  Outside the simulator the hazard is the
    same in a quieter form: a ``time.time()`` in the control plane, a
    ``uuid.uuid4()`` naming a lease, or an ``os.urandom()`` seeding a
    workload makes two runs of the same scenario differ even though
    the DES itself is deterministic — the determinism harness then
    diffs noise, and cached results stop being comparable.  A
    module-level ``random.randint(...)`` is the seeded form of the same
    hazard: it draws from the interpreter-global generator, so any other
    component (or pytest plugin) touching it perturbs every sequence
    after it; constructing ``random.Random(seed)`` is fine — that *is*
    an isolated stream.  Take timestamps from ``engine.now``, ids from
    counters, and randomness from an injected ``random.Random`` /
    ``sim.rng`` stream.  The CLI and the check runner are exempt
    (reporting wall-clock timings is their interface); suppress
    intentional reads with ``# noqa: LMP010``.
    """

    id = "LMP010"
    title = "wall clock or ambient randomness in library code"
    subsystems = None

    def applies(self, ctx: LintContext) -> bool:
        if "repro" not in ctx.path.parts:
            return False
        posix = ctx.path.as_posix()
        return not any(posix.endswith(suffix) for suffix in _CLOCK_EXEMPT_SUFFIXES)

    def check(self, tree: ast.AST, ctx: LintContext) -> list[Violation]:
        out: list[Violation] = []
        from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "time",
                "os",
                "uuid",
                "secrets",
                "random",
            ):
                for alias in node.names:
                    from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            dotted = from_imports.get(dotted, dotted)
            head, _, tail = dotted.rpartition(".")
            if (head.split(".")[-1] == "time" and tail in _WALL_CLOCK_FUNCS) or (
                "datetime" in head.split(".") and tail in _DATETIME_FUNCS
            ):
                out.append(
                    self.violation(
                        ctx,
                        node,
                        f"wall-clock call {dotted}() in library code; use "
                        "engine.now (# noqa: LMP010 if intentional)",
                    )
                )
            elif dotted in _ENTROPY_CALLS:
                out.append(
                    self.violation(
                        ctx,
                        node,
                        f"ambient entropy {dotted}() defeats seeded "
                        "reproducibility; use a counter or an injected "
                        "random.Random (# noqa: LMP010 if intentional)",
                    )
                )
            elif head == "random" and tail not in _RANDOM_OK:
                out.append(
                    self.violation(
                        ctx,
                        node,
                        f"{dotted}() uses the process-global generator; draw "
                        "from an injected random.Random / sim.rng stream "
                        "(# noqa: LMP010 if intentional)",
                    )
                )
        return out
