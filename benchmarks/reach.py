"""Which functions under ``src/repro`` does any entry point run?

::

    python benchmarks/reach.py           # trace, print the classified list
    python benchmarks/reach.py --check   # ... and exit 1 on an unexplained one

Every entry point runs in-process under a call tracer that records the
first entry into each code object: ``repro run all``, the full
``repro check`` (lint, mutants, model, races, determinism, ``--fix`` on a
copy, json/github formats), ``repro run cluster --obs`` and ``repro obs``,
every ``examples/*.py``, the five ``--smoke`` benches and lmpbench
``--quick`` on its four workloads.  Outputs go to a temporary directory;
nothing in the tree is written.  The timing gates run in their
measure-only form (``--capture``) or are reported, not enforced: the
tracer slows every call.

Every ``def`` under ``src/repro`` is enumerated with :mod:`ast` and
matched to a code object by file and first line (the first decorator's
line for a decorated function, which is ``co_firstlineno``).  Each
function no entry point entered gets one class:

(a) untaken branch
    its name is referenced from live code: an entered function, a
    function already kept, or ``examples/`` and ``benchmarks/``.  A
    method also needs its class to be live.
(b)-(e) kept
    safety paths, declarations, ``--obs`` seam handlers and test
    oracles, listed with a reason in ``baselines/REACH_kept.txt``
    (``path:qualname  (class) reason``, paths relative to
    ``src/repro``).  A declaration the script recognises (abstract or
    protocol method, stub body) is labelled (c) even when not listed.
(f) test-only
    none of the above: referenced only from ``tests/``, docs or package
    re-exports, or from nowhere.  ``--check`` fails on every
    one, and on every keep-list line that names no function.
"""

from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import dataclasses
import importlib.util
import io
import os
import pathlib
import re
import shutil
import sys
import tempfile
import threading
import traceback
import typing as _t

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
KEPT = ROOT / "benchmarks" / "baselines" / "REACH_kept.txt"

#: directories whose code counts as live for class (a)
LIVE_ROOTS = (ROOT / "examples", ROOT / "benchmarks")
#: directories searched to tell test-only from unreferenced
TEST_ROOTS = (ROOT / "tests",)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# --- enumeration -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Def:
    """One ``def`` in the package."""

    path: str  # relative to the package root, '/'-separated
    qualname: str
    line: int  # co_firstlineno: the first decorator's line, else the def's
    end: int
    name: str
    cls: str | None  # the enclosing class, when a method
    declaration: bool  # abstract, protocol, or stub body

    @property
    def ident(self) -> tuple[str, int]:
        """Unique per def, and what the tracer records."""
        return (self.path, self.line)

    @property
    def key(self) -> str:
        """Unique per def but for property setters: the keep-list name."""
        return f"{self.path}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.end - self.line + 1


class _Refs(ast.NodeVisitor):
    """Names a piece of code refers to: bare names it reads but does
    not bind itself, attribute names, names imported inside it, and
    identifier-shaped string constants (``getattr`` targets, registry
    keys).  Annotations are skipped; they type values and call nothing."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.loads: set[str] = set()
        self.bound: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        (self.loads if isinstance(node.ctx, ast.Load) else self.bound).add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.add(node.attr)
        self.visit(node.value)

    def visit_alias(self, node: ast.alias) -> None:
        self.names.add(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _IDENTIFIER.match(node.value):
            self.names.add(node.value)

    def visit_arg(self, node: ast.arg) -> None:
        self.bound.add(node.arg)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def _nested(self, node: ast.AST) -> None:
        # a nested def is a Def of its own; only its decorators and
        # defaults run as part of the enclosing body
        for child in getattr(node, "decorator_list", []):
            self.visit(child)
        args = getattr(node, "args", None)
        if args is not None:
            for default in [*args.defaults, *args.kw_defaults]:
                if default is not None:
                    self.visit(default)

    visit_FunctionDef = visit_AsyncFunctionDef = _nested

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in [*node.bases, *node.decorator_list]:
            self.visit(child)
        for stmt in node.body:
            self.visit(stmt)


def refs_of(nodes: _t.Iterable[ast.AST], params: ast.arguments | None = None) -> set[str]:
    """What *nodes* refer to; *params* are the enclosing function's
    parameters, which are local names too."""
    visitor = _Refs()
    if params is not None:
        visitor.visit(params)
    for node in nodes:
        visitor.visit(node)
    return visitor.names | (visitor.loads - visitor.bound)


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # `...`
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in refs_of([stmt]):
            continue
        return False
    return True


def _base_names(node: ast.ClassDef) -> set[str]:
    return {b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))}


@dataclasses.dataclass
class Package:
    """Every def of a package, with what each refers to."""

    defs: list[Def]
    refs: dict[tuple[str, int], set[str]]  # Def.ident -> names its body refers to
    bases: dict[str, set[str]]  # class name -> base class names


def enumerate_defs(root: pathlib.Path) -> Package:
    defs: list[Def] = []
    refs: dict[tuple[str, int], set[str]] = {}
    bases: dict[str, set[str]] = collections.defaultdict(set)

    def walk(body: list[ast.stmt], path: str, prefix: str, cls: ast.ClassDef | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] |= _base_names(node)
                walk(node.body, path, f"{prefix}{node.name}.", node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                decorators = refs_of(node.decorator_list)
                declaration = (
                    "abstractmethod" in decorators
                    or "overload" in decorators
                    or (cls is not None and "Protocol" in _base_names(cls))
                    or (cls is not None and _is_stub(node))
                )
                line = min([d.lineno for d in node.decorator_list] + [node.lineno])
                d = Def(path, qualname, line, node.end_lineno or node.lineno, node.name,
                        cls.name if cls is not None else None, declaration)
                defs.append(d)
                refs[d.ident] = refs_of(node.body, node.args)
                walk(node.body, path, f"{qualname}.<locals>.", None)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                # defs under `if TYPE_CHECKING:` / `try: import` blocks
                for block in ("body", "orelse", "finalbody"):
                    walk(getattr(node, block, []), path, prefix, cls)
                for handler in getattr(node, "handlers", []):
                    walk(handler.body, path, prefix, cls)

    for file in sorted(root.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
        walk(tree.body, file.relative_to(root).as_posix(), "", None)
    return Package(defs, refs, dict(bases))


def module_refs(roots: _t.Iterable[pathlib.Path], exclude: _t.Container[pathlib.Path] = ()
                ) -> set[str]:
    """Every name any ``*.py`` under *roots* refers to, definitions aside."""
    names: set[str] = set()
    for root in roots:
        for file in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            if file.resolve() in exclude:
                continue
            tree = ast.parse(file.read_text(encoding="utf-8"))
            names |= refs_of(tree.body)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names |= refs_of(node.body, node.args)
    return names


# --- classification ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Verdict:
    definition: Def
    label: str  # "a" .. "f"
    reason: str


def read_kept(path: pathlib.Path) -> dict[str, str]:
    """``path:qualname -> reason`` from a keep list."""
    kept: dict[str, str] = {}
    if not path.exists():
        return kept
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        kept[key] = reason.strip()
    return kept


def _label_of(reason: str) -> str:
    match = re.match(r"\(([a-f])\)", reason)
    return match.group(1) if match else "?"


def classify(
    package: Package,
    entered: _t.AbstractSet[tuple[str, int]],
    kept: _t.Mapping[str, str],
    live_names: _t.AbstractSet[str] = frozenset(),
    test_names: _t.AbstractSet[str] = frozenset(),
) -> list[Verdict]:
    """A verdict for every def whose ``(path, line)`` is not in *entered*.

    *live_names* are names referenced from code outside the package that
    counts as live (examples, benchmarks); *test_names* only sharpens
    the wording of an (f) verdict."""
    never = [d for d in package.defs if d.ident not in entered]
    live = {d for d in package.defs if d.ident in entered or d.key in kept}

    subclasses: dict[str, set[str]] = collections.defaultdict(set)
    for name, parents in package.bases.items():
        for base in parents:
            subclasses[base].add(name)

    def family(cls: str) -> set[str]:
        seen, todo = {cls}, [cls]
        while todo:
            for sub in subclasses.get(todo.pop(), ()):
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
        return seen

    untaken: set[Def] = set()
    while True:
        names = set(live_names)
        for d in live:
            names |= package.refs[d.ident]
        live_classes = {d.cls for d in live if d.cls} | names
        grown = False
        for d in never:
            if d in live:
                continue
            if d.cls is None:
                hit = d.name in names
            else:
                cls_live = bool(family(d.cls) & live_classes)
                hit = cls_live and (d.name in names or d.name.startswith("__"))
            if hit:
                live.add(d)
                untaken.add(d)
                grown = True
        if not grown:
            break

    verdicts = []
    for d in never:
        if d.key in kept:
            verdicts.append(Verdict(d, _label_of(kept[d.key]), kept[d.key]))
        elif d.declaration:
            verdicts.append(Verdict(d, "c", "(c) declaration: abstract, protocol or stub"))
        elif d in untaken:
            verdicts.append(Verdict(d, "a", "(a) untaken branch: referenced from live code"))
        elif d.name in test_names:
            verdicts.append(Verdict(d, "f", "(f) test-only: referenced from tests/"))
        else:
            verdicts.append(Verdict(d, "f", "(f) unreferenced"))
    return verdicts


def problems(verdicts: list[Verdict], package: Package, kept: _t.Mapping[str, str]
             ) -> list[str]:
    """What ``--check`` fails on."""
    keys = {d.key for d in package.defs}
    out = [f"{v.definition.key}  {v.reason}" for v in verdicts
           if v.label != "a" and v.definition.key not in kept]
    out += [f"{key}  stale keep-list line: no such function" for key in kept if key not in keys]
    return out


# --- the trace ---------------------------------------------------------------------


class CallTracer:
    """Records the code object of every Python call while installed."""

    def __init__(self) -> None:
        self.codes: set[_t.Any] = set()

    def __enter__(self) -> "CallTracer":
        add = self.codes.add

        def tracer(frame: _t.Any, _event: str, _arg: _t.Any) -> None:
            add(frame.f_code)

        threading.settrace(tracer)
        sys.settrace(tracer)
        return self

    def __exit__(self, *_exc: object) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]

    def entered(self, root: pathlib.Path) -> set[tuple[str, int]]:
        """``(path relative to root, first line)`` of each entered code
        object defined under *root*."""
        out = set()
        prefix = str(root.resolve()) + "/"
        for code in self.codes:
            if code.co_filename.startswith(prefix):
                out.add((code.co_filename[len(prefix):], code.co_firstlineno))
        return out


def _load(path: pathlib.Path, name: str) -> _t.Any:
    spec = importlib.util.spec_from_file_location(name, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def entry_points(tmp: pathlib.Path) -> list[tuple[str, _t.Callable[[], object]]]:
    from repro.cli import main as repro

    def run_all() -> object:
        return repro(["run", "all", "--out", str(tmp / "results")])

    def check_all() -> object:
        return repro(["check", str(SRC), "--mutants", "--model", "all", "--races", "all",
                      "--determinism", "all"])

    def check_fix() -> object:
        copy = tmp / "fix" / "repro"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        return repro(["check", str(copy), "--fix"])

    def check_format(fmt: str) -> _t.Callable[[], object]:
        return lambda: repro(["check", str(SRC / "units.py"), "--mutants", "--format", fmt])

    def obs() -> object:
        code = repro(["run", "cluster", "--obs", str(tmp / "obs")])
        return code or repro(["obs", str(tmp / "obs")])

    def example(path: pathlib.Path) -> _t.Callable[[], object]:
        def run() -> object:
            module = _load(path, f"example_{path.stem}")
            if hasattr(module, "OUT_DIR"):
                module.OUT_DIR = tmp / path.stem
            return module.main()
        return run

    def bench(name: str, **kwargs: object) -> _t.Callable[[], object]:
        def run() -> object:
            module = _load(ROOT / "benchmarks" / f"{name}.py", name)
            return module.smoke(**kwargs)
        return run

    def lmpbench(workload: str) -> _t.Callable[[], object]:
        def run() -> object:
            module = _load(ROOT / "benchmarks" / "lmpbench" / "run.py", "lmpbench_run")
            return module.main(["--workload", workload, "--quick", "--seconds", "0.01",
                                "--out", str(tmp / f"lmpbench-{workload}.json")])
        return run

    points: list[tuple[str, _t.Callable[[], object]]] = [
        ("repro run all", run_all),
        ("repro check --mutants --model --races --determinism", check_all),
        ("repro check --fix (copy)", check_fix),
        ("repro check --format json", check_format("json")),
        ("repro check --format github", check_format("github")),
        ("repro run cluster --obs; repro obs", obs),
    ]
    points += [(f"examples/{p.name}", example(p))
               for p in sorted((ROOT / "examples").glob("*.py"))]
    points += [
        ("bench_engine --capture", bench("bench_engine", out=str(tmp / "engine.json"),
                                         rounds=1, capture=True)),
        ("bench_scale --capture", bench("bench_scale", out=str(tmp / "scale.json"),
                                        rounds=1, capture=True)),
        ("bench_alloc --smoke", bench("bench_alloc", out=str(tmp / "alloc.json"))),
        ("bench_cluster --smoke", bench("bench_cluster")),
        ("bench_check --smoke", bench("bench_check", out=str(tmp / "check.json"))),
    ]
    points += [(f"lmpbench --quick {w}", lmpbench(w))
               for w in ("figures", "dense", "flash_static", "flash_elastic")]
    return points


@contextlib.contextmanager
def _quiet(captured: io.StringIO) -> _t.Iterator[None]:
    """Send an entry point's output to *captured* (Python-level writes)
    and to /dev/null (writes to streams bound before it started)."""
    sys.stdout.flush()
    sys.stderr.flush()
    saved = [os.dup(1), os.dup(2)]
    with open(os.devnull, "w") as null:
        os.dup2(null.fileno(), 1)
        os.dup2(null.fileno(), 2)
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            yield
    finally:
        for fd, copy in zip((1, 2), saved):
            os.dup2(copy, fd)
            os.close(copy)


def run_traced(tmp: pathlib.Path, log: _t.TextIO) -> set[tuple[str, int]]:
    """Run every entry point under one tracer; raises if one crashes."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    tracer = CallTracer()
    with tracer:  # import-time calls (registries, module constants) count
        points = entry_points(tmp)
    for name, run in points:
        captured = io.StringIO()
        try:
            with _quiet(captured), tracer:
                code = run()
        except SystemExit as exc:
            code = exc.code
        except Exception:
            print(captured.getvalue()[-4000:], file=log)
            raise
        # the tracer slows every call, so a wall-clock budget may trip;
        # reachability is all this run measures
        status = "ok" if code in (None, 0) else f"exit {code!r} (not a reachability failure)"
        print(f"  ran {name}: {status}", file=log, flush=True)
    return tracer.entered(SRC)


# --- report ------------------------------------------------------------------------


def report(package: Package, verdicts: list[Verdict], out: _t.TextIO) -> None:
    total_lines = sum(d.lines for d in package.defs)
    print(f"{len(package.defs)} functions ({total_lines} lines) under src/repro; "
          f"{len(verdicts)} never entered "
          f"({sum(v.definition.lines for v in verdicts)} lines)", file=out)
    by_label: dict[str, list[Verdict]] = collections.defaultdict(list)
    for v in verdicts:
        by_label[v.label].append(v)
    for label in sorted(by_label):
        rows = by_label[label]
        print(f"\n({label}) {len(rows)} functions, {sum(v.definition.lines for v in rows)} lines",
              file=out)
        for v in sorted(rows, key=lambda v: (v.definition.path, v.definition.line)):
            print(f"  {v.definition.key:70s} {v.definition.lines:4d}  {v.reason}", file=out)
    packages: dict[str, int] = collections.Counter()
    for v in verdicts:
        path = v.definition.path
        packages[path.rsplit("/", 1)[0] if "/" in path else path] += v.definition.lines
    print("\nnever-entered lines by package: "
          + ", ".join(f"{p} {n}" for p, n in packages.most_common()), file=out)


def classify_tree(entered: _t.AbstractSet[tuple[str, int]]
                  ) -> tuple[Package, list[Verdict], dict[str, str]]:
    """Classify this tree's never-entered functions against the keep list."""
    package = enumerate_defs(SRC)
    kept = read_kept(KEPT)
    # this script and the benchmarks' own tests are not entry points
    not_live = {pathlib.Path(__file__).resolve(),
                *(p.resolve() for root in LIVE_ROOTS for p in root.rglob("test_*.py"))}
    verdicts = classify(
        package, entered, kept,
        live_names=module_refs(LIVE_ROOTS, exclude=not_live),
        test_names=module_refs(TEST_ROOTS),
    )
    return package, verdicts, kept


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a never-entered function is neither (a) "
                             "nor on the keep list")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        print("tracing entry points:", flush=True)
        entered = run_traced(pathlib.Path(tmp), sys.stdout)
    package, verdicts, kept = classify_tree(entered)
    report(package, verdicts, sys.stdout)
    if not args.check:
        return 0
    found = problems(verdicts, package, kept)
    for line in found:
        print(f"reach: {line}", file=sys.stderr)
    if found:
        print(f"reach: {len(found)} function(s) no entry point runs are neither an untaken "
              f"branch nor kept in {KEPT.relative_to(ROOT)}", file=sys.stderr)
        return 1
    print("reach: every never-entered function is an untaken branch or kept — OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
