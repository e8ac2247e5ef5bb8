"""Mutation harness: known-bad code the lint rules must catch.

A rule that has never caught a bug is indistinguishable from one that
checks nothing.  Each mutant below is a small module carrying exactly
one seeded defect — the kind of edit a refactor of the real subsystem
could introduce (a cleanup path that frees twice, an ``except`` arm
that swallows the release, a cost charged in bytes) — plus the
*repaired* twin of the same code.  The harness lints both through the
linter's own driver and demands that the owning rule kill the
defective version **at the seeded line** and stay silent on the
repaired one; a rule that fires on both is noise, and a rule that
fires on neither is dead weight.

The mutants cover the flow rules (LMP011–LMP015) plus the shapes of
the three retired rule ids (``docs/static_analysis.md``), so their
successors prove they still catch them: a release in a ``try`` body
(now LMP012's), a wall-clock read in a simulated subsystem and a draw
from the global ``random`` generator (both now LMP010's).

Run via ``repro check --mutants`` (exit 1 if any survive).
"""

from __future__ import annotations

import dataclasses
import pathlib
import textwrap
import typing as _t

from repro.check.lint import lint_source

#: mutants lint under this synthetic path (subsystem: core) by default
_MUTANT_PATH = "repro/core/__mutant__.py"


@dataclasses.dataclass(frozen=True)
class LintMutant:
    """One seeded defect, its repaired twin, and where the kill must land."""

    name: str
    rule: str  # the LMP id that must catch it
    description: str
    bad: str  # module source with exactly one defect
    good: str  # the repaired twin; must lint clean for `rule`
    defect_line: int  # 1-based line in `bad` the finding must anchor to
    path: str = _MUTANT_PATH


def _src(text: str) -> str:
    return textwrap.dedent(text).strip("\n") + "\n"


MUTANTS: tuple[LintMutant, ...] = (
    # -- LMP011: handle lifecycle ---------------------------------------------
    LintMutant(
        name="double-free-on-cleanup-path",
        rule="LMP011",
        description="error-handling arm frees a handle the happy path already freed",
        bad=_src(
            """
            def drain(alloc, h):
                try:
                    alloc.free(h)
                    audit()
                except ValueError:
                    alloc.free(h)
            """
        ),
        good=_src(
            """
            def drain(alloc, h):
                try:
                    audit()
                finally:
                    alloc.free(h)
            """
        ),
        defect_line=6,
    ),
    LintMutant(
        name="use-after-compaction",
        rule="LMP011",
        description="handle resolved after compact() relocated every live block",
        bad=_src(
            """
            def repack(alloc, compactor, n):
                h = alloc.allocate(n)
                compactor.compact(alloc)
                return alloc.resolve(h)
            """
        ),
        good=_src(
            """
            def repack(alloc, compactor, n):
                h = alloc.allocate(n)
                report = compactor.compact(alloc)
                h = report.moved_to(h)
                return alloc.resolve(h)
            """
        ),
        defect_line=4,
    ),
    LintMutant(
        name="free-through-stale-handle",
        rule="LMP011",
        description="relocated handle freed under its pre-move identity",
        bad=_src(
            """
            def shuffle(alloc, h):
                alloc.relocate(h)
                alloc.free(h)
            """
        ),
        good=_src(
            """
            def shuffle(alloc, h):
                h = alloc.relocate(h)
                alloc.free(h)
            """
        ),
        defect_line=3,
    ),
    LintMutant(
        name="double-free-in-loop",
        rule="LMP011",
        description="loop body frees a handle hoisted out of the loop",
        bad=_src(
            """
            def retry_free(alloc, h, attempts):
                for _ in attempts:
                    alloc.free(h)
            """
        ),
        good=_src(
            """
            def retry_free(alloc, h, attempts):
                alloc.free(h)
            """
        ),
        defect_line=3,
    ),
    # -- LMP012: leak on path -------------------------------------------------
    LintMutant(
        name="leak-through-swallowed-exception",
        rule="LMP012",
        description="except arm swallows the failure and skips the release",
        bad=_src(
            """
            def serve(table, tenant):
                lease = table.grant(tenant)
                try:
                    handle(lease)
                    table.release(lease)
                except ValueError:
                    log_and_continue()
            """
        ),
        good=_src(
            """
            def serve(table, tenant):
                lease = table.grant(tenant)
                try:
                    handle(lease)
                finally:
                    table.release(lease)
            """
        ),
        defect_line=2,
    ),
    LintMutant(
        name="leak-on-early-return",
        rule="LMP012",
        description="validation early-return skips the free the tail performs",
        bad=_src(
            """
            def stage(alloc, req):
                block = alloc.allocate(req)
                if not valid(req):
                    return None
                fill(block, req)
                alloc.free(block)
                return True
            """
        ),
        good=_src(
            """
            def stage(alloc, req):
                block = alloc.allocate(req)
                try:
                    if not valid(req):
                        return None
                    fill(block, req)
                    return True
                finally:
                    alloc.free(block)
            """
        ),
        defect_line=2,
    ),
    LintMutant(
        name="semaphore-held-through-except",
        rule="LMP012",
        description="DES semaphore released on the happy path only",
        bad=_src(
            """
            def worker(engine, sem):
                yield sem.acquire()
                try:
                    yield engine.timeout(10)
                    sem.release()
                except ValueError:
                    record_failure()
            """
        ),
        good=_src(
            """
            def worker(engine, sem):
                yield sem.acquire()
                try:
                    yield engine.timeout(10)
                finally:
                    sem.release()
            """
        ),
        defect_line=2,
    ),
    LintMutant(
        name="release-in-try-body",
        rule="LMP012",
        description=(
            "lock released in the try body; an exception at the yield is "
            "swallowed and the release skipped (a retired rule's shape)"
        ),
        bad=_src(
            """
            def body(mutex, engine):
                yield mutex.acquire()
                try:
                    yield engine.timeout(5.0)
                    mutex.release()
                except ValueError:
                    pass
            """
        ),
        good=_src(
            """
            def body(mutex, engine):
                yield mutex.acquire()
                try:
                    yield engine.timeout(5.0)
                finally:
                    mutex.release()
            """
        ),
        defect_line=2,
    ),
    # -- LMP010: wall clock in a simulated subsystem ----------------------------
    LintMutant(
        name="wall-clock-in-sim",
        rule="LMP010",
        description=(
            "time.monotonic() stamps a simulated event with host time "
            "(a retired rule's shape)"
        ),
        bad=_src(
            """
            import time

            def stamp(engine, event):
                event.at = time.monotonic()
            """
        ),
        good=_src(
            """
            def stamp(engine, event):
                event.at = engine.now
            """
        ),
        defect_line=4,
        path="repro/sim/__mutant__.py",
    ),
    # -- LMP010: global random generator ----------------------------------------
    LintMutant(
        name="global-random-draw",
        rule="LMP010",
        description=(
            "random.randint() draws from the interpreter-global generator "
            "instead of an injected stream (a retired rule's shape)"
        ),
        bad=_src(
            """
            import random

            def jitter(limit):
                return random.randint(0, limit)
            """
        ),
        good=_src(
            """
            def jitter(rng, limit):
                return rng.randint(0, limit)
            """
        ),
        defect_line=4,
    ),
    # -- LMP013: unit confusion -----------------------------------------------
    LintMutant(
        name="deadline-plus-payload",
        rule="LMP013",
        description="nanosecond deadline added to a byte count",
        bad=_src(
            """
            from repro import units

            def budget(size_bytes):
                deadline_ns = units.ms(5)
                return deadline_ns + size_bytes
            """
        ),
        good=_src(
            """
            from repro import units

            def budget(size_bytes, link_bytes_per_ns):
                deadline_ns = units.ms(5)
                return deadline_ns + size_bytes / link_bytes_per_ns
            """
        ),
        defect_line=5,
    ),
    LintMutant(
        name="bytes-charged-as-time",
        rule="LMP013",
        description="a byte count flows into a *_ns keyword argument",
        bad=_src(
            """
            from repro import units

            def charge(engine, moved):
                moved_bytes = units.mib(moved)
                engine.charge(cost_ns=moved_bytes)
            """
        ),
        good=_src(
            """
            from repro import units

            def charge(engine, moved, bw_bytes_per_ns):
                moved_bytes = units.mib(moved)
                engine.charge(cost_ns=moved_bytes / bw_bytes_per_ns)
            """
        ),
        defect_line=5,
    ),
    LintMutant(
        name="size-formatted-as-time",
        rule="LMP013",
        description="a size lands in fmt_time through two assignments",
        bad=_src(
            """
            from repro import units

            def describe(n):
                footprint = units.gib(n)
                shown = footprint
                return units.fmt_time(shown)
            """
        ),
        good=_src(
            """
            from repro import units

            def describe(n):
                footprint = units.gib(n)
                shown = footprint
                return units.fmt_size(shown)
            """
        ),
        defect_line=6,
    ),
    # -- LMP014: yield discipline ---------------------------------------------
    LintMutant(
        name="dropped-timeout-event",
        rule="LMP014",
        description="engine.timeout() as a bare statement: the wait evaporates",
        bad=_src(
            """
            def backoff(engine, delay):
                engine.timeout(delay)
                yield engine.timeout(1)
            """
        ),
        good=_src(
            """
            def backoff(engine, delay):
                yield engine.timeout(delay)
                yield engine.timeout(1)
            """
        ),
        defect_line=2,
    ),
    LintMutant(
        name="generator-called-not-delegated",
        rule="LMP014",
        description="sim-time generator invoked like a function and discarded",
        bad=_src(
            """
            def phase(engine, sem):
                yield sem.acquire()
                sem.release()

            def run(engine, sem):
                phase(engine, sem)
            """
        ),
        good=_src(
            """
            def phase(engine, sem):
                yield sem.acquire()
                sem.release()

            def run(engine, sem):
                engine.process(phase(engine, sem))
            """
        ),
        defect_line=6,
    ),
    LintMutant(
        name="yield-of-generator-object",
        rule="LMP014",
        description="yield g() suspends on the generator object, not its waits",
        bad=_src(
            """
            def step(engine):
                yield engine.timeout(2)

            def epoch(engine):
                yield step(engine)
            """
        ),
        good=_src(
            """
            def step(engine):
                yield engine.timeout(2)

            def epoch(engine):
                yield from step(engine)
            """
        ),
        defect_line=5,
    ),
    LintMutant(
        name="hybrid-transfer-callback-dropped",
        rule="LMP014",
        description=(
            "bare fluid.transfer() without on_complete drops the wait; the "
            "on_complete callback form consumes it"
        ),
        bad=_src(
            """
            def issue(fluid, path, size, finish):
                fluid.transfer(path, size)
                fluid.transfer(path, size, on_complete=finish)
            """
        ),
        good=_src(
            """
            def issue(fluid, path, size, finish):
                fluid.transfer(path, size, on_complete=finish)
                fluid.transfer(path, size, on_complete=finish)
            """
        ),
        defect_line=2,
    ),
    # -- LMP015: dead cost stores ---------------------------------------------
    LintMutant(
        name="cost-computed-never-charged",
        rule="LMP015",
        description="migration cost modeled, then the function returns without it",
        bad=_src(
            """
            def migrate(engine, moved_bytes, bw):
                cost_ns = moved_bytes / bw
                return True
            """
        ),
        good=_src(
            """
            def migrate(engine, moved_bytes, bw):
                cost_ns = moved_bytes / bw
                yield engine.timeout(cost_ns)
                return True
            """
        ),
        defect_line=2,
    ),
    LintMutant(
        name="cost-overwritten-before-charge",
        rule="LMP015",
        description="accumulated cost clobbered by a constant before the charge",
        bad=_src(
            """
            def settle(engine, rows):
                total_cost = tally(rows)
                total_cost = 0
                yield engine.timeout(total_cost)
            """
        ),
        good=_src(
            """
            def settle(engine, rows):
                total_cost = tally(rows)
                yield engine.timeout(total_cost)
            """
        ),
        defect_line=2,
    ),
)


@dataclasses.dataclass
class LintMutantReport:
    """Outcome of hunting one seeded defect."""

    name: str
    rule: str
    description: str
    caught: bool
    #: file:line where the rule anchored its finding (evidence of the kill)
    evidence: str = ""
    #: the repaired twin linted clean for this rule
    clean_ok: bool = True
    message: str = ""

    def render(self) -> str:
        if not self.caught:
            return f"MISSED  {self.name} [{self.rule}] — {self.description}"
        twin = "" if self.clean_ok else "; REPAIRED TWIN STILL FLAGGED"
        return f"caught  {self.name} [{self.rule}] at {self.evidence}{twin}"

    def to_json(self) -> dict[str, _t.Any]:
        return dataclasses.asdict(self)


def run_lint_mutants() -> list[LintMutantReport]:
    """Lint every mutant; each must die at its seeded line.

    A mutant counts as caught only when its owning rule reports a
    finding **on the defect line** — rule-fired-somewhere is not
    evidence.  The repaired twin must be clean for that rule, or the
    kill is attributed to noise and reported as such.
    """
    reports: list[LintMutantReport] = []
    for mutant in MUTANTS:
        path = pathlib.Path(mutant.path)
        hits = [
            v
            for v in lint_source(mutant.bad, path).violations
            if v.rule_id == mutant.rule and v.line == mutant.defect_line
        ]
        clean_ok = not any(
            v.rule_id == mutant.rule for v in lint_source(mutant.good, path).violations
        )
        reports.append(
            LintMutantReport(
                name=mutant.name,
                rule=mutant.rule,
                description=mutant.description,
                # a rule that flags the fix too is noise
                caught=bool(hits) and clean_ok,
                evidence=f"{mutant.path}:{hits[0].line}" if hits else "",
                clean_ok=clean_ok,
                message=hits[0].message if hits else "",
            )
        )
    return reports
