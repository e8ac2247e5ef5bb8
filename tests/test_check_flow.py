"""Golden CFG shapes for the tricky constructs, plus one positive and
one negative case per flow rule (LMP011–LMP015) through the real
driver (`lint_source`), so the tests exercise noqa handling and the
call graph exactly as `repro check` does.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap

from repro.check.flow import build_cfg, iter_functions
from repro.check.lint import lint_source

#: a fake path inside a simulated subsystem, matching the lint tests
MEM_PATH = pathlib.Path("src/repro/mem/synthetic.py")


def first_cfg(source: str):
    tree = ast.parse(textwrap.dedent(source).lstrip("\n"))
    return build_cfg(next(iter_functions(tree)))


def rule_ids(source: str, path: pathlib.Path = MEM_PATH) -> list[str]:
    report = lint_source(textwrap.dedent(source), path)
    assert report.parse_error is None
    return [v.rule_id for v in report.violations]


# --- golden CFGs --------------------------------------------------------------
#
# `CFG.describe_edges()` is the documented golden-test surface: a set of
# (src, dst, kind) triples with statement nodes rendered "Assign@5" and
# synthetic nodes by kind.  Each golden below pins one construct the
# builder gets wrong in naive implementations.


def test_cfg_try_finally_with_return():
    # the return must detour through the finally block on BOTH the
    # normal path and the exception path, and only then leave the frame
    cfg = first_cfg(
        """
        def f(x):
            try:
                return work(x)
            finally:
                cleanup()
        """
    )
    assert cfg.describe_edges() == {
        ("entry", "Return@3", "normal"),
        ("Return@3", "finally", "normal"),
        ("Return@3", "finally", "exception"),
        ("finally", "Expr@5", "normal"),
        ("Expr@5", "exit", "normal"),
        ("Expr@5", "raise-exit", "exception"),
    }


def test_cfg_nested_with():
    # each with-header can raise before its body runs; the bodies chain
    cfg = first_cfg(
        """
        def f(pool):
            with pool.lease() as a:
                with pool.lease() as b:
                    use(a, b)
        """
    )
    assert cfg.describe_edges() == {
        ("entry", "With@2", "normal"),
        ("With@2", "With@3", "normal"),
        ("With@2", "raise-exit", "exception"),
        ("With@3", "Expr@4", "normal"),
        ("With@3", "raise-exit", "exception"),
        ("Expr@4", "exit", "normal"),
        ("Expr@4", "raise-exit", "exception"),
    }


def test_cfg_while_else():
    # the else-suite runs exactly when the loop test goes false — it is
    # NOT on the back edge, and falls through to the statement after
    cfg = first_cfg(
        """
        def f(xs):
            while cond(xs):
                step(xs)
            else:
                done()
            tail()
        """
    )
    assert cfg.describe_edges() == {
        ("entry", "While@2", "normal"),
        ("While@2", "Expr@3", "normal"),
        ("While@2", "Expr@5", "normal"),
        ("While@2", "raise-exit", "exception"),
        ("Expr@3", "While@2", "back"),
        ("Expr@3", "raise-exit", "exception"),
        ("Expr@5", "Expr@6", "normal"),
        ("Expr@5", "raise-exit", "exception"),
        ("Expr@6", "exit", "normal"),
        ("Expr@6", "raise-exit", "exception"),
    }


def test_cfg_generator_yield_inside_except():
    # a generator frame: the yield in the try can raise into the
    # handler, whose own yield continues to the normal exit
    cfg = first_cfg(
        """
        def f(engine):
            try:
                yield engine.timeout(1)
            except TimeoutError:
                yield recover(engine)
        """
    )
    assert cfg.is_generator
    assert cfg.describe_edges() == {
        ("entry", "Expr@3", "normal"),
        ("Expr@3", "exit", "normal"),
        ("Expr@3", "handler", "exception"),
        ("Expr@3", "raise-exit", "exception"),
        ("handler", "Expr@5", "normal"),
        ("handler", "raise-exit", "exception"),
        ("Expr@5", "exit", "normal"),
        ("Expr@5", "raise-exit", "exception"),
    }


def test_cfg_break_in_loop_inside_try_finally():
    # the break exits only the loop: it lands on the statement after
    # the loop (still inside the try) and must NOT detour through the
    # finally of the enclosing try
    cfg = first_cfg(
        """
        def f(pool, xs):
            try:
                for x in xs:
                    break
                settle(pool)
            finally:
                cleanup()
        """
    )
    assert cfg.describe_edges() == {
        ("entry", "For@3", "normal"),
        ("For@3", "Break@4", "normal"),
        ("For@3", "Expr@5", "normal"),
        ("Break@4", "Expr@5", "normal"),
        ("Expr@5", "finally", "normal"),
        ("Expr@5", "finally", "exception"),
        ("finally", "Expr@7", "normal"),
        ("Expr@7", "exit", "normal"),
        ("Expr@7", "raise-exit", "exception"),
    }


def test_cfg_break_through_finally_inside_loop():
    # a finally of a try INSIDE the loop does intercept the break, and
    # its instance resumes at the statement after the loop
    cfg = first_cfg(
        """
        def f(xs):
            for x in xs:
                try:
                    break
                finally:
                    cleanup()
            tail()
        """
    )
    assert cfg.describe_edges() == {
        ("entry", "For@2", "normal"),
        ("For@2", "Break@4", "normal"),
        ("For@2", "Expr@7", "normal"),
        ("Break@4", "finally", "normal"),
        ("finally", "Expr@6", "normal"),
        ("Expr@6", "Expr@7", "normal"),
        ("Expr@6", "raise-exit", "exception"),
        ("Expr@7", "exit", "normal"),
        ("Expr@7", "raise-exit", "exception"),
    }


def test_cfg_return_from_handler_detours_through_finally():
    # the return captured in the HANDLER body (not the protected body)
    # must still traverse the finally and then leave the frame
    cfg = first_cfg(
        """
        def f(x):
            try:
                work(x)
            except ValueError:
                return None
            finally:
                cleanup()
        """
    )
    assert cfg.describe_edges() == {
        ("entry", "Expr@3", "normal"),
        ("Expr@3", "handler", "exception"),
        ("Expr@3", "finally", "exception"),
        ("Expr@3", "finally", "normal"),
        ("handler", "Return@5", "normal"),
        ("handler", "finally", "exception"),
        ("Return@5", "finally", "normal"),
        ("finally", "Expr@7", "normal"),
        ("Expr@7", "exit", "normal"),
        ("Expr@7", "raise-exit", "exception"),
    }


def test_cfg_match_wildcard_has_no_fallthrough():
    # an unguarded `case _:` always matches: there is no edge from the
    # match header straight to the statement after it
    cfg = first_cfg(
        """
        def f(cmd):
            match cmd:
                case "get":
                    read()
                case _:
                    write()
            tail()
        """
    )
    assert cfg.describe_edges() == {
        ("entry", "Match@2", "normal"),
        ("Match@2", "Expr@4", "normal"),
        ("Match@2", "Expr@6", "normal"),
        ("Expr@4", "Expr@7", "normal"),
        ("Expr@4", "raise-exit", "exception"),
        ("Expr@6", "Expr@7", "normal"),
        ("Expr@6", "raise-exit", "exception"),
        ("Expr@7", "exit", "normal"),
        ("Expr@7", "raise-exit", "exception"),
    }


# --- LMP011 handle lifecycle --------------------------------------------------


def test_lmp011_double_free():
    assert "LMP011" in rule_ids(
        """
        def f(alloc, n):
            h = alloc.allocate(n)
            alloc.free(h)
            alloc.free(h)
        """
    )


def test_lmp011_use_after_compaction():
    assert "LMP011" in rule_ids(
        """
        def f(alloc, n):
            h = alloc.allocate(n)
            alloc.compact()
            return alloc.resolve(h)
        """
    )


def test_lmp011_relocate_returns_fresh_handle():
    # the old handle goes stale, but the rebound name is live again
    assert "LMP011" not in rule_ids(
        """
        def f(alloc, h):
            h = alloc.relocate(h)
            return alloc.resolve(h)
        """
    )


def test_lmp011_loop_target_rebinding_is_fresh_each_iteration():
    # freeing the For target once per iteration is NOT a double free:
    # the back edge re-binds the target before the body re-runs
    assert "LMP011" not in rule_ids(
        """
        def f(alloc, handles):
            for h in handles:
                alloc.free(h)
        """
    )


def test_lmp011_escaped_handle_not_tracked():
    # registering the handle in a container gives up local ownership:
    # another owner may re-resolve it after the compaction pass
    assert "LMP011" not in rule_ids(
        """
        def f(alloc, table, n):
            h = alloc.allocate(n)
            table.register(h)
            alloc.compact()
            return alloc.resolve(h)
        """
    )


# --- LMP012 resource leak on exception path -----------------------------------


def test_lmp012_leak_through_swallowed_exception():
    # the except arm swallows the failure and skips the release, so the
    # lease reaches the normal exit held-on-some-paths-only
    assert "LMP012" in rule_ids(
        """
        def f(table, tenant):
            lease = table.grant(tenant)
            try:
                handle(lease)
                table.release(lease)
            except ValueError:
                log_and_continue()
        """
    )


def test_lmp012_try_finally_release_is_clean():
    assert "LMP012" not in rule_ids(
        """
        def f(table, tenant):
            lease = table.grant(tenant)
            try:
                handle(lease)
            finally:
                table.release(lease)
        """
    )


def test_lmp012_grant_is_atomic_with_its_assignment():
    # if allocate() itself raises, no handle was bound — the handler
    # path must not inherit a phantom "held" fact from the grant line
    assert "LMP012" not in rule_ids(
        """
        def f(pool, n):
            try:
                buffer = pool.allocate(n)
            except MemoryError:
                return None
            use(buffer)
            pool.free(buffer)
            return buffer
        """
    )


def test_lmp012_break_inside_try_reaches_release():
    # the break's real continuation is the release after the loop
    # (inside the try); routing it through the finally used to invent
    # a leak path that skipped pool.free
    assert rule_ids(
        """
        def f(pool, n, xs):
            h = pool.allocate(n)
            try:
                for x in xs:
                    break
                pool.free(h)
            finally:
                log()
        """
    ) == []


def test_lmp011_continue_inside_try_is_not_a_leak_path():
    assert rule_ids(
        """
        def f(pool, n, xs):
            h = pool.allocate(n)
            try:
                for x in xs:
                    continue
                pool.free(h)
            finally:
                log()
        """
    ) == []


def test_lmp011_use_after_free_via_break_path():
    # the stale use is reachable ONLY through the break: free -> break
    # -> resolve; the no-iteration path never frees (which is also a
    # legitimate LMP012 some-paths leak, reported separately)
    assert "LMP011" in rule_ids(
        """
        def f(alloc, n, xs):
            try:
                h = alloc.allocate(n)
                for x in xs:
                    alloc.free(h)
                    break
                alloc.resolve(h)
            finally:
                log()
        """
    )


def test_lmp012_exceptional_finally_does_not_leak_into_normal_exit():
    # free() raising is an exceptional exit; the finally's exception
    # instance resumes the raise, so the held-on-raise state must not
    # bleed into the normal fall-through
    assert rule_ids(
        """
        def f(pool, n):
            h = pool.allocate(n)
            try:
                work()
                pool.free(h)
            finally:
                log()
        """
    ) == []


# --- LMP013 unit confusion ----------------------------------------------------


def test_lmp013_time_plus_size_mix():
    assert "LMP013" in rule_ids(
        """
        from repro.units import ms, mib

        def f():
            deadline = ms(5)
            payload = mib(2)
            return deadline + payload
        """
    )


def test_lmp013_size_formatted_as_time():
    assert "LMP013" in rule_ids(
        """
        from repro.units import gib, fmt_time

        def f():
            return fmt_time(gib(1))
        """
    )


def test_lmp013_bandwidth_algebra_is_clean():
    # bytes / time -> bandwidth; bytes / bandwidth -> time
    assert "LMP013" not in rule_ids(
        """
        from repro.units import mib, us, fmt_bandwidth, fmt_time

        def f():
            size = mib(64)
            window = us(100)
            rate = size / window
            return fmt_bandwidth(rate), fmt_time(size / rate)
        """
    )


# --- LMP014 yield discipline --------------------------------------------------


def test_lmp014_dropped_wait_in_generator():
    # a bare engine.timeout(...) builds the event and discards it —
    # the frame never actually waits
    assert "LMP014" in rule_ids(
        """
        def f(engine):
            engine.timeout(10)
            yield engine.timeout(20)
        """
    )


def test_lmp014_yield_of_generator_object():
    # yielding g() hands the scheduler a generator object, not an
    # event: the callee's sim-time never elapses (wants `yield from`)
    assert "LMP014" in rule_ids(
        """
        def transfer(engine, nbytes):
            yield engine.timeout(nbytes)

        def f(engine, n):
            yield transfer(engine, n)
        """
    )


def test_lmp014_yield_from_is_clean():
    assert "LMP014" not in rule_ids(
        """
        def transfer(engine, nbytes):
            yield engine.timeout(nbytes)

        def f(engine, n):
            yield from transfer(engine, n)
        """
    )


# --- LMP015 dead cost store ---------------------------------------------------


def test_lmp015_cost_computed_never_charged():
    assert "LMP015" in rule_ids(
        """
        def f(ledger, rows):
            move_cost = sum(r.nbytes for r in rows)
            ledger.charge(0)
        """
    )


def test_lmp015_charged_cost_is_live():
    assert "LMP015" not in rule_ids(
        """
        def f(ledger, rows):
            move_cost = sum(r.nbytes for r in rows)
            ledger.charge(move_cost)
        """
    )


# --- driver-level behavior ----------------------------------------------------


def test_noqa_suppresses_flow_findings():
    assert rule_ids(
        """
        def f(alloc, n):
            h = alloc.allocate(n)
            alloc.free(h)
            alloc.free(h)  # noqa: LMP011
        """
    ) == []


def test_findings_sorted_and_carry_position():
    report = lint_source(
        textwrap.dedent(
            """
            def f(alloc, n):
                h = alloc.allocate(n)
                alloc.free(h)
                alloc.free(h)
            """
        ),
        MEM_PATH,
    )
    (violation,) = report.violations
    assert violation.rule_id == "LMP011"
    assert violation.line == 5
    assert "free" in violation.message
