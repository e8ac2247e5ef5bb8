"""Every syntactic LMP lint rule fires on a synthetic bad snippet, the
retired ids' cases are caught by their successors — and the repo itself
lints clean under every rule, flow rules included (the acceptance
criterion for `python -m repro check`).
"""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.check.lint import ALL_RULES, apply_fixes, fix_file, lint_paths, lint_source
from repro.check.rules import LintContext

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: a fake path inside a simulated subsystem, so scoped rules apply
SIM_PATH = pathlib.Path("src/repro/sim/synthetic.py")


def rule_ids(source: str, path: pathlib.Path = SIM_PATH) -> list[str]:
    report = lint_source(textwrap.dedent(source), path)
    assert report.parse_error is None
    return [v.rule_id for v in report.violations]


# --- rule registry ------------------------------------------------------------


def test_registry_ids_unique_and_documented():
    ids = [rule.id for rule in ALL_RULES]
    assert len(ids) == len(set(ids))
    for rule in ALL_RULES:
        assert rule.id.startswith("LMP")
        assert rule.__doc__, f"{rule.id} must document its rationale"
        assert rule.title


def test_context_subsystem_detection():
    ctx = LintContext.for_path(pathlib.Path("src/repro/core/coherence/protocol.py"))
    assert ctx.subsystem == "core"
    assert LintContext.for_path(pathlib.Path("src/repro/cli.py")).subsystem is None


# --- wall clock in simulated components (retired id, now LMP010) ---------------


def test_lmp001_flags_time_time():
    assert "LMP010" in rule_ids("import time\nt = time.time()\n")


def test_lmp001_flags_from_import_and_datetime():
    assert "LMP010" in rule_ids("from time import monotonic\nt = monotonic()\n")
    assert "LMP010" in rule_ids(
        "import datetime\nstamp = datetime.datetime.now()\n"
    )


def test_lmp001_ignores_outside_sim_subsystems():
    # cli.py measuring wall-clock for progress output is legitimate
    assert "LMP010" not in rule_ids(
        "import time\nt = time.perf_counter()\n",
        path=pathlib.Path("src/repro/cli.py"),
    )


# --- global random (retired id, now LMP010) -----------------------------------


def test_lmp002_flags_global_random_calls():
    assert "LMP010" in rule_ids("import random\nx = random.randint(0, 9)\n")
    assert "LMP010" in rule_ids("from random import choice\nx = choice([1, 2])\n")


def test_lmp002_allows_explicit_generators():
    assert "LMP010" not in rule_ids(
        "import random\nrng = random.Random(7)\nx = rng.randint(0, 9)\n"
    )


# --- LMP003 set iteration -----------------------------------------------------


def test_lmp003_flags_for_over_set_literal():
    assert "LMP003" in rule_ids("for h in {3, 1, 2}:\n    print(h)\n")


def test_lmp003_flags_for_over_tracked_set_name():
    source = """
    def dispatch(entry):
        victims = {h for h in entry.sharers}
        for victim in victims:
            invalidate(victim)
    """
    assert "LMP003" in rule_ids(source)


def test_lmp003_allows_sorted_iteration():
    source = """
    def dispatch(entry):
        victims = {h for h in entry.sharers}
        for victim in sorted(victims):
            invalidate(victim)
    """
    assert "LMP003" not in rule_ids(source)


def test_lmp003_autofix_wraps_sorted():
    source = "victims = {1, 2}\nfor v in victims:\n    flush(v)\n"
    report = lint_source(source, SIM_PATH)
    fixed, applied = apply_fixes(source, report.violations)
    assert applied == 1
    assert "for v in sorted(victims):" in fixed
    assert lint_source(fixed, SIM_PATH).violations == ()


def test_lmp003_fix_file_roundtrip(tmp_path):
    target_dir = tmp_path / "repro" / "sim"
    target_dir.mkdir(parents=True)
    target = target_dir / "bad.py"
    target.write_text("hosts = {2, 1}\nfor h in hosts:\n    print(h)\n")
    assert fix_file(target) == 1
    assert "sorted(hosts)" in target.read_text()
    assert fix_file(target) == 0  # already clean


def test_lmp003_fix_is_idempotent(tmp_path):
    # running the autofixer twice must be byte-identical to running it
    # once — a second pass must neither re-wrap (`sorted(sorted(...))`)
    # nor disturb untouched lines
    target_dir = tmp_path / "repro" / "sim"
    target_dir.mkdir(parents=True)
    target = target_dir / "bad.py"
    target.write_text(
        "hosts = {2, 1}\n"
        "peers = {h + 1 for h in hosts}\n"
        "for h in hosts:\n"
        "    print(h)\n"
        "for p in peers:\n"
        "    print(p)\n"
    )
    fix_file(target)
    once = target.read_bytes()
    fix_file(target)
    assert target.read_bytes() == once


# --- LMP004 float time equality -----------------------------------------------


def test_lmp004_flags_equality_on_now():
    assert "LMP004" in rule_ids("def f(engine, t):\n    return engine.now == t\n")


def test_lmp004_allows_ordering_and_integer_zero():
    assert "LMP004" not in rule_ids("def f(engine, t):\n    return engine.now <= t\n")
    assert "LMP004" not in rule_ids("def f(engine):\n    return engine.now == 0\n")


# --- LMP005 mutable defaults --------------------------------------------------


def test_lmp005_flags_mutable_defaults():
    assert "LMP005" in rule_ids("def f(xs=[]):\n    return xs\n")
    assert "LMP005" in rule_ids("def f(xs=dict()):\n    return xs\n")


def test_lmp005_allows_none_default():
    assert "LMP005" not in rule_ids("def f(xs=None):\n    return xs or []\n")


# --- LMP006 arbitrary set element ---------------------------------------------


def test_lmp006_flags_set_pop():
    source = "pending = {1, 2, 3}\nwinner = pending.pop()\n"
    assert "LMP006" in rule_ids(source)


def test_lmp006_flags_next_iter_set():
    assert "LMP006" in rule_ids("first = next(iter({3, 1}))\n")


def test_lmp006_allows_list_pop():
    assert "LMP006" not in rule_ids("queue = [1, 2, 3]\nhead = queue.pop()\n")


# --- LMP003 over dict views ---------------------------------------------------


def test_lmp003_flags_for_over_bare_dict_name():
    source = """
    def sweep():
        caches = {h: set() for h in range(4)}
        for host in caches:
            flush(host)
    """
    assert "LMP003" in rule_ids(source)


def test_lmp003_flags_dict_keys_and_values_views():
    for view in ("keys", "values"):
        source = f"""
        def sweep():
            caches = dict()
            for entry in caches.{view}():
                flush(entry)
        """
        assert "LMP003" in rule_ids(source), view


def test_lmp003_allows_sorted_dict_views():
    source = """
    def sweep():
        caches = dict()
        for host in sorted(caches):
            flush(host)
        for entry in sorted(caches.values()):
            flush(entry)
    """
    assert "LMP003" not in rule_ids(source)


def test_lmp003_dict_view_autofix_idempotent_roundtrip(tmp_path):
    """--fix wraps the view in sorted(...) and a second pass is a no-op."""
    target_dir = tmp_path / "repro" / "sim"
    target_dir.mkdir(parents=True)
    target = target_dir / "bad.py"
    target.write_text(
        "def sweep():\n"
        "    caches = dict()\n"
        "    for host in caches:\n"
        "        flush(host)\n"
        "    for val in caches.values():\n"
        "        flush(val)\n"
    )
    assert fix_file(target) == 2
    fixed = target.read_text()
    assert "for host in sorted(caches):" in fixed
    assert "for val in sorted(caches.values()):" in fixed
    # idempotency: re-linting finds nothing, re-fixing changes nothing
    assert lint_source(fixed, SIM_PATH).violations == ()
    assert fix_file(target) == 0
    assert target.read_text() == fixed


# --- LMP007 shared write outside a sync scope -----------------------------------

CLUSTER_PATH = pathlib.Path("src/repro/cluster/synthetic.py")


def test_lmp007_flags_unsynchronized_shared_write():
    source = """
    def tenant(session, buf):
        yield session.write(buf, 0, b"x")
    """
    assert "LMP007" in rule_ids(source, path=CLUSTER_PATH)


def test_lmp007_allows_write_after_acquire():
    source = """
    def tenant(session, buf, mutex):
        yield mutex.acquire()
        yield session.write(buf, 0, b"x")
        mutex.release()
    """
    assert "LMP007" not in rule_ids(source, path=CLUSTER_PATH)


def test_lmp007_flags_timed_write_and_not_timed_read():
    flagged = """
    def tenant(session, vaddr, write):
        yield session.timed_v(vaddr, 64, write)
    """
    assert "LMP007" in rule_ids(flagged, path=CLUSTER_PATH)
    keyword = """
    def tenant(session, vaddr):
        yield session.timed_v(vaddr, 64, write=True)
    """
    assert "LMP007" in rule_ids(keyword, path=CLUSTER_PATH)
    read = """
    def tenant(session, vaddr):
        yield session.timed_v(vaddr, 64, False)
    """
    assert "LMP007" not in rule_ids(read, path=CLUSTER_PATH)


def test_lmp007_allows_timed_write_after_acquire():
    source = """
    def tenant(session, vaddr, mutex):
        yield mutex.acquire()
        yield session.timed_v(vaddr, 64, True)
        mutex.release()
    """
    assert "LMP007" not in rule_ids(source, path=CLUSTER_PATH)


def test_lmp007_scoped_to_cluster_and_workloads():
    source = """
    def tenant(session, buf):
        yield session.write(buf, 0, b"x")
    """
    assert "LMP007" not in rule_ids(source, path=SIM_PATH)
    assert "LMP007" in rule_ids(
        source, path=pathlib.Path("src/repro/workloads/synthetic.py")
    )


# --- yield while holding in try-without-finally (retired id, now LMP012) ----------


def test_lmp008_flags_yield_between_acquire_and_release_no_finally():
    source = """
    def body(mutex, engine):
        yield mutex.acquire()
        try:
            yield engine.timeout(5.0)
            mutex.release()
        except ValueError:
            pass
    """
    assert "LMP012" in rule_ids(source)


def test_lmp008_allows_release_in_finally():
    source = """
    def body(mutex, engine):
        yield mutex.acquire()
        try:
            yield engine.timeout(5.0)
        finally:
            mutex.release()
    """
    assert "LMP012" not in rule_ids(source)


def test_lmp008_ignores_try_without_held_resource():
    source = """
    def body(engine):
        try:
            yield engine.timeout(5.0)
        except ValueError:
            pass
    """
    assert "LMP012" not in rule_ids(source)


# --- LMP009 bare print in library code -------------------------------------------


def test_lmp009_flags_bare_print_in_library_code():
    assert "LMP009" in rule_ids("def report(x):\n    print(x)\n")


def test_lmp009_applies_outside_scoped_subsystems():
    path = pathlib.Path("src/repro/obs/tracing.py")
    assert "LMP009" in rule_ids("print('debug')\n", path)


def test_lmp009_exempts_cli_runner_and_report():
    for exempt in (
        "src/repro/cli.py",
        "src/repro/check/runner.py",
        "src/repro/analysis/report.py",
    ):
        assert rule_ids("print('table')\n", pathlib.Path(exempt)) == []


def test_lmp009_noqa_suppresses():
    assert rule_ids("print('x')  # noqa: LMP009 - intentional\n") == []


def test_lmp009_ignores_non_name_print():
    # a method named print on some object is not the builtin
    assert "LMP009" not in rule_ids("device.print('x')\n")


# --- LMP010 ambient nondeterminism in library code --------------------------------


def test_lmp010_flags_wall_clock_outside_sim_subsystems():
    # the wall-clock ban covers the whole library, not only the
    # simulated subsystems (obs, cluster, analysis...)
    source = "import time\nstamp = time.time()\n"
    assert "LMP010" in rule_ids(source, path=CLUSTER_PATH)
    assert "LMP010" in rule_ids(source, path=pathlib.Path("src/repro/obs/tracing.py"))


def test_lmp010_defers_wall_clock_to_lmp001_inside_sim_subsystems():
    # inside sim/core/fabric/hw/mem one wall-clock call is exactly one
    # LMP010 finding: no second rule reports it again
    ids = rule_ids("import time\nt = time.monotonic()\n", path=SIM_PATH)
    assert ids == ["LMP010"]


def test_lmp010_flags_ambient_entropy_everywhere():
    assert "LMP010" in rule_ids("import os\nseed = os.urandom(8)\n", path=SIM_PATH)
    assert "LMP010" in rule_ids(
        "import uuid\ntag = uuid.uuid4()\n", path=CLUSTER_PATH
    )
    assert "LMP010" in rule_ids(
        "from secrets import token_hex\ntag = token_hex(4)\n", path=CLUSTER_PATH
    )


def test_lmp010_flags_datetime_now_outside_sim():
    assert "LMP010" in rule_ids(
        "import datetime\nstamp = datetime.datetime.now()\n", path=CLUSTER_PATH
    )


def test_lmp010_exempts_cli_and_runner():
    source = "import time\nstarted = time.perf_counter()\n"
    for exempt in ("src/repro/cli.py", "src/repro/check/runner.py"):
        assert "LMP010" not in rule_ids(source, path=pathlib.Path(exempt))


def test_lmp010_allows_injected_rng_and_engine_now():
    source = """
    def body(engine, rng):
        t = engine.now
        jitter = rng.random()
        return t + jitter
    """
    assert "LMP010" not in rule_ids(source, path=CLUSTER_PATH)


def test_lmp010_noqa_suppresses():
    source = "import time\nt = time.time()  # noqa: LMP010 - operator-facing stamp\n"
    assert rule_ids(source, path=CLUSTER_PATH) == []


# --- noqa suppressions ----------------------------------------------------------


def test_noqa_suppresses_named_rule_on_its_line():
    source = "for h in {3, 1, 2}:  # noqa: LMP003 - order is irrelevant here\n    flush(h)\n"
    assert rule_ids(source) == []


def test_noqa_bare_suppresses_everything_on_the_line():
    source = "for h in {3, 1, 2}:  # noqa\n    flush(h)\n"
    assert rule_ids(source) == []


def test_noqa_for_other_rule_does_not_suppress():
    source = "for h in {3, 1, 2}:  # noqa: LMP002\n    print(h)\n"
    assert "LMP003" in rule_ids(source)


# --- the repo itself ----------------------------------------------------------


@pytest.mark.skipif(not SRC_ROOT.exists(), reason="source tree not present")
def test_repo_lints_clean():
    reports = lint_paths([SRC_ROOT])
    findings = [v.format() for r in reports for v in r.violations]
    assert not findings, "\n".join(findings)
