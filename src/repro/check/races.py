"""Dynamic race, lockset, and deadlock detection for shared logical memory.

The paper's headline capability — CXL 3.0 Global Shared FAM mapped by
several servers at once (§2, §3.2) — is exactly where unsynchronized
access bugs hide, and the simulator gives us something real hardware
never does: a single serialized interleaving we can annotate with full
happens-before metadata.  :class:`RaceSanitizer` exploits that with
three detectors:

* **Happens-before (vector clocks).**  Every simulation process carries
  a vector clock.  All edges come from the engine's ``monitor`` slot:
  fork (``engine.process``) and join (yielding a process, or an
  ``AllOf`` of processes) from every
  :class:`~repro.sim.process.Process`; release→acquire from
  :class:`~repro.sim.resources.Semaphore` (and ``Mutex``) and the
  ``core.coherence.sync`` locks (:meth:`RaceSanitizer.on_acquire` /
  :meth:`RaceSanitizer.on_release`); and from coherence-directory
  load/store/rmw completions (a load is an acquire edge on its line's
  clock, a store a release edge, an rmw both — so any protocol built on
  coherent lines is ordered automatically).  Every shared-region frame
  (logical page) touched through the :class:`~repro.core.api.LmpSession`
  data path is shadowed with a last-writer epoch and last-reader clocks,
  FastTrack style; a write/write or read/write pair with no
  happens-before path is reported with both clocks as evidence.

* **Eraser-style lockset.**  A cheaper, stricter secondary detector: the
  candidate lockset of each frame is intersected with the semaphores and
  sync primitives held at every access.  If two or more processes touch
  a frame, at least one writes, and the intersection is empty, no single
  lock protects the frame — flagged even when fortunate scheduling made
  the interleaving happens-before clean.

* **Wait-for-graph deadlock detection.**  When an engine's event heap
  drains while monitored processes are still blocked, the detector
  builds the wait-for graph (process → process it waits on, process →
  holders of the semaphore/lock it queues on) and raises
  :class:`~repro.errors.DeadlockError` carrying the cycle.

``install()`` makes the detector the default ``monitor`` of every
engine built afterwards (:data:`repro.sim.engine.DEFAULTS`); processes,
sessions, semaphores, coherent locks and coherence directories call
their engine's monitor, so an engine built before ``install()`` stays
unmonitored.  Nothing is patched at class level.  ``uninstall()`` drops
the shadow state, so an engine built while the detector was installed
keeps calling it but gets no more reports.  With no detector the hooks
are single ``is None`` tests, so the engine hot path stays at full
speed (the ``bench_cluster.py --smoke`` CI job guards this).
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

from repro.core.api import LmpSession, SessionObserver
from repro.core.coherence.protocol import CoherenceDirectory
from repro.errors import DataRaceError, DeadlockError, LocksetError, SimulationError
from repro.sim.engine import DEFAULTS, Engine
from repro.sim.events import AllOf, Event
from repro.sim.process import Process

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.buffer import Buffer

#: cap on recorded reports (state keeps accumulating; only reporting stops)
MAX_REPORTS = 64
#: cap on per-frame access history kept for lockset evidence
_HISTORY = 8


def _join(into: dict[int, int], other: dict[int, int]) -> None:
    """Pointwise max: ``into`` := ``into`` ⊔ ``other``."""
    for pid, tick in other.items():
        if tick > into.get(pid, 0):
            into[pid] = tick


def _clock_str(clock: _t.Mapping[int, int]) -> str:
    inner = ", ".join(f"{pid}:{tick}" for pid, tick in sorted(clock.items()))
    return "{" + inner + "}"


@dataclasses.dataclass(frozen=True)
class FrameAccess:
    """One recorded access to a shared frame — the evidence unit."""

    pid: int
    process: str  #: process name at access time
    op: str  #: "read" or "write"
    frame: str  #: human-readable frame key, e.g. "pool#1:page12"
    buffer: str
    time: float  #: simulation time of the issuing call
    epoch: int  #: issuer's own clock component at access time
    clock: dict[int, int]  #: full vector clock snapshot
    locks: frozenset[str]  #: resources held at access time

    def describe(self) -> str:
        held = "{" + ", ".join(sorted(self.locks)) + "}"
        return (
            f"{self.op} by process {self.process!r} (pid {self.pid}) "
            f"at t={self.time:g}ns, epoch {self.epoch}@{self.pid}, "
            f"clock {_clock_str(self.clock)}, locks held {held}"
        )

    def to_json(self) -> dict[str, _t.Any]:
        return {
            "pid": self.pid,
            "process": self.process,
            "op": self.op,
            "frame": self.frame,
            "buffer": self.buffer,
            "time": self.time,
            "epoch": self.epoch,
            "clock": {str(k): v for k, v in sorted(self.clock.items())},
            "locks": sorted(self.locks),
        }


@dataclasses.dataclass(frozen=True)
class RaceReport:
    """A pair of conflicting accesses with no happens-before path."""

    kind: str  #: "write-write", "write-read", or "read-write"
    frame: str
    earlier: FrameAccess
    later: FrameAccess

    def render(self) -> str:
        missing = self.later.clock.get(self.earlier.pid, 0)
        return "\n".join(
            [
                f"data race ({self.kind}) on frame {self.frame}"
                f" (buffer {self.earlier.buffer!r})",
                f"  earlier: {self.earlier.describe()}",
                f"  later:   {self.later.describe()}",
                f"  no happens-before path: later.clock[{self.earlier.pid}] ="
                f" {missing} < {self.earlier.epoch} = earlier epoch",
                "  (no coherence transition, sync-primitive handoff, resource"
                " grant, or fork/join edge orders these accesses)",
            ]
        )

    def to_json(self) -> dict[str, _t.Any]:
        return {
            "kind": self.kind,
            "frame": self.frame,
            "earlier": self.earlier.to_json(),
            "later": self.later.to_json(),
        }


@dataclasses.dataclass(frozen=True)
class LocksetReport:
    """A frame whose Eraser candidate lockset went empty."""

    frame: str
    buffer: str
    access: FrameAccess  #: the access that emptied the lockset
    history: tuple[tuple[str, str, frozenset[str]], ...]  #: (process, op, locks)

    def render(self) -> str:
        lines = [
            f"lockset violation on frame {self.frame} (buffer {self.buffer!r}):"
            " no single lock protects it",
            f"  emptied by: {self.access.describe()}",
            "  access history (process, op, locks held):",
        ]
        for process, op, locks in self.history:
            held = "{" + ", ".join(sorted(locks)) + "}"
            lines.append(f"    {process!r} {op} holding {held}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, _t.Any]:
        return {
            "frame": self.frame,
            "buffer": self.buffer,
            "access": self.access.to_json(),
            "history": [
                {"process": process, "op": op, "locks": sorted(locks)}
                for process, op, locks in self.history
            ],
        }


@dataclasses.dataclass
class _ProcInfo:
    """Shadow state for one monitored process."""

    pid: int
    proc: Process | None  #: strong ref (Process has __slots__, no weakrefs)
    name: str
    clock: dict[int, int]
    held: list[str]  #: labels of resources currently held


@dataclasses.dataclass
class _SyncState:
    """Shadow state for one semaphore or coherent lock."""

    obj: _t.Any
    label: str
    clock: dict[int, int] = dataclasses.field(default_factory=dict)
    holders: set[int] = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class _Grant:
    """A pending acquisition whose firing carries a sync edge to the resumer."""

    event: Event
    state: _SyncState


@dataclasses.dataclass
class _FrameState:
    """Shadow state for one shared frame (logical page)."""

    writer: FrameAccess | None = None
    readers: dict[int, FrameAccess] = dataclasses.field(default_factory=dict)
    lockset: frozenset[str] | None = None  #: None = no access yet (universe)
    procs: set[int] = dataclasses.field(default_factory=set)
    wrote: bool = False
    lockset_reported: bool = False
    history: list[tuple[str, str, frozenset[str]]] = dataclasses.field(
        default_factory=list
    )


class RaceSanitizer(SessionObserver):
    """Happens-before + lockset + deadlock detection over the simulator.

    Usage::

        detector = RaceSanitizer()          # all three detectors
        with detector.installed():
            run_scenario()
        detector.assert_clean()             # raises DataRaceError/LocksetError

    Sub-detectors opt out individually: ``RaceSanitizer(lockset=False)``.
    Deadlocks raise :class:`~repro.errors.DeadlockError` *during* the
    run (at the drain point); races and lockset violations accumulate in
    :attr:`races` / :attr:`lockset_reports` for post-run inspection.
    """

    _active: _t.ClassVar["RaceSanitizer | None"] = None

    def __init__(
        self, hb: bool = True, lockset: bool = True, deadlock: bool = True
    ) -> None:
        self.hb = hb
        self.lockset = lockset
        self.deadlock = deadlock
        self.races: list[RaceReport] = []
        self.lockset_reports: list[LocksetReport] = []
        self.frames_tracked = 0
        self.accesses_seen = 0
        self.reset()

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Drop all shadow state and reports (keeps the detector installed)."""
        self.races = []
        self.lockset_reports = []
        self.frames_tracked = 0
        self.accesses_seen = 0
        self._next_pid = 1
        self._root = _ProcInfo(pid=0, proc=None, name="<top-level>", clock={0: 1}, held=[])
        self._current: _ProcInfo | None = None
        self._procs: dict[int, _ProcInfo] = {}  # id(proc) -> info
        self._grants: dict[int, _Grant] = {}  # id(event) -> pending sync edge
        self._syncs: dict[int, _SyncState] = {}  # id(resource) -> state
        self._frames: dict[tuple[int, int], _FrameState] = {}
        self._line_clocks: dict[tuple[int, int], dict[int, int]] = {}
        self._pools: dict[int, tuple[_t.Any, int]] = {}  # id(pool) -> (pool, seq)
        self._engines: dict[int, tuple[Engine, dict[int, int]]] = {}
        self._race_keys: set[tuple[_t.Any, ...]] = set()

    def install(self) -> None:
        if RaceSanitizer._active is not None:
            raise SimulationError("RaceSanitizer is already installed")
        RaceSanitizer._active = self
        DEFAULTS.monitor = self

    def uninstall(self) -> None:
        if RaceSanitizer._active is not self:
            raise SimulationError("this RaceSanitizer is not installed")
        DEFAULTS.monitor = None
        RaceSanitizer._active = None
        # Reports stay for inspection; shadow refs are dropped so engines,
        # processes and pools from the monitored run can be collected.
        self._procs.clear()
        self._grants.clear()
        self._syncs.clear()
        self._frames.clear()
        self._line_clocks.clear()
        self._pools.clear()
        self._engines.clear()
        self._current = None

    @contextlib.contextmanager
    def installed(self) -> _t.Iterator["RaceSanitizer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @property
    def clean(self) -> bool:
        return not self.races and not self.lockset_reports

    def assert_clean(self) -> None:
        """Raise on accumulated findings (deadlocks already raised in-run)."""
        if self.races:
            raise DataRaceError(
                f"{len(self.races)} data race(s) detected:\n\n"
                + "\n\n".join(r.render() for r in self.races)
            )
        if self.lockset_reports:
            raise LocksetError(
                f"{len(self.lockset_reports)} lockset violation(s) detected:\n\n"
                + "\n\n".join(r.render() for r in self.lockset_reports)
            )

    # -- shadow-state lookups ----------------------------------------------

    def _cur(self) -> _ProcInfo:
        return self._current if self._current is not None else self._root

    def _info(self, proc: Process) -> _ProcInfo:
        info = self._procs.get(id(proc))
        if info is None:  # created before install: adopt with a fresh clock
            info = self._new_info(proc, parent=None)
        return info

    def _new_info(self, proc: Process, parent: _ProcInfo | None) -> _ProcInfo:
        pid = self._next_pid
        self._next_pid += 1
        if parent is None:
            clock = {pid: 1}
        else:
            clock = dict(parent.clock)
            clock[pid] = 1
        held = list(parent.held) if parent is not None else []
        info = _ProcInfo(pid=pid, proc=proc, name=proc.name, clock=clock, held=held)
        self._procs[id(proc)] = info
        return info

    def _sync_state(self, obj: _t.Any) -> _SyncState:
        state = self._syncs.get(id(obj))
        if state is None:
            label = f"{type(obj).__name__.lower()}#{len(self._syncs) + 1}"
            state = _SyncState(obj=obj, label=label)
            self._syncs[id(obj)] = state
        return state

    def _bump(self, info: _ProcInfo) -> None:
        info.clock[info.pid] = info.clock.get(info.pid, 0) + 1

    def _grant(self, info: _ProcInfo, grant: _Grant) -> None:
        """Apply the acquire side of a sync edge to *info*."""
        state = grant.state
        _join(info.clock, state.clock)
        state.holders.add(info.pid)
        info.held.append(state.label)
        if isinstance(grant.event, Process):
            child = self._procs.get(id(grant.event))
            if child is not None:
                _join(info.clock, child.clock)

    def _release_edge(self, state: _SyncState, info: _ProcInfo) -> None:
        """Apply the release side: publish *info*'s clock on the resource."""
        _join(state.clock, info.clock)
        self._bump(info)
        state.holders.discard(info.pid)
        try:
            info.held.remove(state.label)
        except ValueError:
            pass  # release by a non-acquirer (ownership handoff) is legal

    # -- resource monitor hooks (release → acquire) --------------------------

    def on_acquire(self, resource: object, event: Event) -> None:
        """A semaphore or coherent lock handed out *event*: a slot granted
        at call time applies at once, a pending one when it fires."""
        grant = _Grant(event, self._sync_state(resource))
        if event.triggered:
            self._grant(self._cur(), grant)
        else:
            self._grants[id(event)] = grant

    def on_release(self, resource: object) -> None:
        self._release_edge(self._sync_state(resource), self._cur())

    # -- Process monitor hooks (fork / join / suspend) ----------------------

    def on_create(self, proc: Process) -> None:
        parent = self._cur()
        self._new_info(proc, parent)
        self._bump(parent)  # post-fork parent steps are not ordered w/ child

    def on_resume(self, proc: Process, event: Event) -> None:
        info = self._info(proc)
        self._current = info
        grant = self._grants.pop(id(event), None)
        if grant is not None and grant.event is event:
            if event._ok:
                self._grant(info, grant)
            return
        if isinstance(event, Process):
            child = self._procs.get(id(event))
            if child is not None and event._ok:
                _join(info.clock, child.clock)
        elif isinstance(event, AllOf):
            for member in event.events:
                if (
                    isinstance(member, Process)
                    and member.processed
                    and member._ok
                ):
                    child = self._procs.get(id(member))
                    if child is not None:
                        _join(info.clock, child.clock)

    def on_suspend(self, proc: Process, target: Event) -> None:
        self._current = None
        # Relay path: the yielded event already fired, so the resume will
        # arrive via an anonymous relay — apply any pending grant now.
        if target.processed:
            grant = self._grants.pop(id(target), None)
            if grant is not None and grant.event is target and target._ok:
                self._grant(self._info(proc), grant)

    def on_finish(self, proc: Process) -> None:
        self._current = None
        info = self._procs.get(id(proc))
        if info is None:
            return
        engine = proc.engine
        entry = self._engines.get(id(engine))
        if entry is None:
            entry = self._engines[id(engine)] = (engine, {})
        _join(entry[1], info.clock)

    # -- Engine monitor hooks ----------------------------------------------

    def on_run_exit(self, engine: Engine) -> None:
        """``run()`` returned: everything it dispatched happened before the
        code now resuming at top level."""
        if self._current is None:
            entry = self._engines.get(id(engine))
            if entry is not None:
                _join(self._root.clock, entry[1])

    def on_drain(self, engine: Engine) -> None:
        # an engine built while installed keeps calling after uninstall()
        if not self.deadlock or RaceSanitizer._active is not self:
            return
        blocked = [
            info
            for info in self._procs.values()
            if info.proc is not None
            and info.proc.engine is engine
            and info.proc.is_alive
        ]
        if not blocked:
            return
        edges: dict[int, list[tuple[int, str]]] = {}
        lines: dict[int, str] = {}
        by_pid = {info.pid: info for info in blocked}
        for info in blocked:
            for target_pid, why in self._wait_edges(info):
                edges.setdefault(info.pid, []).append((target_pid, why))
            lines[info.pid] = self._describe_wait(info)
        cycle = self._find_cycle(edges, set(by_pid))
        message = [
            f"deadlock: event heap drained with {len(blocked)} process(es)"
            " still blocked"
        ]
        if cycle:
            message.append("wait-for cycle:")
            for pid, why in cycle:
                info = by_pid.get(pid) or self._pid_info(pid)
                name = info.name if info else f"pid {pid}"
                message.append(f"  {name!r} {why}")
        else:
            message.append("blocked processes (no cycle among monitored ones):")
            for pid in sorted(lines):
                message.append(f"  {lines[pid]}")
        raise DeadlockError("\n".join(message))

    def _pid_info(self, pid: int) -> _ProcInfo | None:
        for info in self._procs.values():
            if info.pid == pid:
                return info
        return None

    def _wait_targets(self, event: Event | None) -> list[Event]:
        if event is None:
            return []
        if isinstance(event, AllOf):
            return [member for member in event.events if not member.processed]
        return [event]

    def _wait_edges(self, info: _ProcInfo) -> list[tuple[int, str]]:
        out: list[tuple[int, str]] = []
        waiting = info.proc._waiting_on if info.proc is not None else None
        for event in self._wait_targets(waiting):
            grant = self._grants.get(id(event))
            if grant is not None:
                for holder in sorted(grant.state.holders - {info.pid}):
                    held_by = self._pid_info(holder)
                    who = held_by.name if held_by is not None else f"pid {holder}"
                    out.append(
                        (holder, f"waits on {grant.state.label} (held by {who!r})")
                    )
            elif isinstance(event, Process):
                child = self._procs.get(id(event))
                if child is not None:
                    out.append((child.pid, f"waits on process {child.name!r}"))
        return out

    def _describe_wait(self, info: _ProcInfo) -> str:
        waiting = info.proc._waiting_on if info.proc is not None else None
        targets = self._wait_targets(waiting)
        if not targets:
            return f"{info.name!r} blocked (resume pending or detached)"
        parts = []
        for event in targets:
            grant = self._grants.get(id(event))
            if grant is not None:
                parts.append(grant.state.label)
            else:
                parts.append(getattr(event, "name", "") or type(event).__name__)
        return f"{info.name!r} waits on {', '.join(parts)}"

    def _find_cycle(
        self, edges: dict[int, list[tuple[int, str]]], nodes: set[int]
    ) -> list[tuple[int, str]] | None:
        """DFS for a cycle; returns [(pid, why-it-waits), ...] around it."""
        visited: set[int] = set()
        for start in sorted(nodes):
            if start in visited:
                continue
            stack: list[tuple[int, str]] = []
            on_path: dict[int, int] = {}

            def dfs(pid: int) -> list[tuple[int, str]] | None:
                visited.add(pid)
                on_path[pid] = len(stack)
                for target, why in edges.get(pid, []):
                    if target in on_path:
                        cut = on_path[target]
                        return stack[cut:] + [(pid, why)]
                    if target not in visited:
                        stack.append((pid, why))
                        found = dfs(target)
                        stack.pop()
                        if found:
                            return found
                del on_path[pid]
                return None

            found = dfs(start)
            if found:
                return found
        return None

    # -- coherence-line sync edges ------------------------------------------

    def on_line_op(
        self, directory: CoherenceDirectory, op: str, host: int | None, line: int
    ) -> None:
        if not self.hb:
            return
        info = self._cur()
        key = (id(directory), line)
        clock = self._line_clocks.get(key)
        if clock is None:
            clock = self._line_clocks[key] = {}
            self._pools.setdefault(id(directory), (directory, len(self._pools) + 1))
        if op != "store":  # load / rmw: acquire the line's published clock
            _join(info.clock, clock)
        if op != "load":  # store / rmw: publish this process's clock
            _join(clock, info.clock)
            self._bump(info)

    # -- frame shadowing (SessionObserver seam) -----------------------------

    def on_access(
        self,
        session: LmpSession,
        buffer: "Buffer",
        offset: int,
        size: int,
        write: bool,
    ) -> None:
        # an engine built while installed keeps calling after uninstall(),
        # which dropped the shadow state: report nothing
        if not (self.hb or self.lockset) or RaceSanitizer._active is not self:
            return
        info = self._cur()
        pool = session.runtime.pool
        pool_entry = self._pools.get(id(pool))
        if pool_entry is None:
            pool_entry = self._pools[id(pool)] = (pool, len(self._pools) + 1)
        pool_seq = pool_entry[1]
        page_bytes = pool.geometry.page_bytes
        base = buffer.base.value + offset
        first = base // page_bytes
        last = (base + max(size, 1) - 1) // page_bytes
        self.accesses_seen += 1
        access = FrameAccess(
            pid=info.pid,
            process=info.name,
            op="write" if write else "read",
            frame=f"pool#{pool_seq}:page{first}"
            + (f"..{last}" if last != first else ""),
            buffer=buffer.name or f"buffer@{buffer.base.value:#x}",
            time=session.runtime.engine.now,
            epoch=info.clock.get(info.pid, 0),
            clock=dict(info.clock),
            locks=frozenset(info.held),
        )
        for page in range(first, last + 1):
            frame_key = (pool_seq, page)
            state = self._frames.get(frame_key)
            if state is None:
                state = self._frames[frame_key] = _FrameState()
                self.frames_tracked += 1
            frame_name = f"pool#{pool_seq}:page{page}"
            if self.hb:
                self._check_hb(state, access, info, write, frame_name)
            if self.lockset:
                self._check_lockset(state, access, info, write, frame_name)

    def _happens_before(self, earlier: FrameAccess, info: _ProcInfo) -> bool:
        """FastTrack epoch test: earlier ⊑ info's current clock?"""
        if earlier.pid == info.pid:
            return True
        return info.clock.get(earlier.pid, 0) >= earlier.epoch

    def _check_hb(
        self,
        state: _FrameState,
        access: FrameAccess,
        info: _ProcInfo,
        write: bool,
        frame: str,
    ) -> None:
        if write:
            if state.writer is not None and not self._happens_before(
                state.writer, info
            ):
                self._report_race("write-write", frame, state.writer, access)
            for reader in state.readers.values():
                if reader.pid != info.pid and not self._happens_before(reader, info):
                    self._report_race("read-write", frame, reader, access)
            state.writer = access
            state.readers = {}
        else:
            if state.writer is not None and not self._happens_before(
                state.writer, info
            ):
                self._report_race("write-read", frame, state.writer, access)
            state.readers[info.pid] = access

    def _report_race(
        self, kind: str, frame: str, earlier: FrameAccess, later: FrameAccess
    ) -> None:
        key = (kind, frame, earlier.pid, later.pid)
        if key in self._race_keys or len(self.races) >= MAX_REPORTS:
            return
        self._race_keys.add(key)
        self.races.append(
            RaceReport(kind=kind, frame=frame, earlier=earlier, later=later)
        )

    def _check_lockset(
        self,
        state: _FrameState,
        access: FrameAccess,
        info: _ProcInfo,
        write: bool,
        frame: str,
    ) -> None:
        held = access.locks
        state.lockset = held if state.lockset is None else state.lockset & held
        state.procs.add(info.pid)
        state.wrote = state.wrote or write
        if len(state.history) < _HISTORY:
            state.history.append((access.process, access.op, held))
        if (
            state.wrote
            and len(state.procs) >= 2
            and not state.lockset
            and not state.lockset_reported
            and len(self.lockset_reports) < MAX_REPORTS
        ):
            state.lockset_reported = True
            self.lockset_reports.append(
                LocksetReport(
                    frame=frame,
                    buffer=access.buffer,
                    access=access,
                    history=tuple(state.history),
                )
            )
