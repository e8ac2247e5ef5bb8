"""Causal spans over the discrete-event simulation.

A :class:`Span` is one timed region of simulated work — a process
lifetime, a session access, a coherence transaction, a tenant request —
with a ``span_id``, a ``parent_id``, sim-time start/end, and free-form
attributes.  Spans form a tree: one :class:`~repro.cluster.driver`
tenant request contains the session access it issued, which contains
the ``lmp.read`` pool process, the ``read:A<-B`` transport hop, and (for
locked ops) the coherence transactions behind the lock.

The machinery mirrors the zero-cost seam style of ``repro.check``: every
instrumented class carries a ``_obs`` class attribute that defaults to
``None``; the hot path pays one class-attribute load plus an ``is
None`` test, and nothing else, until :meth:`Observability.install` fills
the seams.  Span identifiers come from a plain counter (never ``id()``
or wall time), so two same-seed runs emit byte-identical traces — the
property the ``obs`` determinism scenario locks in.

Causality across interleaved processes works through per-process scope
stacks: each :class:`~repro.sim.process.Process` owns a stack of open
spans (stored in its ``_obs_scope`` slot).  The recorder's *active*
stack switches on every resume/suspend, so a span opened inside a
process stays its children's parent across yields, and a process
spawned while another runs becomes that process's child.
"""

from __future__ import annotations

import contextlib
import typing as _t

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine
    from repro.sim.events import Event
    from repro.sim.process import Process


class Span:
    """One timed region of simulated work in the causal tree."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "component",
        "engine_index",
        "start_ns",
        "end_ns",
        "attrs",
        "_stack",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        component: str,
        engine_index: int,
        start_ns: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.engine_index = engine_index
        self.start_ns = start_ns
        self.end_ns: float | None = None
        self.attrs: dict[str, _t.Any] = {}
        #: the scope stack this span is currently open on, if any
        self._stack: list["Span"] | None = None

    @property
    def duration_ns(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        if self.end_ns is None:
            return 0.0
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict[str, _t.Any]:
        """JSON-ready rendering (the ``spans.json`` dump format)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "component": self.component,
            "engine": self.engine_index,
            "start_ns": self.start_ns,
            "end_ns": self.start_ns if self.end_ns is None else self.end_ns,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.span_id}, parent={self.parent_id}, "
            f"{self.component}:{self.name!r}, [{self.start_ns}, {self.end_ns}))"
        )


class SpanRecorder:
    """Creates, parents, and closes spans deterministically.

    Span ids are drawn from a monotonically increasing counter starting
    at 1; engines are numbered in first-seen order.  Both are functions
    of the simulation's own (deterministic) execution order, never of
    object identity or host time.
    """

    def __init__(self) -> None:
        self._next_id = 1
        self.spans: list[Span] = []
        #: strong refs, first-seen order — the index is the trace's "pid"
        self._engines: list[_t.Any] = []
        #: scope used when no simulation process is being resumed
        self._base: list[Span] = []
        self._active: list[Span] = self._base
        #: called as fn(span) whenever a span closes (metrics federation)
        self.finish_hooks: list[_t.Callable[[Span], None]] = []

    # -- engines -------------------------------------------------------------

    def engine_index(self, engine: _t.Any) -> int:
        """Stable index of *engine*, assigned in first-seen order."""
        for i, seen in enumerate(self._engines):
            if seen is engine:
                return i
        self._engines.append(engine)
        return len(self._engines) - 1

    @property
    def engines(self) -> list[_t.Any]:
        return list(self._engines)

    # -- span lifecycle ------------------------------------------------------

    def start(self, name: str, component: str, engine: _t.Any) -> Span:
        """Create a span parented to the top of the active scope."""
        parent = self._active[-1].span_id if self._active else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            component=component,
            engine_index=self.engine_index(engine),
            start_ns=engine.now,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def open(self, name: str, component: str, engine: _t.Any) -> Span:
        """Start a span and push it on the active scope, so spans and
        processes created while it is open become its children."""
        span = self.start(name, component, engine)
        span._stack = self._active
        self._active.append(span)
        return span

    def finish(self, span: Span, now: float) -> None:
        """Close *span* at sim time *now* (idempotent)."""
        if span.end_ns is not None:
            return
        span.end_ns = now
        stack = span._stack
        if stack is not None:
            with contextlib.suppress(ValueError):
                stack.remove(span)
            span._stack = None
        for hook in self.finish_hooks:
            hook(span)

    # -- annotations on whatever span is currently running -------------------

    def annotate(self, **attrs: _t.Any) -> None:
        """Merge *attrs* into the currently-running span, if any."""
        if self._active:
            self._active[-1].attrs.update(attrs)

    def add(self, key: str, delta: float, span: Span | None = None) -> None:
        """Accumulate a numeric attribute on *span* (default: the
        currently-running span, if any)."""
        if span is None:
            if not self._active:
                return
            span = self._active[-1]
        attrs = span.attrs
        attrs[key] = attrs.get(key, 0.0) + delta

    def route_time(
        self, remote: bool, latency_ns: float, transfer_ns: float, span: Span | None = None
    ) -> None:
        """Charge one fabric hop to the latency-breakdown categories:
        a remote hop is link latency plus fabric transfer time; a local
        hop is all DRAM service."""
        if remote:
            self.add("cat_link_ns", latency_ns, span)
            self.add("cat_fabric_ns", transfer_ns, span)
        else:
            self.add("cat_dram_ns", latency_ns + transfer_ns, span)

    # -- process seam (mirrors repro.check's Process._monitor protocol) ------

    def on_create(self, proc: "Process") -> None:
        span = self.start(proc.name, "process", proc.engine)
        proc._obs_scope = [span]

    def on_resume(self, proc: "Process", event: "Event") -> None:
        scope = proc._obs_scope
        if scope is None:
            # the process predates install(); adopt it now
            span = self.start(proc.name, "process", proc.engine)
            scope = proc._obs_scope = [span]
        self._active = scope

    def on_suspend(self, proc: "Process", target: "Event") -> None:
        self._active = self._base

    def on_finish(self, proc: "Process") -> None:
        scope = proc._obs_scope
        if scope is not None:
            now = proc.engine.now
            for span in reversed(list(scope)):
                self.finish(span, now)
            proc._obs_scope = None
        self._active = self._base


#: (module path, attribute) for every class-level seam install() fills
_SEAMS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.process", "Process", "_obs"),
    ("repro.core.api", "LmpSession", "_obs"),
    ("repro.core.coherence.protocol", "CoherenceDirectory", "_obs"),
    ("repro.fabric.transport", "MemoryTransport", "_obs"),
    ("repro.hw.cpu", "Core", "_obs"),
    ("repro.core.migration", "LocalityBalancer", "_obs"),
    ("repro.mem.arena.gauntlet", "Gauntlet", "_obs"),
    ("repro.cluster.manager", "PoolManager", "_obs"),
    ("repro.cluster.driver", "ClusterDriver", "_obs"),
)

#: module-level seam for the §4.1 microbenchmark driver (a function, not
#: a class, so its hook is a module global rather than a ClassVar)
_MODULE_SEAMS: tuple[tuple[str, str], ...] = (("repro.workloads.vector_sum", "_obs"),)


def seam_targets() -> list[tuple[_t.Any, str]]:
    """(owner, attribute) for every seam ``install()`` fills: the one
    list the benchmarks and tests check for cold (``None``) seams."""
    import importlib

    targets: list[tuple[_t.Any, str]] = []
    for module_name, class_name, attr in _SEAMS:
        module = importlib.import_module(module_name)
        targets.append((getattr(module, class_name), attr))
    for module_name, attr in _MODULE_SEAMS:
        targets.append((importlib.import_module(module_name), attr))
    return targets


class Observability:
    """The one-stop facade: spans + metrics + all seam semantics.

    ``install()`` fills every ``_obs`` seam with this object and hooks a
    global engine event sink for metrics; ``uninstall()`` restores every
    seam to ``None``.  All seam-facing methods live here so the
    instrumented modules only ever call one object.
    """

    def __init__(self, window_ns: float = 1_000_000.0) -> None:
        if window_ns <= 0:
            raise ObservabilityError(f"window_ns must be positive, got {window_ns}")
        self.recorder = SpanRecorder()
        self.metrics = MetricsRegistry()
        self.window_ns = window_ns
        self._installed = False
        #: engine index -> next sim time at which to snapshot the metrics
        self._next_snapshot: dict[int, float] = {}
        #: id() of already-federated stat sources (dedup only; the ids
        #: never reach any output, so hash order cannot leak)
        self._federated: set[int] = set()
        self.recorder.finish_hooks.append(self._on_span_finish)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Fill every seam; raises if any observability is already live."""
        from repro.sim.engine import Engine

        if self._installed:
            raise ObservabilityError("this Observability is already installed")
        targets = seam_targets()
        busy = [
            f"{target.__name__}.{attr}"
            for target, attr in targets
            if getattr(target, attr) is not None
        ]
        if busy:
            raise ObservabilityError(
                f"observability seams already installed: {', '.join(busy)}"
            )
        for target, attr in targets:
            setattr(target, attr, self)
        Engine.add_global_event_sink(self._event_sink)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every seam to ``None`` (idempotent)."""
        from repro.sim.engine import Engine

        if not self._installed:
            return
        for target, attr in seam_targets():
            if getattr(target, attr) is self:
                setattr(target, attr, None)
        with contextlib.suppress(ValueError):
            Engine.remove_global_event_sink(self._event_sink)
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    @contextlib.contextmanager
    def activated(self) -> _t.Iterator["Observability"]:
        """``with obs.activated(): ...`` — install, run, always uninstall."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- engine metrics sink -------------------------------------------------

    def _event_sink(self, engine: "Engine", when: float, seq: int, event: _t.Any) -> None:
        index = self.recorder.engine_index(engine)
        self.metrics.inc("repro_engine_events_total", 1.0, engine=str(index))
        due = self._next_snapshot.get(index, self.window_ns)
        if when >= due:
            self.metrics.snapshot(index, when)
            windows = int(when // self.window_ns) + 1
            self._next_snapshot[index] = windows * self.window_ns

    def _on_span_finish(self, span: Span) -> None:
        self.metrics.inc("repro_spans_total", 1.0, component=span.component)
        self.metrics.observe(
            "repro_span_duration_ns", span.duration_ns, component=span.component
        )

    # -- process lifecycle (delegated to the recorder) -----------------------

    def on_create(self, proc: "Process") -> None:
        self.recorder.on_create(proc)

    def on_resume(self, proc: "Process", event: "Event") -> None:
        self.recorder.on_resume(proc, event)

    def on_suspend(self, proc: "Process", target: "Event") -> None:
        self.recorder.on_suspend(proc, target)

    def on_finish(self, proc: "Process") -> None:
        self.recorder.on_finish(proc)

    # -- generic annotations (coherence, transport, cpu, manager seams) ------

    def annotate(self, **attrs: _t.Any) -> None:
        self.recorder.annotate(**attrs)

    def add(self, key: str, delta: float, span: Span | None = None) -> None:
        self.recorder.add(key, delta, span)

    def running_span(self) -> Span | None:
        """The currently-running span, kept by a seam that charges it
        later from another process's context (a queued admission)."""
        active = self.recorder._active
        return active[-1] if active else None

    def route_time(self, remote: bool, latency_ns: float, transfer_ns: float) -> None:
        self.recorder.route_time(remote, latency_ns, transfer_ns)

    # -- session seam --------------------------------------------------------

    def session_begin(self, session: _t.Any, op: str, nbytes: int) -> Span:
        """Open a session-access span; the data-path process the session
        spawns next becomes its child."""
        self._federate_runtime(session.runtime)
        span = self.recorder.open(f"session.{op}", "session", session.runtime.engine)
        span.attrs["op"] = op
        span.attrs["server"] = session.server_id
        span.attrs["bytes"] = nbytes
        return span

    def session_end(self, span: Span, proc: "Process") -> None:
        """Close *span* when the wrapped data-path process completes."""
        engine = proc.engine

        def close(_event: _t.Any) -> None:
            self.recorder.finish(span, engine.now)

        assert proc.callbacks is not None  # the process was just created
        proc.callbacks.append(close)

    # -- transport seam ------------------------------------------------------

    def transport_begin(
        self,
        engine: _t.Any,
        name: str,
        op: str,
        requester: str,
        owner: str,
        nbytes: float,
        remote: bool,
    ) -> Span:
        """Open one fabric-hop span, parented to the active scope.

        Transport operations run as callback chains with no process of
        their own, so the hop carries its own span instead of charging
        whatever scope happens to be active when the transfer completes.
        """
        span = self.recorder.start(name, "fabric", engine)
        span.attrs.update(
            op=op, requester=requester, owner=owner, bytes=nbytes, remote=remote
        )
        return span

    def transport_end(
        self, span: Span, now: float, remote: bool, latency_ns: float, transfer_ns: float
    ) -> None:
        """Charge the hop's link/fabric/DRAM time onto *span* and close
        it at *now*."""
        self.recorder.route_time(remote, latency_ns, transfer_ns, span)
        self.recorder.finish(span, now)

    # -- driver (tenant request) seam ----------------------------------------

    def request_begin(self, driver: _t.Any, tenant_id: str, op_index: int) -> Span:
        self._federate("cluster", driver.manager.stats, driver.engine)
        span = self.recorder.open(f"request.{tenant_id}", "request", driver.engine)
        span.attrs["tenant"] = tenant_id
        span.attrs["op_index"] = op_index
        return span

    def request_end(self, span: Span, now: float, op: str, outcome: str) -> None:
        span.attrs["op"] = op
        span.attrs["outcome"] = outcome
        self.recorder.finish(span, now)
        self.metrics.inc("repro_requests_total", 1.0, op=op, outcome=outcome)

    def ingest_report(self, report: _t.Any) -> None:
        """Fold a finished :class:`~repro.cluster.driver.DriverReport`
        into the metrics registry (fairness, per-tenant throughput, and
        rack-level latency quantiles)."""
        self.metrics.set_gauge("repro_cluster_fairness_jain", report.fairness)
        self.metrics.set_gauge(
            "repro_cluster_rejection_rate", report.rejection_rate
        )
        for tenant in report.tenants:
            self.metrics.set_gauge(
                "repro_tenant_throughput_ops_per_s",
                tenant.throughput_ops_per_s,
                tenant=tenant.tenant_id,
            )
            self.metrics.inc(
                "repro_tenant_ops_total", float(tenant.ops), tenant=tenant.tenant_id
            )
        for name, value in sorted(report.latency_summary().items()):
            self.metrics.set_gauge(
                "repro_cluster_request_latency_ns", value, quantile=name
            )

    # -- vector-sum (microbenchmark) seam ------------------------------------

    def rep_begin(self, engine: _t.Any, config: str, link: str, rep: int) -> Span:
        span = self.recorder.open("vector_sum.rep", "request", engine)
        span.attrs["op"] = f"scan:{config}"
        span.attrs["link"] = link
        span.attrs["rep"] = rep
        return span

    def rep_end(self, span: Span, now: float, nbytes: int) -> None:
        span.attrs["bytes"] = nbytes
        self.recorder.finish(span, now)

    # -- coherence seam ------------------------------------------------------

    def coherence_op(
        self, directory: _t.Any, op: str, host: int, line: int, hit: bool
    ) -> None:
        self._federate_coherence(directory)
        self.recorder.annotate(op=op, host=host, line=line, hit=hit)
        self.metrics.inc("repro_coherence_ops_total", 1.0, op=op)

    # -- balancer seam -------------------------------------------------------

    def epoch_done(self, report: _t.Any) -> None:
        self.recorder.annotate(
            epoch=report.epoch,
            migrations=len(report.migrations),
            bytes_moved=report.bytes_moved,
        )
        self.metrics.inc("repro_migration_bytes_total", float(report.bytes_moved))

    # -- arena gauntlet seam -------------------------------------------------

    def gauntlet_begin(self, engine: _t.Any, trace: str) -> Span:
        """Open the request-root span for one gauntlet replay."""
        span = self.recorder.open("gauntlet", "request", engine)
        span.attrs["op"] = f"gauntlet:{trace}"
        return span

    def gauntlet_end(self, span: Span, now: float) -> None:
        self.recorder.finish(span, now)

    def arena_sample(self, trace: str, fragmentation: float, largest_hole: int) -> None:
        """One fragmentation sample: gauge (latest) plus histogram (the
        whole replay's distribution) per trace."""
        self.metrics.set_gauge("repro_arena_fragmentation", fragmentation, trace=trace)
        self.metrics.observe("repro_arena_fragmentation_hist", fragmentation, trace=trace)
        self.metrics.set_gauge(
            "repro_arena_largest_hole_bytes", float(largest_hole), trace=trace
        )

    def arena_failure(self, trace: str) -> None:
        self.metrics.inc("repro_arena_alloc_failures_total", 1.0, trace=trace)

    def arena_compaction(self, trace: str, report: _t.Any) -> None:
        """Fold one compaction pass into the metrics registry."""
        self.metrics.inc("repro_arena_compactions_total", 1.0, trace=trace)
        self.metrics.inc(
            "repro_arena_compaction_bytes_total", float(report.bytes_moved), trace=trace
        )
        self.metrics.set_gauge(
            "repro_arena_fragmentation", report.fragmentation_after, trace=trace
        )

    # -- stat-source federation ----------------------------------------------

    def _federate(self, prefix: str, source: _t.Any, engine: _t.Any) -> None:
        key = id(source)
        if key in self._federated:
            return
        self._federated.add(key)
        self.metrics.add_statset(prefix, source, engine)

    def _federate_runtime(self, runtime: _t.Any) -> None:
        pool = runtime.pool
        key = id(pool)
        if key in self._federated:
            return
        self._federated.add(key)
        transport = getattr(pool, "transport", None)
        if transport is not None:
            self.metrics.add_transport(transport)
        profiler = getattr(pool, "profiler", None)
        if profiler is not None:
            self.metrics.add_profiler(profiler)

    def _federate_coherence(self, directory: _t.Any) -> None:
        key = id(directory)
        if key in self._federated:
            return
        self._federated.add(key)
        self.metrics.add_coherence(directory.stats)

    # -- dumping -------------------------------------------------------------

    def final_snapshot(self) -> None:
        """Snapshot every engine's metrics at its current sim time."""
        for index, engine in enumerate(self.recorder.engines):
            self.metrics.snapshot(index, engine.now)

    def dump(self, out_dir: _t.Any) -> list[str]:
        """Write the full dump set into *out_dir*; returns the paths."""
        from repro.obs.export import write_dump

        self.final_snapshot()
        return write_dump(self, out_dir)
