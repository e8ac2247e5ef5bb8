"""The allocator gauntlet: adversarial trace replay with scoring.

:class:`Gauntlet` replays a deterministic trace (see
:mod:`repro.mem.arena.traces`) against the shared pool's first-fit
:class:`~repro.mem.allocator.FreeListAllocator` and scores what the
paper's shared-pool story actually depends on: does the pool stay
*usable* under churn, or does it fragment until large allocations fail?

Scores (all derived from allocator state, never wall clock, so a
same-seed replay is byte-identical — the ``alloc`` determinism scenario
locks this in):

* throughput proxies: ops, allocs, frees, failures;
* internal fragmentation: granted-over-requested rounding waste;
* external fragmentation: ``1 - largest_hole/free`` sampled every
  ``sample_every`` ops (mean / max / final);
* largest-hole survival: the worst ``largest_hole/capacity`` seen —
  the headroom left for a big allocation at the worst moment;
* compaction work: passes run, bytes moved, simulated copy cost.

Wall-clock throughput lives in ``benchmarks/bench_alloc.py``, not here.

Observation follows the repo's convention that instrumentation belongs
to an engine.  The pure :meth:`Gauntlet.replay` holds no engine and is
never observed: it is the reference the DES replay is tested against.
:meth:`Gauntlet.replay_process` reports to its engine's ``obs`` (None =
off): fragmentation gauges and histograms per trace, compaction
counters, and compaction's copy cost charged to the simulation clock
under the running request span, so the obs latency breakdown shows an
honest ``migration`` column.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import AllocationError
from repro.mem.allocator import Allocation, FreeListAllocator
from repro.mem.arena.traces import ALLOC, TraceOp, make_trace
from repro.sim.engine import Engine

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.migration import ArenaCompactor
    from repro.sim.process import Process


@dataclasses.dataclass(frozen=True)
class GauntletReport:
    """One trace replay, fully scored."""

    trace: str
    ops: int
    allocs: int
    frees: int
    failures: int
    requested_bytes: int
    granted_bytes: int
    ext_frag_mean: float
    ext_frag_max: float
    ext_frag_final: float
    largest_hole_min_ratio: float
    compactions: int
    compaction_bytes_moved: int
    compaction_cost_ns: int

    @property
    def internal_fragmentation(self) -> float:
        """Rounding waste: 1 - requested/granted over successful allocs."""
        if self.granted_bytes == 0:
            return 0.0
        return 1.0 - self.requested_bytes / self.granted_bytes


class Gauntlet:
    """Replays adversarial traces against a first-fit arena."""

    def __init__(
        self,
        capacity: int = 1 << 22,
        sample_every: int = 64,
        compactor: "ArenaCompactor | None" = None,
        op_cost_ns: float = 50.0,
    ) -> None:
        self.capacity = capacity
        self.sample_every = sample_every
        self.compactor = compactor
        #: simulated metadata cost per trace op (DES replay only)
        self.op_cost_ns = op_cost_ns

    # -- pure replay ---------------------------------------------------------

    def replay(
        self,
        trace_name: str,
        ops: int = 20000,
        seed: int = 0,
        trace: list[TraceOp] | None = None,
    ) -> GauntletReport:
        """Replay synchronously, unobserved; returns the deterministic
        report."""
        steps = self._steps(trace_name, ops, seed, trace, obs=None)
        report = None
        for report in steps:
            pass
        assert isinstance(report, GauntletReport)
        return report

    # -- DES replay ----------------------------------------------------------

    def replay_process(
        self,
        engine: "Engine",
        trace_name: str,
        ops: int = 20000,
        seed: int = 0,
        trace: list[TraceOp] | None = None,
    ) -> "Process":
        """Replay on the simulation clock; the process returns the
        report.  Trace ops cost :attr:`op_cost_ns` each and every
        compaction pass blocks for its copy cost, charged to the
        ``migration`` latency category of the surrounding request span.
        """
        return engine.process(
            self._replay_body(engine, trace_name, ops, seed, trace),
            name=f"gauntlet.{trace_name}",
        )

    def _replay_body(
        self,
        engine: "Engine",
        trace_name: str,
        ops: int,
        seed: int,
        trace: list[TraceOp] | None,
    ) -> _t.Any:
        obs = engine.obs
        span = None
        if obs is not None:
            span = obs.gauntlet_begin(engine, trace_name)
        batch = 0
        report = None
        for step in self._steps(trace_name, ops, seed, trace, obs):
            if isinstance(step, GauntletReport):
                report = step
                break
            batch_ops, compaction_cost_ns = step
            yield engine.timeout(batch_ops * self.op_cost_ns)
            if compaction_cost_ns:
                if obs is not None:
                    obs.add("cat_migration_ns", float(compaction_cost_ns))
                yield engine.timeout(float(compaction_cost_ns))
            batch += 1
        if obs is not None and span is not None:
            obs.gauntlet_end(span, engine.now)
        return report

    # -- the shared replay loop ----------------------------------------------

    def _steps(
        self,
        trace_name: str,
        ops: int,
        seed: int,
        trace: list[TraceOp] | None,
        obs: _t.Any,
    ) -> _t.Iterator[_t.Any]:
        """Drive the replay, yielding ``(ops_done, compaction_ns)`` after
        every sample window and the final :class:`GauntletReport` last.

        One loop serves both entry points: :meth:`replay` drains it,
        :meth:`replay_process` turns each window into simulated time and
        passes its engine's observer as *obs* (None = unobserved).
        """
        if trace is None:
            trace = make_trace(trace_name, ops=ops, seed=seed)
        allocator = FreeListAllocator(self.capacity)

        slots: dict[int, Allocation] = {}
        allocs = frees = failures = 0
        requested = granted = 0
        frag_samples: list[float] = []
        hole_min_ratio = 1.0
        compactions = 0
        compaction_bytes = 0
        compaction_ns = 0
        since_sample = 0
        window_ops = 0

        def sample() -> int:
            """Record fragmentation; run compaction if warranted.
            Returns the compaction pass's simulated cost in ns."""
            nonlocal hole_min_ratio, compactions, compaction_bytes, compaction_ns
            frag = allocator.fragmentation()
            frag_samples.append(frag)
            hole_min_ratio = min(hole_min_ratio, allocator.largest_hole / self.capacity)
            if obs is not None:
                obs.arena_sample(trace_name, frag, allocator.largest_hole)
            cost = 0
            if self.compactor is not None and self.compactor.should_compact(allocator):
                pass_report = self.compactor.compact(allocator)
                compactions += 1
                compaction_bytes += pass_report.bytes_moved
                compaction_ns += pass_report.cost_ns
                cost = pass_report.cost_ns
                for slot, held in list(slots.items()):
                    moved = pass_report.moves.get(held.offset)
                    if moved is not None:
                        slots[slot] = Allocation(moved, held.size)
                frag_samples.append(allocator.fragmentation())
                if obs is not None:
                    obs.arena_compaction(trace_name, pass_report)
            return cost

        for op in trace:
            if op.kind == ALLOC:
                try:
                    grant = allocator.allocate(op.size)
                except AllocationError:
                    failures += 1
                    if obs is not None:
                        obs.arena_failure(trace_name)
                else:
                    slots[op.slot] = grant
                    allocs += 1
                    requested += op.size
                    granted += grant.size
            else:
                held = slots.pop(op.slot, None)
                if held is not None:  # its alloc may have failed
                    allocator.free(held)
                    frees += 1
            since_sample += 1
            window_ops += 1
            if since_sample >= self.sample_every:
                since_sample = 0
                cost = sample()
                yield (window_ops, cost)
                window_ops = 0
        final_cost = sample()  # end-of-trace state, before the drain
        yield (window_ops, final_cost)
        # drain so suite-wide leak checks stay green, then close the books
        for slot in sorted(slots):
            allocator.free(slots[slot])
        allocator.check_invariants()
        assert allocator.bytes_allocated == 0, "drain left live bytes"

        yield GauntletReport(
            trace=trace_name,
            ops=len(trace),
            allocs=allocs,
            frees=frees,
            failures=failures,
            requested_bytes=requested,
            granted_bytes=granted,
            ext_frag_mean=sum(frag_samples) / len(frag_samples),
            ext_frag_max=max(frag_samples),
            ext_frag_final=frag_samples[-1],
            largest_hole_min_ratio=hole_min_ratio,
            compactions=compactions,
            compaction_bytes_moved=compaction_bytes,
            compaction_cost_ns=compaction_ns,
        )


def run_gauntlet(
    traces: _t.Sequence[str],
    capacity: int = 1 << 22,
    ops: int = 20000,
    seed: int = 0,
    compactor: "ArenaCompactor | None" = None,
) -> list[GauntletReport]:
    """Replay every trace on its own engine, so an installed
    :class:`repro.obs.Observability` records each; reports in input
    order."""
    gauntlet = Gauntlet(capacity=capacity, compactor=compactor)
    reports: list[GauntletReport] = []
    for trace in traces:
        engine = Engine(seed=seed)
        proc = gauntlet.replay_process(engine, trace, ops=ops, seed=seed)
        reports.append(engine.run(proc))
    return reports
