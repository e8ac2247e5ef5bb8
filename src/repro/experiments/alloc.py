"""A10 — the allocator gauntlet: does a shared pool's arena stay usable?

The paper's flexibility argument (§4.5) assumes the shared pool stays
*allocatable* while many servers churn through it.  We replay
adversarial traces (:mod:`repro.mem.arena`) against the pool's
first-fit :class:`~repro.mem.allocator.FreeListAllocator`, score
fragmentation, then ablate live compaction with its copy cost charged
to the simulation clock.

Two tables:

1. the gauntlet — first-fit against every trace (churn, bimodal,
   pinning, Zipf tenant skew) in a deliberately tight 1 MiB arena,
   scoring failure rate, internal and external fragmentation, and
   largest-hole survival;
2. the compaction ablation — the churn trace on the DES clock with
   compaction off and on; ``migration%`` is the honest share of
   simulated time the copies cost (the same number the obs latency
   breakdown shows when installed).

Everything derives from seeds and allocator state — the ``alloc``
determinism scenario replays a reduced run twice and insists the
rendered output is byte-identical.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.report import format_table
from repro.core.migration import ArenaCompactor
from repro.mem.arena import Gauntlet, GauntletReport, run_gauntlet, trace_names
from repro.sim.engine import Engine

#: the gauntlet arena is deliberately tight so fragmentation has teeth
ARENA_CAPACITY = 1 << 20

#: compaction fires above this external-fragmentation level
COMPACTION_THRESHOLD = 0.2


@dataclasses.dataclass(frozen=True)
class AblationRow:
    """One DES churn replay, compaction off or on."""

    compaction: bool
    ext_frag_mean: float
    ext_frag_max: float
    passes: int
    bytes_moved: int
    cost_ns: int
    sim_ns: float

    @property
    def migration_share(self) -> float:
        """Fraction of simulated time spent copying for compaction."""
        return self.cost_ns / self.sim_ns if self.sim_ns else 0.0


@dataclasses.dataclass(frozen=True)
class AllocResult:
    gauntlet: tuple[GauntletReport, ...]
    ablation: tuple[AblationRow, ...]

    def render(self) -> str:
        gauntlet_rows = [
            (
                r.trace,
                r.allocs,
                r.failures,
                f"{100 * r.internal_fragmentation:.1f}",
                f"{100 * r.ext_frag_mean:.1f}",
                f"{100 * r.ext_frag_max:.1f}",
                f"{100 * r.largest_hole_min_ratio:.1f}",
            )
            for r in self.gauntlet
        ]
        first = format_table(
            [
                "trace",
                "allocs",
                "fail",
                "int frag %",
                "ext frag %",
                "ext max %",
                "min hole %",
            ],
            gauntlet_rows,
            title=(
                f"A10 gauntlet: first-fit, {ARENA_CAPACITY // 1024} KiB arena, "
                "external fragmentation = 1 - largest_hole/free"
            ),
        )
        ablation_rows = [
            (
                "on" if r.compaction else "off",
                f"{100 * r.ext_frag_mean:.1f}",
                f"{100 * r.ext_frag_max:.1f}",
                r.passes,
                f"{r.bytes_moved / 1024:.0f}",
                f"{100 * r.migration_share:.2f}",
            )
            for r in self.ablation
        ]
        second = format_table(
            [
                "compaction",
                "ext frag %",
                "ext max %",
                "passes",
                "KiB moved",
                "migration %",
            ],
            ablation_rows,
            title=(
                "compaction ablation (first-fit, churn trace, DES clock): copies "
                f"are charged at threshold {COMPACTION_THRESHOLD}"
            ),
        )
        return "\n\n".join([first, second])


def _run_ablation(ops: int, seed: int) -> list[AblationRow]:
    rows: list[AblationRow] = []
    for compaction in (False, True):
        compactor = ArenaCompactor(threshold=COMPACTION_THRESHOLD) if compaction else None
        gauntlet = Gauntlet(capacity=ARENA_CAPACITY, compactor=compactor)
        engine = Engine(seed=seed)
        proc = gauntlet.replay_process(engine, "churn", ops=ops, seed=seed)
        engine.run()
        report = proc.value
        rows.append(
            AblationRow(
                compaction=compaction,
                ext_frag_mean=report.ext_frag_mean,
                ext_frag_max=report.ext_frag_max,
                passes=report.compactions,
                bytes_moved=report.compaction_bytes_moved,
                cost_ns=report.compaction_cost_ns,
                sim_ns=engine.now,
            )
        )
    return rows


def run(ops: int = 12000, ablation_ops: int = 12000, seed: int = 7) -> AllocResult:
    gauntlet = run_gauntlet(trace_names(), capacity=ARENA_CAPACITY, ops=ops, seed=seed)
    ablation = _run_ablation(ablation_ops, seed)
    return AllocResult(gauntlet=tuple(gauntlet), ablation=tuple(ablation))
