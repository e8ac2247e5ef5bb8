"""Mutation harness: known-bad protocol edits the checker must catch.

A model checker that has never caught a bug is indistinguishable from
one that checks nothing.  Each mutant below re-derives one spec with a
single protocol edit — the kind of off-by-one a refactor of the real
subsystem could introduce (a store that forgets to invalidate sharers,
a release that forgets to wake the queue, a repair that copies from the
stale mirror) — and the harness demands the explorer kill it with a
counterexample.

The mutants override the ``_apply_*`` keyword seams of the **spec**,
never the implementation: replaying a mutant's counterexample therefore
drives the *correct* production code, which refuses to follow the
modeled bug and diverges.  That divergence is itself evidence the
replay adapters compare real state (a rubber-stamp adapter would follow
any trace), so the harness reports it alongside the kill.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.check.model.admission import AdmissionSpec
from repro.check.model.coherence import CoherenceSpec
from repro.check.model.explorer import Explorer
from repro.check.model.leases import LeaseModelState, LeaseSpec
from repro.check.model.recovery import RecoveryModelState, RecoverySpec
from repro.check.model.replay import checked_replay
from repro.check.model.spec import ModelSpec


# -- coherence mutants --------------------------------------------------------


class StoreSkipsInvalidation(CoherenceSpec):
    def _apply_store(self, s, host, line, invalidate=True):  # type: ignore[no-untyped-def]
        return super()._apply_store(s, host, line, invalidate=False)


class LoadKeepsModifiedOwner(CoherenceSpec):
    def _apply_load(self, s, host, line, downgrade_owner=True):  # type: ignore[no-untyped-def]
        return super()._apply_load(s, host, line, downgrade_owner=False)


class RmwSkipsInvalidation(CoherenceSpec):
    def _apply_rmw(self, s, host, line, invalidate=True):  # type: ignore[no-untyped-def]
        return super()._apply_rmw(s, host, line, invalidate=False)


class EvictLeavesDirectory(CoherenceSpec):
    def _apply_evict(self, s, host, line, update_directory=True):  # type: ignore[no-untyped-def]
        return super()._apply_evict(s, host, line, update_directory=False)


# -- lease mutants ------------------------------------------------------------


class GrantReusesId(LeaseSpec):
    def _apply_grant(
        self, s: LeaseModelState, tenant: int, advance_id: bool = True
    ) -> LeaseModelState:
        return super()._apply_grant(s, tenant, advance_id=False)


class CrashSkipsRefund(LeaseSpec):
    def _apply_crash(
        self, s: LeaseModelState, tenant: int, refund: bool = True
    ) -> LeaseModelState:
        return super()._apply_crash(s, tenant, refund=False)


class ExpiryFreesHeadOnly(LeaseSpec):
    def _apply_tick(
        self, s: LeaseModelState, free_every_due: bool = True
    ) -> LeaseModelState:
        return super()._apply_tick(s, free_every_due=False)


# -- admission mutants --------------------------------------------------------


class AdmissionIgnoresQuota(AdmissionSpec):
    enforce_quota = False


class ReleaseSkipsServiceQueue(AdmissionSpec):
    service_queue_on_release = False


# -- recovery mutants ---------------------------------------------------------


class WriteFirstMirrorOnly(RecoverySpec):
    def _apply_write(
        self, s: RecoveryModelState, all_live_mirrors: bool = True
    ) -> RecoveryModelState:
        return super()._apply_write(s, all_live_mirrors=False)


class RepairFromStaleMirror(RecoverySpec):
    def _apply_repair(
        self, s: RecoveryModelState, copy_from_live: bool = True
    ) -> RecoveryModelState:
        return super()._apply_repair(s, copy_from_live=False)


@dataclasses.dataclass(frozen=True)
class Mutant:
    """One seeded protocol bug and how to build its spec."""

    name: str
    target: str  # which spec it mutates
    description: str
    build: _t.Callable[[str], ModelSpec]


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "store-skips-invalidation",
        "coherence",
        "a store that leaves other sharers' copies intact (breaks SWMR)",
        StoreSkipsInvalidation.at_scope,
    ),
    Mutant(
        "load-keeps-modified-owner",
        "coherence",
        "a load miss that never downgrades the Modified owner",
        LoadKeepsModifiedOwner.at_scope,
    ),
    Mutant(
        "rmw-skips-invalidation",
        "coherence",
        "an atomic that updates home memory without invalidating caches",
        RmwSkipsInvalidation.at_scope,
    ),
    Mutant(
        "evict-leaves-directory",
        "coherence",
        "an eviction the directory never hears about",
        EvictLeavesDirectory.at_scope,
    ),
    Mutant(
        "grant-reuses-id",
        "leases",
        "a grant that forgets to advance the lease-id counter",
        GrantReusesId.at_scope,
    ),
    Mutant(
        "crash-skips-refund",
        "leases",
        "a revocation that reclaims leases without refunding quota",
        CrashSkipsRefund.at_scope,
    ),
    Mutant(
        "expiry-frees-head-only",
        "leases",
        "an expiry pass that frees only the lowest-id due lease",
        ExpiryFreesHeadOnly.at_scope,
    ),
    Mutant(
        "admission-ignores-quota",
        "admission",
        "an admission policy that forgets the quota check",
        AdmissionIgnoresQuota.at_scope,
    ),
    Mutant(
        "release-skips-service-queue",
        "admission",
        "a release that forgets to wake the admission queue (lost wakeup)",
        ReleaseSkipsServiceQueue.at_scope,
    ),
    Mutant(
        "write-first-mirror-only",
        "recovery",
        "a replicated write that updates only the first live mirror",
        WriteFirstMirrorOnly.at_scope,
    ),
    Mutant(
        "repair-from-stale-mirror",
        "recovery",
        "a repair that restores the dead mirror's stale contents",
        RepairFromStaleMirror.at_scope,
    ),
)


@dataclasses.dataclass
class MutantReport:
    """Outcome of hunting one seeded bug."""

    name: str
    target: str
    description: str
    caught: bool
    violation_kind: str = ""
    violation_property: str = ""
    trace_len: int = 0
    states: int = 0
    #: the correct implementation refused to follow the mutant's trace
    replay_diverged: bool | None = None
    replay_deterministic: bool | None = None

    def render(self) -> str:
        if not self.caught:
            return f"MISSED  {self.name} [{self.target}] — {self.description}"
        replay = ""
        if self.replay_diverged is not None:
            verdict = (
                "implementation diverges" if self.replay_diverged else "REPLAY FOLLOWED"
            )
            det = "deterministic" if self.replay_deterministic else "NONDETERMINISTIC"
            replay = f"; replay: {verdict}, {det}"
        return (
            f"caught  {self.name} [{self.target}] — {self.violation_kind} "
            f"{self.violation_property}, {self.trace_len}-action counterexample "
            f"over {self.states} state(s){replay}"
        )

    def to_json(self) -> dict[str, _t.Any]:
        return dataclasses.asdict(self)


def run_mutants(
    scope: str = "smoke", replay: bool = True, max_states: int = 200_000
) -> list[MutantReport]:
    """Explore every seeded mutant; each must die with a counterexample.

    With *replay* (the default) each counterexample is also driven
    through the real DES twice — the correct implementation must
    diverge from the modeled bug, deterministically.
    """
    reports: list[MutantReport] = []
    for mutant in MUTANTS:
        spec = mutant.build(scope)
        result = Explorer(spec, max_states=max_states).run()
        if result.ok:
            reports.append(
                MutantReport(
                    name=mutant.name,
                    target=mutant.target,
                    description=mutant.description,
                    caught=False,
                    states=result.states,
                )
            )
            continue
        violation = result.violations[0]
        report = MutantReport(
            name=mutant.name,
            target=mutant.target,
            description=mutant.description,
            caught=True,
            violation_kind=violation.kind,
            violation_property=violation.property,
            trace_len=len(violation.trace),
            states=result.states,
        )
        if replay and violation.trace:
            replayed = checked_replay(spec, violation.trace)
            report.replay_diverged = replayed.diverged
            report.replay_deterministic = replayed.deterministic
        reports.append(report)
    return reports
