"""Explicit-state model checking for the pool's protocol state machines.

A TLA-style micro-checker: each protocol is abstracted as a
:class:`~repro.check.model.spec.ModelSpec` (initial states, enabled
actions, a pure next-state function, invariants), and the
:class:`~repro.check.model.explorer.Explorer` enumerates every
reachable configuration at a bounded scope — breadth-first for
shortest counterexamples, with sleep-set partial-order reduction.

What makes this more than a toy: every spec carries a **replay
adapter** that drives its counterexamples through the real
discrete-event simulator (the production ``CoherenceDirectory``,
``PoolManager``, ``AdmissionController.decide``, ``ReplicatedBuffer``)
and cross-checks the abstract prediction against concrete state step by
step, under the determinism harness — so a model violation ships as a
deterministic repro, and a model that drifts from the implementation is
caught as a divergence.  ``repro check --model`` wires it into the
static-analysis runner; :mod:`repro.check.model.mutants` keeps the
checker honest by seeding known protocol bugs and demanding they are
caught.
"""

from __future__ import annotations

import typing as _t

from repro.check.model.admission import AdmissionSpec
from repro.check.model.coherence import CoherenceSpec
from repro.check.model.explorer import (
    ExplorationResult,
    Explorer,
    ModelViolation,
    minimize_trace,
)
from repro.check.model.leases import LeaseSpec
from repro.check.model.recovery import RecoverySpec
from repro.check.model.replay import (
    ReplayRecorder,
    ReplayResult,
    ReplayStep,
    checked_replay,
)
from repro.check.model.spec import (
    Action,
    Invariant,
    ModelSpec,
    State,
)
from repro.errors import ModelCheckError

#: exploration scopes every spec understands
SCOPES: tuple[str, ...] = ("smoke", "deep")

#: registry the runner and CLI resolve ``--model`` names against
SPECS: dict[str, _t.Callable[[str], ModelSpec]] = {
    CoherenceSpec.name: CoherenceSpec.at_scope,
    LeaseSpec.name: LeaseSpec.at_scope,
    AdmissionSpec.name: AdmissionSpec.at_scope,
    RecoverySpec.name: RecoverySpec.at_scope,
}


def build_spec(name: str, scope: str = "smoke") -> ModelSpec:
    """Instantiate a registered spec at *scope*; raises on unknown names."""
    try:
        factory = SPECS[name]
    except KeyError:
        known = ", ".join(sorted(SPECS))
        raise ModelCheckError(f"unknown model spec {name!r} (known: {known})") from None
    if scope not in SCOPES:
        raise ModelCheckError(f"unknown scope {scope!r} (known: {', '.join(SCOPES)})")
    return factory(scope)


__all__ = [
    "Action",
    "AdmissionSpec",
    "CoherenceSpec",
    "ExplorationResult",
    "Explorer",
    "Invariant",
    "LeaseSpec",
    "ModelSpec",
    "ModelViolation",
    "RecoverySpec",
    "ReplayRecorder",
    "ReplayResult",
    "ReplayStep",
    "SCOPES",
    "SPECS",
    "State",
    "build_spec",
    "checked_replay",
    "minimize_trace",
]
