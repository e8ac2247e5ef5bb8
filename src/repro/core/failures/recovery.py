"""Crash recovery orchestration.

The manager keeps a registry of every protected object (replicated or
erasure-coded) plus the unprotected buffers.  When a crash is confirmed,
it repairs what redundancy allows and reports what was lost — the two
§5 outcomes ("failure masking through replication or erasure coding ...
or failure reporting to application through exceptions"), side by side
and with costs attached (bytes reconstructed, simulated repair time).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.buffer import Buffer
from repro.core.failures.replication import ErasureCodedBuffer, ReplicatedBuffer
from repro.core.pool import LogicalMemoryPool
from repro.errors import RecoveryError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process

Protected = _t.Union[ReplicatedBuffer, ErasureCodedBuffer]


@dataclasses.dataclass(frozen=True)
class ObjectRepair:
    """Repair cost of one protected object."""

    name: str
    shards_rebuilt: int
    bytes_reconstructed: int
    duration_ns: float


@dataclasses.dataclass
class RecoveryReport:
    """Outcome of recovering from one crash."""

    server_id: int
    started_at: float
    duration_ns: float
    objects_repaired: int
    shards_rebuilt: int
    bytes_reconstructed: int
    lost_buffers: list[str]
    per_object: dict[str, ObjectRepair] = dataclasses.field(default_factory=dict)


class RecoveryManager:
    """Registry + repair driver."""

    def __init__(self, pool: LogicalMemoryPool, coordinator_id: int = 0) -> None:
        self.pool = pool
        self.coordinator_id = coordinator_id
        self._protected: list[Protected] = []
        self._unprotected: list[Buffer] = []
        self.reports: list[RecoveryReport] = []

    def register(self, obj: Protected) -> None:
        self._protected.append(obj)

    def register_unprotected(self, buffer: Buffer) -> None:
        self._unprotected.append(buffer)

    # -- crash handling ------------------------------------------------------------

    def handle_crash(self, server_id: int) -> "Process":
        """Repair every degraded protected object and tally the losses;
        the process returns a :class:`RecoveryReport`."""
        return self.pool.engine.process(
            self._handle_body(server_id), name=f"recovery.s{server_id}"
        )

    def _handle_body(self, server_id: int):
        engine = self.pool.engine
        started = engine.now
        coordinator = self.coordinator_id
        if coordinator == server_id or not self.pool.deployment.server(coordinator).alive:
            survivors = [
                sid
                for sid in sorted(self.pool.regions)
                if self.pool.deployment.server(sid).alive
            ]
            if not survivors:
                raise RecoveryError("no live server can coordinate recovery")
            coordinator = survivors[0]

        objects_repaired = 0
        shards_rebuilt = 0
        bytes_reconstructed = 0
        per_object: dict[str, ObjectRepair] = {}
        for obj in self._protected:
            if not obj.degraded():
                continue
            repair_started = engine.now
            rebuilt = yield obj.repair(coordinator)
            if rebuilt:
                objects_repaired += 1
                shards_rebuilt += rebuilt
                if isinstance(obj, ReplicatedBuffer):
                    obj_bytes = rebuilt * obj.size
                else:
                    obj_bytes = rebuilt * obj.shard_len
                bytes_reconstructed += obj_bytes
                per_object[obj.name] = ObjectRepair(
                    name=obj.name,
                    shards_rebuilt=rebuilt,
                    bytes_reconstructed=obj_bytes,
                    duration_ns=engine.now - repair_started,
                )

        lost: list[str] = []
        for buffer in self._unprotected:
            if buffer.freed:
                continue
            owners = self.pool.extents_by_owner(buffer)
            if server_id in owners:
                lost.append(buffer.name or f"0x{buffer.base.value:x}")

        report = RecoveryReport(
            server_id=server_id,
            started_at=started,
            duration_ns=engine.now - started,
            objects_repaired=objects_repaired,
            shards_rebuilt=shards_rebuilt,
            bytes_reconstructed=bytes_reconstructed,
            lost_buffers=lost,
            per_object=per_object,
        )
        self.reports.append(report)
        return report
