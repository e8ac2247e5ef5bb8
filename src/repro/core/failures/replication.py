"""Failure masking: replicated and erasure-coded buffers (§5).

Both schemes wrap pool buffers with anti-affine placement (every shard
pinned to a different server) so a single host crash removes at most one
shard.  Both are *functional* — they move real bytes, and the recovery
tests assert bit-exact reconstruction — and *timed* — every copy and
parity write crosses the simulated fabric.

* :class:`ReplicatedBuffer` — ``copies`` full mirrors.  Reads prefer
  the replica most local to the requester; writes update all live
  mirrors.  Storage overhead ``copies - 1``.
* :class:`ErasureCodedBuffer` — an RS(k, m) coded object (the Carbink
  design): ``k`` data shards + ``m`` parity shards on ``k+m`` distinct
  servers.  Whole-object put/get (spans, in Carbink's terms); storage
  overhead ``m/k``.
"""

from __future__ import annotations

import typing as _t

from repro.core.buffer import Buffer
from repro.core.failures.erasure import ReedSolomon
from repro.core.pool import LogicalMemoryPool
from repro.errors import ConfigError, MemoryFailureError, RecoveryError
from repro.fabric.transport import fixed_payload
from repro.mem.interleave import PinnedPlacement

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process


def _allocate_pinned(
    pool: LogicalMemoryPool, size: int, server_id: int, name: str
) -> Buffer:
    """Allocate a buffer entirely on *server_id*."""
    return pool.allocate(
        size,
        requester_id=server_id,
        name=name,
        placement=PinnedPlacement(server_id),
    )


class ReplicatedBuffer:
    """``copies`` byte-identical mirrors on distinct servers."""

    def __init__(
        self,
        pool: LogicalMemoryPool,
        size: int,
        copies: int = 2,
        home_server: int = 0,
        name: str = "replicated",
    ) -> None:
        server_ids = sorted(pool.regions)
        if copies < 2:
            raise ConfigError(f"replication needs >= 2 copies, got {copies}")
        if copies > len(server_ids):
            raise ConfigError(
                f"{copies} copies need {copies} distinct servers, "
                f"pool has {len(server_ids)}"
            )
        self.pool = pool
        self.size = size
        self.name = name
        home_pos = server_ids.index(home_server) if home_server in server_ids else 0
        self.replica_servers = [
            server_ids[(home_pos + r) % len(server_ids)] for r in range(copies)
        ]
        self.replicas: list[Buffer] = [
            _allocate_pinned(pool, size, sid, f"{name}.r{r}")
            for r, sid in enumerate(self.replica_servers)
        ]

    @property
    def storage_overhead(self) -> float:
        return len(self.replicas) - 1.0

    @property
    def fault_budget(self) -> int:
        """Simultaneous un-repaired server losses the scheme masks: all
        but one mirror may die and a live copy still serves reads."""
        return len(self.replicas) - 1

    def live_replicas(self) -> list[int]:
        """Indices of replicas whose server is up."""
        return [
            r
            for r, sid in enumerate(self.replica_servers)
            if self.pool.deployment.server(sid).alive
        ]

    def degraded(self) -> bool:
        return len(self.live_replicas()) < len(self.replicas)

    # -- data path ----------------------------------------------------------------

    def write(self, requester_id: int, offset: int, data: bytes) -> "Process":
        """Update every live mirror; the process returns bytes written.
        The payload is fixed at the call."""
        payload = fixed_payload(data)
        return self.pool.engine.process(
            self._write_body(requester_id, offset, payload), name=f"{self.name}.write"
        )

    def _write_body(self, requester_id: int, offset: int, data: bytes):
        live = self.live_replicas()
        if not live:
            raise MemoryFailureError(f"{self.name}: every replica is down")
        writes = [
            self.pool.write(requester_id, self.replicas[r], offset, data) for r in live
        ]
        yield self.pool.engine.all_of(writes)
        return len(data)

    def read(self, requester_id: int, offset: int, size: int) -> "Process":
        """Read from the most local live replica; the process returns bytes."""
        return self.pool.engine.process(
            self._read_body(requester_id, offset, size), name=f"{self.name}.read"
        )

    def _read_body(self, requester_id: int, offset: int, size: int):
        live = self.live_replicas()
        if not live:
            raise MemoryFailureError(f"{self.name}: every replica is down")
        # prefer the replica homed at the requester, then lowest id
        live.sort(
            key=lambda r: (self.replica_servers[r] != requester_id, self.replica_servers[r])
        )
        data = yield self.pool.read(requester_id, self.replicas[live[0]], offset, size)
        return data

    # -- recovery ---------------------------------------------------------------

    def repair(self, requester_id: int) -> "Process":
        """Re-create dead mirrors on spare live servers from a live one;
        the process returns the number of replicas rebuilt."""
        return self.pool.engine.process(
            self._repair_body(requester_id), name=f"{self.name}.repair"
        )

    def _repair_body(self, requester_id: int):
        live = self.live_replicas()
        if not live:
            raise RecoveryError(f"{self.name}: no live replica to repair from")
        dead = [r for r in range(len(self.replicas)) if r not in live]
        if not dead:
            return 0
        in_use = {self.replica_servers[r] for r in live}
        spares = [
            sid
            for sid in sorted(self.pool.regions)
            if sid not in in_use and self.pool.deployment.server(sid).alive
        ]
        rebuilt = 0
        data = yield self.pool.read(requester_id, self.replicas[live[0]], 0, self.size)
        for r in dead:
            if not spares:
                break  # stay degraded; better than colocating shards
            target = spares.pop(0)
            old = self.replicas[r]
            if not old.freed:
                self.pool.free(old)
            fresh = _allocate_pinned(self.pool, self.size, target, f"{self.name}.r{r}")
            yield self.pool.write(target, fresh, 0, data)
            self.replicas[r] = fresh
            self.replica_servers[r] = target
            rebuilt += 1
        return rebuilt

    def release(self) -> None:
        for replica, sid in zip(self.replicas, self.replica_servers):
            if not replica.freed and self.pool.deployment.server(sid).alive:
                self.pool.free(replica)


class ErasureCodedBuffer:
    """An RS(k, m) coded object striped over k+m servers."""

    def __init__(
        self,
        pool: LogicalMemoryPool,
        data_len: int,
        data_shards: int = 2,
        parity_shards: int = 1,
        name: str = "coded",
    ) -> None:
        server_ids = sorted(pool.regions)
        total = data_shards + parity_shards
        if total > len(server_ids):
            raise ConfigError(
                f"RS({data_shards},{parity_shards}) needs {total} distinct "
                f"servers, pool has {len(server_ids)}"
            )
        self.pool = pool
        self.name = name
        self.data_len = data_len
        self.code = ReedSolomon(data_shards, parity_shards)
        self.shard_len = -(-max(data_len, 1) // data_shards)
        self.shard_servers = server_ids[:total]
        self.shards: list[Buffer] = [
            _allocate_pinned(pool, self.shard_len, sid, f"{name}.s{i}")
            for i, sid in enumerate(self.shard_servers)
        ]

    @property
    def storage_overhead(self) -> float:
        return self.code.storage_overhead

    @property
    def fault_budget(self) -> int:
        """Simultaneous un-repaired server losses the scheme masks: any
        ``m`` erasures still decode."""
        return self.code.m

    def live_shards(self) -> list[int]:
        return [
            i
            for i, sid in enumerate(self.shard_servers)
            if self.pool.deployment.server(sid).alive
        ]

    def degraded(self) -> bool:
        return len(self.live_shards()) < len(self.shards)

    # -- data path ----------------------------------------------------------------

    def put(self, requester_id: int, data: bytes) -> "Process":
        """Encode and store the whole object, fixed at the call; the
        process returns the total (data + parity) bytes written."""
        if len(data) != self.data_len:
            raise ConfigError(
                f"{self.name} holds exactly {self.data_len} bytes, got {len(data)}"
            )
        payload = fixed_payload(data)  # encoded when the process runs
        return self.pool.engine.process(
            self._put_body(requester_id, payload), name=f"{self.name}.put"
        )

    def _put_body(self, requester_id: int, data: bytes):
        encoded = self.code.encode(data)
        writes = []
        for i in self.live_shards():
            writes.append(self.pool.write(requester_id, self.shards[i], 0, encoded[i]))
        yield self.pool.engine.all_of(writes)
        return sum(len(encoded[i]) for i in self.live_shards())

    def get(self, requester_id: int) -> "Process":
        """Fetch and (if degraded) decode the object; the process
        returns the original bytes."""
        return self.pool.engine.process(
            self._get_body(requester_id), name=f"{self.name}.get"
        )

    def _get_body(self, requester_id: int):
        live = self.live_shards()
        if len(live) < self.code.k:
            raise MemoryFailureError(
                f"{self.name}: {len(live)} shards live, need {self.code.k}"
            )
        data_live = [i for i in live if i < self.code.k]
        if len(data_live) == self.code.k:
            chunks = []
            for i in data_live:
                chunk = yield self.pool.read(requester_id, self.shards[i], 0, self.shard_len)
                chunks.append(chunk)
            return b"".join(chunks)[: self.data_len]
        fetched: dict[int, bytes] = {}
        for i in live[: self.code.k + 1]:
            fetched[i] = yield self.pool.read(
                requester_id, self.shards[i], 0, self.shard_len
            )
        return self.code.decode(fetched, self.data_len)

    # -- recovery ---------------------------------------------------------------

    def repair(self, requester_id: int) -> "Process":
        """Rebuild dead shards onto spare servers; the process returns
        the number of shards rebuilt."""
        return self.pool.engine.process(
            self._repair_body(requester_id), name=f"{self.name}.repair"
        )

    def _repair_body(self, requester_id: int):
        live = self.live_shards()
        if len(live) < self.code.k:
            raise RecoveryError(
                f"{self.name}: only {len(live)} shards live, need {self.code.k}"
            )
        dead = [i for i in range(len(self.shards)) if i not in live]
        if not dead:
            return 0
        fetched: dict[int, bytes] = {}
        for i in live[: self.code.k]:
            fetched[i] = yield self.pool.read(
                requester_id, self.shards[i], 0, self.shard_len
            )
        full = self.code.decode(fetched, self.data_len)
        encoded = self.code.encode(full)
        in_use = {self.shard_servers[i] for i in live}
        spares = [
            sid
            for sid in sorted(self.pool.regions)
            if sid not in in_use and self.pool.deployment.server(sid).alive
        ]
        rebuilt = 0
        for i in dead:
            if not spares:
                break
            target = spares.pop(0)
            old = self.shards[i]
            if not old.freed:
                self.pool.free(old)
            fresh = _allocate_pinned(self.pool, self.shard_len, target, f"{self.name}.s{i}")
            yield self.pool.write(target, fresh, 0, encoded[i])
            self.shards[i] = fresh
            self.shard_servers[i] = target
            rebuilt += 1
        return rebuilt

    def release(self) -> None:
        for shard, sid in zip(self.shards, self.shard_servers):
            if not shard.freed and self.pool.deployment.server(sid).alive:
                self.pool.free(shard)
