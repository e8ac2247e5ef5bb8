"""A key-value store over pooled memory.

The related-work section singles out key-value stores as the first
beneficiary of remote-memory techniques; this workload exercises the
pool the way one would: values live in a log-structured pooled buffer
shared by every server, per-server indexes point into it, and GET/PUT
are small, latency-sensitive accesses (the opposite regime from the
streaming microbenchmark).

The YCSB-style driver mixes reads and writes over zipf-skewed keys and
reports throughput, latency quantiles, and the local-access ratio —
the metric logical pools improve by placing and migrating hot values
near their consumers.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.pool import MemoryPool
from repro.errors import CapacityError, ConfigError
from repro.sim.stats import Histogram
from repro.units import mib

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process
    import random


@dataclasses.dataclass(frozen=True)
class KvResult:
    """Outcome of one KV benchmark run."""

    operations: int
    duration_ns: float
    mean_latency_ns: float
    p99_latency_ns: float
    local_ratio: float

    @property
    def ops_per_second(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.operations / (self.duration_ns / 1e9)


class PooledKVStore:
    """Log-structured values in one pooled buffer, dict index per store."""

    def __init__(
        self,
        pool: MemoryPool,
        capacity_bytes: int = mib(256),
        home_server: int = 0,
        name: str = "kv",
    ) -> None:
        self.pool = pool
        self.name = name
        self.log = pool.allocate(capacity_bytes, requester_id=home_server, name=f"{name}.log")
        self._tail = 0
        #: key -> (offset, length); the index itself is private memory
        self._index: dict[bytes, tuple[int, int]] = {}
        self.puts = 0
        self.gets = 0
        self.misses = 0

    # -- operations --------------------------------------------------------------

    def put(self, server_id: int, key: bytes, value: bytes) -> "Process":
        """Append *value* and point the index at it; the process returns
        the number of bytes written."""
        if not key:
            raise ConfigError("empty keys are not allowed")
        if self._tail + len(value) > self.log.size:
            raise CapacityError(
                f"{self.name}: log full at {self._tail}/{self.log.size} bytes "
                f"({self.garbage_ratio():.0%} garbage — run compact())"
            )
        offset = self._tail
        self._tail += len(value)
        self._index[key] = (offset, len(value))
        self.puts += 1
        # disjoint by construction: the log tail was reserved synchronously
        return self.pool.write(server_id, self.log, offset, value)  # noqa: LMP007

    def get(self, server_id: int, key: bytes) -> "Process":
        """Look up *key*; the process returns the value bytes or None."""
        return self.pool.engine.process(
            self._get_body(server_id, key), name=f"{self.name}.get"
        )

    def _get_body(self, server_id: int, key: bytes):
        self.gets += 1
        entry = self._index.get(key)
        if entry is None:
            self.misses += 1
            return None
        offset, length = entry
        data = yield self.pool.read(server_id, self.log, offset, length)
        return data

    @property
    def bytes_used(self) -> int:
        return self._tail

    @property
    def bytes_live(self) -> int:
        """Bytes the index still references (the rest is garbage)."""
        return sum(length for _off, length in self._index.values())

    def garbage_ratio(self) -> float:
        """Fraction of the consumed log that is dead (overwrites/deletes)."""
        if self._tail == 0:
            return 0.0
        return 1.0 - self.bytes_live / self._tail

    def compact(self, server_id: int) -> "Process":
        """Log compaction: copy every live value to the head of a fresh
        log buffer, retire the old one.  The classic LSM/log-structured
        GC, doing real (timed, byte-moving) work through the pool; the
        process returns the bytes reclaimed."""
        return self.pool.engine.process(
            self._compact_body(server_id), name=f"{self.name}.compact"
        )

    def _compact_body(self, server_id: int):
        old_log = self.log
        old_tail = self._tail
        new_log = self.pool.allocate(
            old_log.size, requester_id=server_id, name=f"{self.name}.log"
        )
        new_index: dict[bytes, tuple[int, int]] = {}
        tail = 0
        # copy live values in index order (deterministic)
        for key in sorted(self._index):
            offset, length = self._index[key]
            data = yield self.pool.read(server_id, old_log, offset, length)
            # compaction owns new_log until the index swap below publishes it
            yield self.pool.write(server_id, new_log, tail, data)  # noqa: LMP007
            new_index[key] = (tail, length)
            tail += length
        self.log = new_log
        self._index = new_index
        self._tail = tail
        self.pool.free(old_log)
        return old_tail - tail

    def __len__(self) -> int:
        return len(self._index)


def run_ycsb(
    store: PooledKVStore,
    server_id: int,
    rng: "random.Random",
    operations: int = 200,
    read_fraction: float = 0.95,
    key_count: int = 100,
    value_bytes: int = 1024,
    zipf_theta: float = 0.99,
) -> KvResult:
    """A YCSB-B-style mixed workload from one server.

    Keys are pre-loaded, then *operations* requests run back to back
    (closed loop, one outstanding op — the latency-honest way to drive
    a KV store in a simulator).
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigError(f"read_fraction must be in [0, 1], got {read_fraction}")
    engine = store.pool.engine
    keys = [f"key{i}".encode() for i in range(key_count)]
    payload = bytes(value_bytes)

    # preload
    for key in keys:
        engine.run(store.put(server_id, key, payload))

    # zipf key popularity
    weights = [1.0 / (k + 1) ** zipf_theta for k in range(key_count)]
    total_weight = sum(weights)

    def pick_key() -> bytes:
        r = rng.random() * total_weight
        acc = 0.0
        for k, w in enumerate(weights):
            acc += w
            if r <= acc:
                return keys[k]
        return keys[-1]

    latencies = Histogram()
    local = 0
    started = engine.now
    for _op in range(operations):
        key = pick_key()
        op_start = engine.now
        if rng.random() < read_fraction:
            engine.run(store.get(server_id, key))
        else:
            engine.run(store.put(server_id, key, payload))
        latencies.record(engine.now - op_start)
        offset, length = store._index[key]
        pos = store.log.base.value + offset
        # count ops whose first byte resolves locally
        if resolves_local(store.pool, server_id, pos):
            local += 1
    duration = engine.now - started
    return KvResult(
        operations=operations,
        duration_ns=duration,
        mean_latency_ns=latencies.mean(),
        p99_latency_ns=latencies.quantile(0.99),
        local_ratio=local / operations if operations else 0.0,
    )


def resolves_local(pool: MemoryPool, server_id: int, logical_pos: int) -> bool:
    """True when *logical_pos* resolves to *server_id*'s own DRAM."""
    from repro.core.pool import LogicalMemoryPool

    if isinstance(pool, LogicalMemoryPool):
        return pool.translator.owner_of(logical_pos) == server_id
    return False
