"""Near-memory computing (§4.4 Benefit 3).

"If we distribute the sum across LMP servers, then each server could
access different parts of the vector locally.  Thus, LMPs can use
computation shipping to further enhance performance through near-memory
computing so that all memory accesses are local. ... In contrast, with
physical pools, computation shipping either is infeasible or requires
additional processing hardware."

Two entry points:

* :meth:`ComputeRuntime.shipped_scan` — the performance path: every
  server streams *its own* extents of a buffer with all of its cores
  concurrently; only the per-server partial results (one cache line
  each) cross the fabric.  This is the experiment the paper describes
  but does not show; our Benefit-3 bench shows it.
* :meth:`ComputeRuntime.map_reduce` — the functional path: a mapper
  runs against each owner's real bytes locally, partials are shipped to
  the requester and reduced.  Used by the examples and correctness
  tests (e.g. the shipped sum equals the single-server sum).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.buffer import Buffer
from repro.core.pool import LogicalMemoryPool
from repro.errors import ConfigError, MemoryFailureError
from repro.hw.cpu import AccessSegment
from repro.units import mib

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process

#: bytes of one shipped partial result (a cache line)
RESULT_BYTES = 64


@dataclasses.dataclass(frozen=True)
class ShippedScanResult:
    """Outcome of one compute-shipped scan."""

    total_bytes: int
    duration_ns: float
    bytes_by_server: dict[int, int]
    result_messages: int
    engine_kind: str = "cpu"
    cpu_core_ns: float = 0.0  # CPU core-time consumed (0 when offloaded)

    @property
    def aggregate_gbps(self) -> float:
        return self.total_bytes / self.duration_ns if self.duration_ns else 0.0


class ComputeRuntime:
    """Ships computation to the servers owning the data."""

    def __init__(self, pool: LogicalMemoryPool) -> None:
        if not isinstance(pool, LogicalMemoryPool):
            raise ConfigError(
                "compute shipping needs a logical pool; physical pools have "
                "no processors at the memory (the paper's §4.4 point)"
            )
        self.pool = pool
        self.deployment = pool.deployment
        self.engine = pool.engine
        #: server id -> attached Type-2 accelerator (optional)
        self.accelerators: dict[int, _t.Any] = {}

    def attach_accelerator(self, server_id: int, accelerator: _t.Any) -> None:
        """Register a near-memory accelerator on one server (the "GPUs
        and other accelerators" of §1)."""
        self.deployment.server(server_id)  # validates the id
        self.accelerators[server_id] = accelerator

    # -- shard discovery --------------------------------------------------------

    def shards_by_owner(self, buffer: Buffer) -> dict[int, int]:
        """owner server -> bytes of *buffer* it holds locally."""
        out: dict[int, int] = {}
        for owner, _start, length in self.pool.translator.segments_by_owner(
            buffer.base, buffer.size
        ):
            out[owner] = out.get(owner, 0) + length
        return out

    # -- performance path --------------------------------------------------------

    def shipped_scan(
        self,
        buffer: Buffer,
        requester_id: int = 0,
        use_accelerators: bool = False,
    ) -> "Process":
        """Scan the whole buffer with computation shipped to every owner;
        the process returns a :class:`ShippedScanResult`.

        ``use_accelerators=True`` runs each shard on the owner's
        registered Type-2 accelerator instead of its CPU cores — same
        DRAM-bound bandwidth, zero CPU core-time consumed."""
        return self.engine.process(
            self._shipped_scan_body(buffer, requester_id, use_accelerators),
            name="compute.shipped_scan",
        )

    def _shipped_scan_body(self, buffer: Buffer, requester_id: int, use_accelerators: bool):
        started = self.engine.now
        by_owner = self.shards_by_owner(buffer)
        all_procs = []
        cpu_cores_used: dict[int, int] = {}
        for owner, nbytes in sorted(by_owner.items()):
            server = self.deployment.server(owner)
            if not server.alive:
                raise MemoryFailureError(
                    f"shard owner {server.name} is down", server_id=owner
                )
            route = self.pool.switch.read_route(server.name, server.name)
            if use_accelerators:
                accelerator = self.accelerators.get(owner)
                if accelerator is None:
                    raise ConfigError(
                        f"server {owner} has no registered accelerator; "
                        "attach one or ship to CPUs"
                    )
                all_procs.append(accelerator.scan(route.path, nbytes))
                continue
            cores = server.socket.cores
            per_core = max(1, nbytes // len(cores))
            work: list[list[AccessSegment]] = []
            assigned = 0
            for i, _core in enumerate(cores):
                take = per_core if i < len(cores) - 1 else nbytes - assigned
                if take <= 0:
                    break
                work.append(
                    [AccessSegment(path=route.path, nbytes=take, curve=route.curve, label="shipped")]
                )
                assigned += take
            cpu_cores_used[owner] = len(work)
            all_procs.extend(server.socket.parallel_stream(work))
        yield self.engine.all_of(all_procs)

        # Ship one cache-line partial result per remote owner.
        requester = self.deployment.server(requester_id)
        messages = 0
        for owner in sorted(by_owner):
            if owner == requester_id:
                continue
            owner_server = self.deployment.server(owner)
            route = self.pool.switch.read_route(requester.name, owner_server.name)
            yield self.engine.timeout(route.loaded_latency())
            yield self.pool.fluid.transfer(route.path, RESULT_BYTES, tag="partial-result")
            messages += 1
        duration = self.engine.now - started
        cpu_core_ns = 0.0
        if not use_accelerators:
            cpu_core_ns = duration * sum(cpu_cores_used.values())
        return ShippedScanResult(
            total_bytes=buffer.size,
            duration_ns=duration,
            bytes_by_server=by_owner,
            result_messages=messages,
            engine_kind="accelerator" if use_accelerators else "cpu",
            cpu_core_ns=cpu_core_ns,
        )

    # -- functional path ---------------------------------------------------------

    def map_reduce(
        self,
        buffer: Buffer,
        mapper: _t.Callable[[bytes], _t.Any],
        reducer: _t.Callable[[_t.Sequence[_t.Any]], _t.Any],
        requester_id: int = 0,
        granule_bytes: int = mib(2),
    ) -> "Process":
        """Apply *mapper* near the data and *reducer* at the requester;
        the process returns the reduced value.

        Every mapper invocation sees one granule of the buffer's real
        bytes, read through the owner's *local* channel (the essence of
        compute shipping: the bulk bytes never cross the fabric)."""
        return self.engine.process(
            self._map_reduce_body(buffer, mapper, reducer, requester_id, granule_bytes),
            name="compute.map_reduce",
        )

    def _map_reduce_body(self, buffer, mapper, reducer, requester_id, granule_bytes):
        partials: list[_t.Any] = []
        transport = self.pool.transport
        for owner, start, length in self.pool.translator.segments_by_owner(
            buffer.base, buffer.size
        ):
            owner_server = self.deployment.server(owner)
            if not owner_server.alive:
                raise MemoryFailureError(
                    f"shard owner {owner_server.name} is down", server_id=owner
                )
            pos = start
            end = start + length
            while pos < end:
                take = min(granule_bytes, end - pos)
                translation = self.pool.translator.translate(owner, pos, write=False)
                data = yield transport.read(
                    owner_server.name, owner_server.name, translation.dram_offset, take
                )
                partials.append(mapper(data))
                pos += take
            # ship the owner's partials' worth of result bytes
            if owner != requester_id:
                requester = self.deployment.server(requester_id)
                route = self.pool.switch.read_route(requester.name, owner_server.name)
                yield self.engine.timeout(route.loaded_latency())
                yield self.pool.fluid.transfer(route.path, RESULT_BYTES, tag="partial-result")
        return reducer(partials)
