"""The application library (§3.2).

Applications on server *i* open an :class:`LmpSession` against the
runtime and get the paper's programming model:

* ``alloc`` / ``free`` — buffers in the global pool,
* ``map`` — bind a buffer into the session's virtual address space
  ("mapping a range of virtual addresses to memory in the pool"),
* ``read_v`` / ``write_v`` — access through virtual addresses; the
  session translates vaddr -> buffer -> logical address -> (server,
  frame) via the two-step scheme,
* ``timed_v`` — the same access timed but carrying no bytes (what the
  tenant drivers issue: they need its latency, not its contents),
* ``scan`` — a timed full-bandwidth streaming pass with this server's
  cores (what the microbenchmark does),
* ``spinlock`` — a synchronization object carved from the coherent
  region.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.buffer import Buffer
from repro.core.coherence.sync import SpinLock
from repro.core.runtime import LmpRuntime
from repro.errors import AddressError, ConfigError
from repro.units import mib

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process

#: sessions' virtual address spaces start here (purely cosmetic, but it
#: keeps virtual and logical addresses visibly distinct in traces)
_VBASE = 0x7F00_0000_0000


@dataclasses.dataclass(frozen=True)
class Mapping:
    """One buffer bound into a session's virtual address space."""

    vaddr: int
    buffer: Buffer

    @property
    def end(self) -> int:
        return self.vaddr + self.buffer.size


class SessionObserver:
    """Hooks a control plane installs on a session to meter it.

    ``repro.cluster`` uses these to do lease bookkeeping and per-tenant
    quota accounting on every allocation path — including direct
    ``session.alloc`` calls that never went through the rack's admission
    queue, so a tenant cannot sidestep its quota.  All hooks are
    synchronous; ``before_alloc`` may veto by raising.
    """

    def before_alloc(self, session: "LmpSession", size: int) -> None:
        """Called before the pool allocation; raise to veto."""

    def on_alloc(self, session: "LmpSession", buffer: Buffer) -> None:
        """Called after a successful allocation."""

    def on_free(self, session: "LmpSession", buffer: Buffer) -> None:
        """Called after a buffer is released back to the pool."""

    def on_access(
        self,
        session: "LmpSession",
        buffer: Buffer,
        offset: int,
        size: int,
        write: bool,
    ) -> None:
        """Called when the session issues a data-path access (read/write,
        virtual or direct, and per-shard for scans).  Metering and the
        race detector's frame shadowing hang off this seam."""


class LmpSession:
    """One application's handle, bound to its home server."""

    def __init__(
        self,
        runtime: LmpRuntime,
        server_id: int,
        observer: SessionObserver | None = None,
    ) -> None:
        if server_id not in runtime.pool.regions:
            raise ConfigError(f"server {server_id} is not part of this pool")
        self.runtime = runtime
        self.server_id = server_id
        self.observer = observer
        self._mappings: list[Mapping] = []
        self._next_vaddr = _VBASE

    # -- allocation --------------------------------------------------------------

    def alloc(self, size: int, name: str = "") -> Buffer:
        """Allocate pooled memory, placed local-first for this session."""
        if self.observer is not None:
            self.observer.before_alloc(self, size)
        buffer = self.runtime.pool.allocate(size, requester_id=self.server_id, name=name)
        if self.observer is not None:
            self.observer.on_alloc(self, buffer)
        return buffer

    def free(self, buffer: Buffer) -> None:
        self._mappings = [m for m in self._mappings if m.buffer is not buffer]
        self.runtime.pool.free(buffer)
        if self.observer is not None:
            self.observer.on_free(self, buffer)

    # -- virtual mapping -----------------------------------------------------------

    def map(self, buffer: Buffer) -> Mapping:
        """Bind *buffer* at the next free virtual address."""
        mapping = Mapping(vaddr=self._next_vaddr, buffer=buffer)
        self._next_vaddr += (buffer.size + mib(2) - 1) // mib(2) * mib(2)
        self._mappings.append(mapping)
        return mapping

    def unmap(self, mapping: Mapping) -> None:
        try:
            self._mappings.remove(mapping)
        except ValueError:
            raise AddressError(f"mapping at {mapping.vaddr:#x} is not active") from None

    def _resolve(self, vaddr: int, size: int) -> tuple[Buffer, int]:
        for mapping in self._mappings:
            if mapping.vaddr <= vaddr and vaddr + size <= mapping.end:
                return mapping.buffer, vaddr - mapping.vaddr
        raise AddressError(f"virtual range [{vaddr:#x}, +{size}) is not mapped")

    # -- data path --------------------------------------------------------------

    def _observe_access(
        self, buffer: Buffer, offset: int, size: int, write: bool
    ) -> None:
        # the engine's race detector sees every session's accesses, in
        # addition to this session's own observer
        monitor = self.runtime.engine.monitor
        if monitor is not None:
            monitor.on_access(self, buffer, offset, size, write)
        if self.observer is not None:
            self.observer.on_access(self, buffer, offset, size, write)

    def _traced(self, op: str, nbytes: int, proc_fn: _t.Callable[[], "Process"]) -> "Process":
        """Run *proc_fn* inside a session span (closed when the returned
        data-path process completes)."""
        obs = self.runtime.engine.obs
        if obs is None:
            return proc_fn()
        span = obs.session_begin(self, op, nbytes)
        proc = proc_fn()
        obs.session_end(span, proc)
        return proc

    def read_v(self, vaddr: int, size: int) -> "Process":
        """Read through a virtual address; the process returns the bytes."""
        buffer, offset = self._resolve(vaddr, size)
        self._observe_access(buffer, offset, size, write=False)
        return self._traced(
            "read", size,
            lambda: self.runtime.pool.read(self.server_id, buffer, offset, size),
        )

    def write_v(self, vaddr: int, data: bytes) -> "Process":
        """Write through a virtual address; the process returns bytes
        written.  The payload is fixed at the call: changing *data* after
        this call does not change what is stored."""
        buffer, offset = self._resolve(vaddr, len(data))
        self._observe_access(buffer, offset, len(data), write=True)
        return self._traced(
            "write", len(data),
            lambda: self.runtime.pool.write(self.server_id, buffer, offset, data),
        )

    def timed_v(self, vaddr: int, size: int, write: bool) -> "Process":
        """Time a read or write of *size* bytes through a virtual address
        without moving them: everything :meth:`read_v`/:meth:`write_v` do
        (observers, session span, translation, crash check, profiler,
        transport latency and transfer) except the byte store.  A timed
        write leaves the range's contents as they were.  The process
        returns *size*."""
        buffer, offset = self._resolve(vaddr, size)
        self._observe_access(buffer, offset, size, write)
        return self._traced(
            "write" if write else "read", size,
            lambda: self.runtime.pool.timed(self.server_id, buffer, offset, size, write),
        )

    def read(self, buffer: Buffer, offset: int, size: int) -> "Process":
        self._observe_access(buffer, offset, size, write=False)
        return self._traced(
            "read", size,
            lambda: self.runtime.pool.read(self.server_id, buffer, offset, size),
        )

    def write(self, buffer: Buffer, offset: int, data: bytes) -> "Process":
        """Write *data* at *offset*; the process returns bytes written.
        The payload is fixed at the call, as for :meth:`write_v`."""
        self._observe_access(buffer, offset, len(data), write=True)
        return self._traced(
            "write", len(data),
            lambda: self.runtime.pool.write(self.server_id, buffer, offset, data),
        )

    # -- streaming / compute ------------------------------------------------------

    def scan(self, buffer: Buffer) -> "Process":
        """Stream the whole buffer with this server's cores; the process
        returns the achieved bandwidth in GB/s."""
        self._observe_access(buffer, 0, buffer.size, write=False)
        return self._traced(
            "scan", buffer.size,
            lambda: self.runtime.engine.process(
                self._scan_body(buffer), name="session.scan"
            ),
        )

    def _scan_body(self, buffer: Buffer):
        engine = self.runtime.engine
        server = self.runtime.deployment.server(self.server_id)
        shards = buffer.shards(server.socket.core_count)
        plans = [
            self.runtime.pool.access_segments(self.server_id, buffer, off, length)
            for off, length in shards
        ]
        started = engine.now
        procs = server.socket.parallel_stream(plans)
        yield engine.all_of(procs)
        duration = engine.now - started
        return buffer.size / duration if duration else 0.0

    # -- synchronization objects ----------------------------------------------------

    def spinlock(self) -> SpinLock:
        line = self.runtime.allocate_coherent_lines(1)
        return SpinLock(self.runtime.coherence, line)
