"""Memory transport: issuing reads and writes over fabric routes.

This is the load/store data path the runtime and the coherence engine
use when they are not streaming (streaming goes through
:class:`~repro.hw.cpu.Core`).  A transport operation:

1. resolves the route through the switch,
2. pays the route's loaded latency (the Table 1/2 curves),
3. moves the bytes through the fluid model,
4. optionally moves *real* contents between backing stores, so
   functional layers (migration, erasure coding) keep data intact.

Every operation runs as a callback chain rather than a simulation
process: the latency timeout's callback starts the fluid transfer, and
the transfer's ``on_complete`` callback touches the device and triggers
the operation's completion event.  No generator frame and no relay
events — the discrete cost of a bandwidth-bound operation is its rate
*transitions* (start and finish).  An exception in the final step
fails the completion event, so it surfaces in whoever waits on it.
"""

from __future__ import annotations

import typing as _t

from repro.fabric.switch import FabricSwitch
from repro.sim.events import Event
from repro.sim.fluid import FluidModel

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.switch import AccessRoute
    from repro.sim.engine import Engine


def fixed_payload(data: bytes | bytearray | memoryview) -> memoryview:
    """*data* as it stands now, as a flat byte view: a write's payload is
    fixed when ``write`` is called, not when its bytes arrive.

    ``bytes``, and read-only contiguous views of ``bytes``, cannot
    change, so they are used as they are; any other buffer is copied
    once.  Slicing the result is zero-copy, so a write split into page
    ops copies nothing more."""
    view = memoryview(data)
    if view.readonly and isinstance(view.obj, bytes) and view.c_contiguous:
        return view.cast("B")
    return memoryview(bytes(view))


class MemoryTransport:
    """Issue loads/stores/copies between endpoints attached to a switch."""

    def __init__(self, engine: "Engine", fluid: FluidModel, switch: FabricSwitch) -> None:
        self.engine = engine
        self.fluid = fluid
        self.switch = switch
        self.reads_issued = 0
        self.writes_issued = 0
        self.copies_issued = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: fabric-level copy volume (migration, cache fills) — the
        #: independent ledger migration-cost conservation checks audit
        self.bytes_copied = 0
        #: interned operation names — "read:c0<-s1" etc. — so steady-state
        #: traffic between the same endpoints never re-renders the f-string
        self._op_names: dict[tuple[str, str, str], str] = {}

    def _op_name(self, op: str, left: str, sep: str, right: str) -> str:
        key = (op, left, right)
        name = self._op_names.get(key)
        if name is None:
            name = self._op_names[key] = f"{op}:{left}{sep}{right}"
        return name

    def _issue(
        self,
        op: str,
        requester: str,
        sep: str,
        owner: str,
        route: "AccessRoute",
        size: float,
        tag: str,
        complete: _t.Callable[[], _t.Any],
    ) -> Event:
        """Latency, then the fluid transfer, then ``complete()``.

        Returns the operation's completion event, which succeeds with
        ``complete()``'s result or fails with the exception it raised.
        """
        engine = self.engine
        name = self._op_name(op, requester, sep, owner)
        # the engine's observer: one span per operation (route, bytes),
        # its link/fabric/DRAM time charged to the latency categories
        obs = engine.obs
        latency = route.loaded_latency()
        span = None
        if obs is not None:
            span = obs.transport_begin(engine, name, op, requester, owner, size, route.remote)
        done = engine.event(name)

        def _finish(transferred_at: float, error: Exception | None = None) -> None:
            if span is not None:
                now = engine.now
                obs.transport_end(span, now, route.remote, latency, now - transferred_at)
            if error is not None:
                done.fail(error)
                return
            try:
                value = complete()
            except Exception as exc:
                done.fail(exc)
                return
            done.succeed(value)

        def _after_latency(_ev: Event) -> None:
            transferred_at = engine.now
            if size and route.path:
                try:
                    self.fluid.transfer(
                        route.path,
                        size,
                        tag=tag,
                        on_complete=lambda _xfer: _finish(transferred_at),
                    )
                except Exception as exc:
                    _finish(transferred_at, exc)
                return
            _finish(transferred_at)

        engine.timeout(latency).callbacks.append(_after_latency)
        return done

    # -- data-path operations --------------------------------------------------

    def read(self, requester: str, owner: str, addr: int, size: int) -> Event:
        """Load *size* bytes; the returned event fires with the bytes
        (zeros if the range was never written)."""
        route = self.switch.read_route(requester, owner)
        self.reads_issued += 1
        self.bytes_read += size
        return self._issue(
            "read", requester, "<-", owner, route, size, route.description,
            lambda: self.switch.device_of(owner).read_bytes(addr, size),
        )

    def write(
        self, requester: str, owner: str, addr: int, data: bytes | bytearray | memoryview
    ) -> Event:
        """Store *data*, fixed at the call (:func:`fixed_payload`); the
        returned event fires with the number of bytes written."""
        route = self.switch.write_route(requester, owner)
        data = fixed_payload(data)
        size = len(data)
        self.writes_issued += 1
        self.bytes_written += size

        def complete() -> int:
            self.switch.device_of(owner).write_bytes(addr, data)
            return size

        return self._issue(
            "write", requester, "->", owner, route, size, route.description, complete,
        )

    def copy(
        self, src_owner: str, src_addr: int, dst_owner: str, dst_addr: int, size: int
    ) -> Event:
        """Fabric-level copy (page migration, cache fill); moves real
        contents.  The returned event fires with the copy duration in ns.

        The copy is one flow: the fluid solver re-fairs rates at every
        flow transition, so chunking it would not change how concurrent
        traffic shares the links.
        """
        self.copies_issued += 1
        self.bytes_copied += size
        engine = self.engine
        started = engine.now
        route = self.switch.copy_route(src_owner, dst_owner)
        src_dev = self.switch.device_of(src_owner)
        dst_dev = self.switch.device_of(dst_owner)

        def complete() -> float:
            # contents move sparsely: untouched pages stay unmaterialized
            src_dev.store.copy_to(dst_dev.store, src_addr, dst_addr, size)
            return engine.now - started

        return self._issue(
            "copy", src_owner, "->", dst_owner, route, size, route.description, complete,
        )

    # -- cache-line probe (latency measurements) -------------------------------

    def probe_latency(self, requester: str, owner: str) -> Event:
        """One 64 B load, returning its end-to-end latency — the MLC-style
        probe behind Table 1/Table 2."""
        route = self.switch.read_route(requester, owner)
        engine = self.engine
        start = engine.now
        return self._issue(
            "probe", requester, "<-", owner, route, 64.0, "probe", lambda: engine.now - start,
        )
