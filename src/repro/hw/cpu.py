"""CPU core model.

The paper's microbenchmark sums a vector with 14 cores because a single
core cannot saturate a memory channel: its throughput is capped by
memory-level parallelism (a bounded number of outstanding cache-line
requests against the access round-trip — Little's law).  We model a core
as a streaming request generator:

* each contiguous segment it must read is one fluid transfer, after one
  issue latency for its first line; the hardware prefetcher keeps the
  rest of the segment streaming behind it, mirroring how load/store
  access "can leverage processor mechanisms to hide memory latency"
  (§1);
* the transfer's rate cap is a :class:`~repro.sim.fluid.LoadCap`:
  ``mlp_lines * 64 B / latency(u)``, where ``latency`` is the target's
  loaded-latency curve and ``u`` the utilization of the hottest
  capacity on the path.  The fluid solver finds the ``u`` that the
  capped rates themselves produce, so each core's own load counts in
  the latency it sees;
* a Physical-cache miss is one fill flow from the pool, under the same
  kind of cap on the fill path, before the local read.

``mlp_lines`` defaults to 24, counting both L1 miss buffers and the L2
prefetchers that run ahead of them; with 14 cores this saturates both
the 97 GB/s local channel and the 34.5/21 GB/s emulated CXL links, as in
the paper's testbed.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.hw.latency import LatencyModel
from repro.sim.fluid import Capacity, FluidModel, LoadCap, path_utilization

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine
    from repro.sim.process import Process


@dataclasses.dataclass
class AccessSegment:
    """A contiguous run of bytes a core must stream.

    ``path`` is the chain of bandwidth constraints the data crosses;
    ``curve`` maps the utilization of the hottest capacity on it to the
    loaded round-trip latency in ns (the MLP rate cap's denominator);
    ``fill_path`` optionally names a copy that must complete first —
    used by the page cache to model fill-then-read — with its own
    ``fill_curve`` (defaulting to ``curve``).
    """

    path: tuple[Capacity, ...]
    nbytes: int
    curve: LatencyModel
    label: str = ""
    fill_path: tuple[Capacity, ...] | None = None
    fill_bytes: int = 0
    fill_curve: LatencyModel | None = None


class Core:
    """One hardware thread streaming data through the fluid model."""

    #: segment labels served by this server's own DRAM (everything else
    #: crossed the fabric): "local" direct hits and "cached" page-cache
    #: hits.  See LogicalMemoryPool.access_segments for the label set.
    _LOCAL_LABELS = ("local", "cached")

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        name: str,
        mlp_lines: int = 24,
        line_bytes: int = 64,
    ) -> None:
        if mlp_lines < 1:
            raise ConfigError(f"mlp_lines must be >= 1, got {mlp_lines}")
        self.engine = engine
        self.fluid = fluid
        self.name = name
        #: bytes this core keeps in flight: the MLP cap's numerator
        self.mlp_bytes = mlp_lines * line_bytes
        self.bytes_streamed = 0

    def stream(self, segments: _t.Sequence[AccessSegment]) -> "Process":
        """Spawn a process that streams every segment in order; the
        process returns the bytes moved."""
        return self.engine.process(self._stream_body(list(segments)), name=f"{self.name}.stream")

    def _stream_body(self, segments: list[AccessSegment]):
        moved = 0
        engine = self.engine
        # the engine's observer charges per-segment stream time to the
        # latency categories on this process's span
        obs = engine.obs
        for seg in segments:
            nbytes = seg.nbytes
            if nbytes <= 0:
                continue
            remote = bool(seg.label) and seg.label not in Core._LOCAL_LABELS
            if obs is not None:
                obs.annotate(core=self.name, label=seg.label or "scan", remote=remote)
            # A cache-miss segment fetches from the fill path first (the
            # upfront memcpy of the Physical-cache configuration).
            if seg.fill_path is not None and seg.fill_bytes > 0:
                fill_started = engine.now
                yield self.fluid.transfer(
                    seg.fill_path,
                    seg.fill_bytes,
                    rate_cap=LoadCap(seg.fill_curve or seg.curve, self.mlp_bytes),
                    tag=f"{self.name}.fill",
                )
                if obs is not None:
                    # cache fills always cross the fabric
                    obs.route_time(True, 0.0, engine.now - fill_started)
            # The first line pays the access latency; the rest stream
            # behind it.
            latency = seg.curve(path_utilization(seg.path))
            yield engine.timeout(latency)
            started = engine.now
            yield self.fluid.transfer(
                seg.path,
                nbytes,
                rate_cap=LoadCap(seg.curve, self.mlp_bytes),
                tag=f"{self.name}.{seg.label or 'scan'}",
            )
            if obs is not None:
                obs.route_time(remote, latency, engine.now - started)
            moved += nbytes
            self.bytes_streamed += nbytes
        return moved


class CpuSocket:
    """A socket: a set of identical cores plus helpers to fan work out."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        name: str,
        core_count: int = 14,
        mlp_lines: int = 24,
    ) -> None:
        if core_count < 1:
            raise ConfigError(f"core_count must be >= 1, got {core_count}")
        self.engine = engine
        self.name = name
        self.cores = [
            Core(engine, fluid, f"{name}.core{i}", mlp_lines=mlp_lines)
            for i in range(core_count)
        ]

    @property
    def core_count(self) -> int:
        return len(self.cores)

    def parallel_stream(self, per_core_segments: _t.Sequence[_t.Sequence[AccessSegment]]):
        """Start one streaming process per entry; returns the list of
        processes (each an event yielding that core's bytes moved).

        The caller typically wraps them in ``engine.all_of(...)``.
        """
        if len(per_core_segments) > len(self.cores):
            raise ConfigError(
                f"{len(per_core_segments)} work lists for {len(self.cores)} cores"
            )
        return [
            core.stream(segments)
            for core, segments in zip(self.cores, per_core_segments)
        ]
