"""Graph analytics over pooled memory.

Pointer-chasing workloads are the latency-sensitive counterpoint to the
streaming microbenchmark: a BFS reads tiny, dependent records, so every
remote hop pays the full loaded latency with no pipelining to hide it.
That is precisely why the paper's locality mechanisms (placement,
migration, compute shipping) matter beyond bandwidth.

The graph lives in the pool as CSR (compressed sparse row): an offsets
array and a neighbors array, both little-endian u32, written through the
functional data path so traversals read real bytes.
"""

from __future__ import annotations

import dataclasses
import struct
import typing as _t

import networkx as nx

from repro.core.pool import MemoryPool
from repro.errors import ConfigError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process

_U32 = 4


@dataclasses.dataclass(frozen=True)
class BfsResult:
    """Outcome of one traversal."""

    source: int
    visited: int
    duration_ns: float
    reads: int


class PooledGraph:
    """A CSR graph stored in a pool buffer."""

    def __init__(
        self,
        pool: MemoryPool,
        graph: nx.Graph,
        home_server: int = 0,
        name: str = "graph",
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ConfigError("cannot store an empty graph")
        self.pool = pool
        self.name = name
        self.node_count = graph.number_of_nodes()
        nodes = sorted(graph.nodes())
        if nodes != list(range(self.node_count)):
            raise ConfigError("graph nodes must be 0..n-1 (use convert_node_labels_to_integers)")

        offsets: list[int] = [0]
        neighbors: list[int] = []
        for node in nodes:
            neighbors.extend(sorted(graph.neighbors(node)))
            offsets.append(len(neighbors))
        self.edge_count = len(neighbors)
        self._offsets_bytes = (self.node_count + 1) * _U32
        self._neighbors_bytes = max(1, self.edge_count) * _U32

        total = self._offsets_bytes + self._neighbors_bytes
        self.buffer = pool.allocate(total, requester_id=home_server, name=f"{name}.csr")
        blob = struct.pack(f"<{self.node_count + 1}I", *offsets)
        blob += struct.pack(f"<{max(1, self.edge_count)}I", *(neighbors or [0]))
        # one-shot CSR load before any reader process starts
        pool.engine.run(pool.write(home_server, self.buffer, 0, blob))  # noqa: LMP007

    # -- low-level reads ----------------------------------------------------------

    def _read_u32s(self, server_id: int, byte_offset: int, count: int) -> "Process":
        return self.pool.engine.process(
            self._read_u32s_body(server_id, byte_offset, count), name=f"{self.name}.read"
        )

    def _read_u32s_body(self, server_id: int, byte_offset: int, count: int):
        data = yield self.pool.read(server_id, self.buffer, byte_offset, count * _U32)
        return struct.unpack(f"<{count}I", data)

    # -- traversal ----------------------------------------------------------------

    def bfs(self, server_id: int, source: int) -> "Process":
        """Breadth-first traversal from *source*, reading the CSR through
        the pool; the process returns a :class:`BfsResult`."""
        if not 0 <= source < self.node_count:
            raise ConfigError(f"source {source} outside 0..{self.node_count - 1}")
        return self.pool.engine.process(
            self._bfs_body(server_id, source), name=f"{self.name}.bfs"
        )

    def _bfs_body(self, server_id: int, source: int):
        engine = self.pool.engine
        started = engine.now
        reads = 0
        visited = {source}
        frontier = [source]
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                lo, hi = yield self._read_u32s(server_id, node * _U32, 2)
                reads += 1
                degree = hi - lo
                if degree == 0:
                    continue
                neighbors = yield self._read_u32s(
                    server_id, self._offsets_bytes + lo * _U32, degree
                )
                reads += 1
                for neighbor in neighbors:
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return BfsResult(
            source=source,
            visited=len(visited),
            duration_ns=engine.now - started,
            reads=reads,
        )

    def release(self) -> None:
        self.pool.free(self.buffer)


def random_graph(nodes: int, degree: int, seed: int = 0) -> nx.Graph:
    """A connected random regular-ish graph for the benches."""
    if nodes < 2:
        raise ConfigError("need at least 2 nodes")
    graph = nx.barabasi_albert_graph(nodes, min(degree, nodes - 1), seed=seed)
    return nx.convert_node_labels_to_integers(graph)
