"""The paper's microbenchmark (§4.1).

    "We measure the bandwidth used by a multi-core server as it performs
    an aggregation on a large vector in disaggregated memory.  More
    precisely, one server computes the sum of a vector using 14 cores,
    where each core sums part of the vector.  We repeat this process 10
    times and report the average bandwidth."

The driver allocates the vector in the pool under test, splits it into
one shard per core, plans each shard's access through the pool (which
is where Logical/Physical-cache/Physical-no-cache differ), streams all
shards concurrently, and reports per-repetition and average bandwidth.

Infeasible runs (the 96 GB vector on the 64 GB physical pool — Figure 5)
return a result with ``feasible=False`` instead of raising, because
"cannot run the workload" *is* the datapoint the paper reports.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.pool import MemoryPool
from repro.errors import CapacityError

#: installed by repro.obs.Observability: one request span per benchmark
#: repetition.  A module-level seam (not a ClassVar) because this driver
#: is a plain function running at the top level of the simulation —
#: figure2 never goes through LmpSession.  None = disabled.
_obs: _t.Any = None


@dataclasses.dataclass(frozen=True)
class VectorSumResult:
    """Outcome of one microbenchmark configuration."""

    config: str
    link: str
    vector_bytes: int
    repetitions: int
    feasible: bool
    per_rep_gbps: tuple[float, ...] = ()
    locality: float = 0.0
    infeasible_reason: str = ""

    @property
    def bandwidth_gbps(self) -> float:
        """Average bandwidth over repetitions — the paper's metric."""
        if not self.per_rep_gbps:
            return 0.0
        return sum(self.per_rep_gbps) / len(self.per_rep_gbps)

    def speedup_over(self, other: "VectorSumResult") -> float:
        """How much faster this configuration is than *other*."""
        if not other.feasible or other.bandwidth_gbps == 0:
            return float("inf")
        return self.bandwidth_gbps / other.bandwidth_gbps


def run_vector_sum(
    pool: MemoryPool,
    vector_bytes: int,
    requester_id: int = 0,
    repetitions: int = 10,
    label: str = "",
) -> VectorSumResult:
    """Run the §4.1 microbenchmark against *pool* and return its result.

    Each core streams each segment of its shard as one flow, capped by
    its memory-level parallelism against the latency the streams' own
    load produces (see :mod:`repro.hw.cpu`).  Every repetition re-plans
    the shards through the pool, so a Physical cache's misses and
    write-backs are charged per repetition.
    """
    deployment = pool.deployment
    engine = deployment.engine
    config = label or deployment.kind.value
    link = deployment.spec.link

    try:
        buffer = pool.allocate(vector_bytes, requester_id=requester_id, name="vector")
    except CapacityError as exc:
        return VectorSumResult(
            config=config,
            link=link,
            vector_bytes=vector_bytes,
            repetitions=repetitions,
            feasible=False,
            infeasible_reason=str(exc),
        )

    server = deployment.server(requester_id)
    shards = buffer.shards(server.socket.core_count)

    per_rep: list[float] = []
    for _rep in range(repetitions):
        per_core_segments = [
            pool.access_segments(requester_id, buffer, offset, length)
            for offset, length in shards
        ]
        started = engine.now
        obs = _obs
        span = obs.rep_begin(engine, config, link, _rep) if obs is not None else None
        procs = server.socket.parallel_stream(per_core_segments)
        engine.run(engine.all_of(procs))
        duration = engine.now - started
        if span is not None:
            obs.rep_end(span, engine.now, vector_bytes)
        per_rep.append(vector_bytes / duration)

    locality = pool.locality_fraction(requester_id, buffer)
    pool.free(buffer)
    return VectorSumResult(
        config=config,
        link=link,
        vector_bytes=vector_bytes,
        repetitions=repetitions,
        feasible=True,
        per_rep_gbps=tuple(per_rep),
        locality=locality,
    )
