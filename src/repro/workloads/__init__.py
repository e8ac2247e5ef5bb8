"""Workloads driving the pools.

* :mod:`repro.workloads.vector_sum` — the paper's §4.1 microbenchmark:
  a 14-core parallel aggregation over a large vector in disaggregated
  memory, repeated 10 times, reporting average bandwidth.
* :mod:`repro.workloads.kvstore` — a key-value store over pooled
  memory, the canonical app the related-work section motivates.
* :mod:`repro.workloads.graph` — BFS-style graph analytics over a
  pooled adjacency structure (a pointer-chasing, latency-sensitive
  counterpoint to the streaming microbenchmark).
* :mod:`repro.workloads.generators` — the cluster driver's uniform
  access trace and the open-loop arrival processes behind
  :mod:`repro.scale`.
"""

from repro.workloads.generators import uniform_trace
from repro.workloads.vector_sum import VectorSumResult, run_vector_sum

__all__ = [
    "VectorSumResult",
    "run_vector_sum",
    "uniform_trace",
]
