"""``repro.obs`` — unified observability over the simulator.

One facade, :class:`Observability`, turns on everything: causal spans
across every instrumented layer (driver requests, session accesses,
coherence transactions, fabric hops, streaming cores), a labeled
metrics registry federating the existing per-component stats, and
deterministic exporters (Perfetto-loadable Chrome trace JSON,
Prometheus text, CSV/JSON time series).

Usage::

    from repro.obs import Observability

    obs = Observability()
    with obs.activated():
        run_experiment()          # builds its engines inside the block
    obs.dump("obs-out/")          # trace.json, metrics.prom, ...

Everything is off by default: an engine takes the facade as its
``obs`` only when it is built while the facade is installed, and a cold
engine's ``obs`` is ``None``, costing one attribute load per call site
(the ``bench_cluster.py --smoke`` overhead gate keeps it under 2%).
"""

from repro.obs.export import chrome_trace, prometheus_text, spans_json, write_dump
from repro.obs.metrics import MetricsRegistry, Sample
from repro.obs.report import latency_breakdown, render_breakdown, summarize_dump
from repro.obs.tracing import Observability, Span, SpanRecorder

__all__ = [
    "MetricsRegistry",
    "Observability",
    "Sample",
    "Span",
    "SpanRecorder",
    "chrome_trace",
    "latency_breakdown",
    "prometheus_text",
    "render_breakdown",
    "spans_json",
    "summarize_dump",
    "write_dump",
]
