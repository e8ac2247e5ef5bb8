"""Per-layer measurement for the traced run.

* :func:`fold` charges cProfile self time to the simulator's layers by
  module path under ``repro/``.  Code outside ``repro`` (C builtins such
  as ``heapq`` and ``bytes.join``, the standard library) is charged to
  its callers' layers, split by the self time each caller caused.
* :class:`Instruments` installs class-level wrappers for one pass: call
  counters on public entry points, and collectors for the objects a
  pass builds (``run_figure`` builds its racks internally).
* :func:`model_split` folds ``repro.obs``'s latency breakdown into the
  share of simulated request time each category took.
"""

from __future__ import annotations

import collections
import pathlib
import typing as _t

import repro
from repro.core.pool import LogicalMemoryPool, PhysicalMemoryPool
from repro.fabric.transport import MemoryTransport
from repro.obs import latency_breakdown
from repro.sim.engine import Engine
from repro.sim.fluid import FluidModel

REPRO_DIR = pathlib.Path(repro.__file__).resolve().parent
BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]

#: (path prefix under repro/, layer), first match wins
LAYER_PREFIXES = (
    ("sim/fluid.py", "sim.fluid"),
    ("sim/", "sim.engine"),
    ("fabric/", "fabric"),
    ("hw/", "hw"),
    ("mem/", "mem"),
    ("core/", "core"),
    ("cluster/", "cluster"),
    ("scale/", "scale"),
    ("workloads/", "workloads"),
    ("", "misc"),  # topology, experiments, obs, analysis, units, ...
)
#: program layers; the benchmark's own frames ("bench") are not one
LAYERS = tuple(layer for _prefix, layer in LAYER_PREFIXES)

SPLIT_CATEGORIES = ("queue", "cache", "link", "fabric", "dram")


def _classify(filename: str, cache: dict[str, str | None]) -> str | None:
    """Layer of a code file, ``"bench"`` for benchmark files, else None."""
    if filename in cache:
        return cache[filename]
    layer: str | None = None
    if not filename.startswith(("~", "<")):
        path = pathlib.Path(filename).resolve()
        if path.is_relative_to(REPRO_DIR):
            rel = path.relative_to(REPRO_DIR).as_posix()
            layer = next(name for prefix, name in LAYER_PREFIXES if rel.startswith(prefix))
        elif path.is_relative_to(BENCH_DIR):
            layer = "bench"
    cache[filename] = layer
    return layer


def fold(stats: dict[_t.Any, _t.Any]) -> tuple[dict[str, float], float]:
    """Self seconds per layer (plus ``bench`` and ``unattributed``) and
    the total profiled seconds, from a ``pstats.Stats(...).stats`` dict."""
    files: dict[str, str | None] = {}
    shares: dict[_t.Any, dict[str, float]] = {}

    def share_of(func: _t.Any) -> dict[str, float]:
        layer = _classify(func[0], files)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        shares[func] = {}  # a call cycle through non-repro code stays unattributed
        callers = stats[func][4]
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0:  # no self time measured per caller: split by call count
            weights = {caller: entry[0] for caller, entry in callers.items()}
            total = sum(weights.values())
        out: dict[str, float] = collections.defaultdict(float)
        for caller, weight in weights.items():
            if caller in stats and total > 0:
                for layer, part in share_of(caller).items():
                    out[layer] += part * weight / total
        shares[func] = dict(out)
        return shares[func]

    folded: dict[str, float] = {layer: 0.0 for layer in (*LAYERS, "bench", "unattributed")}
    profiled = 0.0
    for func, entry in stats.items():
        self_s = entry[2]
        profiled += self_s
        split = share_of(func)
        for layer, part in split.items():
            folded[layer] += self_s * part
        folded["unattributed"] += self_s * (1.0 - sum(split.values()))
    return folded, profiled


def raw_pstats(stats: dict[_t.Any, _t.Any], root: pathlib.Path) -> list[dict[str, _t.Any]]:
    """The profile as JSON-ready rows, paths relative to *root* where possible."""

    def where(func: _t.Any) -> str:
        filename, line, name = func
        path = pathlib.Path(filename)
        if path.is_absolute() and path.is_relative_to(root):
            filename = path.relative_to(root).as_posix()
        return f"{filename}:{line}({name})"

    rows = []
    for func, (cc, nc, tt, ct, callers) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        rows.append(
            {
                "function": where(func),
                "primitive_calls": cc,
                "calls": nc,
                "self_s": tt,
                "cumulative_s": ct,
                "callers": {where(c): e[2] for c, e in callers.items()},
            }
        )
    return rows


class Instruments:
    """Class-level wrappers around one pass (``with Instruments() as i:``)."""

    COUNTED = (
        (FluidModel, "transfer", "sim.fluid.transfers"),
        (LogicalMemoryPool, "allocate", "core.pool.allocs"),
        (LogicalMemoryPool, "free", "core.pool.frees"),
        (PhysicalMemoryPool, "allocate", "core.pool.allocs"),
        (PhysicalMemoryPool, "free", "core.pool.frees"),
    )
    COLLECTED = (Engine, MemoryTransport, PhysicalMemoryPool)

    def __init__(self) -> None:
        self.calls: collections.Counter[str] = collections.Counter()
        self.instances: dict[type, list[_t.Any]] = {cls: [] for cls in self.COLLECTED}
        self._saved: list[tuple[type, str, _t.Any]] = []

    def _patch(self, cls: type, attr: str, wrapper: _t.Any) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def __enter__(self) -> "Instruments":
        calls = self.calls
        for cls, attr, key in self.COUNTED:
            original = cls.__dict__[attr]

            def counted(*args: _t.Any, _call=original, _key=key, **kwargs: _t.Any) -> _t.Any:
                calls[_key] += 1
                return _call(*args, **kwargs)

            self._patch(cls, attr, counted)
        for cls in self.COLLECTED:
            original = cls.__dict__["__init__"]
            bucket = self.instances[cls]

            def collected(obj: _t.Any, *args: _t.Any, _init=original, _bucket=bucket,
                          **kwargs: _t.Any) -> None:
                _init(obj, *args, **kwargs)
                _bucket.append(obj)

            self._patch(cls, "__init__", collected)
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()

    def counts(self) -> dict[str, float]:
        transports = self.instances[MemoryTransport]
        caches = [
            cache
            for pool in self.instances[PhysicalMemoryPool]
            for cache in pool.caches.values()
        ]
        hits = sum(cache.hits for cache in caches)
        lookups = hits + sum(cache.misses for cache in caches)
        return {
            "sim.engine.events": float(sum(e.events_processed for e in self.instances[Engine])),
            "sim.fluid.transfers": float(self.calls["sim.fluid.transfers"]),
            "fabric.transport.ops": float(
                sum(t.reads_issued + t.writes_issued + t.copies_issued for t in transports)
            ),
            "fabric.transport.bytes": float(
                sum(t.bytes_read + t.bytes_written + t.bytes_copied for t in transports)
            ),
            "fabric.transport.bytes_copied": float(sum(t.bytes_copied for t in transports)),
            "hw.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "core.pool.allocs": float(self.calls["core.pool.allocs"]),
            "core.pool.frees": float(self.calls["core.pool.frees"]),
        }


def model_split(spans: _t.Sequence[_t.Any]) -> dict[str, float]:
    """Share (%) of simulated request time per latency category; the
    rest (``other``) is time no instrumented layer claimed."""
    rows = latency_breakdown(spans)
    totals = {cat: sum(row.category_ns[cat] for row in rows) for cat in SPLIT_CATEGORIES}
    whole = sum(sum(row.category_ns.values()) + row.other_ns for row in rows)
    out = {f"model.{cat}_pct": 100.0 * ns / whole if whole else 0.0 for cat, ns in totals.items()}
    out["model.other_pct"] = max(0.0, 100.0 - sum(out.values())) if whole else 0.0
    return out
