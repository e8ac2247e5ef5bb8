"""A10 — the allocator gauntlet's wall-clock side.

The gauntlet's :class:`~repro.mem.arena.gauntlet.GauntletReport` is
deliberately wall-clock-free (determinism); this bench is where real
throughput lives.  The CI smoke job::

    PYTHONPATH=src python benchmarks/bench_alloc.py --smoke

verifies every detector/observability seam, ``Gauntlet._obs`` among
them, defaults to ``None`` (zero-cost convention; checked by
``_harness.assert_seams_cold``), measures ops/sec and fragmentation of
the first-fit arena on the churn trace, with and without compaction,
checks that installing :mod:`repro.obs` leaves the whole
:class:`~repro.mem.arena.gauntlet.GauntletReport` unchanged, and writes
everything to ``BENCH_alloc.json`` for the CI artifact upload.  The
wall-clock ratio with and without obs is recorded there, never gated:
one replay of a few thousand ops is too noisy to gate on.
"""

from __future__ import annotations

import dataclasses
import time

from _harness import assert_seams_cold, write_json

from repro.core.migration import ArenaCompactor
from repro.experiments import alloc
from repro.mem.arena import Gauntlet

#: the same tight arena the A10 experiment uses
CAPACITY = alloc.ARENA_CAPACITY


def _replay(ops: int):
    gauntlet = Gauntlet(capacity=CAPACITY)
    return gauntlet.replay("churn", ops=ops, seed=7)


# --- smoke (CI: artifact + zero-cost guard) --------------------------------------


def smoke(ops: int = 20000, out: str = "BENCH_alloc.json") -> None:
    assert_seams_cold()
    results: dict[str, dict[str, float]] = {}
    _replay(512)  # warm-up: imports and bytecode out of the timing
    started = time.perf_counter()
    report = _replay(ops)
    elapsed = time.perf_counter() - started
    results["first-fit"] = {
        "ops_per_sec": round(ops / elapsed, 1),
        "ext_frag_mean": round(report.ext_frag_mean, 4),
        "ext_frag_max": round(report.ext_frag_max, 4),
        "internal_frag": round(report.internal_fragmentation, 4),
        "failures": report.failures,
        "largest_hole_min_ratio": round(report.largest_hole_min_ratio, 4),
    }
    print(
        f"first-fit: {results['first-fit']['ops_per_sec']:>10.0f} ops/s  "
        f"efrag {report.ext_frag_mean:.3f} (max {report.ext_frag_max:.3f})  "
        f"ifrag {report.internal_fragmentation:.3f}  fail {report.failures}"
    )

    # compaction pass, sim-time cost included in the artifact
    compact = Gauntlet(capacity=CAPACITY, compactor=ArenaCompactor(threshold=0.2))
    creport = compact.replay("churn", ops=ops, seed=7)
    results["first-fit+compaction"] = {
        "ext_frag_mean": round(creport.ext_frag_mean, 4),
        "ext_frag_max": round(creport.ext_frag_max, 4),
        "compactions": creport.compactions,
        "compaction_bytes_moved": creport.compaction_bytes_moved,
        "compaction_cost_ns": creport.compaction_cost_ns,
    }
    print(
        f"first-fit+compaction: efrag {creport.ext_frag_mean:.3f} "
        f"({creport.compactions} passes, {creport.compaction_bytes_moved / 1024:.0f} KiB moved)"
    )

    # obs: the same replay with every seam installed must produce the
    # same report; its wall-clock ratio is recorded, not gated
    from repro.obs import Observability

    started = time.perf_counter()
    _replay(ops)
    bare = time.perf_counter() - started
    obs = Observability()
    with obs.activated():
        started = time.perf_counter()
        obs_report = _replay(ops)
        with_obs = time.perf_counter() - started
    assert_seams_cold()
    if obs_report != report:
        changed = [
            f"{f.name}: {getattr(report, f.name)} -> {getattr(obs_report, f.name)}"
            for f in dataclasses.fields(report)
            if getattr(report, f.name) != getattr(obs_report, f.name)
        ]
        raise SystemExit(
            "observability changed the gauntlet report: " + "; ".join(changed)
        )
    overhead = with_obs / bare if bare else 1.0
    results["_meta"] = {"ops": ops, "obs_overhead": round(overhead, 3)}
    print(f"obs overhead on first-fit churn: {overhead:.2f}x uninstalled")
    print("detector seams (Gauntlet._obs among them): all None (zero-cost path) — OK")

    write_json(out, {"trace": "churn", "results": results})


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the smoke: seam check + BENCH_alloc.json",
    )
    parser.add_argument("--ops", type=int, default=20000)
    parser.add_argument("--out", default="BENCH_alloc.json")
    cli_args = parser.parse_args()
    if not cli_args.smoke:
        parser.error("pass --smoke")
    smoke(ops=cli_args.ops, out=cli_args.out)
