"""A10 — the allocator gauntlet's wall-clock side.

The gauntlet's :class:`~repro.mem.arena.gauntlet.GauntletReport` is
deliberately wall-clock-free (determinism); this bench is where real
throughput lives.  The CI smoke job::

    PYTHONPATH=src python benchmarks/bench_alloc.py --smoke

verifies every detector/observability seam, ``Gauntlet._obs`` among
them, defaults to ``None`` (zero-cost convention; checked by
``_harness.assert_seams_cold``), measures ops/sec and fragmentation for
every allocator on the churn trace, checks that installing
:mod:`repro.obs` neither changes the scores nor costs more than a few
percent, and writes everything to ``BENCH_alloc.json`` for the CI
artifact upload.
"""

from __future__ import annotations

import time

from _harness import assert_seams_cold, write_json

from repro.core.migration import ArenaCompactor
from repro.experiments import alloc
from repro.mem.arena import Gauntlet, allocator_names

#: the same tight arena the A10 experiment uses
CAPACITY = alloc.ARENA_CAPACITY


def _replay(allocator: str, ops: int):
    gauntlet = Gauntlet(capacity=CAPACITY)
    return gauntlet.replay(allocator, "churn", ops=ops, seed=7)


# --- smoke (CI: artifact + zero-cost guard) --------------------------------------


def smoke(ops: int = 20000, out: str = "BENCH_alloc.json") -> None:
    assert_seams_cold()
    results: dict[str, dict[str, float]] = {}
    for name in allocator_names():
        _replay(name, 512)  # warm-up: imports and bytecode out of the timing
    for name in allocator_names():
        started = time.perf_counter()
        report = _replay(name, ops)
        elapsed = time.perf_counter() - started
        results[name] = {
            "ops_per_sec": round(ops / elapsed, 1),
            "ext_frag_mean": round(report.ext_frag_mean, 4),
            "ext_frag_max": round(report.ext_frag_max, 4),
            "internal_frag": round(report.internal_fragmentation, 4),
            "failures": report.failures,
            "largest_hole_min_ratio": round(report.largest_hole_min_ratio, 4),
        }
        print(
            f"{name:12s}: {results[name]['ops_per_sec']:>10.0f} ops/s  "
            f"efrag {report.ext_frag_mean:.3f} (max {report.ext_frag_max:.3f})  "
            f"ifrag {report.internal_fragmentation:.3f}  fail {report.failures}"
        )

    # compaction pass, sim-time cost included in the artifact
    compact = Gauntlet(capacity=CAPACITY, compactor=ArenaCompactor(threshold=0.2))
    creport = compact.replay("best-fit", "churn", ops=ops, seed=7)
    results["best-fit+compaction"] = {
        "ext_frag_mean": round(creport.ext_frag_mean, 4),
        "ext_frag_max": round(creport.ext_frag_max, 4),
        "compactions": creport.compactions,
        "compaction_bytes_moved": creport.compaction_bytes_moved,
        "compaction_cost_ns": creport.compaction_cost_ns,
    }
    print(
        f"best-fit+compaction: efrag {creport.ext_frag_mean:.3f} "
        f"({creport.compactions} passes, {creport.compaction_bytes_moved / 1024:.0f} KiB moved)"
    )

    # obs overhead: same replay with every seam installed must match the
    # uninstalled scores and stay within a few percent wall clock
    from repro.obs import Observability

    baseline = results["first-fit"]
    started = time.perf_counter()
    _replay("first-fit", ops)
    bare = time.perf_counter() - started
    obs = Observability()
    with obs.activated():
        started = time.perf_counter()
        obs_report = _replay("first-fit", ops)
        with_obs = time.perf_counter() - started
    assert_seams_cold()
    if round(obs_report.ext_frag_mean, 4) != baseline["ext_frag_mean"]:
        raise SystemExit(
            "observability changed the gauntlet scores: "
            f"{obs_report.ext_frag_mean:.4f} with obs vs {baseline['ext_frag_mean']}"
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
