"""A2 — sizing-policy ablation (§5 "Sizing the shared regions").

A mixed-tenant scenario: apps of different sizes, heats, and values ask
for pooled memory across the rack.  Each policy sizes the shared
regions and places the demands; we score by

* value-weighted local access rate (the paper's objective),
* how many apps were fully satisfied,
* total shared memory taken from private use (the "monopolized by
  remote servers" cost).

The LP optimizer should dominate the static split and beat the
demand-driven heuristic on skewed mixes.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.analysis.report import format_table
from repro.core.sizing import (
    AppDemand,
    DemandDrivenSizing,
    GlobalOptimizerSizing,
    ServerCapacity,
    SizingPolicy,
    StaticSizing,
)
from repro.errors import ConfigError
from repro.units import gib


@dataclasses.dataclass(frozen=True)
class PolicyScore:
    policy: str
    objective: float
    satisfied: int
    total_apps: int
    mean_local_fraction: float
    total_shared_gib: float


@dataclasses.dataclass(frozen=True)
class SizingResult:
    scenario: str
    scores: tuple[PolicyScore, ...]

    def render(self) -> str:
        return format_table(
            ["policy", "objective", "satisfied", "mean local frac", "shared GiB"],
            [
                (
                    s.policy,
                    s.objective,
                    f"{s.satisfied}/{s.total_apps}",
                    s.mean_local_fraction,
                    s.total_shared_gib,
                )
                for s in self.scores
            ],
            title=f"A2 sizing policies: {self.scenario}",
        )


def skewed_scenario() -> tuple[list[AppDemand], list[ServerCapacity]]:
    """One big high-value tenant and several small ones, uneven homes."""
    demands = [
        AppDemand("analytics", home_server=0, pooled_bytes=gib(30), access_rate=4.0, value=5.0),
        AppDemand("kv-hot", home_server=1, pooled_bytes=gib(6), access_rate=8.0, value=3.0),
        AppDemand("kv-cold", home_server=1, pooled_bytes=gib(12), access_rate=0.5, value=1.0),
        AppDemand("batch", home_server=2, pooled_bytes=gib(16), access_rate=1.0, value=1.0),
        AppDemand("ml-train", home_server=3, pooled_bytes=gib(20), access_rate=2.0, value=4.0),
    ]
    capacities = [
        ServerCapacity(sid, dram_bytes=gib(24), private_floor_bytes=gib(2))
        for sid in range(4)
    ]
    return demands, capacities


def _score(policy: SizingPolicy, demands: list[AppDemand], capacities: list[ServerCapacity]) -> PolicyScore:
    plan = policy.plan(demands, capacities)
    fractions = [plan.local_fraction(d) for d in demands]
    objective = sum(
        d.value * d.access_rate * plan.local_fraction(d) for d in demands
    )
    return PolicyScore(
        policy=policy.name,
        objective=objective,
        satisfied=sum(plan.satisfied.get(d.app_id, False) for d in demands),
        total_apps=len(demands),
        mean_local_fraction=sum(fractions) / len(fractions) if fractions else 0.0,
        total_shared_gib=plan.total_shared() / gib(1),
    )


def run(scenario: str = "skewed") -> SizingResult:
    """Score all three policies on one scenario."""
    if scenario != "skewed":
        raise ConfigError(f"unknown sizing scenario {scenario!r} (known: skewed)")
    demands, capacities = skewed_scenario()
    policies: list[SizingPolicy] = [
        StaticSizing(shared_fraction=0.5),
        DemandDrivenSizing(),
        GlobalOptimizerSizing(),
    ]
    scores = tuple(_score(p, list(demands), list(capacities)) for p in policies)
    return SizingResult(scenario=scenario, scores=scores)
