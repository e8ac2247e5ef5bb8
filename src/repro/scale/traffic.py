"""Open-loop traffic at population scale.

The cluster driver's tenants are *closed-loop*: each waits for its last
op before issuing the next, so offered load self-throttles exactly when
the rack saturates — the regime where reject rates and tail latency
matter most is the one a closed loop cannot produce.  This module
generates the open-loop alternative: a population of 10k+ tenants whose
aggregate arrival process is composed from

* a **Zipf popularity skew** over the tenant population (a handful of
  tenants dominate, the long tail trickles),
* a **diurnal sinusoid** (the day/night swing),
* a two-state **MMPP burst** modulation (short correlated bursts), and
* scheduled **flash crowds** — rate multiplied for a window, arrivals
  focused on a normally-cold slice of the population.

Every stochastic component draws from its own named
:class:`~repro.sim.rng.RngStreams` stream, so a scenario is
byte-identical per seed no matter how components are toggled relative
to each other, and the composed rate function feeds one Lewis-thinned
non-homogeneous Poisson process
(:func:`~repro.workloads.generators.thinned_poisson`) under the rate's
piecewise-constant envelope.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.units import kib, ms, us
from repro.workloads.generators import (
    PiecewiseRate,
    diurnal_multiplier,
    mmpp_timeline,
    thinned_poisson,
    zipf_cumulative,
    zipf_pick,
)

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.rng import RngStreams


@dataclasses.dataclass(frozen=True)
class DiurnalCycle:
    """The day/night swing, compressed to simulation scale."""

    period_ns: float = ms(2.0)
    amplitude: float = 0.4  # relative swing around the base rate
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period_ns <= 0:
            raise ConfigError(f"diurnal period must be positive, got {self.period_ns}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ConfigError(f"amplitude must be in [0, 1], got {self.amplitude}")


@dataclasses.dataclass(frozen=True)
class BurstModel:
    """Two-state MMPP: quiet <-> burst with exponential holding times."""

    multiplier: float = 3.0
    mean_on_ns: float = us(40)
    mean_off_ns: float = us(160)

    def __post_init__(self) -> None:
        if self.multiplier < 1.0:
            raise ConfigError(f"burst multiplier must be >= 1, got {self.multiplier}")
        if self.mean_on_ns <= 0 or self.mean_off_ns <= 0:
            raise ConfigError("burst holding times must be positive")


@dataclasses.dataclass(frozen=True)
class FlashCrowd:
    """A scheduled surge focused on one slice of the population.

    While active, the aggregate rate is multiplied by *multiplier* and
    a *focus* fraction of arrivals is drawn uniformly from tenant slots
    ``[first_slot, last_slot)`` instead of the Zipf law — normally-cold
    tenants suddenly dominating is exactly the demand shift the re-flex
    autoscaler has to absorb."""

    start_ns: float
    duration_ns: float
    multiplier: float = 6.0
    first_slot: int = 0
    last_slot: int = 0  # 0 = no focus, rate surge only
    focus: float = 0.7

    def __post_init__(self) -> None:
        if self.start_ns < 0 or self.duration_ns <= 0:
            raise ConfigError("flash crowd needs start >= 0 and a positive duration")
        if self.multiplier < 1.0:
            raise ConfigError(f"flash multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.focus <= 1.0:
            raise ConfigError(f"focus must be in [0, 1], got {self.focus}")
        if self.last_slot < self.first_slot:
            raise ConfigError("flash crowd slot span is inverted")

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns

    def active(self, t_ns: float) -> bool:
        return self.start_ns <= t_ns < self.end_ns

    @property
    def focused(self) -> bool:
        return self.last_slot > self.first_slot and self.focus > 0.0


@dataclasses.dataclass(frozen=True)
class TrafficSpec:
    """One open-loop scenario's complete demand description."""

    tenants: int = 10_000
    base_rate_ops_s: float = 1.0e9  # aggregate arrivals/s at the quiet baseline
    duration_ns: float = ms(4.0)
    zipf_theta: float = 0.99
    diurnal: DiurnalCycle | None = DiurnalCycle()
    bursts: BurstModel | None = BurstModel()
    flash_crowds: tuple[FlashCrowd, ...] = ()
    #: per-request shape
    alloc_bytes: int = kib(64)
    hold_mean_ns: float = us(80)
    access_fraction: float = 0.5
    access_bytes: int = kib(4)
    write_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ConfigError(f"need at least one tenant, got {self.tenants}")
        if self.base_rate_ops_s <= 0:
            raise ConfigError(f"base rate must be positive, got {self.base_rate_ops_s}")
        if self.duration_ns <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration_ns}")
        if self.zipf_theta <= 0:
            raise ConfigError(f"zipf theta must be positive, got {self.zipf_theta}")
        if self.alloc_bytes <= 0 or self.access_bytes <= 0:
            raise ConfigError("alloc/access sizes must be positive")
        if self.hold_mean_ns <= 0:
            raise ConfigError(f"hold mean must be positive, got {self.hold_mean_ns}")
        if not 0.0 <= self.access_fraction <= 1.0:
            raise ConfigError("access_fraction must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be in [0, 1]")
        for crowd in self.flash_crowds:
            if crowd.last_slot > self.tenants:
                raise ConfigError(
                    f"flash crowd span [{crowd.first_slot}, {crowd.last_slot}) "
                    f"exceeds the {self.tenants}-tenant population"
                )


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One open-loop request, fully determined at generation time."""

    when_ns: float
    slot: int  # tenant index (== Zipf popularity rank)
    size: int
    hold_ns: float
    access: bool
    write: bool


class OpenLoopTraffic:
    """Composes the spec into one deterministic arrival stream.

    Four dedicated streams: candidate arrival times (thinning), tenant
    picks, request shape (hold time / access / write draws), and the
    MMPP state timeline.  The timeline is materialized eagerly so burst
    boundaries never depend on how many arrivals preceded them.  Each
    :meth:`arrivals` call bounds the composed rate by
    :meth:`rate_envelope`, so thinning evaluates the rate only for the
    candidates that bound cannot reject."""

    def __init__(self, spec: TrafficSpec, streams: "RngStreams") -> None:
        self.spec = spec
        self._arrive = streams.stream("scale.traffic.arrivals")
        self._pick = streams.stream("scale.traffic.tenants")
        self._shape = streams.stream("scale.traffic.shape")
        self._burst_timeline: list[tuple[float, float]] = []
        self._bursts: PiecewiseRate | None = None
        if spec.bursts is not None:
            self._burst_timeline = mmpp_timeline(
                spec.duration_ns,
                spec.bursts.multiplier,
                spec.bursts.mean_on_ns,
                spec.bursts.mean_off_ns,
                streams.stream("scale.traffic.bursts"),
            )
            self._bursts = PiecewiseRate(self._burst_timeline)
        self._cumulative = zipf_cumulative(spec.tenants, spec.zipf_theta)
        self.peak_rate_per_ns = self._peak_rate_per_ns()

    # -- the composed rate ---------------------------------------------------

    def rate_per_ns(self, t_ns: float) -> float:
        """Instantaneous aggregate arrival rate (arrivals per ns)."""
        diurnal = self.spec.diurnal
        swing = 1.0
        if diurnal is not None:
            swing = diurnal_multiplier(
                t_ns, diurnal.period_ns, diurnal.amplitude, diurnal.phase
            )
        return self._composed(t_ns, swing)

    def rate_envelope(self) -> list[tuple[float, float]]:
        """A piecewise-constant bound on :meth:`rate_per_ns`, as
        ``(start_ns, bound)`` steps from 0.

        Steps break where the MMPP state or a crowd's activity changes;
        each holds the diurnal crest ``1 + amplitude`` in place of the
        swing.  ``amplitude * sin(x) <= amplitude`` in floats, and
        :meth:`_composed` multiplies both in the same order, so the
        bound holds exactly, not just up to rounding."""
        spec = self.spec
        cuts = {0.0, *(start for start, _ in self._burst_timeline)}
        for crowd in spec.flash_crowds:
            cuts.update((crowd.start_ns, crowd.end_ns))
        crest = 1.0 if spec.diurnal is None else 1.0 + spec.diurnal.amplitude
        return [
            (start, self._composed(start, crest))
            for start in sorted(cuts)
            if start < spec.duration_ns
        ]

    def _composed(self, t_ns: float, swing: float) -> float:
        """The base rate times *swing*, the MMPP state and the active
        crowds at *t_ns*.  Float products are monotone in each factor,
        so one multiplication order keeps the envelope above the rate."""
        spec = self.spec
        rate = spec.base_rate_ops_s / 1e9 * swing
        if self._bursts is not None:
            rate *= self._bursts.value_at(t_ns)
        for crowd in spec.flash_crowds:
            if crowd.active(t_ns):
                rate *= crowd.multiplier
        return rate

    def _peak_rate_per_ns(self) -> float:
        spec = self.spec
        peak = spec.base_rate_ops_s / 1e9
        if spec.diurnal is not None:
            peak *= 1.0 + spec.diurnal.amplitude
        if spec.bursts is not None:
            peak *= spec.bursts.multiplier
        # conservative: assume every crowd could overlap (thinning stays
        # correct with an over-estimated peak, just draws more candidates)
        for crowd in spec.flash_crowds:
            peak *= crowd.multiplier
        return peak

    # -- tenant popularity ---------------------------------------------------

    def _slot_at(self, t_ns: float) -> int:
        for crowd in self.spec.flash_crowds:
            if crowd.active(t_ns) and crowd.focused:
                if self._pick.random() < crowd.focus:
                    return crowd.first_slot + self._pick.randrange(
                        crowd.last_slot - crowd.first_slot
                    )
        return zipf_pick(self._cumulative, self._pick)

    # -- the stream ----------------------------------------------------------

    def arrivals(self) -> _t.Iterator[Arrival]:
        spec = self.spec
        shape = self._shape
        for when in thinned_poisson(
            self.rate_per_ns,
            self.peak_rate_per_ns,
            spec.duration_ns,
            self._arrive,
            self.rate_envelope(),
        ):
            slot = self._slot_at(when)
            hold = shape.expovariate(1.0 / spec.hold_mean_ns)
            access = shape.random() < spec.access_fraction
            write = access and shape.random() < spec.write_fraction
            yield Arrival(
                when_ns=when,
                slot=slot,
                size=spec.alloc_bytes,
                hold_ns=hold,
                access=access,
                write=write,
            )
