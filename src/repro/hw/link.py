"""Fabric link model.

A :class:`RemoteLink` connects one endpoint (server or pool device) to
the fabric switch.  Each direction is its own bandwidth constraint —
*up* carries data the endpoint sends into the fabric, *down* carries
data it receives — matching the full-duplex UPI/CXL links of the paper's
testbed.  The link also owns the loaded-latency curve of Table 2, since
the paper attributes the latency difference between Link0 and Link1
entirely to the link (the remote uncore it throttles).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.hw.specs import DeviceSpec, LINK0, LINK1
from repro.sim.fluid import Capacity, FluidModel

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """A link preset: the device envelope plus a width multiplier.

    ``width`` > 1 models provisioning the switch<->pool hop with
    multiple links or a higher-capacity link (the thick orange line in
    the paper's Figure 1a) without changing latency.
    """

    device: DeviceSpec
    width: float = 1.0

    @property
    def bandwidth(self) -> float:
        return self.device.bandwidth * self.width


#: Named link presets usable in deployment configs.
LINK_PRESETS: dict[str, LinkSpec] = {
    "link0": LinkSpec(LINK0),
    "link1": LinkSpec(LINK1),
}


def register_scaled_link(name: str, base: DeviceSpec, slowdown: float) -> str:
    """Derive and register a link preset slower than *base* by *slowdown*.

    This is the paper's §4.1 methodology knob made first-class: "we
    parameterize our experiments based on a slowdown of the
    disaggregated memory relative to local memory."  Returns *name* so
    callers can pass it straight into a DeploymentSpec.
    """
    LINK_PRESETS[name] = LinkSpec(base.scaled(name, slowdown))
    return name


class RemoteLink:
    """One endpoint's full-duplex attachment to the fabric switch."""

    def __init__(
        self,
        engine: "Engine",
        fluid: FluidModel,
        spec: LinkSpec,
        name: str,
    ) -> None:
        self.engine = engine
        self.fluid = fluid
        self.spec = spec
        self.name = name
        self.up = Capacity(f"{name}.up", spec.bandwidth)
        self.down = Capacity(f"{name}.down", spec.bandwidth)
        self.latency_model = spec.device.latency_model()

    def loaded_latency(self) -> float:
        """Latency at the link's current load (max of the two directions,
        since a loaded return path delays read completions too)."""
        u = max(self.up.utilization, self.down.utilization)
        return self.latency_model(u)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteLink {self.name} {self.spec.bandwidth:.1f}GB/s>"
