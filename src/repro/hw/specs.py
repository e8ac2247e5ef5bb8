"""Device specifications taken from the paper's published measurements.

These are the calibration constants of the whole reproduction; every
experiment's absolute numbers trace back to this file.

Sources:

* ``LOCAL_DDR4`` — Table 1 "Local memory": 82 ns, 97 GB/s.  The loaded
  maximum is derived from §4.3: remote max loaded latency is 2.8x
  (Link0) / 3.6x (Link1) the local max loaded latency, i.e.
  418/2.8 = 149 ns and 527/3.6 = 146 ns; we use their mean, 148 ns.
* ``LINK0`` — Table 2: default UPI link, 163–418 ns, 34.5 GB/s.
* ``LINK1`` — Table 2: UPI with remote uncore at 0.7 GHz, 261–527 ns,
  21.0 GB/s.
* ``CXL_POND`` — Table 1: Pond's switch-estimated 280 ns and 31 GB/s
  (PCIe5 x8 maximum).
* ``CXL_FPGA`` — Table 1: FPGA Type-3 device, 303 ns, 20 GB/s
  (DDR4 behind PCIe5 x16).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError
from repro.hw.latency import LatencyModel
from repro.units import gbps, ns


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Bandwidth + loaded-latency envelope of one memory device or link."""

    name: str
    bandwidth: float  # bytes/ns == GB/s
    lat_min: float  # ns, unloaded
    lat_max: float  # ns, at saturation
    description: str = ""

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        if not 0 <= self.lat_min <= self.lat_max:
            raise ConfigError(f"{self.name}: need 0 <= lat_min <= lat_max")

    def latency_model(self, rho: float = 0.95) -> LatencyModel:
        """Build the loaded-latency curve pinned to this spec's endpoints."""
        return LatencyModel(self.lat_min, self.lat_max, rho=rho)

    def scaled(self, name: str, slowdown: float) -> "DeviceSpec":
        """Derive a spec slower by *slowdown* (bandwidth /=, latency *=).

        This implements the paper's parameterization knob: "we
        parameterize our experiments based on a slowdown of the
        disaggregated memory relative to local memory" (§4.1).
        """
        if slowdown <= 0:
            raise ConfigError(f"slowdown must be positive, got {slowdown}")
        return DeviceSpec(
            name=name,
            bandwidth=self.bandwidth / slowdown,
            lat_min=self.lat_min * slowdown,
            lat_max=self.lat_max * slowdown,
            description=f"{self.name} slowed {slowdown}x",
        )


#: Table 1 local memory, loaded max derived from the §4.3 latency ratios.
LOCAL_DDR4 = DeviceSpec(
    name="local-ddr4",
    bandwidth=gbps(97.0),
    lat_min=ns(82.0),
    lat_max=ns(148.0),
    description="Table 1 local memory (2-socket Xeon Gold 5120 testbed)",
)

#: Table 2 Link0 — default UPI link standing in for a fast future CXL fabric.
LINK0 = DeviceSpec(
    name="link0",
    bandwidth=gbps(34.5),
    lat_min=ns(163.0),
    lat_max=ns(418.0),
    description="Table 2 Link0: default UPI, upper bound for future CXL",
)

#: Table 2 Link1 — UPI slowed via 0.7 GHz remote uncore; closer CXL estimate.
LINK1 = DeviceSpec(
    name="link1",
    bandwidth=gbps(21.0),
    lat_min=ns(261.0),
    lat_max=ns(527.0),
    description="Table 2 Link1: slowed UPI, closer approximation of CXL",
)

#: Table 1 CXL datapoint from Pond (switch-estimated latency, PCIe5 x8).
CXL_POND = DeviceSpec(
    name="cxl-pond",
    bandwidth=gbps(31.0),
    lat_min=ns(280.0),
    lat_max=ns(280.0 * 418.0 / 163.0),  # scale Link0's load envelope
    description="Table 1 CXL remote memory per Pond [27]",
)

#: Table 1 CXL datapoint from the FPGA prototype (DDR4 behind PCIe5 x16).
CXL_FPGA = DeviceSpec(
    name="cxl-fpga",
    bandwidth=gbps(20.0),
    lat_min=ns(303.0),
    lat_max=ns(303.0 * 418.0 / 163.0),
    description="Table 1 CXL remote memory per the FPGA study [44]",
)

#: Every spec by name, for config lookups and CLI-style selection.
DEVICE_PRESETS: dict[str, DeviceSpec] = {
    spec.name: spec for spec in (LOCAL_DDR4, LINK0, LINK1, CXL_POND, CXL_FPGA)
}
