"""Latency-under-load curves.

Memory devices and fabric links exhibit a characteristic loaded-latency
curve: near the unloaded latency while utilization is low, rising
steeply as the device approaches saturation.  The paper measures exactly
this for its two emulated CXL links (Table 2: Link0 163→418 ns, Link1
261→527 ns) using Intel MLC-style loaded-latency sweeps.

We model the curve as

    lat(u) = lat_min + (lat_max - lat_min) * g(u) + offset_ns

where ``g`` is a normalized M/M/1-style convex ramp::

    g(u) = ( 1/(1 - rho*u) - 1 ) / ( 1/(1 - rho) - 1 )

with ``rho`` (default 0.95) controlling how late the knee appears.
``g(0) = 0`` and ``g(1) = 1`` by construction, so with ``offset_ns = 0``
the curve passes exactly through the published (min, max) points
regardless of ``rho``.  ``offset_ns`` is a constant added behind the
curve: a cross-rack route sees its link's curve plus the fixed
leaf -> spine -> leaf hops.

On [0, 1] the curve is linear-fractional in ``u``::

    lat(u) = (a + b*u) / (1 - rho*u)
    a = lat_min + offset_ns
    b = rho * ((lat_max - lat_min)/norm - lat_min - offset_ns)

with ``norm = 1/(1 - rho) - 1``, so a core's Little's-law rate cap
``mlp_bytes / lat(u)`` is linear-fractional too, and the fluid solver
balances a capacity's load against it in closed form
(:func:`repro.sim.fluid._utilization_root`).
"""

from __future__ import annotations


from repro.errors import ConfigError


class LatencyModel:
    """Loaded-latency curve pinned to measured (min, max) endpoints,
    plus a constant *offset_ns*."""

    __slots__ = ("lat_min", "lat_max", "rho", "offset_ns", "norm")

    def __init__(
        self, lat_min: float, lat_max: float, rho: float = 0.95, offset_ns: float = 0.0
    ) -> None:
        if lat_min < 0 or lat_max < lat_min:
            raise ConfigError(
                f"need 0 <= lat_min <= lat_max, got ({lat_min}, {lat_max})"
            )
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {rho}")
        if offset_ns < 0:
            # the solver's closed form needs a latency >= 0 on [0, 1]
            raise ConfigError(f"offset_ns must be >= 0, got {offset_ns}")
        self.lat_min = float(lat_min)
        self.lat_max = float(lat_max)
        self.rho = float(rho)
        self.offset_ns = float(offset_ns)
        #: g's denominator, ``1/(1 - rho) - 1``
        self.norm = 1.0 / (1.0 - rho) - 1.0

    def __call__(self, utilization: float) -> float:
        """Latency in ns at the given utilization (clamped to [0, 1], NaN
        read as 0); ``rho < 1`` keeps ``norm`` positive.  ``LoadCap.at``
        repeats this arithmetic inline and must keep its order."""
        u = utilization
        if u > 1.0:
            u = 1.0
        elif not u >= 0.0:
            u = 0.0
        g = (1.0 / (1.0 - self.rho * u) - 1.0) / self.norm
        return self.lat_min + (self.lat_max - self.lat_min) * g + self.offset_ns

    latency = __call__

    def shifted(self, offset_ns: float) -> "LatencyModel":
        """This curve seen behind *offset_ns* more of fixed latency."""
        return LatencyModel(self.lat_min, self.lat_max, self.rho, self.offset_ns + offset_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shift = f" +{self.offset_ns:.0f}ns" if self.offset_ns else ""
        return f"<LatencyModel {self.lat_min:.0f}..{self.lat_max:.0f}ns rho={self.rho}{shift}>"
