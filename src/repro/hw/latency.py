"""Latency-under-load curves.

Memory devices and fabric links exhibit a characteristic loaded-latency
curve: near the unloaded latency while utilization is low, rising
steeply as the device approaches saturation.  The paper measures exactly
this for its two emulated CXL links (Table 2: Link0 163→418 ns, Link1
261→527 ns) using Intel MLC-style loaded-latency sweeps.

We model the curve as

    lat(u) = lat_min + (lat_max - lat_min) * g(u)

where ``g`` is a normalized M/M/1-style convex ramp::

    g(u) = ( 1/(1 - rho*u) - 1 ) / ( 1/(1 - rho) - 1 )

with ``rho`` (default 0.95) controlling how late the knee appears.
``g(0) = 0`` and ``g(1) = 1`` by construction, so the curve passes
exactly through the published (min, max) points regardless of ``rho``.
"""

from __future__ import annotations


from repro.errors import ConfigError


class LatencyModel:
    """Loaded-latency curve pinned to measured (min, max) endpoints."""

    __slots__ = ("lat_min", "lat_max", "rho", "_norm")

    def __init__(self, lat_min: float, lat_max: float, rho: float = 0.95) -> None:
        if lat_min < 0 or lat_max < lat_min:
            raise ConfigError(
                f"need 0 <= lat_min <= lat_max, got ({lat_min}, {lat_max})"
            )
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {rho}")
        self.lat_min = float(lat_min)
        self.lat_max = float(lat_max)
        self.rho = float(rho)
        self._norm = 1.0 / (1.0 - rho) - 1.0

    def __call__(self, utilization: float) -> float:
        """Latency in ns at the given utilization (clamped to [0, 1]).
        The solver evaluates curves in its inner loop, so a call is one
        frame; ``rho < 1`` keeps ``_norm`` positive."""
        u = min(1.0, max(0.0, utilization))
        g = (1.0 / (1.0 - self.rho * u) - 1.0) / self._norm
        return self.lat_min + (self.lat_max - self.lat_min) * g

    latency = __call__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LatencyModel {self.lat_min:.0f}..{self.lat_max:.0f}ns rho={self.rho}>"


class ShiftedCurve:
    """A latency curve plus a constant: *base* seen behind fixed extra
    hops (a cross-rack route's leaf -> spine -> leaf traversal)."""

    __slots__ = ("base", "extra_ns")

    def __init__(self, base: LatencyModel, extra_ns: float) -> None:
        self.base = base
        self.extra_ns = extra_ns

    def __call__(self, utilization: float) -> float:
        return self.base(utilization) + self.extra_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShiftedCurve {self.base!r} +{self.extra_ns:.0f}ns>"
