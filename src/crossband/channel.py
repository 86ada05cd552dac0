"""Discrete multipath channel types: rays, single-band channels and link pairs.

Powers are linear channel gains, delays are in seconds, angles in degrees.
Only a ``LinkPair`` carries a link id. All types are immutable once
constructed, so channels can be shared freely between threads and links
processed in parallel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .units import wrap_azimuth_deg


@dataclass(frozen=True)
class Ray:
    """One multipath component.

    Attributes
    ----------
    power : float
        Linear channel gain, at least ``sys.float_info.min`` (no subnormals).
    delay : float
        Propagation delay in seconds, non-negative.
    aoa_azimuth : float
        Azimuth angle of arrival in degrees, normalized into [0, 360).
    aod_azimuth : float or None
        Optional azimuth angle of departure; carried through but not used
        by any receive-side metric.
    """

    power: float
    delay: float
    aoa_azimuth: float
    aod_azimuth: float | None = None

    def __post_init__(self):
        # plain floats, not numpy scalars: reprs of field values end up in
        # dataset files verbatim
        if not (math.isfinite(self.power) and self.power >= sys.float_info.min):
            raise ValueError(f"ray power must be a finite normal float > 0, got {self.power!r}")
        object.__setattr__(self, "power", float(self.power))
        if not (math.isfinite(self.delay) and self.delay >= 0.0):
            raise ValueError(f"ray delay must be finite and >= 0, got {self.delay!r}")
        object.__setattr__(self, "delay", float(self.delay))
        if not math.isfinite(self.aoa_azimuth):
            raise ValueError("ray AoA azimuth must be finite")
        object.__setattr__(self, "aoa_azimuth", wrap_azimuth_deg(self.aoa_azimuth))
        if self.aod_azimuth is not None:
            if not math.isfinite(self.aod_azimuth):
                raise ValueError("ray AoD azimuth must be finite")
            object.__setattr__(self, "aod_azimuth", wrap_azimuth_deg(self.aod_azimuth))


@dataclass(frozen=True)
class BandChannel:
    """A discrete power-angle-delay profile at one carrier frequency.

    Attributes
    ----------
    frequency : float
        Carrier frequency in GHz, strictly positive.
    rays : tuple of Ray
        At least one multipath component, order preserved.
    """

    frequency: float
    rays: tuple[Ray, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))
        if not (math.isfinite(self.frequency) and self.frequency > 0.0):
            raise ValueError(f"carrier frequency must be finite and > 0 GHz, got {self.frequency!r}")
        object.__setattr__(self, "frequency", float(self.frequency))
        if len(self.rays) == 0:
            raise ValueError("a channel needs at least one ray")


@dataclass(frozen=True)
class LinkPair:
    """Co-located lower-band and upper-band channels for one link.

    Equal frequencies are allowed; comparing a channel against itself is the
    calibration case of every similarity metric. ``link_id`` is an opaque
    identifier of the transmitter-receiver combination.
    """

    low: BandChannel
    high: BandChannel
    link_id: str = ""

    def __post_init__(self):
        if self.low.frequency > self.high.frequency:
            raise ValueError(
                f"low band frequency {self.low.frequency} GHz exceeds "
                f"high band frequency {self.high.frequency} GHz"
            )

