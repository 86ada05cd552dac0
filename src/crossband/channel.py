"""Discrete multipath channel types: rays, single-band channels and link pairs.

Powers are linear channel gains, delays are in seconds, angles in degrees.
A band keeps its paths as the columns of a ``RayTable``; a ``Ray`` is one
path, and indexing or iterating a table yields them. Only a ``LinkPair``
carries a link id. All types are immutable once constructed, so channels can
be shared freely between threads and links processed in parallel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .units import is_normal_power, read_only, wrap_azimuths_deg


@dataclass(frozen=True)
class Ray:
    """One multipath component.

    Attributes
    ----------
    power : float
        Linear channel gain, finite and normal (``units.is_normal_power``).
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
        # plain floats, not the numpy scalars that indexing a table yields,
        # so that a Ray and a RayTable repr their values as floats
        if not is_normal_power(self.power):
            raise ValueError(f"ray power must be a finite normal float > 0, got {self.power!r}")
        object.__setattr__(self, "power", float(self.power))
        if not (math.isfinite(self.delay) and self.delay >= 0.0):
            raise ValueError(f"ray delay must be finite and >= 0, got {self.delay!r}")
        object.__setattr__(self, "delay", float(self.delay))
        if not math.isfinite(self.aoa_azimuth):
            raise ValueError("ray AoA azimuth must be finite")
        object.__setattr__(self, "aoa_azimuth", float(wrap_azimuths_deg(self.aoa_azimuth)))
        if self.aod_azimuth is not None:
            if not math.isfinite(self.aod_azimuth):
                raise ValueError("ray AoD azimuth must be finite")
            object.__setattr__(self, "aod_azimuth", float(wrap_azimuths_deg(self.aod_azimuth)))


class RayTable:
    """The paths of one band as read-only float64 columns, in path order.

    ``powers``, ``delays`` and ``aoas`` hold one value per path, checked as
    ``Ray`` checks them; ``aods`` is None when no path has a departure angle,
    else a tuple with one angle or None per path. ``RayTable(rays)`` builds
    the columns from a sequence of ``Ray``. Indexing and iteration yield
    ``Ray`` views of the rows; two tables, or a table and a tuple of ``Ray``,
    are equal, and hash alike, exactly when their rows are.
    """

    __slots__ = ("powers", "delays", "aoas", "aods", "_file")

    def __new__(cls, rays):
        rays = tuple(rays)
        for ray in rays:
            if not isinstance(ray, Ray):
                raise TypeError(f"a ray table holds Ray instances, got {type(ray).__name__}")
        powers, delays, aoas = (
            read_only(np.fromiter((getattr(ray, field) for ray in rays), float, len(rays)))
            for field in ("power", "delay", "aoa_azimuth"))
        return _table(powers, delays, aoas, tuple(ray.aod_azimuth for ray in rays), None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self):
        return len(self.powers)

    def __getitem__(self, index):
        k = range(len(self.powers))[operator.index(index)]
        return Ray(self.powers[k], self.delays[k], self.aoas[k],
                   None if self.aods is None else self.aods[k])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (RayTable, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __reduce__(self):
        return (_unpickled, (self.powers, self.delays, self.aoas, self.aods, self._file))

    def __repr__(self):
        return f"RayTable({list(self)!r})"


def _table(powers, delays, aoas, aods, file) -> RayTable:
    """A table over checked read-only columns; ``file`` is None or its slices of a file's.

    ``aods`` holds one angle or None per path, or is None; the table's
    ``aods`` is None when no path has an angle.
    """
    table = object.__new__(RayTable)
    object.__setattr__(table, "powers", powers)
    object.__setattr__(table, "delays", delays)
    object.__setattr__(table, "aoas", aoas)
    object.__setattr__(table, "aods", aods if aods and any(a is not None for a in aods) else None)
    object.__setattr__(table, "_file", file)
    return table


def _unpickled(powers, delays, aoas, aods, file) -> RayTable:
    """``_table`` over a pickled or copied table's columns, made read-only again."""
    return _table(*map(read_only, (powers, delays, aoas)), aods, file and tuple(map(read_only, file)))


@dataclass(frozen=True)
class BandChannel:
    """A discrete power-angle-delay profile at one carrier frequency.

    Attributes
    ----------
    frequency : float
        Carrier frequency in GHz, strictly positive.
    rays : RayTable
        At least one multipath component, order preserved. A sequence of
        ``Ray`` is converted to a table.
    """

    frequency: float
    rays: RayTable

    def __post_init__(self):
        if not isinstance(self.rays, RayTable):
            object.__setattr__(self, "rays", RayTable(self.rays))
        if not (math.isfinite(self.frequency) and self.frequency > 0.0):
            raise ValueError(f"carrier frequency must be finite and > 0 GHz, got {self.frequency!r}")
        object.__setattr__(self, "frequency", float(self.frequency))
        if len(self.rays) == 0:
            raise ValueError("a channel needs at least one ray")


def _channels(freqs, powers, delay_ns, aoa_deg, bounds, aods=None, power_db=None) -> list[BandChannel]:
    """Channels over the slices ``[bounds[b], bounds[b + 1])`` of checked path columns.

    Band ``b`` is at ``freqs[b]`` GHz. The float64 columns hold linear
    powers, delays in ns and azimuths in [0, 360) degrees, as files and the
    generator do; their callers have checked every value, so nothing is
    checked again. The delays are scaled to seconds once per column and the
    angles kept as given, so a file's ``-0.0`` stays ``-0.0`` and writes
    back as it was read. The columns are made read-only and the tables hold
    views of them; ``aods``, if given, is a list with one angle or None per
    path. ``power_db``, if given, makes each table keep its slices of the
    file's ``(power_db, delay_ns)`` columns, which the writer writes back.
    """
    delays, aoas = read_only(delay_ns * 1e-9), read_only(aoa_deg)
    file = None if power_db is None else (read_only(power_db), read_only(delay_ns))
    powers = read_only(powers)
    return [BandChannel(freq, _table(
                powers[start:stop], delays[start:stop], aoas[start:stop],
                None if aods is None else tuple(aods[start:stop]),
                None if file is None else tuple(column[start:stop] for column in file)))
            for freq, start, stop in zip(freqs, bounds, bounds[1:])]


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

