"""Beam-filtered power angular spectra on a circular grid.

A discrete channel is turned into a spectrum by steering a beampattern to
every grid angle and collecting the gain-weighted sum of ray powers. Ray
arrival angles are never snapped to the grid: the pattern is evaluated at the
exact per-ray offset, so refining the grid reproduces coarse-grid values bit
for bit. Normalizing a spectrum to unit mass (with the grid step as the
integration measure) makes it comparable as a probability density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BandChannel
from .units import MIN_STEP_DEG


@dataclass(frozen=True)
class AngularGrid:
    """Uniform circular grid {0, step, ..., 360 - step} in degrees.

    The step divides 360 and lies in [``units.MIN_STEP_DEG``, 10], that is
    [0.01, 10] degrees.
    """

    step_deg: float = 1.0

    def __post_init__(self):
        if not MIN_STEP_DEG <= self.step_deg <= 10.0:
            raise ValueError(f"grid step must be in [{MIN_STEP_DEG}, 10] degrees, got {self.step_deg!r}")
        n = round(360.0 / self.step_deg)
        if abs(n * self.step_deg - 360.0) > 1e-9:
            raise ValueError(f"grid step must divide 360 degrees, got {self.step_deg!r}")
        angles = np.arange(n) * self.step_deg
        angles.flags.writeable = False
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_angles", angles)

    @property
    def n_points(self) -> int:
        return self._n

    @property
    def angles(self) -> np.ndarray:
        return self._angles


@dataclass(frozen=True, eq=False)
class FilteredPas:
    """Beam-collected power versus steering angle, one value per grid angle."""

    grid: AngularGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} values for step {self.grid.step_deg}, "
                f"got shape {values.shape}"
            )
        if not 0.0 < values.min() <= values.max() < np.inf:
            raise ValueError("filtered spectrum values must be finite and strictly positive")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class NormalizedPas:
    """Per-degree probability density over steering angle; unit total mass."""

    grid: AngularGrid
    density: np.ndarray

    def __post_init__(self):
        density = np.array(self.density, dtype=float)
        if density.shape != (self.grid.n_points,):
            raise ValueError("density length does not match the grid")
        if not 0.0 <= density.min() <= density.max() < np.inf:
            raise ValueError("densities must be finite and non-negative")
        mass = float(density.sum()) * self.grid.step_deg
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"density mass must be 1 within 1e-9, got {mass!r}")
        density.flags.writeable = False
        object.__setattr__(self, "density", density)


def filter_pas(channel: BandChannel, pattern, grid: AngularGrid) -> FilteredPas:
    """Filter a discrete channel through a beampattern on a circular grid.

    For every grid angle the pattern is steered there and the ray powers are
    accumulated with the gain at the exact angular offset of each ray. The
    pattern is evaluated once over a rays x grid matrix of offsets; the
    weighted rows are then summed along the ray axis, which adds them in ray
    order at every grid point. The result is bit for bit that of a per-ray
    ``values += power * pattern.gain(angles - aoa)`` loop.

    Raises ValueError, naming the band and the first such steering angle,
    when a value is not positive because every ray's product underflowed.
    """
    rays = channel.rays
    gains = pattern.gain(grid.angles[None, :] - rays.aoas[:, None])
    values = (rays.powers[:, None] * gains).sum(axis=0)
    if not values.min() > 0.0:
        raise ValueError(f"{channel.frequency:g} GHz band: filtered spectrum is zero at steering angle "
                         f"{grid.angles[np.argmin(values)]:g} deg, where every ray's power times its "
                         "gain underflowed")
    return FilteredPas(grid=grid, values=values)


def normalize_pas(pas: FilteredPas) -> NormalizedPas:
    """Scale a filtered spectrum to a unit-mass density (grid step as measure)."""
    mass = float(pas.values.sum()) * pas.grid.step_deg
    return NormalizedPas(grid=pas.grid, density=pas.values / mass)

