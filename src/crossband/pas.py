"""Beam-filtered power angular spectra on a circular grid.

A discrete channel is turned into a spectrum by steering a beampattern to
every grid angle and collecting the gain-weighted sum of ray powers. Ray
arrival angles are never snapped to the grid: the pattern is evaluated at the
exact per-ray offset, so refining the grid reproduces coarse-grid values bit
for bit. One kernel, ``_weighted_gains``, weights each ray's gain by its power
over a rays x angles matrix: ``filter_pas`` sums its rows and, given an
``out`` array, copies the matrix there, so that the ``m2`` beam responses in
``beams`` take the square roots of its columns as tap amplitudes without
evaluating the pattern again. Normalizing a spectrum to unit mass (with the
grid step as the integration measure) makes it comparable as a probability
density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BandChannel
from .units import MIN_STEP_DEG, Rebuilt, read_only


@dataclass(frozen=True)
class AngularGrid(Rebuilt):
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
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_angles", read_only(np.arange(n) * self.step_deg))

    @property
    def n_points(self) -> int:
        return self._n

    @property
    def angles(self) -> np.ndarray:
        return self._angles


@dataclass(frozen=True, eq=False)
class FilteredPas(Rebuilt):
    """Beam-collected power versus steering angle, one value per grid angle."""

    grid: AngularGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} values for step {self.grid.step_deg}, "
                f"got shape {values.shape}"
            )
        values = read_only(values)
        if not 0.0 < values.min() <= values.max() < np.inf:
            raise ValueError("filtered spectrum values must be finite and strictly positive")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class NormalizedPas(Rebuilt):
    """Per-degree probability density over steering angle; unit total mass."""

    grid: AngularGrid
    density: np.ndarray

    def __post_init__(self):
        density = np.asarray(self.density, dtype=float)
        if density.shape != (self.grid.n_points,):
            raise ValueError("density length does not match the grid")
        density = read_only(density)
        if not 0.0 <= density.min() <= density.max() < np.inf:
            raise ValueError("densities must be finite and non-negative")
        mass = float(density.sum()) * self.grid.step_deg
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"density mass must be 1 within 1e-9, got {mass!r}")
        object.__setattr__(self, "density", density)


def _weighted_gains(channel: BandChannel, pattern, angles: np.ndarray) -> np.ndarray:
    """Each ray's power times the gain of the pattern steered to each angle.

    One row per ray, one column per steering angle: the pattern is evaluated
    once over the rays x angles matrix of exact offsets, and that fresh
    matrix is weighted in place. Each column depends only on its own angle,
    so a column equals, bit for bit, the one computed for that angle alone.
    """
    gains = pattern.gain(angles[None, :] - channel.rays.aoas[:, None])
    gains *= channel.rays.powers[:, None]
    return gains


def filter_pas(channel: BandChannel, pattern, grid: AngularGrid, *, out=None) -> FilteredPas:
    """Filter a discrete channel through a beampattern on a circular grid.

    For every grid angle the pattern is steered there and the ray powers are
    accumulated with the gain at the exact angular offset of each ray. The
    rows of ``_weighted_gains`` are summed along the ray axis, which adds
    them in ray order at every grid point. The result is bit for bit that of
    a per-ray ``values += power * pattern.gain(angles - aoa)`` loop.

    ``out``, when given, is a float array of shape ``(len(channel.rays),
    grid.n_points)`` that receives a copy of that weighted matrix, in any
    memory layout. The spectrum is summed from the kernel's own C-ordered
    matrix, so its bits do not depend on ``out``.

    Raises ValueError, naming the band and the first such steering angle,
    when a value is not positive because every ray's product underflowed.
    """
    weighted = _weighted_gains(channel, pattern, grid.angles)
    values = weighted.sum(axis=0)
    if out is not None:
        if out.shape != weighted.shape:
            raise ValueError(f"out must have shape {weighted.shape}, got {out.shape}")
        out[...] = weighted
    if not values.min() > 0.0:
        raise ValueError(f"{channel.frequency:g} GHz band: filtered spectrum is zero at steering angle "
                         f"{grid.angles[np.argmin(values)]:g} deg, where every ray's power times its "
                         "gain underflowed")
    return FilteredPas(grid=grid, values=values)


def normalize_pas(pas: FilteredPas) -> NormalizedPas:
    """Scale a filtered spectrum to a unit-mass density (grid step as measure)."""
    mass = float(pas.values.sum()) * pas.grid.step_deg
    return NormalizedPas(grid=pas.grid, density=pas.values / mass)

