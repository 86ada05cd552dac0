"""Spectrum-overlap similarity: total variation distance and its percentage form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkPair
from .pas import AngularGrid, NormalizedPas, filter_pas, normalize_pas


@dataclass(frozen=True)
class PspResult:
    """Total variation distance; ``psp_percent`` is the equivalent ``(1 - d_tv) * 100``."""

    d_tv: float

    def __post_init__(self):
        if not 0.0 <= self.d_tv <= 1.0:
            raise ValueError(f"d_tv must be in [0, 1], got {self.d_tv!r}")

    @property
    def psp_percent(self) -> float:
        return (1.0 - self.d_tv) * 100.0

    def to_dict(self) -> dict:
        return {"d_tv": self.d_tv, "psp_percent": self.psp_percent}


def total_variation(a: NormalizedPas, b: NormalizedPas) -> float:
    """Total variation distance between two unit-mass angular densities.

    Half the absolute pointwise difference integrated over the circle with
    the grid step as measure; both inputs must share the same grid.
    """
    if a.grid != b.grid:
        raise ValueError(f"mismatched grids: step {a.grid.step_deg} vs {b.grid.step_deg}")
    d = 0.5 * float(np.abs(a.density - b.density).sum()) * a.grid.step_deg
    return min(max(d, 0.0), 1.0)


def psp(a: NormalizedPas, b: NormalizedPas) -> PspResult:
    """Similarity percentage, 100 * (1 - total variation distance)."""
    d = total_variation(a, b)
    return PspResult(d_tv=d)


def pair_psp(pair: LinkPair, pattern, grid: AngularGrid) -> PspResult:
    """Full overlap pipeline for a link pair: filter both bands, normalize, compare.

    One pattern filters both bands; ``analyze_pair`` reports the overlap
    under band-specific patterns.
    """
    low = normalize_pas(filter_pas(pair.low, pattern, grid))
    high = normalize_pas(filter_pas(pair.high, pattern, grid))
    return psp(low, high)
