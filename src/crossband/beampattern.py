"""Azimuth antenna gain patterns used as angular filters.

Every pattern is normalized to a 0 dB peak at zero offset and evaluates gains
for arbitrary offsets, which are wrapped into (-180, 180] first. Absolute gain
is irrelevant to the similarity metrics (they are ratios of filtered powers),
so only the normalized shape matters.

Three kinds are provided:

* ``Gpp3Pattern`` - parabolic main lobe with a hard floor,
  ``gain_db = -min(12 * (offset / hpbw)^2, a_max)``.
* ``UlaPattern`` - bore-sight array factor of an N-element uniform linear
  array inside the front half plane, constant floor behind it.
* ``TabulatedPattern`` - sampled gain table, interpolated linearly in the
  dB domain around the circle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .units import db_to_linear, linear_to_db, wrap_offset_deg

_HPBW_SCAN_STEP_DEG = 0.05
_HPBW_RESOLUTION_DEG = 0.01


def _shaped(func, offset_deg):
    """Evaluate a vectorized gain function, preserving the input's shape."""
    x = np.atleast_1d(np.asarray(offset_deg, dtype=float))
    return func(x).reshape(np.shape(offset_deg))


class _Pattern:
    """Gain evaluation shared by the pattern kinds.

    Each kind computes one form, ``_gain_vec`` (linear) or ``_gain_db_vec``
    (dB), on a 1-d array of offsets; the other form converts from it.
    """

    def gain(self, offset_deg):
        """Linear gain at each offset, in the shape of the input."""
        return _shaped(self._gain_vec, offset_deg)

    def gain_db(self, offset_deg):
        """Gain in dB at each offset, in the shape of the input."""
        return _shaped(self._gain_db_vec, offset_deg)

    def _gain_vec(self, x):
        return db_to_linear(self._gain_db_vec(x))

    def _gain_db_vec(self, x):
        return linear_to_db(self._gain_vec(x))


@dataclass(frozen=True)
class Gpp3Pattern(_Pattern):
    """Synthetic sector pattern: parabolic roll-off clipped at a floor."""

    hpbw_deg: float
    a_max_db: float

    kind = "gpp3"

    def __post_init__(self):
        if not 0.0 < self.hpbw_deg <= 180.0:
            raise ValueError(f"hpbw_deg must be in (0, 180], got {self.hpbw_deg!r}")
        if not self.a_max_db > 0.0:
            raise ValueError(f"a_max_db must be > 0, got {self.a_max_db!r}")

    def _gain_db_vec(self, x):
        off = wrap_offset_deg(x)
        return -np.minimum(12.0 * (off / self.hpbw_deg) ** 2, self.a_max_db)


@dataclass(frozen=True)
class UlaPattern(_Pattern):
    """Bore-sight beam of a uniform linear array with isotropic elements.

    Front half plane (|offset| <= 90 deg) carries the normalized array factor
    ``|sum_n exp(j*2*pi*spacing*n*sin(offset))|^2 / n_elements^2``; the back
    half plane is a constant floor. Sidelobes are kept exactly as the array
    factor gives them, with no clipping.
    """

    n_elements: int
    spacing_wavelengths: float = 0.5
    backplane_floor_db: float = -60.0

    kind = "ula"

    def __post_init__(self):
        if int(self.n_elements) != self.n_elements or self.n_elements < 2:
            raise ValueError(f"n_elements must be an integer >= 2, got {self.n_elements!r}")
        object.__setattr__(self, "n_elements", int(self.n_elements))
        if not self.spacing_wavelengths > 0.0:
            raise ValueError(f"spacing_wavelengths must be > 0, got {self.spacing_wavelengths!r}")
        if not self.backplane_floor_db < 0.0:
            raise ValueError(f"backplane_floor_db must be < 0, got {self.backplane_floor_db!r}")

    def _gain_vec(self, x):
        off = wrap_offset_deg(x)
        out = np.full(off.shape, db_to_linear(self.backplane_floor_db))
        front = np.abs(off) <= 90.0
        base = 2.0 * np.pi * self.spacing_wavelengths * np.sin(np.deg2rad(off[front]))
        # Row n holds exp(j*n*base); row 0 is exactly 1 since cos(0) = 1 and
        # sin(0) = 0. The real cos/sin rows equal the parts of the complex
        # exponential bit for bit and cost less than np.exp on complex input.
        terms = np.empty((self.n_elements,) + base.shape, dtype=complex)
        terms[0] = 1.0
        phase = np.arange(1, self.n_elements)[:, None] * base
        np.cos(phase, out=terms[1:].real)
        np.sin(phase, out=terms[1:].imag)
        out[front] = np.abs(_sum_rows_pairwise(terms)) ** 2 / self.n_elements**2
        return out


def _sum_rows_pairwise(terms):
    """Sum the rows of a 2-d array, overwriting it, in numpy's pairwise order.

    The additions follow numpy's pairwise summation of a contiguous complex
    row, so the result equals ``terms.T.sum(axis=-1)`` bit for bit: below 4
    items they run in order; up to 64 items lane ``j`` of 4 accumulates rows
    ``j, j+4, ...`` in order, the lanes combine as ``(l0+l1)+(l2+l3)`` and
    the leftover rows follow in order; larger blocks split at a multiple of 4
    near the middle and add the two halves' sums. The one difference: numpy
    adds the total to +0.0, so where every term is -0.0 it returns +0.0 and
    this returns -0.0, a sign that ``abs`` discards.
    """
    n = len(terms)
    if n > 64:
        half = n // 2 - (n // 2) % 4
        return _sum_rows_pairwise(terms[:half]) + _sum_rows_pairwise(terms[half:])
    acc = terms[0]
    if n < 4:
        rest = terms[1:]
    else:
        blocked = n - n % 4
        for k in range(4, blocked, 4):
            terms[:4] += terms[k:k + 4]
        acc += terms[1]
        terms[2] += terms[3]
        acc += terms[2]
        rest = terms[blocked:]
    for row in rest:
        acc += row
    return acc


@dataclass(frozen=True, eq=False)
class TabulatedPattern(_Pattern):
    """Gain table over (-180, 180], interpolated linearly in dB.

    Samples are normalized so the strongest sample is 0 dB; the peak must sit
    at zero offset, as for the synthesized kinds.
    """

    offsets_deg: np.ndarray
    gains_db: np.ndarray

    kind = "tabulated"

    def __post_init__(self):
        offsets = wrap_offset_deg(np.asarray(self.offsets_deg, dtype=float))
        gains = np.asarray(self.gains_db, dtype=float)
        if offsets.ndim != 1 or offsets.shape != gains.shape:
            raise ValueError("offsets and gains must be 1-d arrays of equal length")
        if len(offsets) < 2:
            raise ValueError("a tabulated pattern needs at least two samples")
        if not np.all(np.isfinite(offsets)) or not np.all(np.isfinite(gains)):
            raise ValueError("tabulated pattern samples must be finite")
        order = np.argsort(offsets, kind="stable")
        offsets, gains = offsets[order], gains[order]
        keep = np.ones(len(offsets), dtype=bool)
        keep[1:] = np.diff(offsets) != 0.0
        offsets, gains = offsets[keep], gains[keep]
        gains = gains - gains.max()
        offsets.flags.writeable = False
        gains.flags.writeable = False
        object.__setattr__(self, "offsets_deg", offsets)
        object.__setattr__(self, "gains_db", gains)
        if abs(float(self.gain_db(0.0))) > 1e-9:
            raise ValueError("tabulated pattern peak must sit at 0 deg offset")

    def _gain_db_vec(self, x):
        off = wrap_offset_deg(x)
        return np.interp(off, self.offsets_deg, self.gains_db, period=360.0)


Beampattern = Gpp3Pattern | UlaPattern | TabulatedPattern


def synth_3gpp(hpbw_deg: float, a_max_db: float) -> Gpp3Pattern:
    """Synthesize the parabolic sector pattern; -3 dB at exactly +-hpbw/2."""
    return Gpp3Pattern(hpbw_deg=float(hpbw_deg), a_max_db=float(a_max_db))


def synth_ula(
    n_elements: int,
    spacing_wavelengths: float = 0.5,
    backplane_floor_db: float = -60.0,
) -> UlaPattern:
    """Synthesize a bore-sight uniform linear array pattern."""
    return UlaPattern(
        n_elements=n_elements,
        spacing_wavelengths=float(spacing_wavelengths),
        backplane_floor_db=float(backplane_floor_db),
    )


def hpbw(pattern: Beampattern) -> float:
    """Half-power beamwidth of the main lobe at 0 deg.

    Full width between the two -3 dB crossings nearest zero offset, each
    located by outward scan plus bisection to 0.01 deg resolution. Raises
    ValueError when the pattern never drops 3 dB below its peak.
    """
    return _crossing_distance(pattern, +1.0) + _crossing_distance(pattern, -1.0)


def _crossing_distance(pattern, direction):
    xs = np.arange(_HPBW_SCAN_STEP_DEG, 180.0 + _HPBW_SCAN_STEP_DEG, _HPBW_SCAN_STEP_DEG)
    below = np.asarray(pattern.gain_db(direction * xs)) <= -3.0
    if not below.any():
        raise ValueError("no -3 dB crossing: pattern stays above half power everywhere")
    k = int(np.argmax(below))
    lo = xs[k - 1] if k > 0 else 0.0
    hi = xs[k]
    while hi - lo > _HPBW_RESOLUTION_DEG:
        mid = 0.5 * (lo + hi)
        if float(pattern.gain_db(direction * mid)) <= -3.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def pattern_to_csv(pattern: Beampattern, path, step_deg: float = 0.1) -> None:
    """Tabulate a pattern to a two-column CSV (offset_deg, gain_db).

    The step must divide 360; offsets run from -180 to +180 inclusive.
    """
    n = round(360.0 / step_deg)
    if n < 4 or abs(n * step_deg - 360.0) > 1e-9:
        raise ValueError(f"step_deg must divide 360, got {step_deg!r}")
    offsets = np.linspace(-180.0, 180.0, n + 1)
    gains = np.asarray(pattern.gain_db(offsets), dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["offset_deg", "gain_db"])
        for off, g in zip(offsets, gains):
            writer.writerow([f"{off:.12g}", f"{g:.12g}"])


def pattern_from_csv(path) -> TabulatedPattern:
    """Load a tabulated pattern from a two-column CSV (offset_deg, gain_db)."""
    offsets, gains = [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not row[0].strip():
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: line {lineno}: expected two columns")
            try:
                off, g = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"{path}: line {lineno}: non-numeric sample") from None
            offsets.append(off)
            gains.append(g)
    if len(offsets) < 2:
        raise ValueError(f"{path}: fewer than two pattern samples")
    return TabulatedPattern(np.asarray(offsets), np.asarray(gains))
