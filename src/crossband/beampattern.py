"""Azimuth antenna gain patterns used as angular filters.

Every pattern is normalized to a 0 dB peak at zero offset and evaluates gains
for arbitrary offsets, which are wrapped into (-180, 180] first. Absolute gain
is irrelevant to the similarity metrics (they are ratios of filtered powers),
so only the normalized shape matters.

Three kinds are provided. Each is built through its class alone, and each
default lives only in a class field; the command-line spec grammar
(``cli.parse_pattern_spec``) maps its keys onto those fields.

* ``Gpp3Pattern`` - parabolic main lobe with a hard floor,
  ``gain_db = -min(12 * (offset / hpbw)^2, a_max)``.
* ``UlaPattern`` - bore-sight array factor of an N-element uniform linear
  array inside the front half plane, constant floor behind it.
* ``TabulatedPattern`` - sampled gain table, interpolated linearly in the
  dB domain around the circle, whose samples at one direction must agree;
  ``pattern_from_csv`` loads one from a CSV file, read like a dataset CSV
  through ``jsonio.csv_rows``, which names each row by its line.

Angular steps and the ``gpp3`` beamwidth are at least ``units.MIN_STEP_DEG``.
A gain floor, and each normalized sample of a table, must be a normal float
as a linear power (``units.is_normal_power``: above about -3076.5 dB), the
rule ray powers follow, so no gain underflows to zero.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .jsonio import csv_rows, write_curve_csv
from .units import MIN_STEP_DEG, Rebuilt, db_to_linear, is_normal_power, linear_to_db, read_only, wrap_offset_deg

_HPBW_SCAN_STEP_DEG = 0.05
_HPBW_RESOLUTION_DEG = 0.01
_ULA_MAX_ELEMENTS = 4096
_ULA_MAX_SPACING = 1000.0
# Complex terms per block of a ULA gain evaluation: 16 MB.
_ULA_BLOCK_TERMS = 2**20


def _shaped(func, offset_deg):
    """Evaluate a vectorized gain function at the wrapped offsets, preserving the input's shape.

    Raises ValueError on a NaN or infinite offset, which has no direction;
    the check comes first, as an infinite offset would wrap to NaN.
    """
    x = np.atleast_1d(np.asarray(offset_deg, dtype=float))
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"pattern offsets must be finite, got {float(x[~finite][0])!r}")
    return func(wrap_offset_deg(x)).reshape(np.shape(offset_deg))


class _Pattern:
    """Gain evaluation shared by the pattern kinds.

    Each kind computes one form, ``_gain_vec`` (linear) or ``_gain_db_vec``
    (dB), on a 1-d array of offsets already wrapped into (-180, 180]; the
    other form converts from it.
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
    """Synthetic sector pattern: parabolic roll-off clipped at a floor.

    ``hpbw_deg`` lies in [``units.MIN_STEP_DEG``, 180], that is [0.01, 180]
    degrees, a fixed bound that keeps ``12 * (offset / hpbw)^2`` far from
    overflow.
    """

    hpbw_deg: float
    a_max_db: float = 30.0

    def __post_init__(self):
        if not MIN_STEP_DEG <= self.hpbw_deg <= 180.0:
            raise ValueError(f"hpbw_deg must be in [{MIN_STEP_DEG}, 180], got {self.hpbw_deg!r}")
        if not 0.0 < self.a_max_db < np.inf:
            raise ValueError(f"a_max_db must be finite and > 0, got {self.a_max_db!r}")
        # the floor through the same array pow as the main lobe's gains
        floor = db_to_linear(np.full(1, -self.a_max_db))[0]
        _check_floor(floor, "a_max_db", self.a_max_db)
        object.__setattr__(self, "_floor", floor)

    def _gain_db_vec(self, off):
        return -np.minimum(12.0 * (off / self.hpbw_deg) ** 2, self.a_max_db)

    def _gain_vec(self, off):
        """``db_to_linear(_gain_db_vec(off))`` bit for bit, with pow only inside the main lobe."""
        # 12.0 * (off / self.hpbw_deg) ** 2, the same operations in one buffer
        attenuation_db = np.divide(off, self.hpbw_deg)
        np.square(attenuation_db, out=attenuation_db)
        attenuation_db *= 12.0
        lobe = attenuation_db < self.a_max_db
        out = np.full(off.shape, self._floor)
        out[lobe] = db_to_linear(-attenuation_db[lobe])
        return out


@dataclass(frozen=True)
class UlaPattern(_Pattern):
    """Bore-sight beam of a uniform linear array with isotropic elements.

    Front half plane (|offset| <= 90 deg) carries the normalized array factor
    ``|sum_n exp(j*2*pi*spacing*n*sin(offset))|^2 / n_elements^2``; the back
    half plane is a constant floor. Sidelobes are kept exactly as the array
    factor gives them, with no clipping. ``n_elements`` is an integer from 2
    to 4096, and ``spacing_wavelengths`` lies in (0, 1000], fixed bounds that
    keep every phase ``2*pi*spacing*(n_elements - 1)`` finite. A gain
    evaluation builds ``(n_elements, offsets)`` arrays over blocks of the
    front-half-plane offsets, each of at most 2**20 complex terms (16 MB).
    """

    n_elements: int
    spacing_wavelengths: float = 0.5
    backplane_floor_db: float = -60.0

    def __post_init__(self):
        # % 1 is nan for inf and nan, where int() would raise
        if not (2 <= self.n_elements <= _ULA_MAX_ELEMENTS and self.n_elements % 1 == 0):
            raise ValueError(
                f"n_elements must be an integer in [2, {_ULA_MAX_ELEMENTS}], got {self.n_elements!r}"
            )
        object.__setattr__(self, "n_elements", int(self.n_elements))
        if not 0.0 < self.spacing_wavelengths <= _ULA_MAX_SPACING:
            raise ValueError(f"spacing_wavelengths must be in (0, {_ULA_MAX_SPACING:g}], "
                             f"got {self.spacing_wavelengths!r}")
        if not -np.inf < self.backplane_floor_db < 0.0:
            raise ValueError(
                f"backplane_floor_db must be finite and < 0, got {self.backplane_floor_db!r}"
            )
        _check_floor(db_to_linear(self.backplane_floor_db), "backplane_floor_db",
                     self.backplane_floor_db)

    def _gain_vec(self, off):
        out = np.full(off.shape, db_to_linear(self.backplane_floor_db))
        front = np.abs(off) <= 90.0
        base = 2.0 * np.pi * self.spacing_wavelengths * np.sin(np.deg2rad(off[front]))
        gains = np.empty(base.shape)
        width = _ULA_BLOCK_TERMS // self.n_elements
        # each column sums on its own, so the blocks change no bit
        for start in range(0, len(base), width):
            gains[start:start + width] = self._array_factor(base[start:start + width])
        out[front] = gains
        return out

    def _array_factor(self, base):
        """``|sum_n exp(j*n*base)|^2 / n_elements^2`` for a 1-d block of base phases."""
        # Row n holds exp(j*n*base); row 0 is exactly 1 since cos(0) = 1 and
        # sin(0) = 0. The real cos/sin rows equal the parts of the complex
        # exponential bit for bit and cost less than np.exp on complex input.
        terms = np.empty((self.n_elements,) + base.shape, dtype=complex)
        terms[0] = 1.0
        phase = np.arange(1, self.n_elements)[:, None] * base
        np.cos(phase, out=terms[1:].real)
        np.sin(phase, out=terms[1:].imag)
        return np.abs(_sum_rows_pairwise(terms)) ** 2 / self.n_elements**2


def _check_floor(floor: float, name: str, value: float) -> None:
    """Refuse a linear gain floor that is not a normal float, naming the setting behind it."""
    if not is_normal_power(floor):
        raise ValueError(f"{name} must keep the gain floor a normal float as a linear power "
                         f"(above about -3076.5 dB), got {value!r}")


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
class TabulatedPattern(Rebuilt, _Pattern):
    """Gain table over (-180, 180], interpolated linearly in dB.

    Samples are normalized so the strongest sample is 0 dB; the peak must sit
    at zero offset, as for the synthesized kinds. Offsets are wrapped first,
    so -180 and 180 are one direction: samples at one direction collapse to
    one when their gains are equal and raise ValueError when they differ.
    At least two directions must remain after that.
    """

    offsets_deg: np.ndarray
    gains_db: np.ndarray

    def __post_init__(self):
        offsets = wrap_offset_deg(np.asarray(self.offsets_deg, dtype=float))
        gains = np.asarray(self.gains_db, dtype=float)
        if offsets.ndim != 1 or offsets.shape != gains.shape:
            raise ValueError("offsets and gains must be 1-d arrays of equal length")
        if not np.all(np.isfinite(offsets)) or not np.all(np.isfinite(gains)):
            raise ValueError("tabulated pattern samples must be finite")
        order = np.argsort(offsets, kind="stable")
        offsets, gains = offsets[order], gains[order]
        keep = np.diff(offsets, prepend=-math.inf) != 0.0  # the first sample at each direction
        clash = np.flatnonzero(~keep[1:] & (gains[1:] != gains[:-1]))
        if len(clash):
            k = clash[0]
            raise ValueError(f"tabulated pattern has two gains at offset {float(offsets[k])!r} deg: "
                             f"{float(gains[k])!r} and {float(gains[k + 1])!r} dB")
        offsets, gains = offsets[keep], gains[keep]
        if len(offsets) < 2:
            raise ValueError("a tabulated pattern needs at least two samples")
        gains = gains - gains.max()
        low = np.flatnonzero(~is_normal_power(db_to_linear(gains)))
        if len(low):
            k = low[0]
            raise ValueError(f"tabulated pattern gain {float(gains[k])!r} dB (normalized) at offset "
                             f"{float(offsets[k])!r} deg is not a normal float as a linear power "
                             f"(above about -3076.5 dB)")
        object.__setattr__(self, "offsets_deg", read_only(offsets))
        object.__setattr__(self, "gains_db", read_only(gains))
        if abs(float(self.gain_db(0.0))) > 1e-9:
            raise ValueError("tabulated pattern peak must sit at 0 deg offset")

    def _gain_db_vec(self, off):
        return np.interp(off, self.offsets_deg, self.gains_db, period=360.0)


def hpbw(pattern) -> float:
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


def pattern_to_csv(pattern, path, step_deg: float) -> None:
    """Tabulate a pattern to a two-column curve CSV (offset_deg, gain_db).

    The step must divide 360 and lie in [``units.MIN_STEP_DEG``, 90], that
    is [0.01, 90] deg; offsets run from -180 to +180 inclusive.
    """
    if not step_deg >= MIN_STEP_DEG:
        raise ValueError(f"step_deg must be >= {MIN_STEP_DEG}, got {step_deg!r}")
    if not step_deg <= 90.0:
        raise ValueError(f"step_deg must be at most 90, got {step_deg!r}")
    n = round(360.0 / step_deg)
    if abs(n * step_deg - 360.0) > 1e-9:
        raise ValueError(f"step_deg must divide 360, got {step_deg!r}")
    offsets = np.linspace(-180.0, 180.0, n + 1)
    write_curve_csv(path, "offset_deg,gain_db", zip(offsets, pattern.gain_db(offsets)))


def pattern_from_csv(path) -> TabulatedPattern:
    """Load a tabulated pattern from a two-column CSV (offset_deg, gain_db).

    Rows whose fields are all blank are skipped, and line 1 is a header when
    neither of its two fields is a finite number. Every other row must be
    exactly two finite numbers; a row that is not, or a file
    ``jsonio.csv_rows`` cannot read, raises ValueError as
    ``<path>:<line>: <reason>``. A ValueError from ``TabulatedPattern`` is
    raised again as ``<path>: <reason>``; that covers a file with fewer
    than two samples (``<path>: a tabulated pattern needs at least two
    samples``).
    """
    offsets, gains = [], []
    with closing(csv_rows(path)) as rows:
        for line, row in rows:
            if not "".join(row).strip():
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{line}: expected two fields, got {len(row)}")
            numbers = [_finite_or_none(field) for field in row]
            if line == 1 and numbers == [None, None]:
                continue  # header row
            if None in numbers:
                raise ValueError(f"{path}:{line}: expected two finite numbers, got {row!r}")
            offsets.append(numbers[0])
            gains.append(numbers[1])
    try:
        return TabulatedPattern(np.asarray(offsets), np.asarray(gains))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _finite_or_none(field: str) -> float | None:
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None
