"""The rules every layer shares: dB scales and ratios, angle wrapping, the
normal-power rule and the freeze of checked arrays.

``db_to_linear`` turns a dB power that overflows a float into inf, on a
scalar as on an array. ``linear_to_db`` is the one way back, for the
selection and false-direction thresholds, the power ratio, pattern gains and
dataset powers: libm's ``math.log10`` for a Python float, numpy's
``np.log10`` otherwise. As with ``**`` in ``db_to_linear``, numpy's form
differs from libm's in the last bits of some values, so each caller keeps
its bits by the kind of value it passes.

``read_only`` is the one way a checked array is frozen: ray columns, filtered
and normalized spectra, the steering grid and tabulated patterns all hold
copies over immutable bytes. ``Rebuilt`` is the one rule by which such an
object is copied or pickled: the spectra, the grid and tabulated patterns
inherit it, so a copy goes through the constructor's checks and is frozen
again. ``RayTable`` is the exception: its constructor takes ``Ray``s and
would drop the file columns a table keeps, so it refreezes its columns
itself.

``MIN_STEP_DEG``, 0.01 deg, is the finest angular step the package takes:
for a steering grid, for a tabulated pattern file, and as the narrowest
``Gpp3Pattern`` beamwidth. It is ten times finer than any step in use and
keeps every per-step array within a few tens of thousands of points.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields

import numpy as np

MIN_STEP_DEG = 0.01


def db_to_linear(value_db):
    """Power quantity from dB to linear scale; works on scalars and arrays.

    A power too large for a float is inf: an array's ``**`` gives inf, and
    a Python float's, which raises OverflowError, is caught here.

    On an array, ``**`` is numpy's vectorized power, which is not libm's
    scalar ``pow`` bit for bit: on this package's dB ranges about one value
    in twenty comes out one ulp apart. Ray powers therefore go through
    ``db_to_linear_each``, one scalar at a time, so that dataset files and
    generated links keep their bits.
    """
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


def db_to_linear_each(values_db: np.ndarray) -> np.ndarray:
    """``db_to_linear`` of each float64 value, one Python float at a time."""
    values = memoryview(values_db)  # yields Python floats, with no list of them
    return np.fromiter(map(db_to_linear, values), float, len(values))


def read_only(values: np.ndarray) -> np.ndarray:
    """A read-only 1-d float64 copy of ``values`` over immutable bytes.

    Neither it, its views nor anything along its ``base`` chain can be made
    writeable again; the price is one copy. Values of another dtype, such as
    the int64 product of a whole-number grid step, are converted first, never
    reinterpreted. The copy is flattened, so callers check the shape before
    and the values after.
    """
    return np.frombuffer(np.asarray(values, dtype=float).tobytes(), dtype=float)


class Rebuilt:
    """Base of the frozen dataclasses that hold ``read_only`` arrays.

    ``copy.copy``, ``copy.deepcopy`` and pickle rebuild an instance by calling
    its class on its field values in field order, so the copy passes the
    constructor's checks and its arrays are frozen again, byte-equal.
    """

    def __reduce__(self):
        return type(self), tuple(getattr(self, field.name) for field in fields(self))


def is_normal_power(power):
    """Whether a linear power is a finite normal float; works on scalars and arrays.

    That is at least ``sys.float_info.min``, about -3076.5 dB, and below
    inf; NaN is not. Ray powers, pattern gain floors and tabulated gains
    follow this rule, so none underflows to zero or to a subnormal.
    """
    return (power >= sys.float_info.min) & (power < math.inf)


def linear_to_db(value):
    """Power ratio from linear to dB scale; works on scalars and arrays.

    A Python float, ``np.float64`` included, goes through libm's scalar
    ``math.log10``, which raises ValueError at or below zero; anything else
    through numpy's ``np.log10``. The two are not bit for bit equal: on
    uniform values in (0, 1) about one dB result in six differs in its last
    bits, so each caller keeps its bits by the kind of value it passes.
    """
    if isinstance(value, float):
        return 10.0 * math.log10(value)
    return 10.0 * np.log10(value)


def wrap_offset_deg(offset_deg):
    """Wrap an angular offset into (-180, 180] degrees, or to exactly -180.

    Bit for bit ``180 - (180 - offset_deg) % 360``: ``fmod`` plus one
    correction of negative remainders gives the same floor-mod result at a
    fraction of the cost of ``np.remainder``. Returns an array.

    An offset a hair above 180 (mod 360), such as ``np.nextafter(180, 200)``,
    leaves a remainder that rounds up to 360 and so maps to -180.0, not to
    180. The two are the same direction, so every pattern gives the same gain
    there; the floor-mod form does the same, and the pattern kernels keep it
    to stay bit-identical to that form.

    Fast path: when every ``y = 180 - offset_deg`` lies in [-360, 720),
    ``fmod(y, 360)`` is ``y`` below 360 and ``y - 360`` from 360 up, a
    subtraction Sterbenz's lemma makes exact, so one masked subtract gives
    its bits. ``y = -360`` leaves -360 where ``fmod`` gives -0.0, and both
    wrap to 180.0. Every offset ``filter_pas`` and the ``m2`` responses build,
    a grid angle minus an azimuth in [0, 360), takes this path; an offset
    beyond one turn, or one that is not finite, keeps ``fmod``. The work is
    done in one buffer.
    """
    x = np.asarray(offset_deg, dtype=float)
    y = np.subtract(180.0, x, out=np.empty_like(x))
    if y.size and -360.0 <= y.min() and y.max() < 720.0:
        np.subtract(y, 360.0, out=y, where=y >= 360.0)
    else:
        np.fmod(y, 360.0, out=y)
    np.add(y, 360.0, out=y, where=y < 0.0)
    return np.subtract(180.0, y, out=y)


def wrap_azimuths_deg(angles_deg) -> np.ndarray:
    """Wrap finite azimuths into [0, 360) degrees; a scalar gives a 0-d array.

    ``np.remainder`` is Python's float ``%``. A negative angle too small for
    ``angle + 360`` to fall below 360 leaves 360.0, which wraps to 0, its
    nearest point on the circle. A value that is not finite gives NaN, so a
    caller that checks after wrapping still sees it.
    """
    r = np.remainder(angles_deg, 360.0)
    return np.where(r == 360.0, 0.0, r)
