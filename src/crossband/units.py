"""Scalar conversions used throughout the package: dB scales and angle wrapping."""

from __future__ import annotations

import numpy as np


def db_to_linear(value_db):
    """Power quantity from dB to linear scale; works on scalars and arrays."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value):
    """Linear power ratio to dB."""
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
    """
    r = np.fmod(180.0 - offset_deg, 360.0)
    return 180.0 - np.where(r < 0.0, r + 360.0, r)


def wrap_azimuth_deg(angle_deg: float) -> float:
    """Wrap an azimuth into [0, 360) degrees.

    A negative angle too small for ``angle + 360`` to fall below 360 wraps
    to 0, its nearest point on the circle, not to 360.
    """
    wrapped = float(angle_deg) % 360.0
    return wrapped if wrapped < 360.0 else 0.0
