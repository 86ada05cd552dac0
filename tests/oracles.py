"""Brute-force reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: plain Python loops over
scalars, one formula per line, no package helpers beyond the raw input data.
The equivalence tests assert agreement between these and the fast
implementations; keep this module free of imports from ``crossband`` so a bug
cannot hide in shared code.
"""

from __future__ import annotations

import cmath
import math


def wrap_offset(offset_deg: float) -> float:
    """Map an angular offset into (-180, 180]."""
    return 180.0 - (180.0 - offset_deg) % 360.0


def gpp3_gain(offset_deg: float, hpbw_deg: float, a_max_db: float) -> float:
    """Linear gain of the parabolic sector pattern at one offset."""
    off = wrap_offset(offset_deg)
    attenuation = 12.0 * (off / hpbw_deg) ** 2
    if attenuation > a_max_db:
        attenuation = a_max_db
    return 10.0 ** (-attenuation / 10.0)


def ula_gain(offset_deg: float, n_elements: int, spacing: float, floor_db: float) -> float:
    """Linear gain of the bore-sight array pattern at one offset."""
    off = wrap_offset(offset_deg)
    if abs(off) > 90.0:
        return 10.0 ** (floor_db / 10.0)
    base = 2.0 * math.pi * spacing * math.sin(math.radians(off))
    factor = 0j
    for k in range(n_elements):
        factor += cmath.exp(1j * (base * k))
    return abs(factor) ** 2 / n_elements**2


def filter_values(rays, gain_of, angles) -> list[float]:
    """Filtered spectrum values: for each angle, sum power * gain per ray.

    ``rays`` is a sequence of (power, aoa_deg) pairs; ``gain_of`` maps an
    unwrapped offset to linear gain. Accumulation runs in ray order at each
    angle, matching the contract that ray order fixes summation order.
    """
    out = []
    for angle in angles:
        total = 0.0
        for power, aoa in rays:
            total += power * gain_of(angle - aoa)
        out.append(total)
    return out


def total_variation(density_a, density_b, step_deg: float) -> float:
    """Half the accumulated absolute density difference times the step."""
    acc = 0.0
    for a, b in zip(density_a, density_b):
        acc += abs(a - b)
    return 0.5 * acc * step_deg


def local_maxima(values) -> list[int]:
    """Circular local maxima, one canonical index per flat run.

    Walks outward from every index to find its run of equal values, checks
    the values flanking that run, and keeps the index only when it is the
    run's central element (lower-middle for even runs). A fully constant
    sequence yields index 0.
    """
    n = len(values)
    if all(v == values[0] for v in values):
        return [0]
    kept = []
    for i in range(n):
        left = i
        while values[(left - 1) % n] == values[i]:
            left -= 1
        right = i
        while values[(right + 1) % n] == values[i]:
            right += 1
        is_peak = values[(left - 1) % n] < values[i] and values[(right + 1) % n] < values[i]
        center = (left + (right - left) // 2) % n
        if is_peak and i == center:
            kept.append(i)
    return sorted(kept)


def beam_response(rays, gain_of, steer_deg: float, freqs_hz) -> list[complex]:
    """Frequency response of a steered beam, one complex value per frequency.

    ``rays`` is a sequence of (power, aoa_deg, delay_s) triples; each tap has
    amplitude sqrt(power * gain) and rotates with its delay over frequency.
    """
    out = []
    for f in freqs_hz:
        total = 0j
        for power, aoa, delay in rays:
            amplitude = math.sqrt(power * gain_of(steer_deg - aoa))
            total += amplitude * cmath.exp(-2j * math.pi * delay * f)
        out.append(total)
    return out


def greedy_gate(rows, threshold: float) -> list[int]:
    """Indices of rows accepted by the greedy correlation gate.

    Rows are complex sequences in walk order. Row 0 is accepted; each later
    row is accepted when its normalized inner product with every accepted
    row stays below ``threshold``.
    """
    norms = [math.sqrt(sum(abs(x) ** 2 for x in row)) for row in rows]
    accepted = [0]
    for i in range(1, len(rows)):
        passes = True
        for a in accepted:
            inner = 0j
            for x, y in zip(rows[a], rows[i]):
                inner += x.conjugate() * y
            if abs(inner) / (norms[a] * norms[i]) >= threshold:
                passes = False
                break
        if passes:
            accepted.append(i)
    return accepted


def select_directions(values, delta_th_db: float) -> list[int]:
    """Indices of local maxima within the relative power threshold."""
    peak = max(values)
    kept = []
    for index in local_maxima(values):
        if 10.0 * math.log10(values[index] / peak) >= -delta_th_db:
            kept.append(index)
    return kept


def power_ratio_db(low_indices, high_indices, values) -> float:
    """Ratio of summed spectrum values over two index sets, in dB."""
    numerator = 0.0
    for i in low_indices:
        numerator += values[i]
    denominator = 0.0
    for i in high_indices:
        denominator += values[i]
    return 10.0 * math.log10(numerator / denominator)


def count_false(low_indices, high_indices, values, delta_p_db: float) -> int:
    """Members of the low set below the threshold relative to the best high one."""
    best = max(values[i] for i in high_indices)
    count = 0
    for i in low_indices:
        if 10.0 * math.log10(values[i] / best) < delta_p_db:
            count += 1
    return count
