"""Brute-force reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: plain Python loops over
scalars, one formula per line, no package helpers beyond the raw input data.
The equivalence tests assert agreement between these and the fast
implementations; keep this module free of imports from ``crossband`` so a bug
cannot hide in shared code.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import sys


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


def m2_walk_order(values, delta_th_db: float) -> list[int]:
    """Indices of the m2 candidates in the order the greedy gate walks them.

    Candidates lie within ``delta_th_db`` of the peak value; the walk takes
    them by descending value, the lower index first among equal values.
    """
    peak = max(values)
    candidates = [k for k in range(len(values)) if 10.0 * math.log10(values[k] / peak) >= -delta_th_db]
    return sorted(candidates, key=lambda k: (-values[k], k))


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


class DatasetRefused(ValueError):
    """A dataset file the reference loader refuses; the message is the loader's."""


def _refuse(where: str, reason: str):
    raise DatasetRefused(f"{where}: {reason}")


def _number(value, where: str, minimum=None, below=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _refuse(where, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        _refuse(where, "must be finite, got an integer too large for a float")
    if not math.isfinite(value):
        _refuse(where, f"must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        _refuse(where, f"must be >= {minimum}, got {value!r}")
    if below is not None and not value < below:
        _refuse(where, f"must be < {below}, got {value!r}")
    return value


def _frequency(value, where: str) -> float:
    freq = _number(value, where)
    if freq <= 0.0:
        _refuse(where, f"must be > 0, got {freq!r}")
    return freq


def _azimuth(angle: float) -> float:
    wrapped = angle % 360.0
    return wrapped if wrapped < 360.0 else 0.0


def _path(where: str, power_db, delay_ns, aoa_deg, *aod_deg) -> tuple:
    """One checked path as (linear power, delay in s, aoa, aod or None)."""
    power_db = _number(power_db, f"{where}.power_db")
    try:
        power = 10.0 ** (power_db / 10.0)
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power < math.inf:
        _refuse(f"{where}.power_db", f"{power_db!r} dB is zero, infinite or subnormal as a linear power")
    delay_ns = _number(delay_ns, f"{where}.delay_ns", minimum=0.0)
    aoa = _number(aoa_deg, f"{where}.aoa_deg", minimum=0.0, below=360.0)
    aods = [_number(a, f"{where}.aod_deg", minimum=0.0, below=360.0) for a in aod_deg]
    return (power, delay_ns * 1e-9, _azimuth(aoa), _azimuth(aods[0]) if aods else None)


def _links_json(path) -> list:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except ValueError as exc:
        raise DatasetRefused(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        _refuse(str(path), "top level must be an object")
    if doc.get("schema_version") != "1":
        _refuse(str(path), f"schema_version must be '1', got {doc.get('schema_version')!r}")
    if not isinstance(doc.get("links"), list) or not doc["links"]:
        _refuse(str(path), "links must be a nonempty array")
    keys = ("power_db", "delay_ns", "aoa_deg", "aod_deg")
    links = []
    seen = set()
    for i, link in enumerate(doc["links"]):
        where = f"links[{i}]"
        if not isinstance(link, dict) or set(link) != {"link_id", "bands"}:
            _refuse(where, "expected an object with keys link_id, bands")
        link_id = link["link_id"]
        if not isinstance(link_id, str) or not link_id:
            _refuse(f"{where}.link_id", "must be a nonempty string")
        if link_id in seen:
            _refuse(f"{where}.link_id", f"duplicate link_id {link_id!r}")
        seen.add(link_id)
        if not isinstance(link["bands"], list) or not link["bands"]:
            _refuse(f"{where}.bands", "must be a nonempty array")
        bands = []
        for j, band in enumerate(link["bands"]):
            bwhere = f"{where}.bands[{j}]"
            if not isinstance(band, dict) or set(band) != {"freq_ghz", "paths"}:
                _refuse(bwhere, "expected an object with keys freq_ghz, paths")
            freq = _frequency(band["freq_ghz"], f"{bwhere}.freq_ghz")
            if not isinstance(band["paths"], list) or not band["paths"]:
                _refuse(f"{bwhere}.paths", "must be a nonempty array")
            paths = []
            for k, entry in enumerate(band["paths"]):
                pwhere = f"{bwhere}.paths[{k}]"
                if not isinstance(entry, dict):
                    _refuse(pwhere, "expected an object")
                unknown = set(entry) - set(keys)
                if unknown:
                    _refuse(pwhere, f"unknown keys {sorted(unknown)}")
                for key in keys[:3]:
                    if key not in entry:
                        _refuse(pwhere, f"missing key {key!r}")
                paths.append(_path(pwhere, *(entry[key] for key in keys if key in entry)))
            bands.append((freq, paths))
        links.append((link_id, bands))
    return links


def _links_csv(path) -> list:
    header = ["link_id", "freq_ghz", "power_db", "delay_ns", "aoa_deg"]
    links = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = csv.reader(handle)
        first = next(rows, None)
        if first is None:
            _refuse(f"{path}:1", "empty file")
        if first != header:
            _refuse(f"{path}:1", f"header must be {','.join(header)!r}")
        first_line = 2
        for row in rows:  # a quoted field may span lines; a row is named by its first
            where = f"{path}:{first_line}"
            first_line = rows.line_num + 1
            if len(row) != len(header):
                _refuse(where, f"expected {len(header)} fields, got {len(row)}")
            if not row[0]:
                _refuse(where, "link_id must be nonempty")
            try:
                numbers = [float(cell) for cell in row[1:]]
            except ValueError:
                _refuse(where, f"non-numeric field in {row[1:]!r}")
            freq = _frequency(numbers[0], f"{where}.freq_ghz")
            links.setdefault(row[0], {}).setdefault(freq, []).append(_path(where, *numbers[1:]))
    if not links:
        _refuse(str(path), "no data rows")
    return [(link_id, list(bands.items())) for link_id, bands in links.items()]


def load_dataset(path, low_freq_ghz: float, high_freq_ghz: float) -> list:
    """Row-by-row reference of the dataset loader.

    Returns ``(link_id, low, high)`` per paired link, each band a
    ``(freq_ghz, paths)`` pair whose paths are ``_path`` tuples, or raises
    ``DatasetRefused`` with the message of the first bad entry in file order.
    """
    links = _links_csv(path) if str(path).lower().endswith(".csv") else _links_json(path)
    pairs = []
    for link_id, bands in links:
        low = [b for b in bands if abs(b[0] - low_freq_ghz) <= 1e-6]
        high = [b for b in bands if abs(b[0] - high_freq_ghz) <= 1e-6]
        if low and high:
            if low[0][0] > high[-1][0]:
                _refuse(str(path), f"link {link_id!r}: the low band at {low[0][0]!r} GHz "
                                   f"lies above the high band at {high[-1][0]!r} GHz")
            pairs.append((link_id, low[0], high[-1]))
    return pairs
