"""Dataset files: multi-band link collections on disk, and pairing on load.

The JSON layout is canonical::

    {
      "schema_version": "1",
      "metadata": {...},
      "links": [
        {"link_id": "...", "bands": [
          {"freq_ghz": 15.0,
           "paths": [{"power_db": -3.1, "delay_ns": 12.5, "aoa_deg": 41.0}]}
        ]}
      ]
    }

Angles are degrees in [0, 360), powers dB, delays ns; the in-memory model
uses linear power and seconds. A CSV mirror holds one path per row
(``link_id,freq_ghz,power_db,delay_ns,aoa_deg``); it drops metadata and
departure angles and cannot represent two same-frequency bands of one link.
Link ids are nonempty and unique in both formats.

Both readers build each checked path straight into a ``Ray`` and each band
into a ``BandChannel``. A file may carry more bands than any one analysis
uses, so loading takes the two band frequencies explicitly instead of
guessing from the file.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import sys
from pathlib import Path

from .channel import BandChannel, LinkPair, Ray
from .jsonio import dump
from .units import db_to_linear, linear_to_db

SCHEMA_VERSION = "1"
FREQ_MATCH_TOLERANCE_GHZ = 1e-6
_SKIPPED_IDS_SHOWN = 5  # link ids named in the skip warning, per missing band
_CSV_HEADER = ["link_id", "freq_ghz", "power_db", "delay_ns", "aoa_deg"]
_PATH_KEYS = ("power_db", "delay_ns", "aoa_deg", "aod_deg")  # aod_deg is optional, JSON only

logger = logging.getLogger(__name__)


class DatasetFormatError(ValueError):
    """A dataset file failed structural validation.

    The message names the offending location: a JSON field path such as
    ``links[2].bands[0].paths[1].aoa_deg``, or a CSV line and field such as
    ``links.csv:7.freq_ghz``. Writing raises it, naming the link, when the
    CSV mirror cannot hold a pair or a value would fail these checks on
    reload.
    """


def write_dataset(pairs: list[LinkPair], path, metadata: dict | None = None) -> None:
    """Write link pairs as a dataset file; format chosen by extension.

    Raises ``DatasetFormatError`` naming the link, and the path entry where
    there is one, before anything is written, when a value would not load
    back: an empty or repeated link id, a power whose ``power_db`` is zero,
    infinite or subnormal as a linear power, a delay infinite in ns, or (CSV
    only) a pair whose bands share a frequency or whose link id holds a
    carriage return or a surrogate.
    """
    seen_ids = set()
    for pair in pairs:
        if not isinstance(pair.link_id, str) or not pair.link_id or pair.link_id in seen_ids:
            raise DatasetFormatError(f"link {pair.link_id!r}: link ids must be nonempty and unique")
        seen_ids.add(pair.link_id)
    if Path(path).suffix.lower() == ".csv":
        _write_csv(pairs, path)
    else:
        dump(_to_file_dict(pairs, metadata), path)


def load_dataset(path, low_freq_ghz: float, high_freq_ghz: float) -> list[LinkPair]:
    """Load link pairs for the two requested band frequencies.

    For each link, the low band binds to the first band whose frequency
    matches ``low_freq_ghz`` within 1e-6 GHz and the high band to the last
    band matching ``high_freq_ghz``, so a link holding two bands at one
    frequency pairs them in file order and a single matching band pairs with
    itself. Links missing either frequency are skipped, summarized in one
    logged warning; structural problems raise ``DatasetFormatError``.
    """
    if not 0.0 < low_freq_ghz <= high_freq_ghz:
        raise ValueError("need 0 < low_freq_ghz <= high_freq_ghz")
    if Path(path).suffix.lower() == ".csv":
        links = _read_links_csv(path)
    else:
        links = _read_links_json(path)
    pairs = []
    skipped: dict[float, list[str]] = {}
    for link_id, bands in links:
        low_matches = [b for b in bands if abs(b.frequency - low_freq_ghz) <= FREQ_MATCH_TOLERANCE_GHZ]
        high_matches = [b for b in bands if abs(b.frequency - high_freq_ghz) <= FREQ_MATCH_TOLERANCE_GHZ]
        if not low_matches or not high_matches:
            missing = low_freq_ghz if not low_matches else high_freq_ghz
            skipped.setdefault(missing, []).append(link_id)
            continue
        pairs.append(LinkPair(low=low_matches[0], high=high_matches[-1], link_id=link_id))
    if skipped:
        groups = "; ".join(
            f"{len(ids)} with no band at {freq:.6g} GHz (first: {', '.join(ids[:_SKIPPED_IDS_SHOWN])})"
            for freq, ids in skipped.items()
        )
        logger.warning("%s: skipped %d of %d links: %s", path, len(links) - len(pairs), len(links), groups)
    return pairs


def _check_written_path(ray: Ray, link_id: str, where: str, *where_args) -> None:
    """Refuse a ray whose ``power_db`` or ``delay_ns`` would not load back.

    Names the link and ``where.format(*where_args)``, built only on failure.
    A power inside (1e-300, 1e300) reloads as a normal float and a delay
    below 1e290 s as a finite one, so only other rays run the loader's checks.
    """
    if not (1e-300 < ray.power < 1e300 and ray.delay < 1e290):
        _read_path(f"link {link_id!r}: " + where.format(*where_args),
                   float(linear_to_db(ray.power)), ray.delay * 1e9, ray.aoa_azimuth)


def _to_file_dict(pairs: list[LinkPair], metadata: dict | None) -> dict:
    links = []
    for i, pair in enumerate(pairs):
        bands = []
        for j, channel in enumerate((pair.low, pair.high)):
            paths = []
            for k, ray in enumerate(channel.rays):
                _check_written_path(ray, pair.link_id, "links[{}].bands[{}].paths[{}]", i, j, k)
                entry = {
                    "power_db": float(linear_to_db(ray.power)),
                    "delay_ns": ray.delay * 1e9,
                    "aoa_deg": ray.aoa_azimuth,
                }
                if ray.aod_azimuth is not None:
                    entry["aod_deg"] = ray.aod_azimuth
                paths.append(entry)
            bands.append({"freq_ghz": channel.frequency, "paths": paths})
        links.append({"link_id": pair.link_id, "bands": bands})
    return {"schema_version": SCHEMA_VERSION, "metadata": metadata or {}, "links": links}


def _write_csv(pairs: list[LinkPair], path) -> None:
    line = 1
    for pair in pairs:
        if abs(pair.low.frequency - pair.high.frequency) <= FREQ_MATCH_TOLERANCE_GHZ:
            raise DatasetFormatError(
                f"link {pair.link_id!r}: CSV cannot hold two bands at one frequency "
                f"({pair.low.frequency!r} and {pair.high.frequency!r} GHz); write JSON instead"
            )
        # csv.writer leaves "\r" unquoted under a "\n" terminator; UTF-8 has no surrogates
        if any(c == "\r" or "\ud800" <= c <= "\udfff" for c in pair.link_id):
            raise DatasetFormatError(
                f"link {pair.link_id!r}: CSV cannot hold a carriage return or a surrogate "
                "in a link_id; write JSON instead"
            )
        for channel in (pair.low, pair.high):
            for ray in channel.rays:
                line += 1
                _check_written_path(ray, pair.link_id, "{}:{}", path, line)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for pair in pairs:
            for channel in (pair.low, pair.high):
                for ray in channel.rays:
                    writer.writerow([
                        pair.link_id,
                        f"{float(channel.frequency)!r}",
                        f"{float(linear_to_db(ray.power))!r}",
                        f"{float(ray.delay * 1e9)!r}",
                        f"{float(ray.aoa_azimuth)!r}",
                    ])


def _fail(path: str, reason: str):
    raise DatasetFormatError(f"{path}: {reason}")


def _check_number(value, where: str, minimum=None, below=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(where, f"must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(where, f"must be >= {minimum}, got {value!r}")
    if below is not None and not value < below:
        _fail(where, f"must be < {below}, got {value!r}")
    return value


def _check_freq(value, where: str) -> float:
    freq = _check_number(value, where)
    if freq <= 0.0:
        _fail(where, f"must be > 0, got {freq!r}")
    return freq


def _read_path(where: str, power_db, delay_ns, aoa_deg, *aod_deg) -> Ray:
    power_db = _check_number(power_db, f"{where}.power_db")
    try:
        power = db_to_linear(power_db)
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power < math.inf:
        _fail(f"{where}.power_db", f"{power_db!r} dB is zero, infinite or subnormal as a linear power")
    delay_ns = _check_number(delay_ns, f"{where}.delay_ns", minimum=0.0)
    aoa_deg = _check_number(aoa_deg, f"{where}.aoa_deg", minimum=0.0, below=360.0)
    aod = [_check_number(a, f"{where}.aod_deg", minimum=0.0, below=360.0) for a in aod_deg]
    return Ray(power, delay_ns * 1e-9, aoa_deg, *aod)


def _read_links_json(path) -> list[tuple[str, list[BandChannel]]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        _fail(str(path), "top level must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        _fail(str(path), f"schema_version must be {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}")
    if not isinstance(doc.get("links"), list) or not doc["links"]:
        _fail(str(path), "links must be a nonempty array")
    links = []
    seen_ids = set()
    for i, link in enumerate(doc["links"]):
        where = f"links[{i}]"
        if not isinstance(link, dict) or set(link) != {"link_id", "bands"}:
            _fail(where, "expected an object with keys link_id, bands")
        link_id = link["link_id"]
        if not isinstance(link_id, str) or not link_id:
            _fail(f"{where}.link_id", "must be a nonempty string")
        if link_id in seen_ids:
            _fail(f"{where}.link_id", f"duplicate link_id {link_id!r}")
        seen_ids.add(link_id)
        if not isinstance(link["bands"], list) or not link["bands"]:
            _fail(f"{where}.bands", "must be a nonempty array")
        bands = []
        for j, band in enumerate(link["bands"]):
            bwhere = f"{where}.bands[{j}]"
            if not isinstance(band, dict) or set(band) != {"freq_ghz", "paths"}:
                _fail(bwhere, "expected an object with keys freq_ghz, paths")
            freq = _check_freq(band["freq_ghz"], f"{bwhere}.freq_ghz")
            if not isinstance(band["paths"], list) or not band["paths"]:
                _fail(f"{bwhere}.paths", "must be a nonempty array")
            rays = []
            for k, entry in enumerate(band["paths"]):
                pwhere = f"{bwhere}.paths[{k}]"
                if not isinstance(entry, dict):
                    _fail(pwhere, "expected an object")
                unknown = entry.keys() - _PATH_KEYS
                if unknown:
                    _fail(pwhere, f"unknown keys {sorted(unknown)}")
                for key in _PATH_KEYS[:3]:
                    if key not in entry:
                        _fail(pwhere, f"missing key {key!r}")
                rays.append(_read_path(pwhere, *(entry[key] for key in _PATH_KEYS if key in entry)))
            bands.append(BandChannel(freq, rays))
        links.append((link_id, bands))
    return links


def _read_links_csv(path) -> list[tuple[str, list[BandChannel]]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            _fail(f"{path}:1", "empty file")
        if header != _CSV_HEADER:
            _fail(f"{path}:1", f"header must be {','.join(_CSV_HEADER)!r}")
        # Rays keyed by (link_id, frequency); rows may arrive in any order
        # but first appearance fixes link and band order.
        links: dict[str, dict[float, list[Ray]]] = {}
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            if len(row) != len(_CSV_HEADER):
                _fail(where, f"expected {len(_CSV_HEADER)} fields, got {len(row)}")
            link_id = row[0]
            if not link_id:
                _fail(where, "link_id must be nonempty")
            try:
                numbers = [float(cell) for cell in row[1:]]
            except ValueError:
                _fail(where, f"non-numeric field in {row[1:]!r}")
            freq = _check_freq(numbers[0], f"{where}.freq_ghz")
            links.setdefault(link_id, {}).setdefault(freq, []).append(_read_path(where, *numbers[1:]))
    if not links:
        _fail(str(path), "no data rows")
    return [
        (link_id, [BandChannel(freq, rays) for freq, rays in bands.items()])
        for link_id, bands in links.items()
    ]
