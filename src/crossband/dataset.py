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

A file may carry more bands than any one analysis uses, so loading takes the
two band frequencies explicitly instead of guessing from the file.
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
_CSV_HEADER = ["link_id", "freq_ghz", "power_db", "delay_ns", "aoa_deg"]

logger = logging.getLogger(__name__)


class DatasetFormatError(ValueError):
    """A dataset file failed structural validation.

    The message names the offending location: a JSON field path such as
    ``links[2].bands[0].paths[1].aoa_deg``, or a CSV line number. Writing
    raises it, naming the link, when the CSV mirror cannot hold a pair or a
    value would fail these checks on reload.
    """


def write_dataset(pairs: list[LinkPair], path, metadata: dict | None = None) -> None:
    """Write link pairs as a dataset file; format chosen by extension.

    Raises ``DatasetFormatError`` naming the link and the path entry, before
    anything is written, when a value would not load back: a power whose
    ``power_db`` is zero, infinite or subnormal as a linear power, or (CSV
    only) a pair whose bands share a frequency.
    """
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
    itself. Links missing either frequency are skipped with a logged
    warning; structural problems raise ``DatasetFormatError``.
    """
    if not 0.0 < low_freq_ghz <= high_freq_ghz:
        raise ValueError("need 0 < low_freq_ghz <= high_freq_ghz")
    if Path(path).suffix.lower() == ".csv":
        links = _read_links_csv(path)
    else:
        links = _read_links_json(path)
    pairs = []
    for link_id, bands in links:
        low_matches = [b for b in bands if abs(b[0] - low_freq_ghz) <= FREQ_MATCH_TOLERANCE_GHZ]
        high_matches = [b for b in bands if abs(b[0] - high_freq_ghz) <= FREQ_MATCH_TOLERANCE_GHZ]
        if not low_matches or not high_matches:
            missing = low_freq_ghz if not low_matches else high_freq_ghz
            logger.warning("link %s has no band at %.6g GHz; skipped", link_id, missing)
            continue
        low = _build_channel(low_matches[0], link_id)
        high = low if high_matches[-1] is low_matches[0] else _build_channel(high_matches[-1], link_id)
        pairs.append(LinkPair(low=low, high=high, link_id=link_id))
    return pairs


def _build_channel(band, link_id: str) -> BandChannel:
    freq_ghz, paths = band
    rays = tuple(
        Ray(
            power=db_to_linear(p["power_db"]),
            delay=p["delay_ns"] * 1e-9,
            aoa_azimuth=p["aoa_deg"],
            aod_azimuth=p.get("aod_deg"),
        )
        for p in paths
    )
    return BandChannel(frequency=freq_ghz, rays=rays, link_id=link_id)


def _check_written_power(ray: Ray, link_id: str, where: str, *where_args) -> None:
    """Refuse a ray whose ``power_db`` would not load back.

    Names the link and ``where.format(*where_args)``, built only on failure.
    A linear power inside (1e-300, 1e300) reloads from its dB value as a
    normal, finite float, so only powers outside it run the loader's check.
    """
    if not 1e-300 < ray.power < 1e300:
        _check_power_db(
            float(linear_to_db(ray.power)), f"link {link_id!r}: " + where.format(*where_args)
        )


def _to_file_dict(pairs: list[LinkPair], metadata: dict | None) -> dict:
    links = []
    for i, pair in enumerate(pairs):
        bands = []
        for j, channel in enumerate((pair.low, pair.high)):
            paths = []
            for k, ray in enumerate(channel.rays):
                _check_written_power(
                    ray, pair.link_id, "links[{}].bands[{}].paths[{}].power_db", i, j, k
                )
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
        for channel in (pair.low, pair.high):
            for ray in channel.rays:
                line += 1
                _check_written_power(ray, pair.link_id, "{}:{}.power_db", path, line)
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


def _check_power_db(value, where: str) -> float:
    value = _check_number(value, where)
    try:
        linear = db_to_linear(value)
    except OverflowError:
        linear = math.inf
    if not sys.float_info.min <= linear < math.inf:
        _fail(where, f"{value!r} dB is zero, infinite or subnormal as a linear power")
    return value


def _validate_path_entry(entry, where: str) -> dict:
    if not isinstance(entry, dict):
        _fail(where, "expected an object")
    unknown = set(entry) - {"power_db", "delay_ns", "aoa_deg", "aod_deg"}
    if unknown:
        _fail(where, f"unknown keys {sorted(unknown)}")
    for key in ("power_db", "delay_ns", "aoa_deg"):
        if key not in entry:
            _fail(where, f"missing key {key!r}")
    out = {
        "power_db": _check_power_db(entry["power_db"], f"{where}.power_db"),
        "delay_ns": _check_number(entry["delay_ns"], f"{where}.delay_ns", minimum=0.0),
        "aoa_deg": _check_number(entry["aoa_deg"], f"{where}.aoa_deg", minimum=0.0, below=360.0),
    }
    if "aod_deg" in entry:
        out["aod_deg"] = _check_number(entry["aod_deg"], f"{where}.aod_deg", minimum=0.0, below=360.0)
    return out


def _read_links_json(path) -> list[tuple[str, list[tuple[float, list[dict]]]]]:
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
            freq = _check_number(band["freq_ghz"], f"{bwhere}.freq_ghz")
            if freq <= 0.0:
                _fail(f"{bwhere}.freq_ghz", f"must be > 0, got {freq!r}")
            if not isinstance(band["paths"], list) or not band["paths"]:
                _fail(f"{bwhere}.paths", "must be a nonempty array")
            paths = [
                _validate_path_entry(p, f"{bwhere}.paths[{k}]")
                for k, p in enumerate(band["paths"])
            ]
            bands.append((freq, paths))
        links.append((link_id, bands))
    return links


def _read_links_csv(path) -> list[tuple[str, list[tuple[float, list[dict]]]]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            _fail(f"{path}:1", "empty file")
        if header != _CSV_HEADER:
            _fail(f"{path}:1", f"header must be {','.join(_CSV_HEADER)!r}")
        # Bands keyed by (link_id, frequency); rows may arrive in any order
        # but first appearance fixes link and band order.
        links: dict[str, dict[float, list[dict]]] = {}
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
            entry = {
                "freq_ghz": numbers[0],
                "power_db": numbers[1],
                "delay_ns": numbers[2],
                "aoa_deg": numbers[3],
            }
            freq = _check_number(entry["freq_ghz"], f"{where} freq_ghz")
            if freq <= 0.0:
                _fail(f"{where} freq_ghz", f"must be > 0, got {freq!r}")
            validated = _validate_path_entry(
                {k: entry[k] for k in ("power_db", "delay_ns", "aoa_deg")}, where
            )
            links.setdefault(link_id, {}).setdefault(freq, []).append(validated)
    if not links:
        _fail(str(path), "no data rows")
    return [
        (link_id, [(freq, paths) for freq, paths in bands.items()])
        for link_id, bands in links.items()
    ]
