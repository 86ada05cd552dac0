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
cannot represent departure angles or two same-frequency bands of one link.
Link ids are nonempty and unique in both formats.

Both readers check a file's structure in file order while collecting its
numbers into flat columns, then check the numbers as arrays, once per file.
Each records an entry's location as it reads it: the JSON reader each
band's ``links[i].bands[j]`` with its path entries, the CSV reader the line
each row starts on, as ``jsonio.csv_rows`` hands it over. Only a file that
fails is walked again, over those records, to name the first bad entry.
``channel._channels`` makes each band a ``BandChannel`` over slices of
those columns that keeps the file's ``power_db`` and ``delay_ns``
values, which the writers write back as they are. Angles are kept as read,
a ``-0.0`` included, so a loaded file rewrites byte for byte. The writers
work on the same columns, through the same number checks. A file may carry
more bands than any one analysis uses, so loading takes the two band
frequencies explicitly instead of guessing from the file.
"""

from __future__ import annotations

import logging
import math
from array import array
from contextlib import closing
from itertools import accumulate
from pathlib import Path
from typing import NoReturn

import numpy as np

from .channel import BandChannel, LinkPair, _channels
from .jsonio import csv_lines, csv_rows, dump_items, load, write_csv
from .units import db_to_linear, db_to_linear_each, is_normal_power, linear_to_db

SCHEMA_VERSION = "1"
FREQ_MATCH_TOLERANCE_GHZ = 1e-6
_SKIPPED_IDS_SHOWN = 5  # link ids named in the skip warning, per missing band
_CSV_HEADER = ["link_id", "freq_ghz", "power_db", "delay_ns", "aoa_deg"]
_PATH_KEYS = ("power_db", "delay_ns", "aoa_deg", "aod_deg")  # aod_deg is optional, JSON only
_PATH_KEYS_REQUIRED = frozenset(_PATH_KEYS[:3])

logger = logging.getLogger(__name__)


class DatasetFormatError(ValueError):
    """A dataset file failed structural validation.

    The message names the offending location: a JSON field path such as
    ``links[2].bands[0].paths[1].aoa_deg``, or a CSV line and field such as
    ``links.csv:7.freq_ghz``, a row being named by the line it starts on.
    Writing raises it, naming the link, when the CSV mirror cannot hold a
    pair or a value would fail these checks on reload; a value is then
    named, in both formats, as ``links[i].bands[j].paths[k]`` of the pairs
    written.
    """


def write_dataset(pairs: list[LinkPair], path, metadata: dict | None = None) -> None:
    """Write link pairs as a dataset file; format chosen by extension.

    Raises ``DatasetFormatError`` before anything is written when the file
    would not load back: naming the file when there are no pairs, else
    naming the link, and the path entry where there is one, for an empty or
    repeated link id, a power whose ``power_db`` is zero, infinite or
    subnormal as a linear power, a delay infinite in ns, or (CSV only) a
    pair whose bands share a frequency, that has departure angles, or whose
    link id holds a carriage return or a surrogate.
    """
    to_csv = Path(path).suffix.lower() == ".csv"
    if not pairs:
        _fail(str(path), "no links to write")
    seen_ids = set()
    for pair in pairs:
        if not isinstance(pair.link_id, str) or not pair.link_id or pair.link_id in seen_ids:
            raise DatasetFormatError(f"link {pair.link_id!r}: link ids must be nonempty and unique")
        seen_ids.add(pair.link_id)
        if to_csv:
            _check_csv_pair(pair)
    links = _written_columns(pairs)  # every value is checked here, before a file is opened
    if to_csv:
        write_csv(path, _CSV_HEADER, _csv_bands(pairs, links))
    else:
        dump_items({"schema_version": SCHEMA_VERSION, "metadata": metadata or {}}, "links",
                   map(_file_link, links), path)


def load_dataset(path, low_freq_ghz: float, high_freq_ghz: float) -> list[LinkPair]:
    """Load link pairs for the two requested band frequencies.

    For each link, the low band binds to the first band whose frequency
    matches ``low_freq_ghz`` within 1e-6 GHz and the high band to the last
    band matching ``high_freq_ghz``, so a link holding two bands at one
    frequency pairs them in file order and a single matching band pairs with
    itself. Links missing either frequency are skipped, summarized in one
    logged warning; structural problems raise ``DatasetFormatError``, as
    does a link whose low band so bound lies above its high band.
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
        low, high = low_matches[0], high_matches[-1]
        if low.frequency > high.frequency:
            _fail(str(path), f"link {link_id!r}: the low band at {low.frequency!r} GHz "
                             f"lies above the high band at {high.frequency!r} GHz")
        pairs.append(LinkPair(low=low, high=high, link_id=link_id))
    if skipped:
        groups = "; ".join(
            f"{len(ids)} with no band at {freq:.6g} GHz (first: {', '.join(ids[:_SKIPPED_IDS_SHOWN])})"
            for freq, ids in skipped.items()
        )
        logger.warning("%s: skipped %d of %d links: %s", path, len(links) - len(pairs), len(links), groups)
    return pairs


def _written_columns(pairs: list[LinkPair]):
    """Each pair with its two bands as ``(channel, power_db, delay_ns, aoa_deg)``, checked to load back.

    A band loaded from a file keeps the two columns the file held, so a
    loaded file writes back byte for byte; the others are computed from the
    linear powers and the delays in seconds. The columns go through the
    loader's own number checks before this returns; only when they fail are
    the paths checked one by one, in file order, and the first that would
    not load back is named by its link and ``links[i].bands[j].paths[k]``
    (path ``k`` of band ``j`` of ``pairs[i]``), in either format. Frequencies
    and angles are written as the channels hold them, which the loader
    accepts. Every walk slices the columns by one bounds list, band ``n``
    being band ``n % 2`` of ``pairs[n // 2]``; the lists are sliced from the
    columns one link at a time.
    """
    channels = [channel for pair in pairs for channel in (pair.low, pair.high)]
    bounds = [0, *accumulate(len(channel.rays) for channel in channels)]
    power_db = linear_to_db(np.concatenate([channel.rays.powers for channel in channels]))
    with np.errstate(over="ignore"):  # a delay infinite in ns is refused by name below
        delay_ns = np.concatenate([channel.rays.delays for channel in channels]) * 1e9
    for channel, start, stop in zip(channels, bounds, bounds[1:]):
        if channel.rays._file is not None:
            power_db[start:stop], delay_ns[start:stop] = channel.rays._file

    def bands():
        for channel, start, stop in zip(channels, bounds, bounds[1:]):
            yield (channel, power_db[start:stop].tolist(), delay_ns[start:stop].tolist(),
                   channel.rays.aoas.tolist())

    def replay():
        for n, (_, *columns) in enumerate(bands()):
            where = f"link {pairs[n // 2].link_id!r}: links[{n // 2}].bands[{n % 2}]"
            for k, path in enumerate(zip(*columns)):
                _check_path(f"{where}.paths[{k}]", *path)

    empty = np.empty(0)
    _checked_powers(replay, empty, power_db, delay_ns, empty, empty)
    written = bands()
    return ((pair, [next(written), next(written)]) for pair in pairs)


def _file_link(link) -> dict:
    """One link of ``_written_columns`` as its JSON object."""
    pair, bands = link
    file_bands = []
    for channel, powers, delays, aoas in bands:
        paths = [{"power_db": p, "delay_ns": d, "aoa_deg": a} for p, d, a in zip(powers, delays, aoas)]
        if channel.rays.aods is not None:
            for entry, aod in zip(paths, channel.rays.aods):
                if aod is not None:
                    entry["aod_deg"] = aod
        file_bands.append({"freq_ghz": channel.frequency, "paths": paths})
    return {"link_id": pair.link_id, "bands": file_bands}


def _check_csv_pair(pair: LinkPair) -> None:
    if abs(pair.low.frequency - pair.high.frequency) <= FREQ_MATCH_TOLERANCE_GHZ:
        raise DatasetFormatError(
            f"link {pair.link_id!r}: CSV cannot hold two bands at one frequency "
            f"({pair.low.frequency!r} and {pair.high.frequency!r} GHz); write JSON instead"
        )
    if pair.low.rays.aods is not None or pair.high.rays.aods is not None:
        raise DatasetFormatError(
            f"link {pair.link_id!r}: CSV cannot hold departure angles; write JSON instead"
        )
    # csv.writer leaves "\r" unquoted under a "\n" terminator; UTF-8 has no surrogates
    if any(c == "\r" or "\ud800" <= c <= "\udfff" for c in pair.link_id):
        raise DatasetFormatError(
            f"link {pair.link_id!r}: CSV cannot hold a carriage return or a surrogate "
            "in a link_id; write JSON instead"
        )


def _csv_bands(pairs: list[LinkPair], links):
    """Each band's CSV rows of ``_written_columns`` as one text, a float printed as its repr.

    The link id is quoted once per link, by ``csv``'s rules; the other
    fields are float reprs, which ``csv`` never quotes.
    """
    for (pair, bands), id_line in zip(links, csv_lines([pair.link_id] for pair in pairs)):
        for channel, powers, delays, aoas in bands:
            lead = f"{id_line[:-1]},{channel.frequency!r},"
            yield "".join([f"{lead}{p!r},{d!r},{a!r}\n" for p, d, a in zip(powers, delays, aoas)])


def _fail(path: str, reason: str):
    raise DatasetFormatError(f"{path}: {reason}")


def _check_number(value, where: str, minimum=None, below=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        _fail(where, "must be finite, got an integer too large for a float")
    if not math.isfinite(value):
        _fail(where, f"must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(where, f"must be >= {minimum}, got {value!r}")
    if below is not None and not value < below:
        _fail(where, f"must be < {below}, got {value!r}")
    return value


def _check_freq(value, where: str) -> None:
    freq = _check_number(value, where)
    if freq <= 0.0:
        _fail(where, f"must be > 0, got {freq!r}")


def _check_path(where: str, power_db, delay_ns, aoa_deg, *aod_deg) -> None:
    power_db = _check_number(power_db, f"{where}.power_db")
    if not is_normal_power(db_to_linear(power_db)):
        _fail(f"{where}.power_db", f"{power_db!r} dB is zero, infinite or subnormal as a linear power")
    _check_number(delay_ns, f"{where}.delay_ns", minimum=0.0)
    _check_number(aoa_deg, f"{where}.aoa_deg", minimum=0.0, below=360.0)
    for aod in aod_deg:
        _check_number(aod, f"{where}.aod_deg", minimum=0.0, below=360.0)


def _is_azimuth(angles: np.ndarray) -> bool:
    return bool(((angles >= 0.0) & (angles < 360.0)).all())


def _checked_powers(replay, freq_ghz, power_db, delay_ns, aoa_deg, aod_deg) -> np.ndarray:
    """Linear powers of the collected paths, once every collected number passes.

    The float64 columns are checked as arrays, accepting exactly what
    ``_check_freq`` and ``_check_path`` accept. On a failure ``replay()``
    runs those checks on the collected entries in file order, which raises
    the first bad entry's error with its location.
    """
    powers = db_to_linear_each(power_db)
    if not (((freq_ghz > 0.0) & (freq_ghz < math.inf)).all()
            and is_normal_power(powers).all()
            and ((delay_ns >= 0.0) & (delay_ns < math.inf)).all()
            and _is_azimuth(aoa_deg) and _is_azimuth(aod_deg)):
        _raise_first_bad_entry(replay)
    return powers


def _raise_first_bad_entry(replay) -> NoReturn:
    replay()
    raise RuntimeError("a number failed the column checks but passed its entry checks")


def _read_links_json(path) -> list[tuple[str, list[BandChannel]]]:
    doc = load(path, DatasetFormatError)
    if not isinstance(doc, dict):
        _fail(str(path), "top level must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        _fail(str(path), f"schema_version must be {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}")
    if not isinstance(doc.get("links"), list) or not doc["links"]:
        _fail(str(path), "links must be a nonempty array")
    # The walk checks structure in file order and records each link's band
    # count under its link_id and each band as (location, freq_ghz, paths),
    # paths holding only the entries that passed the structure checks.
    links, bands = {}, []

    def columns():
        """The collected numbers as checked float64 columns, and which paths have aod_deg."""
        entries = [entry for _, _, paths in bands for entry in paths]
        aod_paths = [n for n, entry in enumerate(entries) if len(entry) == 4]
        try:
            freq_ghz = _float_column([freq for _, freq, _ in bands])
            power_db, delay_ns, aoa_deg = (_float_column([entry[key] for entry in entries])
                                           for key in _PATH_KEYS[:3])
            aod_deg = _float_column([entries[n]["aod_deg"] for n in aod_paths])
        except (TypeError, OverflowError):
            _raise_first_bad_entry(replay)
        powers = _checked_powers(replay, freq_ghz, power_db, delay_ns, aoa_deg, aod_deg)
        return freq_ghz, powers, power_db, delay_ns, aoa_deg, aod_paths, aod_deg

    def replay():
        for where, freq, paths in bands:
            _check_freq(freq, f"{where}.freq_ghz")
            for k, entry in enumerate(paths):
                _check_path(f"{where}.paths[{k}]", *(entry[key] for key in _PATH_KEYS if key in entry))

    try:
        for i, link in enumerate(doc["links"]):
            where = f"links[{i}]"
            if not isinstance(link, dict) or set(link) != {"link_id", "bands"}:
                _fail(where, "expected an object with keys link_id, bands")
            link_id = link["link_id"]
            if not isinstance(link_id, str) or not link_id:
                _fail(f"{where}.link_id", "must be a nonempty string")
            if link_id in links:
                _fail(f"{where}.link_id", f"duplicate link_id {link_id!r}")
            if not isinstance(link["bands"], list) or not link["bands"]:
                _fail(f"{where}.bands", "must be a nonempty array")
            for j, band in enumerate(link["bands"]):
                bwhere = f"{where}.bands[{j}]"
                if not isinstance(band, dict) or set(band) != {"freq_ghz", "paths"}:
                    _fail(bwhere, "expected an object with keys freq_ghz, paths")
                paths = band["paths"] if isinstance(band["paths"], list) else []
                bands.append((bwhere, band["freq_ghz"], paths))
                if not paths:
                    _fail(f"{bwhere}.paths", "must be a nonempty array")
                if not all(isinstance(entry, dict) and entry.keys() == _PATH_KEYS_REQUIRED
                           for entry in paths):
                    for k, entry in enumerate(paths):
                        problem = _path_entry_problem(entry)
                        if problem:
                            bands[-1] = (bwhere, band["freq_ghz"], paths[:k])
                            _fail(f"{bwhere}.paths[{k}]", problem)
            links[link_id] = len(link["bands"])
    except DatasetFormatError:
        columns()  # a bad number before the structural error comes first
        raise
    freq_ghz, powers, power_db, delay_ns, aoa_deg, aod_paths, aod_deg = columns()
    aods = None
    if aod_paths:
        aods = [None] * len(powers)
        for n, aod in zip(aod_paths, aod_deg.tolist()):
            aods[n] = aod
    bounds = [0, *accumulate(len(paths) for _, _, paths in bands)]
    channels = iter(_channels(freq_ghz.tolist(), powers, delay_ns, aoa_deg, bounds, aods, power_db))
    return [(link_id, [next(channels) for _ in range(count)]) for link_id, count in links.items()]


def _float_column(values: list) -> np.ndarray:
    """A float64 array of JSON numbers; TypeError for any other value."""
    if not set(map(type, values)) <= {int, float}:
        raise TypeError("not a number")
    return np.array(values, dtype=float)


def _path_entry_problem(entry) -> str | None:
    if not isinstance(entry, dict):
        return "expected an object"
    unknown = entry.keys() - _PATH_KEYS
    if unknown:
        return f"unknown keys {sorted(unknown)}"
    for key in _PATH_KEYS[:3]:
        if key not in entry:
            return f"missing key {key!r}"
    return None


def _read_links_csv(path) -> list[tuple[str, list[BandChannel]]]:
    # Rows may arrive in any order; first appearance fixes link and band
    # order. Each row appends its four numbers to one flat array, in file
    # order, the index of its (link_id, freq_ghz) band to another and the
    # line it starts on to a third.
    bands: dict[tuple[str, float], int] = {}
    link_bands: dict[str, list[int]] = {}
    numbers, band_of_row, line_of_row = array("d"), array("q"), array("q")

    def columns():
        """The collected numbers, one float64 column per field, and the checked linear powers."""
        freq_ghz, power_db, delay_ns, aoa_deg = np.frombuffer(numbers, dtype=float).reshape(-1, 4).T
        return power_db, delay_ns, aoa_deg, _checked_powers(replay, freq_ghz, power_db, delay_ns,
                                                            aoa_deg, np.empty(0))

    def replay():
        for r, line in enumerate(line_of_row):
            where = f"{path}:{line}"
            _check_freq(numbers[4 * r], f"{where}.freq_ghz")
            _check_path(where, *numbers[4 * r + 1:4 * r + 4])

    with closing(csv_rows(path, DatasetFormatError)) as rows:
        try:
            _, header = next(rows)
        except StopIteration:
            _fail(f"{path}:1", "empty file")
        if header != _CSV_HEADER:
            _fail(f"{path}:1", f"header must be {','.join(_CSV_HEADER)!r}")
        try:
            for line, row in rows:
                if len(row) != len(_CSV_HEADER):
                    _fail(f"{path}:{line}", f"expected {len(_CSV_HEADER)} fields, got {len(row)}")
                link_id, freq, power_db, delay_ns, aoa_deg = row
                if not link_id:
                    _fail(f"{path}:{line}", "link_id must be nonempty")
                try:
                    freq = float(freq)
                    numbers.extend((freq, float(power_db), float(delay_ns), float(aoa_deg)))
                except ValueError:
                    _fail(f"{path}:{line}", f"non-numeric field in {row[1:]!r}")
                band = bands.get((link_id, freq))
                if band is None:
                    band = bands[link_id, freq] = len(bands)
                    link_bands.setdefault(link_id, []).append(band)
                band_of_row.append(band)
                line_of_row.append(line)
        except DatasetFormatError:
            columns()  # a bad number before the structural error comes first
            raise
    if not bands:
        _fail(str(path), "no data rows")
    # each band's rows together, in band order, keeping file order within a band
    row_bands = np.frombuffer(band_of_row, dtype=np.int64)
    order = np.argsort(row_bands, kind="stable")
    starts = [0] + np.cumsum(np.bincount(row_bands, minlength=len(bands))).tolist()
    power_db, delay_ns, aoa_deg, powers = (column[order] for column in columns())
    channels = _channels([freq for _, freq in bands], powers, delay_ns, aoa_deg, starts,
                         power_db=power_db)
    return [(link_id, [channels[b] for b in indices]) for link_id, indices in link_bands.items()]

