"""Deterministic JSON emission, and the one reader each of JSON and CSV files.

Reports and dataset files must serialize to the same bytes on every run, so
dicts are emitted in insertion order (callers build them in a fixed order)
and report floats are rounded to a fixed number of significant digits before
serialization. Dataset files skip the rounding: path parameters round-trip
at full float precision.

``csv_rows`` hands each CSV row over with the line it starts on and checks
each line's bytes as it reads them, so its callers name any row, and a line
it cannot read, by line, in one pass over the file.
"""

from __future__ import annotations

import csv
import json

# Significant digits of every float in a report, curve or pattern file.
REPORT_SIG_DIGITS = 12


def round_floats(obj, sig_digits: int = REPORT_SIG_DIGITS):
    """Copy of a JSON-ready structure with floats at ``sig_digits`` digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{sig_digits}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v, sig_digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig_digits) for v in obj]
    return obj


def dumps(obj, sig_digits: int | None = None) -> str:
    """Serialize with a trailing newline; optionally round floats first."""
    if sig_digits is not None:
        obj = round_floats(obj, sig_digits)
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def dump(obj, path, sig_digits: int | None = None) -> None:
    """Write ``dumps(obj, sig_digits)`` to ``path``; a refused ``obj`` leaves it untouched."""
    text = dumps(obj, sig_digits)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def load(path, error=ValueError):
    """The JSON value in ``path``; ``error`` naming the file when it holds none.

    Bytes that are not UTF-8, an integer of over 4300 digits and nesting too
    deep to parse count as not valid JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def csv_rows(path, error=ValueError):
    """``(line, row)`` for each row of the UTF-8 CSV file ``path``, ``line`` being its first line.

    A byte order mark is dropped. A line that ``csv`` refuses or that is not
    UTF-8 raises ``error`` as ``<path>:<line>: <reason>`` after every row
    before it. Closing the generator (``contextlib.closing``) closes the file.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        # a byte that is not UTF-8 arrives as U+DC80..U+DCFF; decoding its line strictly names it
        reader = csv.reader(text if text.isascii() else text.encode("utf-8", "surrogateescape").decode()
                            for text in handle)
        line = 1
        try:
            for row in reader:
                yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise error(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeError as exc:  # from the strict decode of the line after reader.line_num
            where, byte = f"{path}:{reader.line_num + 1}", exc.object[exc.start]
            raise error(f"{where}: not valid UTF-8: byte 0x{byte:02x} ({exc.reason})") from None
