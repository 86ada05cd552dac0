"""The one module that opens a file: deterministic JSON and CSV writers and readers.

Reports and dataset files must serialize to the same bytes on every run, so
dicts are emitted in insertion order (callers build them in a fixed order)
and every line ends with LF. Report floats are rounded by ``round_floats``;
dataset files skip the rounding: path parameters round-trip at full float
precision. ``dump_items`` writes a document whose last value is a long list,
a dataset's links, holding one item's text at a time; ``write_csv`` writes
text lines, which ``csv_lines`` formats from rows by ``csv``'s rules.

``csv_rows`` hands each CSV row over with the line it starts on and checks
each line's bytes as it reads them, so its callers name any row, and a line
it cannot read, by line, in one pass over the file.
"""

from __future__ import annotations

import csv
import json

# Significant digits of every float in a report, curve or pattern file.
REPORT_SIG_DIGITS = 12


def round_floats(obj):
    """Copy of a JSON-ready structure with floats at ``REPORT_SIG_DIGITS`` digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{REPORT_SIG_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Serialize with a trailing newline."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def dump(obj, path) -> None:
    """Write ``dumps(obj)`` to ``path``; a refused ``obj`` leaves it untouched."""
    text = dumps(obj)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def dump_items(head: dict, key: str, items, path) -> None:
    """Write ``dumps({**head, key: [*items]})`` to ``path``, holding one item's text at a time.

    ``key`` must not be in ``head``, so its list comes last. Each item is
    its own ``dumps`` text, indented to the list's depth; JSON strings hold
    no raw newline, so only the layout's newlines take the indent. ``head``
    and the first item are serialized before the file is opened: refusing
    either leaves ``path`` untouched, and the caller checks the rest.
    """
    start, _, end = dumps({**head, key: [0]}).rpartition("0")  # the list's 0 is the last
    indent = start[start.rindex("\n"):]  # a newline and the items' indent
    texts = (json.dumps(item, indent=2, allow_nan=False).replace("\n", indent) for item in items)
    first = next(texts, None)
    if first is None:
        return dump({**head, key: []}, path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(start + first)
        for text in texts:
            handle.write("," + indent + text)
        handle.write(end)


class _Echo:
    """A file whose ``write`` returns the text, which ``csv.writer.writerow`` returns in turn."""

    @staticmethod
    def write(text):
        return text


def csv_lines(rows):
    """Each row as ``write_csv`` writes it: ``csv`` quoting, an LF line end, a float as its repr."""
    return map(csv.writer(_Echo(), lineterminator="\n").writerow, rows)


def write_csv(path, header, lines) -> None:
    """Write the ``header`` row, then each text of ``lines``, as UTF-8 CSV; ``csv_lines`` formats rows."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(csv_lines([header]))
        handle.writelines(lines)


def write_curve_csv(path, header: str, rows) -> None:
    """Write (x, y) rows under a comma-separated one-line header as CSV.

    Both columns print with ``REPORT_SIG_DIGITS`` significant digits in
    ``g`` format, so an integer x such as a direction count prints without a
    decimal point.
    """
    write_csv(path, header.split(","),
              csv_lines((f"{x:.{REPORT_SIG_DIGITS}g}", f"{y:.{REPORT_SIG_DIGITS}g}") for x, y in rows))


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
