"""Deterministic JSON and CSV writers, report rounding, and the JSON and CSV readers."""

from __future__ import annotations

import json
import math

import pytest

import crossband as cb
from crossband import jsonio
from crossband.jsonio import (
    REPORT_SIG_DIGITS,
    csv_lines,
    csv_rows,
    dump,
    dump_items,
    dumps,
    load,
    round_floats,
    write_csv,
    write_curve_csv,
)


class TestRoundFloats:
    def test_rounds_to_significant_digits(self):
        # REPORT_SIG_DIGITS, the one report precision, is 12
        assert REPORT_SIG_DIGITS == 12
        assert round_floats(1.0 / 3.0) == 0.333333333333
        assert round_floats(2.0 / 3.0) == 0.666666666667
        assert round_floats(-1.23456789012345e-7) == -1.23456789012e-7

    def test_integers_and_strings_untouched(self):
        assert round_floats({"n": 7, "s": "x"}) == {"n": 7, "s": "x"}
        assert round_floats(True) is True

    def test_nested_structures(self):
        rounded = round_floats({"a": [1.23456789012345, (0.1, 2)]})
        assert rounded == {"a": [1.23456789012, [0.1, 2]]}

    def test_exact_values_stay_exact(self):
        assert round_floats(-30.0) == -30.0
        assert round_floats(0.0) == 0.0

    @pytest.mark.parametrize("x", [1e-300, 12345.6789, -2.5e17])
    def test_idempotent(self, x):
        once = round_floats(x)
        assert round_floats(once) == once


class TestDumps:
    def test_trailing_newline_and_indent(self):
        text = dumps({"a": 1})
        assert text == '{\n  "a": 1\n}\n'

    def test_insertion_order_preserved(self):
        text = dumps({"b": 1, "a": 2})
        assert text.index('"b"') < text.index('"a"')

    def test_optional_rounding(self):
        # dumps writes exactly what it is given; a report is rounded first
        assert dumps(round_floats({"x": 1.0 / 3.0})) == '{\n  "x": 0.333333333333\n}\n'
        assert repr(1.0 / 3.0) in dumps({"x": 1.0 / 3.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps({"x": math.inf})


class TestDump:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        dump({"x": [1.5, "y"]}, path)
        assert json.loads(path.read_text()) == {"x": [1.5, "y"]}
        assert path.read_text().endswith("\n")

    def test_refused_dump_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text('{"kept": true}\n')
        with pytest.raises(ValueError):
            dump({"x": math.nan}, path)
        assert path.read_bytes() == b'{"kept": true}\n'

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"r": [math.pi, math.e], "n": 3}
        dump(round_floats(payload), a)
        dump(round_floats(payload), b)
        assert a.read_bytes() == b.read_bytes()
        assert b"3.14159265359" in a.read_bytes()


class TestDumpItems:
    @pytest.mark.parametrize("items", [[], [1], [{"a": [1.5, {}], "b": "x\ny"}, [], [[2]], "z"]],
                             ids=["none", "one", "nested"])
    def test_bytes_equal_dumps_of_the_whole_document(self, tmp_path, items):
        path = tmp_path / "out.json"
        head = {"v": "1", "meta": {"k": [1, {"deep": None}]}}
        dump_items(head, "items", iter(items), path)
        assert path.read_text() == dumps({**head, "items": items})

    def test_refused_head_or_first_item_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text('{"kept": true}\n')
        with pytest.raises(ValueError):
            dump_items({"x": math.nan}, "items", [1], path)
        with pytest.raises(ValueError):
            dump_items({}, "items", [math.inf, 1], path)
        assert path.read_text() == '{"kept": true}\n'


class TestWriteCsv:
    def test_lf_rows_with_floats_as_their_repr(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, ["a", "b"], csv_lines(iter([("x", 0.1 + 0.2), ("y,z", 5e-324)])))
        assert path.read_bytes() == b'a,b\nx,0.30000000000000004\n"y,z",5e-324\n'

    def test_lines_are_written_as_given(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, ["a", "b"], ["x,1\ny,2\n", "z,3\n"])
        assert path.read_bytes() == b"a,b\nx,1\ny,2\nz,3\n"

    def test_csv_lines_quote_by_the_csv_rules(self):
        fields = ["a,b", 'say "hi"', "two\nlines", " lead", "\u00e9", "plain", 1.5]
        assert list(csv_lines([fields, ["x"]])) == [
            '"a,b","say ""hi""","two\nlines", lead,\u00e9,plain,1.5\n', "x\n"]

    def test_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, ["link_id"], csv_lines([("\u00e9",)]))
        assert path.read_bytes() == "link_id\n\u00e9\n".encode("utf-8")

    def test_curve_at_the_report_precision(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, "n_false,probability", {0: 1.0 / 3.0, 2: 2.0 / 3.0}.items())
        assert path.read_bytes() == b"n_false,probability\n0,0.333333333333\n2,0.666666666667\n"

    def test_exported_by_the_package(self):
        assert cb.write_curve_csv is write_curve_csv


class TestLoad:
    def test_reads_what_dump_wrote(self, tmp_path):
        path = tmp_path / "in.json"
        dump({"x": [1.5, "y"], "n": 10**30}, path)
        assert load(path) == {"x": [1.5, "y"], "n": 10**30}

    @pytest.mark.parametrize("text", [
        b"{not json",
        b'{"a": "\xff"}',
        b"[" + b"1" * 5000 + b"]",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["syntax", "not-utf-8", "integer-over-4300-digits", "nested-too-deep"])
    def test_invalid_file_named(self, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=r"^.*odd\.json: not valid JSON: ") as info:
            load(path)
        assert type(info.value) is ValueError

    def test_error_class_chosen_by_the_caller(self, tmp_path):
        class FormatError(ValueError):
            pass

        path = tmp_path / "odd.json"
        path.write_text("[")
        with pytest.raises(FormatError, match="not valid JSON"):
            load(path, FormatError)

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "none.json")


class FormatError(ValueError):
    pass


class TestCsvRows:
    def test_rows_of_a_file_with_or_without_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "rows.csv"
        for prefix in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(prefix + b'a,b\r\n"c\nd",e\n\n')
            assert list(csv_rows(path)) == [(1, ["a", "b"]), (2, ["c\nd", "e"]), (4, [])]

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_byte_that_is_not_utf8_named_by_its_line(self, tmp_path, eol):
        # a quoted field spans two lines; csv counts both
        path = tmp_path / "odd.csv"
        path.write_bytes(eol.join([b"a,b", b'"c', b'd",e', b"f,\xffg", b"h,i"]))
        with pytest.raises(FormatError, match=r"odd\.csv:4: not valid UTF-8: byte 0xff \(invalid start byte\)$"):
            list(csv_rows(path, FormatError))

    def test_line_the_csv_module_refuses_named_by_its_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\nc,d\n" + "9" * 200_000 + ",e\n", encoding="utf-8")
        rows = csv_rows(path, FormatError)
        assert [next(rows), next(rows)] == [(1, ["a", "b"]), (2, ["c", "d"])]
        with pytest.raises(FormatError, match=r"wide\.csv:3: field larger than field limit"):
            next(rows)

    @pytest.fixture()
    def opened(self, monkeypatch):
        handles = []

        def tracking_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(jsonio, "open", tracking_open, raising=False)
        return handles

    @pytest.mark.parametrize("read, text", [
        (lambda path: cb.load_dataset(path, 15.0, 28.0),
         "link_id,freq_ghz,power_db,delay_ns,aoa_deg\na,15\na,28,0,1,10\n"),
        (cb.pattern_from_csv, "0,0\n90\n180,-10\n"),
    ], ids=["dataset", "pattern"])
    def test_file_closed_when_a_reader_refuses_a_row(self, tmp_path, opened, read, text):
        path = tmp_path / "short.csv"
        path.write_text(text, encoding="utf-8")
        # the exception info keeps the traceback, and the reader's frame, alive
        with pytest.raises(ValueError, match=r"short\.csv:2: ") as info:
            read(path)
        assert info.traceback
        assert len(opened) == 1
        assert opened[0].closed
