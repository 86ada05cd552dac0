"""Dataset files: round trips, band pairing, and validation diagnostics."""

from __future__ import annotations

import copy
import csv as csv_module
import io
import json
import logging
import math
import pickle
import re
import sys
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import crossband as cb


def small_dataset(n=4):
    return cb.generate_dataset(cb.GenConfig(seed=5), n)


def assert_rays_close(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        # power crosses a dB conversion and delay an ns/s conversion on the
        # way out and back; angles are stored as-is
        assert g.power == pytest.approx(e.power, rel=1e-12)
        assert g.delay == pytest.approx(e.delay, rel=1e-12)
        assert g.aoa_azimuth == e.aoa_azimuth
        assert g.aod_azimuth == e.aod_azimuth


def write_json(tmp_path, doc, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc(**overrides):
    doc = {
        "schema_version": "1",
        "metadata": {},
        "links": [
            {
                "link_id": "l1",
                "bands": [
                    {"freq_ghz": 15.0, "paths": [{"power_db": 0.0, "delay_ns": 1.0, "aoa_deg": 10.0}]},
                    {"freq_ghz": 28.0, "paths": [{"power_db": -3.0, "delay_ns": 2.0, "aoa_deg": 12.0}]},
                ],
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestJsonRoundTrip:
    def test_pairs_survive(self, tmp_path):
        pairs = small_dataset()
        path = tmp_path / "links.json"
        cb.write_dataset(pairs, path)
        loaded = cb.load_dataset(path, 15.0, 28.0)
        assert [p.link_id for p in loaded] == [p.link_id for p in pairs]
        for got, exp in zip(loaded, pairs):
            assert_rays_close(got.low.rays, exp.low.rays)
            assert_rays_close(got.high.rays, exp.high.rays)

    def test_metadata_written(self, tmp_path):
        path = tmp_path / "links.json"
        cb.write_dataset(small_dataset(1), path, metadata={"note": "x"})
        doc = json.loads(path.read_text())
        assert doc["metadata"] == {"note": "x"}
        assert doc["schema_version"] == "1"

    def test_departure_angles_survive(self, tmp_path):
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0, aod_azimuth=33.0),))
        path = tmp_path / "links.json"
        cb.write_dataset([cb.LinkPair(low=ch, high=ch, link_id="l")], path)
        loaded = cb.load_dataset(path, 15.0, 15.0)
        assert loaded[0].low.rays[0].aod_azimuth == 33.0

    def test_file_is_dumps_of_the_whole_document(self, tmp_path):
        # the writer holds one link's text at a time, in dumps' own layout
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0, aod_azimuth=33.0), cb.Ray(0.5, 1e-9, 20.0)))
        pairs = [*small_dataset(3), cb.LinkPair(low=ch, high=ch, link_id="\u00e9 \"x\"\n")]
        metadata = {"note": "\u2028 \u00e9", "nested": {"list": [1, 2.5, {}], "empty": []}}
        for meta in (metadata, None):
            path = tmp_path / "links.json"
            cb.write_dataset(pairs, path, metadata=meta)
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text)
            assert doc["metadata"] == (meta or {})
            assert len(doc["links"]) == 4
            assert text == cb.jsonio.dumps(doc)

    @pytest.mark.parametrize("metadata", [{"x": math.nan}, {"x": object()}], ids=["nan", "object"])
    def test_refused_metadata_leaves_the_file_untouched(self, tmp_path, metadata):
        path, missing = tmp_path / "links.json", tmp_path / "missing.json"
        path.write_bytes(b"kept")
        for target in (path, missing):
            with pytest.raises((ValueError, TypeError)):
                cb.write_dataset(small_dataset(1), target, metadata=metadata)
        assert path.read_bytes() == b"kept"
        assert not missing.exists()

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_writer_memory_is_bounded_by_one_link(self, tmp_path, name):
        # the JSON writer held every link's dict and the whole text: 33 MB here
        pairs = cb.generate_dataset(cb.GenConfig(seed=0), 2000)
        tracemalloc.start()
        try:
            cb.write_dataset(pairs, tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestWriteRefusesWhatLoadRejects:
    # the writer runs the loader's checks, so a written file always reloads

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_tiny_negative_angles_round_trip(self, tmp_path, name):
        aod = -1e-20 if name.endswith(".json") else None  # CSV holds no departure angles
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, -1e-20, aod_azimuth=aod),))
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 10.0),))
        path = tmp_path / name
        cb.write_dataset([cb.LinkPair(low=low, high=high, link_id="l")], path)
        loaded = cb.load_dataset(path, 15.0, 28.0)
        assert loaded[0].low.rays[0].aoa_azimuth == 0.0
        assert loaded[0].low.rays[0].aod_azimuth == (None if aod is None else 0.0)

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_subnormal_power_refused_and_located(self, tmp_path, name):
        # Ray accepts the smallest normal power, but its dB value reloads as a
        # subnormal, which load_dataset rejects
        power = sys.float_info.min
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 0.0, 5.0)))
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(power, 0.0, 20.0)))
        path = tmp_path / name
        where = r"^link 'l': links\[0\]\.bands\[1\]\.paths\[1\]\.power_db: "
        with pytest.raises(cb.DatasetFormatError, match=where):
            cb.write_dataset([cb.LinkPair(low=low, high=high, link_id="l")], path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_delay_overflowing_in_ns_refused_and_located(self, tmp_path, name):
        # 1e300 s is a finite delay, but 1e309 ns is not
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 1e300, 10.0),))
        pair = cb.LinkPair(low=low, high=cb.BandChannel(28.0, low.rays), link_id="a")
        path = tmp_path / name
        where = r"^link 'a': links\[0\]\.bands\[0\]\.paths\[0\]\.delay_ns: "
        with pytest.raises(cb.DatasetFormatError, match=where + "must be finite, got inf$"):
            cb.write_dataset([pair], path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    @pytest.mark.parametrize("ids", [("",), ("x", "x")], ids=["empty", "duplicate"])
    def test_empty_or_duplicate_link_id_refused(self, tmp_path, name, ids):
        # the loader refuses both, and the CSV mirror would silently merge
        # two same-id links into one
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0),))
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 10.0),))
        pairs = [cb.LinkPair(low=low, high=high, link_id=link_id) for link_id in ids]
        path = tmp_path / name
        with pytest.raises(cb.DatasetFormatError, match=f"^link {ids[-1]!r}: "):
            cb.write_dataset(pairs, path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_empty_pair_list_refused(self, tmp_path, name):
        # the loader refuses a file of no links in both formats
        path = tmp_path / name
        with pytest.raises(cb.DatasetFormatError, match=f"^{re.escape(str(path))}: no links to write$"):
            cb.write_dataset([], path)
        assert not path.exists()

    def test_csv_pair_problem_named_before_an_earlier_bad_value(self, tmp_path):
        # every pair is checked before any value
        tiny = cb.BandChannel(28.0, (cb.Ray(sys.float_info.min, 0.0, 0.0),))
        good = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0),))
        pairs = [cb.LinkPair(low=good, high=tiny, link_id="a"),
                 cb.LinkPair(low=good, high=good, link_id="b")]
        with pytest.raises(cb.DatasetFormatError, match="^link 'b': CSV cannot hold two bands"):
            cb.write_dataset(pairs, tmp_path / "links.csv")
        with pytest.raises(cb.DatasetFormatError, match=r"^link 'a': links\[0\]\.bands\[1\]"):
            cb.write_dataset(pairs, tmp_path / "links.json")

    @given(st.floats(min_value=5e-324, allow_infinity=False))
    @example(2.2250738585072014e-308)
    @example(1e-300)
    @example(1e300)
    @example(1.7976931348623157e308)
    def test_written_power_reloads_or_is_refused(self, tmp_path_factory, power):
        if power < sys.float_info.min:
            with pytest.raises(ValueError, match="normal"):
                cb.Ray(power, 0.0, 0.0)
            return
        ch = cb.BandChannel(15.0, (cb.Ray(power, 0.0, 0.0),))
        path = tmp_path_factory.mktemp("power") / "links.json"
        try:
            cb.write_dataset([cb.LinkPair(low=ch, high=ch, link_id="l")], path)
        except cb.DatasetFormatError:
            assert not path.exists()
        else:
            assert cb.load_dataset(path, 15.0, 15.0)[0].low.rays[0].power > 0.0


class TestBandPairing:
    def test_extra_bands_ignored(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"].insert(
            0, {"freq_ghz": 6.0, "paths": [{"power_db": 0.0, "delay_ns": 0.0, "aoa_deg": 5.0}]}
        )
        pairs = cb.load_dataset(write_json(tmp_path, doc), 15.0, 28.0)
        assert pairs[0].low.frequency == 15.0
        assert pairs[0].high.frequency == 28.0

    def test_single_band_pairs_with_itself(self, tmp_path):
        doc = minimal_doc()
        del doc["links"][0]["bands"][1]
        pairs = cb.load_dataset(write_json(tmp_path, doc), 15.0, 15.0)
        assert pairs[0].low is pairs[0].high

    def test_same_frequency_bands_pair_in_file_order(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][1] = {
            "freq_ghz": 15.0,
            "paths": [
                {"power_db": -1.0, "delay_ns": 3.0, "aoa_deg": 20.0},
                {"power_db": -2.0, "delay_ns": 4.0, "aoa_deg": 21.0},
            ],
        }
        pairs = cb.load_dataset(write_json(tmp_path, doc), 15.0, 15.0)
        assert len(pairs[0].low.rays) == 1
        assert len(pairs[0].high.rays) == 2

    def test_low_band_above_the_high_band_refused_by_file_and_link(self, tmp_path):
        # both bands match both requests within the tolerance, the higher one first
        path = write_json(tmp_path, {"schema_version": "1", "metadata": {}, "links": [
            {"link_id": "a", "bands": [
                {"freq_ghz": freq, "paths": [{"power_db": 0.0, "delay_ns": 0.0, "aoa_deg": 5.0}]}
                for freq in (15.0000004, 15.0)]}]}, name="twin.json")
        with pytest.raises(cb.DatasetFormatError) as info:
            cb.load_dataset(path, 15.0, 15.0)
        assert str(info.value) == (f"{path}: link 'a': the low band at 15.0000004 GHz "
                                   "lies above the high band at 15.0 GHz")

    def test_links_missing_a_band_are_skipped(self, tmp_path, caplog):
        doc = minimal_doc()
        doc["links"].append(
            {
                "link_id": "l2",
                "bands": [{"freq_ghz": 15.0, "paths": [{"power_db": 0.0, "delay_ns": 0.0, "aoa_deg": 0.0}]}],
            }
        )
        with caplog.at_level(logging.WARNING):
            pairs = cb.load_dataset(write_json(tmp_path, doc), 15.0, 28.0)
        assert [p.link_id for p in pairs] == ["l1"]
        assert "l2" in caplog.text
        assert "28" in caplog.text

    def test_skipped_links_summarized_in_one_warning(self, tmp_path, caplog):
        doc = minimal_doc()
        low_only = {"freq_ghz": 15.0, "paths": [{"power_db": 0.0, "delay_ns": 0.0, "aoa_deg": 0.0}]}
        high_only = {"freq_ghz": 28.0, "paths": [{"power_db": 0.0, "delay_ns": 0.0, "aoa_deg": 0.0}]}
        doc["links"] += [{"link_id": f"m{i}", "bands": [low_only]} for i in range(7)]
        doc["links"].append({"link_id": "n0", "bands": [high_only]})
        with caplog.at_level(logging.WARNING):
            pairs = cb.load_dataset(write_json(tmp_path, doc), 15.0, 28.0)
        assert [p.link_id for p in pairs] == ["l1"]
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "skipped 8 of 9 links" in message
        assert "7 with no band at 28 GHz (first: m0, m1, m2, m3, m4)" in message
        assert "1 with no band at 15 GHz (first: n0)" in message

    def test_frequency_tolerance(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["freq_ghz"] = 15.0000005
        assert cb.load_dataset(write_json(tmp_path, doc), 15.0, 28.0)

        doc["links"][0]["bands"][0]["freq_ghz"] = 15.000002
        assert cb.load_dataset(write_json(tmp_path, doc, "b.json"), 15.0, 28.0) == []

    def test_band_order_validated(self, tmp_path):
        path = write_json(tmp_path, minimal_doc())
        with pytest.raises(ValueError):
            cb.load_dataset(path, 28.0, 15.0)


class TestJsonValidation:
    def check(self, tmp_path, doc, fragment):
        with pytest.raises(cb.DatasetFormatError, match=fragment):
            cb.load_dataset(write_json(tmp_path, doc), 15.0, 28.0)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(cb.DatasetFormatError, match="not valid JSON"):
            cb.load_dataset(path, 15.0, 28.0)

    @pytest.mark.parametrize("text", [
        json.dumps(minimal_doc()).replace('"delay_ns": 1.0', '"delay_ns": 1' + "0" * 5000).encode(),
        b'{"schema_version": "1", "links": ["\xff"]}',
    ], ids=["integer-over-4300-digits", "not-utf-8"])
    def test_undecodable_file_located(self, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_bytes(text)
        with pytest.raises(cb.DatasetFormatError, match=r"odd\.json: not valid JSON: "):
            cb.load_dataset(path, 15.0, 28.0)

    def test_schema_version(self, tmp_path):
        self.check(tmp_path, minimal_doc(schema_version="2"), "schema_version")

    def test_top_level_must_be_an_object(self, tmp_path):
        self.check(tmp_path, [minimal_doc()], r"data\.json: top level must be an object$")

    def test_band_paths_must_be_nonempty(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][1]["paths"] = []
        self.check(tmp_path, doc, r"^links\[0\]\.bands\[1\]\.paths: must be a nonempty array$")

    def test_path_entry_must_be_an_object(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["paths"].append(7)
        self.check(tmp_path, doc, r"^links\[0\]\.bands\[0\]\.paths\[1\]: expected an object$")

    def test_links_must_be_nonempty(self, tmp_path):
        self.check(tmp_path, minimal_doc(links=[]), "nonempty")

    def test_unknown_link_keys(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["extra"] = 1
        self.check(tmp_path, doc, r"links\[0\]")

    def test_duplicate_link_ids(self, tmp_path):
        doc = minimal_doc()
        doc["links"].append(dict(doc["links"][0]))
        self.check(tmp_path, doc, r"^links\[1\]\.link_id: duplicate link_id 'l1'$")

    def test_unknown_path_keys_located(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["paths"][0]["zenith"] = 1.0
        self.check(tmp_path, doc, r"links\[0\]\.bands\[0\]\.paths\[0\]")

    def test_missing_path_key(self, tmp_path):
        doc = minimal_doc()
        del doc["links"][0]["bands"][0]["paths"][0]["delay_ns"]
        self.check(tmp_path, doc, "delay_ns")

    def test_angle_domain(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["paths"][0]["aoa_deg"] = 360.0
        self.check(tmp_path, doc, "must be < 360")

    def test_negative_delay(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["paths"][0]["delay_ns"] = -1.0
        self.check(tmp_path, doc, "delay_ns")

    def test_nonfinite_power(self, tmp_path):
        path = tmp_path / "inf.json"
        text = json.dumps(minimal_doc()).replace('"power_db": 0.0', '"power_db": Infinity')
        path.write_text(text)
        with pytest.raises(cb.DatasetFormatError, match="finite"):
            cb.load_dataset(path, 15.0, 28.0)

    @pytest.mark.parametrize("power_db", [-4000.0, 4000.0, -3100.0])
    def test_power_outside_the_normal_float_range_located(self, tmp_path, power_db):
        # finite in dB, but 0, infinite or subnormal once linear
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["paths"][0]["power_db"] = power_db
        self.check(tmp_path, doc, r"links\[0\]\.bands\[0\]\.paths\[0\]\.power_db")

    def test_power_must_be_numeric(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["paths"][0]["power_db"] = "loud"
        self.check(tmp_path, doc, "expected a number")

    def test_boolean_frequency_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["freq_ghz"] = True
        self.check(tmp_path, doc, "expected a number")


class TestCsv:
    def test_round_trip(self, tmp_path):
        pairs = small_dataset()
        path = tmp_path / "links.csv"
        cb.write_dataset(pairs, path)
        loaded = cb.load_dataset(path, 15.0, 28.0)
        assert [p.link_id for p in loaded] == [p.link_id for p in pairs]
        for got, exp in zip(loaded, pairs):
            assert_rays_close(got.low.rays, exp.low.rays)
            assert_rays_close(got.high.rays, exp.high.rays)

    def test_awkward_link_ids_written_as_csv_writer_writes_them(self, tmp_path):
        # each band's rows are formatted in one join; only the link id needs quoting
        ids = ["a,b", 'say "hi"', "two\nlines", " lead", "\u00fcn\u00ef \u2192 \u03ba", "plain"]
        pairs = [cb.LinkPair(p.low, p.high, link_id) for p, link_id in zip(small_dataset(len(ids)), ids)]
        path = tmp_path / "links.csv"
        cb.write_dataset(pairs, path)
        out = io.StringIO()
        writer = csv_module.writer(out, lineterminator="\n")
        writer.writerow(["link_id", "freq_ghz", "power_db", "delay_ns", "aoa_deg"])
        for pair in pairs:
            for channel in (pair.low, pair.high):
                rays = channel.rays
                writer.writerows(zip([pair.link_id] * len(rays), [repr(channel.frequency)] * len(rays),
                                     (10.0 * np.log10(rays.powers)).tolist(), (rays.delays * 1e9).tolist(),
                                     rays.aoas.tolist()))
        assert path.read_bytes() == out.getvalue().encode("utf-8")
        loaded = cb.load_dataset(path, 15.0, 28.0)
        assert [p.link_id for p in loaded] == ids
        cb.write_dataset(loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_header_pinned(self, tmp_path):
        path = tmp_path / "links.csv"
        cb.write_dataset(small_dataset(1), path)
        assert path.read_text().splitlines()[0] == "link_id,freq_ghz,power_db,delay_ns,aoa_deg"

    def test_rows_group_by_first_appearance(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "link_id,freq_ghz,power_db,delay_ns,aoa_deg\n"
            "a,15,0,1,10\n"
            "b,15,0,1,50\n"
            "a,28,-3,2,11\n"
            "b,28,-3,2,51\n"
        )
        pairs = cb.load_dataset(path, 15.0, 28.0)
        assert [p.link_id for p in pairs] == ["a", "b"]
        assert pairs[0].high.rays[0].aoa_azimuth == 11.0

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,freq,power\n")
        with pytest.raises(cb.DatasetFormatError, match="header"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(cb.DatasetFormatError, match="empty"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "lonely.csv"
        path.write_text("link_id,freq_ghz,power_db,delay_ns,aoa_deg\n")
        with pytest.raises(cb.DatasetFormatError, match="no data rows"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_bad_rows_located_by_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "link_id,freq_ghz,power_db,delay_ns,aoa_deg\n"
            "a,15,0,1,10\n"
            "a,28,zero,1,10\n"
        )
        with pytest.raises(cb.DatasetFormatError, match=":3"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("link_id,freq_ghz,power_db,delay_ns,aoa_deg\na,15,0\n")
        with pytest.raises(cb.DatasetFormatError, match="fields"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_angle_domain_checked(self, tmp_path):
        path = tmp_path / "angle.csv"
        path.write_text("link_id,freq_ghz,power_db,delay_ns,aoa_deg\na,15,0,1,361\n")
        with pytest.raises(cb.DatasetFormatError, match="360"):
            cb.load_dataset(path, 15.0, 28.0)

    @pytest.mark.parametrize("freq_ghz", ["0", "-1", "nan"])
    def test_bad_frequency_located_by_line_and_field(self, tmp_path, freq_ghz):
        path = tmp_path / "freq.csv"
        path.write_text(f"link_id,freq_ghz,power_db,delay_ns,aoa_deg\na,{freq_ghz},0,1,10\n")
        with pytest.raises(cb.DatasetFormatError, match=r"freq\.csv:2\.freq_ghz: "):
            cb.load_dataset(path, 15.0, 28.0)

    @pytest.mark.parametrize("power_db", ["-4000", "4000", "-3100"])
    def test_power_outside_the_normal_float_range_located_by_line(self, tmp_path, power_db):
        path = tmp_path / "power.csv"
        path.write_text(
            "link_id,freq_ghz,power_db,delay_ns,aoa_deg\n"
            "a,15,0,1,10\n"
            f"a,28,{power_db},1,10\n"
        )
        with pytest.raises(cb.DatasetFormatError, match=r":3\.power_db"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_equal_frequency_pair_refused(self, tmp_path):
        # the CSV mirror keys bands by frequency, so an equal-frequency pair
        # would merge into one band on reload and double every path
        rays = (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 1e-9, 10.0))
        same = cb.BandChannel(15.0, rays)
        near = cb.BandChannel(15.0 + 0.5e-6, rays)
        path = tmp_path / "self.csv"
        for pair in (
            cb.LinkPair(low=same, high=same, link_id="x"),
            cb.LinkPair(low=same, high=near, link_id="y"),
        ):
            with pytest.raises(cb.DatasetFormatError, match=f"link {pair.link_id!r}"):
                cb.write_dataset([pair], path)
        assert not path.exists()

    @pytest.mark.parametrize("link_id", ["a\rb", "\ud800"])
    def test_link_id_the_csv_cannot_hold_refused(self, tmp_path, link_id):
        # JSON escapes both; CSV would split the row at the carriage return,
        # or fail to encode the surrogate halfway through the file
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0),))
        pair = cb.LinkPair(low=low, high=cb.BandChannel(28.0, low.rays), link_id=link_id)
        path = tmp_path / "ids.csv"
        with pytest.raises(cb.DatasetFormatError, match=f"^link {re.escape(repr(link_id))}: "):
            cb.write_dataset([pair], path)
        assert not path.exists()
        cb.write_dataset([pair], tmp_path / "ids.json")
        assert cb.load_dataset(tmp_path / "ids.json", 15.0, 28.0)[0].link_id == link_id

    def test_departure_angles_refused(self, tmp_path):
        # the CSV mirror has no aod_deg column, so they would reload as None
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 0.0, 10.0, aod_azimuth=33.0)))
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 0.0),))
        pair = cb.LinkPair(low=low, high=high, link_id="x")
        path = tmp_path / "aod.csv"
        with pytest.raises(cb.DatasetFormatError,
                           match="^link 'x': CSV cannot hold departure angles; write JSON instead$"):
            cb.write_dataset([pair], path)
        assert not path.exists()

    def test_field_over_the_csv_limit_located(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("link_id,freq_ghz,power_db,delay_ns,aoa_deg\na,15,0,1,10\n"
                        + "b" * 200_000 + ",15,0,1,10\n")
        with pytest.raises(cb.DatasetFormatError, match=r"wide\.csv:3: field larger than field limit"):
            cb.load_dataset(path, 15.0, 28.0)

    @pytest.mark.parametrize("line", [1, 3])
    def test_bytes_that_are_not_utf8_located(self, tmp_path, line):
        rows = [b"link_id,freq_ghz,power_db,delay_ns,aoa_deg", b"a,15,0,1,10", b"a,28,0,1,10"]
        rows[line - 1] = b"\xff" + rows[line - 1]
        path = tmp_path / "odd.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(cb.DatasetFormatError,
                           match=rf"odd\.csv:{line}: not valid UTF-8: byte 0xff \(invalid start byte\)$"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_byte_that_is_not_utf8_located_past_the_first_read_chunk(self, tmp_path):
        # the codec's own position counts from the start of an 8 KB chunk
        path = tmp_path / "bad.csv"
        cb.write_dataset(cb.generate_dataset(cb.GenConfig(seed=5), 300), path)
        data = bytearray(path.read_bytes())
        data[-30] = 0xFF
        path.write_bytes(bytes(data))
        line = data[:-30].count(b"\n") + 1
        assert line > 3000
        with pytest.raises(cb.DatasetFormatError,
                           match=rf"bad\.csv:{line}: not valid UTF-8: byte 0xff \(invalid start byte\)$"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_byte_order_mark_accepted(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        cb.write_dataset(small_dataset(), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert cb.load_dataset(marked, 15.0, 28.0) == cb.load_dataset(plain, 15.0, 28.0)

    def test_equal_frequency_pair_kept_by_json(self, tmp_path):
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 1e-9, 10.0)))
        path = tmp_path / "self.json"
        cb.write_dataset([cb.LinkPair(low=ch, high=ch, link_id="x")], path)
        loaded = cb.load_dataset(path, 15.0, 15.0)
        assert len(loaded[0].low.rays) == 2
        assert len(loaded[0].high.rays) == 2


ANGLES = st.floats(min_value=0.0, max_value=360.0, exclude_max=True)


@st.composite
def link_pairs(draw, csv: bool, link_ids=st.text(min_size=1, max_size=6), mirror=False):
    """Pairs with unique ids, drawn from ``link_ids``, at one random frequency pair.

    Powers stay inside (1e-300, 1e300), where every dB value reloads as a
    normal float; delays are any finite value >= 0; CSV bands are at least
    1e-3 GHz apart. Half the CSV draws may hold departure angles, which the
    CSV writer refuses; the other half hold none. With ``mirror`` no draw
    holds departure angles or a delay infinite in ns, so the CSV writer
    refuses only a link id it cannot hold.
    """
    ray = st.builds(
        cb.Ray,
        power=st.floats(min_value=1e-300, max_value=1e300),
        delay=st.floats(min_value=0.0, max_value=1e299 if mirror else None, allow_infinity=False),
        aoa_azimuth=ANGLES,
        aod_azimuth=st.none() if mirror or csv and draw(st.booleans()) else st.none() | ANGLES,
    )
    rays = st.lists(ray, min_size=1, max_size=5)
    low = draw(st.floats(min_value=0.5, max_value=100.0))
    high = low + draw(st.floats(min_value=1e-3 if csv else 0.0, max_value=100.0))
    ids = draw(st.lists(link_ids, min_size=1, max_size=4, unique=True))
    return [
        cb.LinkPair(cb.BandChannel(low, draw(rays)), cb.BandChannel(high, draw(rays)), link_id)
        for link_id in ids
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    @settings(deadline=None)  # file I/O time is not under test
    @given(data=st.data())
    def test_written_links_load_back_or_are_refused(self, tmp_path_factory, name, data):
        pairs = data.draw(link_pairs(csv=name.endswith(".csv")))
        path = tmp_path_factory.mktemp("round") / name
        try:
            cb.write_dataset(pairs, path)
        except cb.DatasetFormatError:
            assert not path.exists()
            return
        loaded = cb.load_dataset(path, pairs[0].low.frequency, pairs[0].high.frequency)
        assert [p.link_id for p in loaded] == [p.link_id for p in pairs]
        for got, exp in zip(loaded, pairs):
            assert (got.low.frequency, got.high.frequency) == (exp.low.frequency, exp.high.frequency)
            assert_rays_close(got.low.rays, exp.low.rays)
            assert_rays_close(got.high.rays, exp.high.rays)

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    @settings(deadline=None)  # file I/O time is not under test
    @given(data=st.data())
    def test_written_file_rewrites_byte_identically(self, tmp_path_factory, name, data):
        pairs = data.draw(link_pairs(csv=name.endswith(".csv")))
        directory = tmp_path_factory.mktemp("rewrite")
        first, second = directory / f"first_{name}", directory / f"second_{name}"
        try:
            cb.write_dataset(pairs, first)
        except cb.DatasetFormatError:
            return
        loaded = cb.load_dataset(first, pairs[0].low.frequency, pairs[0].high.frequency)
        cb.write_dataset(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_rewrite_is_byte_identical(self, tmp_path, name):
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 12.5e-9, 10.0),))
        pair = cb.LinkPair(low=low, high=cb.BandChannel(28.0, low.rays), link_id="l")
        first, second = tmp_path / f"first_{name}", tmp_path / f"second_{name}"
        cb.write_dataset([pair], first)
        cb.write_dataset(cb.load_dataset(first, 15.0, 28.0), second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda links: pickle.loads(pickle.dumps(links))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_copied_dataset_rewrites_the_source_bytes(self, tmp_path, name, clone):
        # a copy once rebuilt its tables from Ray views and wrote 12.500000000000002
        source, second = tmp_path / f"source_{name}", tmp_path / f"second_{name}"
        cb.write_dataset(small_dataset(2), source)
        # the first path's delay becomes 12.5 ns, in the writer's own layout
        first_delay = r'("delay_ns": )[^,]+' if name.endswith(".json") else r"^(link-00000,15\.0,[^,]+,)[^,]+"
        text, n = re.subn(first_delay, r"\g<1>12.5", source.read_text(), count=1, flags=re.M)
        assert n == 1
        source.write_text(text)
        cb.write_dataset(cb.load_dataset(source, 15.0, 28.0), second)
        assert second.read_bytes() == source.read_bytes()
        copied = clone(cb.load_dataset(source, 15.0, 28.0))
        assert not copied[0].low.rays.delays.flags.writeable
        cb.write_dataset(copied, second)
        assert second.read_bytes() == source.read_bytes()


def _zero_angle_files(directory, name):
    """A written link whose angles at 0 degrees read ``0.0`` in one file and ``-0.0`` in another.

    Ray-traced exports can write ``-0.0``, for example from ``atan2(-0.0, x)``.
    A JSON file carries the sign on ``aoa_deg`` and ``aod_deg``, a CSV file on ``aoa_deg``.
    """
    json_file = name.endswith(".json")
    rays = (cb.Ray(1.0, 12.5e-9, 0.0, 0.0 if json_file else None), cb.Ray(0.5, 30e-9, 40.0))
    plain, signed = directory / f"plain_{name}", directory / f"signed_{name}"
    cb.write_dataset([cb.LinkPair(cb.BandChannel(15.0, rays), cb.BandChannel(28.0, rays), "l")], plain)
    zero_angle = r'("ao[ad]_deg": )0\.0\b' if json_file else r"^(l,[^,]+,[^,]+,[^,]+,)0\.0$"
    text, n = re.subn(zero_angle, r"\g<1>-0.0", plain.read_text(), flags=re.M)
    assert n == (4 if json_file else 2)
    signed.write_text(text)
    return plain, signed


class TestNegativeZeroAngles:
    # the loaders keep a file's angles as read, so the sign of a zero survives a rewrite
    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_rewrites_byte_for_byte(self, tmp_path, name):
        _, signed = _zero_angle_files(tmp_path, name)
        again = tmp_path / f"again_{name}"
        cb.write_dataset(cb.load_dataset(signed, 15.0, 28.0), again)
        assert again.read_bytes() == signed.read_bytes()

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_columns_keep_the_sign_and_the_report_ignores_it(self, tmp_path, name):
        plain, signed = _zero_angle_files(tmp_path, name)
        signed_pair, plain_pair = (cb.load_dataset(path, 15.0, 28.0)[0] for path in (signed, plain))
        for rays in (signed_pair.low.rays, signed_pair.high.rays):
            assert math.copysign(1.0, rays.aoas[0]) == -1.0
            assert rays[0].aoa_azimuth == 0.0
            if name.endswith(".json"):
                assert math.copysign(1.0, rays.aods[0]) == -1.0
                assert rays[0].aod_azimuth == 0.0
        grid, pattern = cb.AngularGrid(1.0), cb.UlaPattern(4)
        for method in ("m1", "m2"):
            config = cb.SimilarityConfig(method=method)
            assert (cb.analyze_pair(signed_pair, pattern, pattern, grid, config).to_dict()
                    == cb.analyze_pair(plain_pair, pattern, pattern, grid, config).to_dict())


class TestColumnChecksKeepFileOrder:
    # numbers are checked as whole columns, after the structure walk; the
    # first error in file order must still win

    def test_bad_number_before_a_structural_error_comes_first(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][1]["paths"][0]["aoa_deg"] = 400.0
        doc["links"].append({"link_id": "l2", "bands": []})
        with pytest.raises(cb.DatasetFormatError, match=r"^links\[0\]\.bands\[1\]\.paths\[0\]\.aoa_deg"):
            cb.load_dataset(write_json(tmp_path, doc), 15.0, 28.0)

    def test_structural_error_before_a_bad_number_comes_first(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["bands"][0]["paths"].append({"power_db": 0.0, "delay_ns": 1.0})
        doc["links"][0]["bands"][1]["paths"][0]["aoa_deg"] = 400.0
        with pytest.raises(cb.DatasetFormatError,
                           match=r"^links\[0\]\.bands\[0\]\.paths\[1\]: missing key 'aoa_deg'"):
            cb.load_dataset(write_json(tmp_path, doc), 15.0, 28.0)

    def test_csv_bad_number_before_a_short_row_comes_first(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("link_id,freq_ghz,power_db,delay_ns,aoa_deg\na,15,0,1,10\na,28,0,-1,10\nb,15,0\n")
        with pytest.raises(cb.DatasetFormatError, match=r"order\.csv:3\.delay_ns: must be >= 0"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_csv_bad_number_before_an_unreadable_line_comes_first(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("link_id,freq_ghz,power_db,delay_ns,aoa_deg\na,15,0,1,361\n"
                        + "b" * 200_000 + ",15,0,1,10\n")
        with pytest.raises(cb.DatasetFormatError, match=r"order\.csv:2\.aoa_deg: must be < 360"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_first_bad_number_in_file_order_is_named(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("link_id,freq_ghz,power_db,delay_ns,aoa_deg\n"
                        "a,15,0,1,10\na,28,4000,1,10\nb,15,0,1,361\n")
        with pytest.raises(cb.DatasetFormatError, match=r"order\.csv:3\.power_db"):
            cb.load_dataset(path, 15.0, 28.0)


class TestNoRayObjects:
    # the dataset layer and the generator work on columns only

    @pytest.fixture()
    def ray_count(self, monkeypatch):
        calls = []
        post_init = cb.Ray.__post_init__

        def counting(ray):
            calls.append(1)
            post_init(ray)

        monkeypatch.setattr(cb.Ray, "__post_init__", counting)
        return calls

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_generate_write_and_load_build_no_ray(self, tmp_path, ray_count, name):
        pairs = cb.generate_dataset(cb.GenConfig(seed=4), 20)
        cb.write_dataset(pairs, tmp_path / name)
        loaded = cb.load_dataset(tmp_path / name, 15.0, 28.0)
        assert len(loaded) == 20
        assert ray_count == []
        assert isinstance(loaded[0].low.rays[0], cb.Ray)  # a view is built on demand
        assert ray_count == [1]

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_loaded_columns_are_read_only(self, tmp_path, name, assert_frozen):
        # built, unpickled and copied tables once owned columns a caller could
        # make writeable again, and every table's base array could be made
        # writeable, after which its view could be too
        pairs = small_dataset(2)
        cb.write_dataset(pairs, tmp_path / name)
        loaded = cb.load_dataset(tmp_path / name, 15.0, 28.0)[1].high.rays
        for origin in (loaded, pairs[1].high.rays):  # loaded, then generated
            built = cb.RayTable(list(origin))
            tables = [origin, built]
            tables += [pickle.loads(pickle.dumps(rays)) for rays in tables]
            tables += [copy.copy(built), copy.deepcopy(built), copy.deepcopy(origin)]
            for rays in tables:
                assert rays == origin
                for column in (rays.powers, rays.delays, rays.aoas, *(rays._file or ())):
                    assert_frozen(column)


def _json_corruption(draw, doc):
    """Apply one drawn single-field corruption to a JSON dataset document."""
    kind = draw(st.sampled_from(["none", "value", "missing", "extra", "empty_id"]))
    link = doc["links"][draw(st.integers(0, len(doc["links"]) - 1))]
    band = link["bands"][draw(st.integers(0, len(link["bands"]) - 1))]
    entry = band["paths"][draw(st.integers(0, len(band["paths"]) - 1))]
    target = draw(st.sampled_from([link, band, entry]))
    if kind == "value":
        holder, key = draw(st.sampled_from([(band, "freq_ghz")] + [(entry, key) for key in entry]))
        holder[key] = draw(st.sampled_from(BAD_JSON_VALUES))
    elif kind == "missing":
        del target[draw(st.sampled_from(sorted(target)))]
    elif kind == "extra":
        target["zenith"] = 1.0
    elif kind == "empty_id":
        link["link_id"] = ""


def _csv_corruption(draw, rows):
    """Apply one drawn single-field corruption to CSV data rows."""
    kind = draw(st.sampled_from(["none", "value", "short", "extra", "empty_id"]))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    if kind == "value":
        row[draw(st.integers(1, 4))] = draw(st.sampled_from(BAD_CSV_VALUES))
    elif kind == "short":
        row.pop()
    elif kind == "extra":
        row.append("1")
    elif kind == "empty_id":
        row[0] = ""


BAD_JSON_VALUES = ["x", True, None, [1.0], math.nan, math.inf, -1.0, -0.5, 0, 360.0, 4000.0,
                   -4000.0, -3100.0, 10**400]
BAD_CSV_VALUES = ["x", "", "nan", "inf", "-1", "-0.5", "0", "360", "4000", "-4000", "-3100", "1e999"]


# mostly both requested bands, within the 1e-6 GHz tolerance or exact
PAIRED_BANDS = st.sampled_from([[15.0, 28.0], [28, 15], [6.0, 15.0000004, 28.0],
                                [15.0, 15.0000004, 28.0], [15.0, 60.0], [28.0]])
# two bands within the tolerance of 15 GHz and of each other, in either order
NEAR_EQUAL_BANDS = st.lists(st.sampled_from([15.0, 15, 15.0000004, 14.9999996]), min_size=2, max_size=2)


# a file may write a zero angle as -0.0, which the loaders keep
FILE_ANGLES = ANGLES | st.just(-0.0)


@st.composite
def dataset_files(draw, csv: bool, bands=PAIRED_BANDS):
    """A random valid dataset, as a JSON document or CSV rows, with at most one corruption."""
    paths = st.fixed_dictionaries(
        {"power_db": st.floats(-300.0, 300.0) | st.integers(-300, 300),
         "delay_ns": st.floats(0.0, 1e6) | st.just(-0.0),
         "aoa_deg": FILE_ANGLES},
        optional={} if csv else {"aod_deg": FILE_ANGLES},
    )
    links = [
        {"link_id": f"l{i}",
         "bands": [{"freq_ghz": freq, "paths": draw(st.lists(paths, min_size=1, max_size=4))}
                   for freq in draw(bands)]}
        for i in range(draw(st.integers(1, 4)))
    ]
    if not csv:
        doc = {"schema_version": "1", "metadata": {}, "links": links}
        _json_corruption(draw, doc)
        return json.dumps(doc)
    rows = [[link["link_id"], repr(float(band["freq_ghz"])),
             *(repr(float(entry[key])) for key in ("power_db", "delay_ns", "aoa_deg"))]
            for link in links for band in link["bands"] for entry in band["paths"]]
    _csv_corruption(draw, rows)
    out = io.StringIO()
    csv_module.writer(out, lineterminator="\n").writerows(
        [["link_id", "freq_ghz", "power_db", "delay_ns", "aoa_deg"], *rows])
    return out.getvalue()


def _columns(paths):
    """The reference paths as the four RayTable fields."""
    powers, delays, aoas, aods = zip(*paths)
    return (np.array(powers).tobytes(), np.array(delays).tobytes(), np.array(aoas).tobytes(),
            repr(aods if any(a is not None for a in aods) else None))


def _assert_loads_as_the_reference_does(path, low_ghz, high_ghz):
    try:
        expected = oracles.load_dataset(path, low_ghz, high_ghz)
    except oracles.DatasetRefused as exc:
        with pytest.raises(cb.DatasetFormatError) as info:
            cb.load_dataset(path, low_ghz, high_ghz)
        assert str(info.value) == str(exc)
        return
    got = cb.load_dataset(path, low_ghz, high_ghz)
    assert [p.link_id for p in got] == [link_id for link_id, _, _ in expected]
    for pair, (_, low, high) in zip(got, expected):
        for band, (freq, paths) in ((pair.low, low), (pair.high, high)):
            assert repr(band.frequency) == repr(freq)
            rays = band.rays
            assert (rays.powers.tobytes(), rays.delays.tobytes(), rays.aoas.tobytes(),
                    repr(rays.aods)) == _columns(paths)


class TestMatchesTheReferenceLoader:
    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    @settings(deadline=None)  # file I/O time is not under test
    @given(data=st.data())
    def test_same_pairs_or_same_error(self, tmp_path_factory, name, data):
        path = tmp_path_factory.mktemp("diff") / name
        path.write_text(data.draw(dataset_files(csv=name.endswith(".csv"))), encoding="utf-8")
        _assert_loads_as_the_reference_does(path, 15.0, 28.0)

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    @pytest.mark.parametrize("freqs", [(15.0, 15.0), (15.0, 15.0000004)], ids=["15-15", "15-15.0000004"])
    @settings(deadline=None)  # file I/O time is not under test
    @given(data=st.data())
    def test_near_equal_bands_pair_or_are_refused_as_the_reference_does(
            self, tmp_path_factory, name, freqs, data):
        path = tmp_path_factory.mktemp("near") / name
        path.write_text(data.draw(dataset_files(csv=name.endswith(".csv"), bands=NEAR_EQUAL_BANDS)),
                        encoding="utf-8")
        _assert_loads_as_the_reference_does(path, *freqs)


# link ids that hold newlines, so a quoted row spans lines, and a non-ASCII letter
MULTI_LINE_IDS = st.text(alphabet='ab\n", é', min_size=1, max_size=6)
# refused in every field: not a number, not finite, or out of every field's range
BAD_IN_EVERY_FIELD = ["x", "", "nan", "inf", "1e999", "-4000"]


def _written_rows(draw, tmp_path_factory):
    """The data rows of a drawn CSV file whose ids span lines, or None when the writer refuses it."""
    pairs = draw(link_pairs(csv=True, link_ids=MULTI_LINE_IDS, mirror=True))
    path = tmp_path_factory.mktemp("lines") / "links.csv"
    try:
        cb.write_dataset(pairs, path)
    except cb.DatasetFormatError:
        return path, None
    with open(path, encoding="utf-8", newline="") as handle:
        return path, list(csv_module.reader(handle))[1:]


def _encoded_lines(rows):
    """Each row as CSV bytes, with the line it starts on (the header is line 1)."""
    out, lines = io.StringIO(), []
    writer = csv_module.writer(out, lineterminator="\n")
    writer.writerow(["link_id", "freq_ghz", "power_db", "delay_ns", "aoa_deg"])
    encoded = [out.getvalue().encode("utf-8")]
    for row in rows:
        lines.append(1 + b"".join(encoded).count(b"\n"))
        out.seek(0)
        out.truncate()
        writer.writerow(row)
        encoded.append(out.getvalue().encode("utf-8"))
    return encoded, lines


class TestCsvLocations:
    # a row is named by the line it starts on, whatever spans lines before it

    @settings(deadline=None)  # file I/O time is not under test
    @given(data=st.data())
    def test_bad_value_named_by_the_first_line_of_its_row(self, tmp_path_factory, data):
        path, rows = _written_rows(data.draw, tmp_path_factory)
        assume(rows is not None)
        r = data.draw(st.integers(0, len(rows) - 1))
        rows[r][data.draw(st.integers(1, 4))] = data.draw(st.sampled_from(BAD_IN_EVERY_FIELD))
        encoded, lines = _encoded_lines(rows)
        path.write_bytes(b"".join(encoded))
        with pytest.raises(cb.DatasetFormatError) as info:
            cb.load_dataset(path, 15.0, 28.0)
        assert re.match(rf"{re.escape(str(path))}:{lines[r]}[.:]", str(info.value))

    @settings(deadline=None)  # file I/O time is not under test
    @given(data=st.data())
    def test_byte_that_is_not_utf8_never_hides_an_earlier_bad_number(self, tmp_path_factory, data):
        path, rows = _written_rows(data.draw, tmp_path_factory)
        assume(rows is not None)
        r = data.draw(st.integers(0, len(rows) - 1))
        rows[r][data.draw(st.integers(1, 4))] = data.draw(st.sampled_from(BAD_IN_EVERY_FIELD))
        encoded, lines = _encoded_lines(rows)
        encoded.append(b"")  # the byte may also start a last line of its own
        later = data.draw(st.integers(r + 2, len(encoded) - 1))
        at = data.draw(st.integers(0, max(len(encoded[later]) - 1, 0)))
        encoded[later] = encoded[later][:at] + b"\xff" + encoded[later][at:]
        path.write_bytes(b"".join(encoded))
        with pytest.raises(cb.DatasetFormatError) as info:
            cb.load_dataset(path, 15.0, 28.0)
        assert re.match(rf"{re.escape(str(path))}:{lines[r]}[.:]", str(info.value))

    def test_row_after_a_multi_line_link_id_located_by_its_line(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_text('link_id,freq_ghz,power_db,delay_ns,aoa_deg\n"a\nb",15,-1,1,10\n"a\nb",28,-1,1,10\n'
                        "c,15,-1,1,10\nc,28,-1,1,400\n")
        with pytest.raises(cb.DatasetFormatError, match=r"multi\.csv:7\.aoa_deg: must be < 360\.0, got 400\.0$"):
            cb.load_dataset(path, 15.0, 28.0)

    def test_bad_number_before_a_byte_that_is_not_utf8_comes_first(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_bytes(b"link_id,freq_ghz,power_db,delay_ns,aoa_deg\na,15,-1,1,400\n\xff,28,-1,1,10\n")
        with pytest.raises(cb.DatasetFormatError, match=r"order\.csv:2\.aoa_deg: must be < 360\.0, got 400\.0$"):
            cb.load_dataset(path, 15.0, 28.0)

    @pytest.mark.parametrize("name", ["w.json", "w.csv"])
    def test_writer_names_the_pair_list_entry_in_both_formats(self, tmp_path, name):
        # the CSV form once named a line of the unwritten file, counted by rows
        def pair(link_id, *high):
            return cb.LinkPair(cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0),)),
                               cb.BandChannel(28.0, high), link_id)

        pairs = [pair("a\nb", cb.Ray(1.0, 0.0, 10.0)),
                 pair("c", cb.Ray(1.0, 0.0, 10.0), cb.Ray(sys.float_info.min, 0.0, 20.0))]
        with pytest.raises(cb.DatasetFormatError,
                           match=r"^link 'c': links\[1\]\.bands\[1\]\.paths\[1\]\.power_db: "):
            cb.write_dataset(pairs, tmp_path / name)
        assert not (tmp_path / name).exists()


class TestJsonCsvRoundTrip:
    # pairs the CSV mirror can hold keep their bytes through the other format

    @staticmethod
    def _written(pairs, path):
        try:
            cb.write_dataset(pairs, path)
        except cb.DatasetFormatError:
            return False
        return True

    @settings(deadline=None)  # file I/O time is not under test
    @given(pairs=link_pairs(csv=True, mirror=True))
    def test_csv_through_json_gives_the_same_csv(self, tmp_path_factory, pairs):
        work = tmp_path_factory.mktemp("mirror")
        assume(self._written(pairs, work / "a.csv"))
        low, high = pairs[0].low.frequency, pairs[0].high.frequency
        cb.write_dataset(cb.load_dataset(work / "a.csv", low, high), work / "b.json")
        cb.write_dataset(cb.load_dataset(work / "b.json", low, high), work / "c.csv")
        assert (work / "c.csv").read_bytes() == (work / "a.csv").read_bytes()

    @settings(deadline=None)  # file I/O time is not under test
    @given(pairs=link_pairs(csv=True, mirror=True))
    def test_json_to_csv_gives_the_csv_of_the_pairs(self, tmp_path_factory, pairs):
        work = tmp_path_factory.mktemp("mirror")
        assume(self._written(pairs, work / "direct.csv"))
        cb.write_dataset(pairs, work / "a.json")
        loaded = cb.load_dataset(work / "a.json", pairs[0].low.frequency, pairs[0].high.frequency)
        cb.write_dataset(loaded, work / "b.csv")
        assert (work / "b.csv").read_bytes() == (work / "direct.csv").read_bytes()
