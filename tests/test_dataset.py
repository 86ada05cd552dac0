"""Dataset files: round trips, band pairing, and validation diagnostics."""

from __future__ import annotations

import json
import logging
import sys

import pytest
from hypothesis import example, given
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
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0, aod_azimuth=33.0),), "l")
        path = tmp_path / "links.json"
        cb.write_dataset([cb.LinkPair(low=ch, high=ch)], path)
        loaded = cb.load_dataset(path, 15.0, 15.0)
        assert loaded[0].low.rays[0].aod_azimuth == 33.0


class TestWriteRefusesWhatLoadRejects:
    # the writer runs the loader's checks, so a written file always reloads

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    def test_tiny_negative_angles_round_trip(self, tmp_path, name):
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, -1e-20, aod_azimuth=-1e-20),), "l")
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 10.0),), "l")
        path = tmp_path / name
        cb.write_dataset([cb.LinkPair(low=low, high=high)], path)
        loaded = cb.load_dataset(path, 15.0, 28.0)
        assert loaded[0].low.rays[0].aoa_azimuth == 0.0

    @pytest.mark.parametrize(
        "name, where",
        [
            ("links.json", r"link 'l': links\[0\]\.bands\[1\]\.paths\[1\]\.power_db"),
            ("links.csv", r"link 'l': .*links\.csv:5\.power_db"),
        ],
    )
    def test_subnormal_power_refused_and_located(self, tmp_path, name, where):
        # Ray accepts the smallest normal power, but its dB value reloads as a
        # subnormal, which load_dataset rejects
        power = sys.float_info.min
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 0.0, 5.0)), "l")
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(power, 0.0, 20.0)), "l")
        path = tmp_path / name
        with pytest.raises(cb.DatasetFormatError, match=where):
            cb.write_dataset([cb.LinkPair(low=low, high=high)], path)
        assert not path.exists()

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
        ch = cb.BandChannel(15.0, (cb.Ray(power, 0.0, 0.0),), "l")
        path = tmp_path_factory.mktemp("power") / "links.json"
        try:
            cb.write_dataset([cb.LinkPair(low=ch, high=ch)], path)
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

    def test_schema_version(self, tmp_path):
        self.check(tmp_path, minimal_doc(schema_version="2"), "schema_version")

    def test_links_must_be_nonempty(self, tmp_path):
        self.check(tmp_path, minimal_doc(links=[]), "nonempty")

    def test_unknown_link_keys(self, tmp_path):
        doc = minimal_doc()
        doc["links"][0]["extra"] = 1
        self.check(tmp_path, doc, r"links\[0\]")

    def test_duplicate_link_ids(self, tmp_path):
        doc = minimal_doc()
        doc["links"].append(dict(doc["links"][0]))
        self.check(tmp_path, doc, "duplicate")

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
        same = cb.BandChannel(15.0, rays, "x")
        near = cb.BandChannel(15.0 + 0.5e-6, rays, "y")
        path = tmp_path / "self.csv"
        for pair in (
            cb.LinkPair(low=same, high=same),
            cb.LinkPair(low=cb.BandChannel(15.0, rays, "y"), high=near),
        ):
            with pytest.raises(cb.DatasetFormatError, match=f"link {pair.link_id!r}"):
                cb.write_dataset([pair], path)
        assert not path.exists()

    def test_equal_frequency_pair_kept_by_json(self, tmp_path):
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 1e-9, 10.0)), "x")
        path = tmp_path / "self.json"
        cb.write_dataset([cb.LinkPair(low=ch, high=ch)], path)
        loaded = cb.load_dataset(path, 15.0, 15.0)
        assert len(loaded[0].low.rays) == 2
        assert len(loaded[0].high.rays) == 2
