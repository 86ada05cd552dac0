"""Command-line behavior: spec grammar, subcommands, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

import crossband as cb
from crossband.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    PatternSpecError,
    main,
    parse_pattern_spec,
)


@pytest.fixture()
def dataset_path(tmp_path):
    # high-band offsets 0 / 5 / 60 degrees: power ratios 0, -3, -30 dB
    # under gpp3:hpbw=10,amax=30
    def pair(link_id, low_aoa, high_aoa):
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, low_aoa),), link_id)
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, high_aoa),))
        return cb.LinkPair(low=low, high=high)

    path = tmp_path / "links.json"
    cb.write_dataset(
        [pair("a", 100.0, 100.0), pair("b", 100.0, 105.0), pair("c", 100.0, 160.0)],
        path,
    )
    return path


def analysis_argv(data, extra=()):
    return [
        "--data", str(data),
        "--low-ghz", "15", "--high-ghz", "28",
        "--pattern-low", "gpp3:hpbw=10,amax=30",
        "--pattern-high", "gpp3:hpbw=10,amax=30",
        *extra,
    ]


class TestPatternSpec:
    def test_gpp3(self):
        pat = parse_pattern_spec("gpp3:hpbw=10,amax=25")
        assert isinstance(pat, cb.Gpp3Pattern)
        assert (pat.hpbw_deg, pat.a_max_db) == (10.0, 25.0)

    def test_gpp3_default_floor(self):
        assert parse_pattern_spec("gpp3:hpbw=15").a_max_db == 30.0

    def test_ula(self):
        pat = parse_pattern_spec("ula:n=8,spacing=0.5,floor=-50")
        assert isinstance(pat, cb.UlaPattern)
        assert pat.n_elements == 8
        assert pat.backplane_floor_db == -50.0

    def test_ula_defaults(self):
        pat = parse_pattern_spec("ula:n=4")
        assert (pat.spacing_wavelengths, pat.backplane_floor_db) == (0.5, -60.0)

    def test_file(self, tmp_path, gpp3_10):
        path = tmp_path / "pat.csv"
        cb.pattern_to_csv(gpp3_10, path, step_deg=1.0)
        assert isinstance(parse_pattern_spec(f"file:{path}"), cb.TabulatedPattern)

    @pytest.mark.parametrize(
        "spec",
        [
            "gpp3",                      # missing hpbw
            "gpp3:amax=30",              # missing hpbw
            "gpp3:hpbw=10,hpbw=20",      # duplicate key
            "gpp3:hpbw=10,slope=2",      # unknown key
            "gpp3:hpbw",                 # malformed item
            "gpp3:hpbw=wide",            # non-numeric
            "gpp3:hpbw=0",               # invalid parameter value
            "ula:spacing=0.5",           # missing n
            "ula:n=2.5",                 # fractional element count
            "file:",                     # missing path
            "dish:d=1",                  # unknown kind
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(PatternSpecError):
            parse_pattern_spec(spec)


class TestGenerate:
    def test_writes_dataset_with_provenance(self, tmp_path):
        out = tmp_path / "data.json"
        assert main(["generate", "--n-links", "3", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        assert doc["metadata"]["generator"] == "numpy-pcg64"
        assert doc["metadata"]["n_links"] == 3
        assert doc["metadata"]["gen_config"]["seed"] == 0
        assert len(doc["links"]) == 3

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text('{"seed": 9, "n_shared_paths": 2}')
        out = tmp_path / "data.json"
        code = main(["generate", "--config", str(cfg), "--n-links", "1", "--out", str(out)])
        assert code == EXIT_OK
        meta = json.loads(out.read_text())["metadata"]["gen_config"]
        assert meta["seed"] == 9
        assert meta["n_shared_paths"] == 2
        assert meta["angle_jitter_deg"] == 5.0

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--n-links", "4", "--out", str(a)])
        main(["generate", "--n-links", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_extension_switches_format(self, tmp_path):
        out = tmp_path / "data.csv"
        main(["generate", "--n-links", "1", "--out", str(out)])
        assert out.read_text().splitlines()[0] == "link_id,freq_ghz,power_db,delay_ns,aoa_deg"

    def test_bad_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text('{"n_paths": 4}')
        code = main(["generate", "--config", str(cfg), "--n-links", "1",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        assert "unknown" in capsys.readouterr().err

    def test_unreadable_config_is_io_error(self, tmp_path):
        code = main(["generate", "--config", str(tmp_path / "none.json"),
                     "--n-links", "1", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_IO

    def test_zero_links_rejected(self, tmp_path):
        code = main(["generate", "--n-links", "0", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION


class TestAnalyze:
    def test_single_link_report(self, dataset_path, capsys):
        code = main(["analyze", *analysis_argv(dataset_path), "--link", "b"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.endswith("\n")
        doc = json.loads(out)
        assert doc["link_id"] == "b"
        assert doc["power_ratio_db"] == pytest.approx(-3.0, abs=1e-9)
        assert doc["n_false"] == 0
        assert doc["card_low"] == 1
        assert doc["psp"]["psp_percent"] < 100.0

    def test_link_flag_required_for_multilink_data(self, dataset_path, capsys):
        assert main(["analyze", *analysis_argv(dataset_path)]) == EXIT_VALIDATION
        assert "--link" in capsys.readouterr().err

    def test_unknown_link_rejected(self, dataset_path):
        code = main(["analyze", *analysis_argv(dataset_path), "--link", "zz"])
        assert code == EXIT_VALIDATION

    def test_missing_dataset_is_io_error(self, tmp_path):
        code = main(["analyze", *analysis_argv(tmp_path / "none.json"), "--link", "a"])
        assert code == EXIT_IO

    def test_malformed_dataset_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "1"}')
        code = main(["analyze", *analysis_argv(bad), "--link", "a"])
        assert code == EXIT_VALIDATION
        assert "links" in capsys.readouterr().err

    def test_bad_pattern_spec_is_usage_error(self, dataset_path):
        argv = analysis_argv(dataset_path)
        argv[argv.index("gpp3:hpbw=10,amax=30")] = "gpp3:width=10"
        assert main(["analyze", *argv, "--link", "a"]) == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self, dataset_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--data", str(dataset_path)])
        assert exc.value.code == EXIT_USAGE

    def test_stdout_deterministic(self, dataset_path, capsys):
        main(["analyze", *analysis_argv(dataset_path), "--link", "c"])
        first = capsys.readouterr().out
        main(["analyze", *analysis_argv(dataset_path), "--link", "c"])
        assert capsys.readouterr().out == first


class TestBatch:
    def test_report_and_curves(self, dataset_path, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code = main(["batch", *analysis_argv(dataset_path), "--out", str(out_dir)])
        assert code == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "card_high_pdf.csv", "card_low_pdf.csv", "nf_pdf.csv",
            "r_cdf.csv", "report.json",
        ]
        doc = json.loads((out_dir / "report.json").read_text())
        assert list(doc)[0] == "params"
        assert doc["params"]["method"] == "m1"
        assert doc["params"]["delta_th_db"] == 10.0
        assert doc["n_analyzed"] == 3
        assert doc["per_link"]["a"]["psp"]["psp_percent"] == 100.0
        cdf_lines = (out_dir / "r_cdf.csv").read_text().splitlines()
        assert cdf_lines[0] == "power_ratio_db,cumulative_probability"
        assert len(cdf_lines) == 4

    def test_reruns_byte_identical(self, dataset_path, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        main(["batch", *analysis_argv(dataset_path), "--out", str(d1)])
        main(["batch", *analysis_argv(dataset_path), "--out", str(d2)])
        for name in ("report.json", "r_cdf.csv", "nf_pdf.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_method_recorded_in_params(self, dataset_path, tmp_path):
        out_dir = tmp_path / "m2run"
        main(["batch", *analysis_argv(dataset_path), "--method", "m2",
              "--out", str(out_dir)])
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["params"]["method"] == "m2"


class TestPsp:
    def test_per_link_percentages(self, dataset_path, capsys):
        code = main(["psp", "--data", str(dataset_path), "--low-ghz", "15",
                     "--high-ghz", "28", "--hpbw-deg", "10"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["hpbw_deg"] == 10.0
        assert doc["per_link"]["a"] == 100.0
        assert doc["per_link"]["b"] < 100.0
        assert doc["per_link"]["c"] < doc["per_link"]["b"]

    def test_optional_cdf_export(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "psp_cdf.csv"
        main(["psp", "--data", str(dataset_path), "--low-ghz", "15",
              "--high-ghz", "28", "--hpbw-deg", "10", "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "psp_percent,cumulative_probability"
        assert len(lines) == 4

    def test_unwritable_output_is_io_error(self, dataset_path, tmp_path, capsys):
        code = main(["psp", "--data", str(dataset_path), "--low-ghz", "15",
                     "--high-ghz", "28", "--hpbw-deg", "10",
                     "--out", str(tmp_path / "no_dir" / "x.csv")])
        capsys.readouterr()
        assert code == EXIT_IO


class TestFloatFaults:
    # two 1e308 rays overflow the 28 GHz band's filtered spectrum
    @pytest.fixture()
    def hot_path(self, tmp_path):
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0),), "hot")
        high = cb.BandChannel(28.0, (cb.Ray(1e308, 0.0, 10.0), cb.Ray(1e308, 0.0, 10.0)))
        path = tmp_path / "hot.json"
        cb.write_dataset([cb.LinkPair(low=low, high=high)], path)
        return path

    @pytest.mark.parametrize("command", ["analyze", "psp"])
    def test_overflow_is_one_error_line(self, hot_path, capsys, command):
        if command == "analyze":
            argv = ["analyze", *analysis_argv(hot_path)]
        else:
            argv = ["psp", "--data", str(hot_path), "--low-ghz", "15",
                    "--high-ghz", "28", "--hpbw-deg", "10"]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "overflow" in lines[0]
        assert "RuntimeWarning" not in captured.err


class TestPattern:
    def test_tabulates_to_csv(self, tmp_path):
        out = tmp_path / "pat.csv"
        code = main(["pattern", "--spec", "ula:n=8", "--out", str(out), "--step-deg", "1"])
        assert code == EXIT_OK
        loaded = cb.pattern_from_csv(out)
        assert float(loaded.gain_db(0.0)) == 0.0
        assert float(loaded.gain_db(180.0)) == -60.0

    def test_round_trip_through_file_spec(self, tmp_path):
        out = tmp_path / "pat.csv"
        main(["pattern", "--spec", "gpp3:hpbw=10", "--out", str(out), "--step-deg", "0.5"])
        reloaded = parse_pattern_spec(f"file:{out}")
        assert float(reloaded.gain_db(5.0)) == pytest.approx(-3.0, abs=1e-9)

    def test_bad_spec_is_usage_error(self, tmp_path):
        assert main(["pattern", "--spec", "gpp3", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    def test_bad_step_is_validation_error(self, tmp_path):
        code = main(["pattern", "--spec", "gpp3:hpbw=10",
                     "--out", str(tmp_path / "x.csv"), "--step-deg", "0.7"])
        assert code == EXIT_VALIDATION
