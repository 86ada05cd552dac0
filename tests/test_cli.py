"""Command-line behavior: spec grammar, subcommands, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import platform
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dataset import dataset_files

import crossband as cb
from crossband import cli
from crossband.beams import METHODS
from crossband.cli import (
    _SPEC_KINDS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    PatternSpecError,
    build_parser,
    main,
    parse_pattern_spec,
)


@pytest.fixture()
def dataset_path(tmp_path):
    # high-band offsets 0 / 5 / 60 degrees: power ratios 0, -3, -30 dB
    # under gpp3:hpbw=10,amax=30
    def pair(link_id, low_aoa, high_aoa):
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, low_aoa),))
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, high_aoa),))
        return cb.LinkPair(low=low, high=high, link_id=link_id)

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
            "gpp3:hpbw=10,n=4",          # another kind's key
            "ula:spacing=0.5",           # missing n
            "ula:n=2.5",                 # fractional element count
            "ula:n=1",                   # too few elements
            "ula:n=inf",                 # infinite element count
            "ula:n=4,spacing=inf",       # infinite spacing
            "ula:n=4,floor=-inf",        # infinite back-plane floor
            "gpp3:hpbw=10,amax=inf",     # infinite floor
            "file:",                     # missing path
            "dish:d=1",                  # unknown kind
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(PatternSpecError):
            parse_pattern_spec(spec)

    def test_spec_builds_the_class_with_its_defaults(self):
        assert parse_pattern_spec("ula:n=4") == cb.UlaPattern(4)
        assert parse_pattern_spec("gpp3:hpbw=10") == cb.Gpp3Pattern(10.0)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("gpp3:amax=20", "hpbw="),
            ("ula:floor=-50", "n="),
            ("gpp3:hpbw=10,slope=2", "gpp3 parameter 'slope'"),
        ],
    )
    def test_error_names_the_spec_key(self, spec, named):
        with pytest.raises(PatternSpecError, match=re.escape(named)):
            parse_pattern_spec(spec)

    def test_every_pattern_field_has_a_spec_key(self):
        for cls, field_of in _SPEC_KINDS.values():
            assert sorted(field_of.values()) == sorted(f.name for f in dataclasses.fields(cls))


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

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[]", "object"),
            ('{"angle_jitter_deg": "5"}', "angle_jitter_deg"),
            ('{"low_freq_ghz": null}', "low_freq_ghz"),
            ('{"power_jitter_db": NaN}', "power_jitter_db"),
            ('{"delay_spread_ns": Infinity}', "delay_spread_ns"),
        ],
    )
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "gen.json"
        cfg.write_text(text)
        code = main(["generate", "--config", str(cfg), "--n-links", "1",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert named in lines[0]

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"power_jitter_db": 1e300}', "link 0: .*power_jitter_db"),
            ('{"shared_power_decay_db": 1e300}', "link 0: .*shared_power_decay_db"),
            ('{"delay_spread_ns": 1e308}', "link 0: .*delay_spread_ns"),
            ('{"angle_jitter_deg": 1e308}', "link 2: .*angle_jitter_deg"),
            # the array exceeds a 47-bit address space, so allocation fails at once
            ('{"n_shared_paths": 1000000000000000}', "Unable to allocate"),
        ],
    )
    def test_extreme_setting_is_one_located_error_line(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "gen.json"
        cfg.write_text(text)
        code = main(["generate", "--config", str(cfg), "--n-links", "5",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.match(f"error: {named}", lines[0])
        assert not (tmp_path / "x.json").exists()

    def test_unreadable_config_is_io_error(self, tmp_path):
        code = main(["generate", "--config", str(tmp_path / "none.json"),
                     "--n-links", "1", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_IO

    def test_zero_links_rejected(self, tmp_path, capsys):
        # refused by generate_dataset, the one check of n_links
        code = main(["generate", "--n-links", "0", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: n_links must be >= 1, got 0\n"
        assert not (tmp_path / "x.json").exists()


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

    def test_pattern_file_sample_that_is_not_a_normal_float_refused(self, dataset_path, tmp_path, capsys):
        # once loaded, then the link failed with "filtered spectrum values must
        # be finite and strictly positive", naming no setting
        pattern = tmp_path / "deep.csv"
        pattern.write_text("-180,-1e300\n0,0\n90,-1e300\n")
        argv = analysis_argv(dataset_path, ["--link", "a"])
        argv[argv.index("gpp3:hpbw=10,amax=30")] = f"file:{pattern}"
        assert main(["analyze", *argv]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {pattern}: tabulated pattern gain -1e+300 dB (normalized) "
                                       "at offset 90.0 deg")

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

    @pytest.mark.parametrize(
        "field, where",
        [("delay_ns", "links[0].bands[0].paths[0].delay_ns"), ("freq_ghz", "links[0].bands[0].freq_ghz")],
    )
    def test_integer_too_large_for_a_float_is_located(self, dataset_path, capsys, field, where):
        text = re.sub(f'"{field}": [^,}}]+', f'"{field}": 1{"0" * 400}', dataset_path.read_text(), count=1)
        dataset_path.write_text(text)
        code = main(["analyze", *analysis_argv(dataset_path), "--link", "a"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: must be finite, got an integer too large")
        assert "Traceback" not in err

    def test_stdout_deterministic(self, dataset_path, capsys):
        main(["analyze", *analysis_argv(dataset_path), "--link", "c"])
        first = capsys.readouterr().out
        main(["analyze", *analysis_argv(dataset_path), "--link", "c"])
        assert capsys.readouterr().out == first


class TestNoLinkCarriesBothBands:
    @pytest.mark.parametrize("command, extra", [
        ("analyze", ["--pattern-low", "ula:n=4", "--pattern-high", "ula:n=4"]),
        ("batch", ["--pattern-low", "ula:n=4", "--pattern-high", "ula:n=4", "--out", "out"]),
        ("psp", ["--hpbw-deg", "10"]),
    ])
    def test_refused_after_the_skip_warning(self, tmp_path, command, extra):
        # in a child process, where main's logging setup writes the warning to stderr
        rays = (cb.Ray(1.0, 0.0, 10.0),)
        path = tmp_path / "links.json"
        cb.write_dataset([cb.LinkPair(cb.BandChannel(15.0, rays), cb.BandChannel(60.0, rays), "a")], path)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cb.__file__))}
        argv = [command, "--data", str(path), "--low-ghz", "15", "--high-ghz", "28", *extra]
        done = subprocess.run([sys.executable, "-m", "crossband.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == EXIT_VALIDATION
        assert done.stdout == ""
        assert done.stderr == (f"WARNING: {path}: skipped 1 of 1 links: 1 with no band at 28 GHz (first: a)\n"
                               f"error: no links in {path} carry both 15 and 28 GHz\n")
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("method", METHODS)
    def test_curve_files_are_the_report_curves(self, dataset_path, tmp_path, method):
        out_dir = tmp_path / "report"
        argv = ["batch", *analysis_argv(dataset_path, ["--method", method]), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        pattern = cb.Gpp3Pattern(10.0, 30.0)
        report = cb.analyze_dataset(cb.load_dataset(dataset_path, 15.0, 28.0), pattern, pattern,
                                    cb.AngularGrid(), cb.SimilarityConfig(method=method))
        curves = report.curves()
        expected = sorted(["report.json", *(f"{name}.csv" for name in curves)])
        assert sorted(p.name for p in out_dir.iterdir()) == expected
        for name, (header, rows) in curves.items():
            cb.write_curve_csv(tmp_path / "expected.csv", header, rows)
            assert (out_dir / f"{name}.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_infinite_floor_spec_is_a_usage_error(self, dataset_path, tmp_path):
        argv = analysis_argv(dataset_path)
        argv[argv.index("gpp3:hpbw=10,amax=30")] = "ula:n=4,floor=-inf"
        out_dir = tmp_path / "report"
        assert main(["batch", *argv, "--out", str(out_dir)]) == EXIT_USAGE
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, field", [
        ("--delta-th-db=inf", "delta_th_db must be finite and > 0, got inf"),
        ("--delta-p-db=-inf", "delta_p_db must be finite and < 0, got -inf"),
        ("--grid-step-deg=1e-7", "grid step must be in [0.01, 10] degrees, got 1e-07"),
    ], ids=["delta-th-inf", "delta-p-minus-inf", "grid-step-too-fine"])
    def test_extreme_setting_refused_before_analysis(self, dataset_path, tmp_path, capsys, flag, field):
        # once every link analysed, then JSON's "not JSON compliant: inf" and an
        # empty --out directory, or numpy's failure to allocate 26.8 GiB
        out_dir = tmp_path / "report"
        for command, extra in (("batch", ["--out", str(out_dir)]), ("analyze", ["--link", "a"])):
            assert main([command, *analysis_argv(dataset_path, [flag]), *extra]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"error: {field}\n"
        assert not out_dir.exists()

    def test_reruns_byte_identical(self, dataset_path, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        main(["batch", *analysis_argv(dataset_path), "--out", str(d1)])
        main(["batch", *analysis_argv(dataset_path), "--out", str(d2)])
        for name in ("report.json", "r_cdf.csv", "nf_pdf.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_defaults_are_the_library_defaults(self, dataset_path):
        args = build_parser().parse_args(["batch", *analysis_argv(dataset_path), "--out", "x"])
        config = cb.SimilarityConfig()
        assert (args.method, args.delta_th_db, args.delta_p_db) == (
            config.method, config.delta_th_db, config.delta_p_db)
        assert args.grid_step_deg == cb.AngularGrid().step_deg
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", *analysis_argv(dataset_path, ["--method", "m3"]),
                                       "--out", "x"])

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
        assert "failures" not in doc

    def test_optional_cdf_export(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "psp_cdf.csv"
        main(["psp", "--data", str(dataset_path), "--low-ghz", "15",
              "--high-ghz", "28", "--hpbw-deg", "10", "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "psp_percent,cumulative_probability"
        assert len(lines) == 4

    def test_infinite_floor_is_a_validation_error(self, dataset_path, capsys):
        code = main(["psp", "--data", str(dataset_path), "--low-ghz", "15", "--high-ghz", "28",
                     "--hpbw-deg", "10", "--amax-db", "inf"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a_max_db must be finite and > 0, got inf\n"

    def test_underflowing_floor_refused_before_any_link(self, dataset_path, capsys):
        # once every link failed with "filtered spectrum values must be finite
        # and strictly positive": with the cap lifted, the parabola underflows
        code = main(["psp", "--data", str(dataset_path), "--low-ghz", "15", "--high-ghz", "28",
                     "--hpbw-deg", "1", "--amax-db", "1e300"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a_max_db must keep the gain floor a normal float")
        assert captured.err.endswith(", got 1e+300\n")

    def test_unwritable_output_is_io_error(self, dataset_path, tmp_path, capsys):
        code = main(["psp", "--data", str(dataset_path), "--low-ghz", "15",
                     "--high-ghz", "28", "--hpbw-deg", "10",
                     "--out", str(tmp_path / "no_dir" / "x.csv")])
        capsys.readouterr()
        assert code == EXIT_IO

    def test_failed_cdf_write_prints_no_report(self, dataset_path, tmp_path, capsys):
        # the report once reached stdout before the CDF write failed
        code = main(["psp", "--data", str(dataset_path), "--low-ghz", "15",
                     "--high-ghz", "28", "--hpbw-deg", "10",
                     "--out", str(tmp_path / "no_dir" / "x.csv")])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class FakeLibc:
    """A C library handle that records its mallopt calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class TestHeapTopPad:
    COMMANDS = {
        "batch_m2": lambda data, out: ["batch", *analysis_argv(data, ["--method", "m2"]), "--out", str(out)],
        "analyze": lambda data, out: ["analyze", *analysis_argv(data), "--link", "b"],
        "psp_missing_file": lambda data, out: ["psp", "--data", str(out / "absent.json"),
                                               "--low-ghz", "15", "--high-ghz", "28", "--hpbw-deg", "10"],
    }

    @staticmethod
    def _outcome(argv, out_dir, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.is_dir() else None
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_call_sets_a_4_mib_top_pad_once(self, dataset_path, tmp_path, monkeypatch, capsys, command):
        argv = self.COMMANDS[command](dataset_path, tmp_path / "out")
        expected = self._outcome(argv, tmp_path / "out", capsys)
        libc = FakeLibc()
        monkeypatch.setattr(cli, "_LIBC", libc)
        for n_calls in (1, 2):
            assert self._outcome(argv, tmp_path / "out", capsys) == expected
            assert libc.calls == [(-2, 4 << 20)] * n_calls

    @pytest.mark.parametrize("libc", [object(), None], ids=["no_mallopt", "no_handle"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_library_without_mallopt_changes_nothing(self, dataset_path, tmp_path, monkeypatch, capsys,
                                                        libc, command):
        argv = self.COMMANDS[command](dataset_path, tmp_path / "out")
        expected = self._outcome(argv, tmp_path / "out", capsys)
        monkeypatch.setattr(cli, "_LIBC", libc)
        assert self._outcome(argv, tmp_path / "out", capsys) == expected

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_handle_has_mallopt(self):
        assert cli._LIBC.mallopt(-2, 4 << 20) == 1


class TestFloatFaults:
    # two 1e308 rays overflow the 28 GHz band's filtered spectrum
    HOT = cb.LinkPair(
        low=cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0),)),
        high=cb.BandChannel(28.0, (cb.Ray(1e308, 0.0, 10.0), cb.Ray(1e308, 0.0, 10.0))),
        link_id="hot",
    )

    @pytest.fixture()
    def hot_path(self, tmp_path):
        path = tmp_path / "hot.json"
        cb.write_dataset([self.HOT], path)
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
        assert "link 'hot': overflow" in lines[0]
        assert "RuntimeWarning" not in captured.err

    def test_analyze_failure_reads_as_batch_and_psp_do(self, hot_path, capsys):
        # analyze runs its link through the same per-link fault boundary
        code = main(["analyze", *analysis_argv(hot_path)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: every link failed analysis; first error: link 'hot': overflow encountered in reduce\n")
        code = main(["batch", *analysis_argv(hot_path), "--out", str(hot_path.parent / "out")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: every link failed analysis; first error: link 'hot': overflow encountered in reduce\n")

    @pytest.mark.parametrize("command", ["analyze", "psp"])
    def test_underflow_names_the_band(self, tmp_path, capsys, command):
        # once "filtered spectrum values must be finite and strictly positive"
        faint = cb.LinkPair(low=cb.BandChannel(15.0, (cb.Ray(1e-300, 0.0, 10.0),)),
                            high=cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 10.0),)), link_id="faint")
        path = tmp_path / "faint.json"
        cb.write_dataset([faint], path)
        if command == "analyze":
            argv = ["analyze", "--data", str(path), "--low-ghz", "15", "--high-ghz", "28",
                    "--pattern-low", "gpp3:hpbw=10,amax=300", "--pattern-high", "gpp3:hpbw=10"]
        else:
            argv = ["psp", "--data", str(path), "--low-ghz", "15", "--high-ghz", "28",
                    "--hpbw-deg", "10", "--amax-db", "300"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: every link failed analysis; first error: link 'faint': 15 GHz band: filtered "
            "spectrum is zero at steering angle 55 deg, where every ray's power times its gain "
            "underflowed\n")

    def test_psp_isolates_a_failing_link(self, tmp_path, capsys):
        good = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0),))
        path = tmp_path / "mixed.json"
        cb.write_dataset(
            [cb.LinkPair(low=good, high=self.HOT.high, link_id="bad"),
             cb.LinkPair(low=good, high=cb.BandChannel(28.0, good.rays), link_id="good")],
            path,
        )
        code = main(["psp", "--data", str(path), "--low-ghz", "15",
                     "--high-ghz", "28", "--hpbw-deg", "10"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["per_link"] == {"good": 100.0}
        assert doc["failures"] == {"bad": "overflow encountered in reduce"}


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

    @pytest.mark.parametrize("spec", ["ula:n=8", "gpp3:hpbw=10"])
    def test_lf_lines_at_the_default_step_that_load_back(self, tmp_path, spec):
        # pattern files once ended lines with CRLF, unlike every other file written
        out = tmp_path / "pat.csv"
        assert main(["pattern", "--spec", spec, "--out", str(out)]) == EXIT_OK
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        assert raw.count(b"\n") == 1 + 3601  # header, then -180 to 180 in 0.1 deg steps
        xs = np.linspace(-180.0, 180.0, 3601)  # the offsets written
        np.testing.assert_allclose(cb.pattern_from_csv(out).gain_db(xs),
                                   parse_pattern_spec(spec).gain_db(xs), atol=1e-9)

    def test_bad_spec_is_usage_error(self, tmp_path):
        assert main(["pattern", "--spec", "gpp3", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    def test_infinite_floor_is_a_usage_error_naming_the_field(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["pattern", "--spec", "ula:n=4,floor=-inf", "--out", str(out)]) == EXIT_USAGE
        assert "backplane_floor_db must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_element_count_is_a_usage_error_naming_the_field(self, tmp_path, capsys):
        # once numpy's "array is too big", exit 4, naming neither the spec nor n
        out = tmp_path / "x.csv"
        assert main(["pattern", "--spec", "ula:n=1e18", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid spec 'ula:n=1e18': n_elements must be an integer in [2, 4096]")
        assert not out.exists()

    @pytest.mark.parametrize("spec, named", [
        ("ula:n=4,floor=-1e300", "backplane_floor_db must keep the gain floor a normal float"),
        ("ula:n=4,spacing=1e308", "spacing_wavelengths must be in (0, 1000], got 1e+308"),
    ], ids=["floor-underflows", "spacing-overflows"])
    def test_extreme_ula_setting_is_a_usage_error_naming_the_field(self, tmp_path, capsys, spec, named):
        # once exit 0 after numpy RuntimeWarnings, writing 1800 -inf or 1801 nan gains
        out = tmp_path / "x.csv"
        assert main(["pattern", "--spec", spec, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid spec {spec!r}: {named}")
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_pattern_file_refused_by_the_table_names_the_file(self, tmp_path, capsys):
        # -180 and 180 merge into one sample; the refusal once named no file
        pattern = tmp_path / "two.csv"
        pattern.write_text("-180,0\n180,0\n")
        out = tmp_path / "x.csv"
        assert main(["pattern", "--spec", f"file:{pattern}", "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {pattern}: a tabulated pattern needs at least two samples\n"
        assert not out.exists()

    def test_bad_step_is_validation_error(self, tmp_path, capsys):
        code = main(["pattern", "--spec", "gpp3:hpbw=10",
                     "--out", str(tmp_path / "x.csv"), "--step-deg", "0.7"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: step_deg must divide 360, got 0.7\n"

    @pytest.mark.parametrize("step", ["120", "180", "360"])
    def test_step_above_90_is_one_error_line(self, tmp_path, capsys, step):
        # each divides 360, yet was refused as "step_deg must divide 360"
        out = tmp_path / "x.csv"
        code = main(["pattern", "--spec", "gpp3:hpbw=10", "--out", str(out), "--step-deg", step])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: step_deg must be at most 90, got {float(step)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("step", ["nan", "1e-300", "0.005"])
    def test_step_below_the_smallest_is_one_error_line(self, tmp_path, capsys, step):
        # once "cannot convert float NaN to integer" or "Maximum allowed size exceeded"
        out = tmp_path / "x.csv"
        code = main(["pattern", "--spec", "gpp3:hpbw=10", "--out", str(out), "--step-deg", step])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: step_deg must be >= 0.01, got {float(step)!r}\n"
        assert not out.exists()

    def test_tiny_beamwidth_is_a_usage_error_naming_the_field(self, tmp_path, capsys):
        # once numpy's overflow warning and exit 0, or a link failing on "overflow"
        out = tmp_path / "x.csv"
        assert main(["pattern", "--spec", "gpp3:hpbw=1e-300", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: invalid spec 'gpp3:hpbw=1e-300': hpbw_deg must be in [0.01, 180], got 1e-300\n"
        assert not out.exists()


PSP_ARGV = ["psp", "--data", "{data}", "--low-ghz", "15", "--high-ghz", "28", "--hpbw-deg", "10",
            "--out", "{out}"]
GENERATE_ARGV = ["generate", "--config", "{data}", "--n-links", "1", "--out", "{out}"]
PATTERN_ARGV = ["pattern", "--spec", "file:{data}", "--out", "{out}"]
DATASET_HEADER = b"link_id,freq_ghz,power_db,delay_ns,aoa_deg\n"
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


class TestMalformedInputCorpus:
    # each input once ended in a traceback or in an error naming no file

    @pytest.mark.parametrize(
        "name, content, argv",
        [
            ("deep.json", DEEP_JSON, PSP_ARGV),
            ("deep.json", DEEP_JSON, GENERATE_ARGV),
            ("gen.json", b'{"seed": "\xff"}', GENERATE_ARGV),
            ("wide.csv", DATASET_HEADER + b"a" * 200_000 + b",15,0,1,10\n", PSP_ARGV),
            ("wide.csv", b"offset_deg,gain_db\n0,0\n" + b"9" * 200_000 + b",-10\n", PATTERN_ARGV),
            ("odd.csv", DATASET_HEADER + b"a,15,0,1,10\n\xff,28,0,1,10\n", PSP_ARGV),
            ("odd.csv", b"offset_deg,gain_db\n0,0\n\xff90,-10\n", PATTERN_ARGV),
            # both bands match both requests within 1e-6 GHz, the higher one first
            ("twin.csv", DATASET_HEADER + b"a,15.0000004,0,1,10\na,15.0,0,1,10\n",
             ["15" if arg == "28" else arg for arg in PSP_ARGV]),
        ],
        ids=["deep-dataset", "deep-config", "config-not-utf-8", "dataset-csv-wide-field",
             "pattern-wide-field", "dataset-csv-not-utf-8", "pattern-not-utf-8",
             "dataset-low-band-above-high-band"],
    )
    def test_one_error_line_naming_the_file(self, tmp_path, capsys, name, content, argv):
        data, out = tmp_path / name, tmp_path / "out.csv"
        data.write_bytes(content)
        code = main([arg.format(data=data, out=out) for arg in argv])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {data}")
        assert not out.exists()


def _refuse_constant(name):
    raise AssertionError(f"output holds {name}")


class TestFuzzedDatasets:
    # random dataset files, valid or with one corrupted field, through the
    # commands that read them

    @pytest.mark.parametrize("name", ["links.json", "links.csv"])
    @settings(deadline=None, max_examples=50)  # each example runs the CLI three times
    @given(data=st.data())
    def test_clean_exit_and_json_output(self, tmp_path_factory, name, data):
        work = tmp_path_factory.mktemp("fuzz")
        path, report = work / name, work / "report"
        path.write_text(data.draw(dataset_files(csv=name.endswith(".csv"))), encoding="utf-8")
        method = data.draw(st.sampled_from(["m1", "m2"]))
        runs = [
            (["analyze", *analysis_argv(path, ["--link", "l0", "--method", method])], None),
            (["batch", *analysis_argv(path, ["--method", method]), "--out", str(report)],
             report / "report.json"),
            (["psp", "--data", str(path), "--low-ghz", "15", "--high-ghz", "28",
              "--hpbw-deg", "10"], None),
        ]
        for argv, output in runs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_VALIDATION), argv[0]
            assert "Traceback" not in err.getvalue()
            if code == EXIT_OK:
                text = out.getvalue() if output is None else output.read_text(encoding="utf-8")
                json.loads(text, parse_constant=_refuse_constant)
