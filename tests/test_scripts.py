"""The study scripts end to end: files, headers and number format of their curves."""

from __future__ import annotations

import errno
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import FakeLibc

import crossband as cb
from crossband import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
NUMBER = r"-?\d+(\.\d+)?(e[+-]\d+)?"


def run_script(name, monkeypatch, *args, code=0):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exit_info.value.code == code


def read_curve(path):
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    header, *rows = raw.decode("ascii").splitlines()
    assert rows
    for row in rows:
        assert re.fullmatch(f"{NUMBER},{NUMBER}", row), row
    return header, rows


def test_beamwidth_study_curves(tmp_path, monkeypatch):
    run_script("beamwidth_study.py", monkeypatch, "--n-links", "20", "--seed", "1",
               "--out", str(tmp_path))
    tags = ["ula4-ula4_th10", "ula4-ula8_th10", "ula4-ula8_th15"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"r_cdf_{t}.csv" for t in tags] + [f"nf_pdf_{t}.csv" for t in tags]
    )
    for tag in tags:
        header, rows = read_curve(tmp_path / f"r_cdf_{tag}.csv")
        assert header == "power_ratio_db,cumulative_probability"
        assert rows[-1].endswith(",1")
        header, rows = read_curve(tmp_path / f"nf_pdf_{tag}.csv")
        assert header == "n_false,probability"
        # counts print as integers: "3,0.5", never "3.0,0.5"
        for row in rows:
            assert re.fullmatch(rf"\d+,{NUMBER}", row), row


def test_congruence_sweep_curves(tmp_path, monkeypatch):
    run_script("congruence_sweep.py", monkeypatch, "--n-links", "20",
               "--jitters-deg", "0", "7.5", "--out", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "psp_cdf_jitter_0.csv", "psp_cdf_jitter_7.5.csv",
    ]
    for path in tmp_path.iterdir():
        header, rows = read_curve(path)
        assert header == "psp_percent,cumulative_probability"
        assert rows[-1].endswith(",1")


@pytest.mark.parametrize("name, args, message", [
    ("congruence_sweep.py", ["--n-links", "0"], "n_links must be >= 1, got 0"),
    ("beamwidth_study.py", ["--low-ghz", "30", "--high-ghz", "28"], "need 0 < low_freq_ghz <= high_freq_ghz"),
], ids=["congruence_sweep", "beamwidth_study"])
def test_bad_value_exits_4_with_the_message(monkeypatch, capsys, name, args, message):
    # as the crossband CLI does: one line on stderr, exit 4, no traceback
    run_script(name, monkeypatch, *args, code=4)
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, flag, target, errno_", [
    ("beamwidth_study.py", "--data", "absent.json", errno.ENOENT),
    ("beamwidth_study.py", "--out", "file.txt", errno.EEXIST),
    ("congruence_sweep.py", "--out", "file.txt", errno.EEXIST),
], ids=["beamwidth_study-data", "beamwidth_study-out", "congruence_sweep-out"])
def test_os_error_exits_3_with_the_message(tmp_path, monkeypatch, capsys, name, flag, target, errno_):
    # as the crossband CLI does: one line on stderr, exit 3, no traceback
    (tmp_path / "file.txt").write_text("kept\n")
    path = str(tmp_path / target)
    run_script(name, monkeypatch, "--n-links", "2", flag, path, code=3)
    assert capsys.readouterr().err == f"error: {OSError(errno_, os.strerror(errno_), path)}\n"
    assert (tmp_path / "file.txt").read_text() == "kept\n"


@pytest.mark.parametrize("name, args", [
    ("congruence_sweep.py", ["--n-links", "0"]),
    ("congruence_sweep.py", ["--n-links", "2", "--jitters-deg", "5", "nan"]),
    ("beamwidth_study.py", ["--n-links", "2", "--delta-p-db", "5"]),
], ids=["congruence_sweep-n_links", "congruence_sweep-jitter", "beamwidth_study-delta_p"])
def test_refused_setting_prints_nothing_on_stdout(tmp_path, monkeypatch, capsys, name, args):
    # every setting is checked and every row computed before the first line prints
    run_script(name, monkeypatch, *args, "--out", str(tmp_path / "out"), code=4)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_jitters_sharing_a_curve_file_name_are_refused(tmp_path, monkeypatch, capsys):
    # ":g" prints six significant digits, so both would write psp_cdf_jitter_2.5.csv
    out = tmp_path / "out"
    run_script("congruence_sweep.py", monkeypatch, "--n-links", "2", "--jitters-deg", "0", "2.5",
               "2.5000001", "--out", str(out), code=4)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {out / 'psp_cdf_jitter_2.5.csv'}: jitters 2.5 and 2.5000001 deg "
                            "would share this file\n")
    assert not out.exists()


def test_a_repeated_jitter_writes_its_curve_file(tmp_path, monkeypatch, capsys):
    run_script("congruence_sweep.py", monkeypatch, "--n-links", "2", "--jitters-deg", "5", "5",
               "--out", str(tmp_path))
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert [p.name for p in tmp_path.iterdir()] == ["psp_cdf_jitter_5.csv"]


@pytest.mark.parametrize("name", ["beamwidth_study.py", "congruence_sweep.py"])
def test_out_directory_is_made_once(tmp_path, monkeypatch, name):
    made = []
    mkdir = Path.mkdir
    monkeypatch.setattr(Path, "mkdir", lambda self, *a, **k: made.append(self) or mkdir(self, *a, **k))
    run_script(name, monkeypatch, "--n-links", "2", "--out", str(tmp_path / "out"))
    assert made == [tmp_path / "out"]


def _raises(exc):
    def command(*args, **kwargs):
        raise exc
    return command


@pytest.mark.parametrize("kind, code", [
    (OSError, 3), (ValueError, 4), (FloatingPointError, 4), (MemoryError, 4),
], ids=["OSError", "ValueError", "FloatingPointError", "MemoryError"])
@pytest.mark.parametrize("entry", ["crossband", "beamwidth_study.py", "congruence_sweep.py"])
def test_every_entry_point_ends_an_error_through_cli_run(tmp_path, monkeypatch, capsys, entry, kind, code):
    data = tmp_path / "links.json"
    cb.write_dataset(cb.generate_dataset(cb.GenConfig(), 2), data)
    exc = kind(f"{kind.__name__} raised by the analysis")
    monkeypatch.setattr(cb, "analyze_dataset", _raises(exc))
    monkeypatch.setattr(cli, "analyze_dataset", _raises(exc))
    if entry == "crossband":
        argv = ["batch", "--data", str(data), "--low-ghz", "15", "--high-ghz", "28",
                "--pattern-low", "ula:n=4", "--pattern-high", "ula:n=8", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == code
    else:
        run_script(entry, monkeypatch, "--n-links", "2", code=code)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"


@pytest.mark.parametrize("name", ["beamwidth_study.py", "congruence_sweep.py"])
def test_each_script_run_sets_a_4_mib_heap_top_pad_once(monkeypatch, name):
    libc = FakeLibc()
    monkeypatch.setattr(cli, "_LIBC", libc)
    run_script(name, monkeypatch, "--n-links", "2")
    assert libc.calls == [(-2, 4 << 20)]


def _odd_link_file(path, n_links):
    # n_links generated links and one more, "odd", with no 28 GHz band
    *pairs, last = cb.generate_dataset(cb.GenConfig(), n_links + 1)
    odd = cb.LinkPair(last.low, cb.BandChannel(60.0, last.high.rays), "odd")
    cb.write_dataset([*pairs, odd], path)
    return path


def test_skip_warning_reads_as_the_cli_does(tmp_path):
    # in a child process, where run's logging setup writes the warning to stderr
    path = _odd_link_file(tmp_path / "links.csv", 3)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cb.__file__))}
    done = subprocess.run([sys.executable, str(SCRIPTS / "beamwidth_study.py"), "--data", str(path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.startswith(f"dataset: {path} (3 links)\n")
    assert done.stderr == f"WARNING: {path}: skipped 1 of 4 links: 1 with no band at 28 GHz (first: odd)\n"


def test_file_with_no_usable_link_is_refused_as_the_cli_does(tmp_path, monkeypatch, capsys):
    path = _odd_link_file(tmp_path / "links.csv", 0)
    run_script("beamwidth_study.py", monkeypatch, "--data", str(path), code=4)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: no links in {path} carry both 15 and 28 GHz\n")
