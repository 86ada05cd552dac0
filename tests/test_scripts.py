"""The study scripts end to end: files, headers and number format of their curves."""

from __future__ import annotations

import errno
import os
import re
import runpy
import sys
from pathlib import Path

import pytest

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
