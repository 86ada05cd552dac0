"""Run a fixed matrix of crossband commands and print a digest of every output.

Usage::

    python tests/output_matrix.py OUT

OUT must be missing or empty. Each command runs in a fresh process with OUT
as its working directory and relative paths, against the ``src/`` and
``scripts/`` of the checkout this file lies in. For each command the
printout holds its exit code, stdout and stderr, then one sha256 line per
file it wrote or changed. Run it in two checkouts and ``diff`` the printouts
to check that a change leaves every output byte identical; pytest does not
collect this file, and ``tests/test_output_matrix.py`` runs a slice of it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _departure_links(aod) -> str:
    """A one-link file with integer, float, ``-0.0``, absent and ``aod`` departure angles."""
    return json.dumps({"schema_version": "1", "metadata": {}, "links": [{"link_id": "d", "bands": [
        {"freq_ghz": 15.0, "paths": [
            {"power_db": -1.0, "delay_ns": 5.0, "aoa_deg": 10.0, "aod_deg": 200},
            {"power_db": -4.5, "delay_ns": 12.25, "aoa_deg": 359.99999999999994, "aod_deg": 12.5}]},
        {"freq_ghz": 28.0, "paths": [
            {"power_db": -2.0, "delay_ns": 5.5, "aoa_deg": 14.0, "aod_deg": -0.0},
            {"power_db": -6.0, "delay_ns": 20.0, "aoa_deg": 95.0},
            {"power_db": -3.5, "delay_ns": 9.0, "aoa_deg": 181.0, "aod_deg": aod}]},
    ]}]}) + "\n"


# Files the matrix reads besides those its commands write.
INPUTS = {
    "gen-many.json": json.dumps({"n_shared_paths": 70, "n_low_only_paths": 6,
                                 "n_high_only_paths": 4, "seed": 3}) + "\n",
    "gen-overflow.json": json.dumps({"power_jitter_db": 1e300}) + "\n",
    "bad.csv": "link_id,freq_ghz,power_db,delay_ns,aoa_deg\nl1,15,-3,10,40\nl1,28,x,10,40\n",
    "zero.json": json.dumps({"schema_version": "1", "metadata": {}, "links": [{"link_id": "z", "bands": [
        {"freq_ghz": 15.0, "paths": [{"power_db": -0.0, "delay_ns": -0.0, "aoa_deg": -0.0}]},
        {"freq_ghz": 28.0, "paths": [{"power_db": -1.5, "delay_ns": 0.0, "aoa_deg": 359.99999999999994}]},
    ]}]}) + "\n",
    "aod.json": _departure_links(271.25),
    "aod-null.json": _departure_links(None),
}

ROUND_TRIP = ("import sys, crossband as cb; from crossband.cli import run; "
              "sys.exit(run(lambda a: cb.write_dataset(cb.load_dataset(a[0], 15, 28), a[1]), sys.argv[1:]))")
BANDS = ["--low-ghz", "15", "--high-ghz", "28"]
ULA = ["--pattern-low", "ula:n=4", "--pattern-high", "ula:n=8"]


def _batches():
    patterns = {"gpp3": ["--pattern-low", "gpp3:hpbw=10", "--pattern-high", "gpp3:hpbw=5"],
                "ula": ULA,
                "file": ["--pattern-low", "file:ula4.csv", "--pattern-high", "file:ula8.csv"]}
    for method, threshold in (("m1", "10"), ("m2", "20")):
        for kind, spec in patterns.items():
            for step in ("0.1", "1", "5"):
                yield (f"batch-{method}-{kind}-{step}", "crossband",
                       ["batch", "--data", "d.json", *BANDS, *spec, "--method", method,
                        "--delta-th-db", threshold, "--grid-step-deg", step,
                        "--out", f"batch-{method}-{kind}-{step}"])


# (name, program, arguments): the program is "crossband", a script under
# scripts/, or "round-trip", which loads its first file and writes its second,
# ending as the CLI does: a refusal is one ``error:`` line and exit 4.
MATRIX = [
    ("generate-json", "crossband", ["generate", "--n-links", "30", "--out", "d.json"]),
    ("generate-csv", "crossband", ["generate", "--n-links", "30", "--out", "d.csv"]),
    ("generate-many-json", "crossband", ["generate", "--config", "gen-many.json", "--n-links", "8",
                                         "--out", "m.json"]),
    ("generate-many-csv", "crossband", ["generate", "--config", "gen-many.json", "--n-links", "8",
                                        "--out", "m.csv"]),
    *((f"round-trip-{stem}-{a}-{b}", "round-trip", [f"{stem}.{a}", f"rt-{stem}-{a}.{b}"])
      for stem in ("d", "m") for a, b in (("json", "json"), ("csv", "csv"), ("json", "csv"))),
    ("round-trip-zero-json-json", "round-trip", ["zero.json", "rt-zero-json.json"]),
    ("round-trip-zero-json-csv", "round-trip", ["zero.json", "rt-zero-json.csv"]),
    ("round-trip-aod-json-json", "round-trip", ["aod.json", "rt-aod-json.json"]),
    ("round-trip-aod-json-csv", "round-trip", ["aod.json", "rt-aod-json.csv"]),
    ("pattern-ula4", "crossband", ["pattern", "--spec", "ula:n=4", "--out", "ula4.csv"]),
    ("pattern-ula8", "crossband", ["pattern", "--spec", "ula:n=8", "--out", "ula8.csv", "--step-deg", "0.5"]),
    *_batches(),
    ("batch-m1-csv", "crossband", ["batch", "--data", "d.csv", *BANDS, *ULA, "--out", "batch-m1-csv"]),
    ("batch-m1-aod", "crossband", ["batch", "--data", "aod.json", *BANDS, *ULA, "--out", "batch-m1-aod"]),
    ("batch-m2-many", "crossband", ["batch", "--data", "m.json", *BANDS, *ULA, "--method", "m2",
                                    "--delta-th-db", "20", "--out", "batch-m2-many"]),
    ("analyze-link", "crossband", ["analyze", "--data", "d.json", *BANDS, *ULA, "--link", "link-00007"]),
    ("psp-out", "crossband", ["psp", "--data", "d.csv", *BANDS, "--hpbw-deg", "10", "--out", "psp.csv"]),
    ("beamwidth-study-out", "beamwidth_study.py", ["--n-links", "20", "--out", "bw"]),
    ("beamwidth-study-data", "beamwidth_study.py", ["--data", "d.csv"]),
    ("congruence-sweep-out", "congruence_sweep.py", ["--n-links", "20", "--jitters-deg", "0", "7.5",
                                                     "--out", "sweep"]),
    # the documented error cases
    ("error-generate-n-links", "crossband", ["generate", "--n-links", "0", "--out", "e.json"]),
    ("error-generate-overflow", "crossband", ["generate", "--config", "gen-overflow.json",
                                              "--n-links", "2", "--out", "e.json"]),
    ("error-pattern-spec", "crossband", ["pattern", "--spec", "ula:n=2.5", "--out", "e.csv"]),
    ("error-pattern-floor", "crossband", ["pattern", "--spec", "ula:n=4,floor=-1e300", "--out", "e.csv"]),
    ("error-pattern-step", "crossband", ["pattern", "--spec", "ula:n=4", "--step-deg", "0.001",
                                         "--out", "e.csv"]),
    ("error-batch-step", "crossband", ["batch", "--data", "d.json", *BANDS, *ULA,
                                       "--grid-step-deg", "0.001", "--out", "e"]),
    ("error-batch-threshold", "crossband", ["batch", "--data", "d.json", *BANDS, *ULA,
                                            "--delta-th-db", "inf", "--out", "e"]),
    ("error-batch-absent", "crossband", ["batch", "--data", "absent.json", *BANDS, *ULA, "--out", "e"]),
    ("error-batch-no-pair", "crossband", ["batch", "--data", "d.csv", "--low-ghz", "15", "--high-ghz", "60",
                                          *ULA, "--out", "e"]),
    ("error-batch-bad-csv", "crossband", ["batch", "--data", "bad.csv", *BANDS, *ULA, "--out", "e"]),
    ("error-batch-aod-null", "crossband", ["batch", "--data", "aod-null.json", *BANDS, *ULA, "--out", "e"]),
    ("error-analyze-no-link", "crossband", ["analyze", "--data", "d.json", *BANDS, *ULA]),
    ("error-psp-amax", "crossband", ["psp", "--data", "d.json", *BANDS, "--hpbw-deg", "10",
                                     "--amax-db", "1e300"]),
    ("error-psp-out", "crossband", ["psp", "--data", "d.json", *BANDS, "--hpbw-deg", "10", "--out", "."]),
    ("error-sweep-n-links", "congruence_sweep.py", ["--n-links", "0"]),
    ("error-sweep-collision", "congruence_sweep.py", ["--n-links", "2", "--jitters-deg", "2.5", "2.5000001",
                                                      "--out", "collide"]),
    ("error-study-delta-p", "beamwidth_study.py", ["--n-links", "2", "--delta-p-db", "5"]),
    ("error-study-absent", "beamwidth_study.py", ["--data", "absent.json"]),
]


def _command(program: str, args: list[str]) -> list[str]:
    if program == "crossband":
        return [sys.executable, "-m", "crossband.cli", *args]
    if program == "round-trip":
        return [sys.executable, "-c", ROUND_TRIP, *args]
    return [sys.executable, str(ROOT / "scripts" / program), *args]


def _digests(out: Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def _block(label: str, text: str) -> list[str]:
    return [f"{label}:", *(f"  | {line}" for line in text.splitlines())]


def run(out: Path, matrix=MATRIX) -> list[str]:
    """Write the inputs to the empty directory ``out``, run ``matrix`` there and return the printout."""
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"error: {out} is not empty")
    for name, text in INPUTS.items():
        (out / name).write_text(text)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    before = _digests(out)
    lines = [f"sha256 {digest}  {name}" for name, digest in before.items()]
    for name, program, args in matrix:
        done = subprocess.run(_command(program, args), cwd=out, env=env, capture_output=True, text=True)
        after = _digests(out)
        lines += [f"== {name}: {program} {' '.join(args)}", f"exit {done.returncode}",
                  *_block("stdout", done.stdout), *_block("stderr", done.stderr),
                  *(f"sha256 {digest}  {path}" for path, digest in after.items() if before.get(path) != digest)]
        before = after
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print("\n".join(run(Path(sys.argv[1]))))
