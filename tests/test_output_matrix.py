"""A slice of ``output_matrix.py`` gives the same printout wherever it runs.

No digest is checked in: vectorized numpy calls differ by CPU dispatch and
numpy version, so a recorded digest would test the machine, not the program.
The slice runs twice instead, in directories whose names differ in length,
which catches a run that depends on its directory or on anything but its
inputs.
"""

from __future__ import annotations

import output_matrix

SLICE = ("generate-json", "generate-csv", "round-trip-d-json-csv", "batch-m1-ula-5", "psp-out",
         "error-batch-bad-csv")


def test_a_slice_prints_the_same_digests_in_two_directories(tmp_path):
    matrix = [entry for entry in output_matrix.MATRIX if entry[0] in SLICE]
    assert [name for name, _, _ in matrix] == list(SLICE)
    first = output_matrix.run(tmp_path / "a", matrix)
    second = output_matrix.run(tmp_path / "a-directory-with-a-longer-name", matrix)
    assert first == second
    assert [line for line in first if line.startswith("exit ")] == ["exit 0"] * 5 + ["exit 4"]
    written = [line.split()[-1] for line in first if line.startswith("sha256 ")]
    for name in ("d.json", "d.csv", "rt-d-json.csv", "batch-m1-ula-5/report.json", "psp.csv"):
        assert name in written
