"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They run tiny versions of the workloads through the real CLI in fresh
processes, so they need the checkout's ``src/`` but no installed package.
"""

from __future__ import annotations

import importlib
import sys

import pytest

import checks
import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))

SMALL = {"batch-m1-ula": 30, "batch-m2-fine": 3, "ingest-psp-csv": 40}


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_is_duration_minus_child_coverage():
    trace = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("c", 5.0, 6.0, 2),
    ]
    assert spans.self_times(trace) == [4.0, 2.0, 3.0, 1.0]
    assert spans.summary(trace)["self_sum_s"] == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    trace = [_span("p", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0), _span("y", 3.0, 7.0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(4.0)


def test_busy_time_does_not_count_nested_same_name_twice():
    trace = [_span("f", 0.0, 4.0, -1), _span("g", 1.0, 3.0, 0), _span("f", 1.5, 2.5, 1)]
    names = spans.summary(trace)["names"]
    assert names["f"]["calls"] == 2
    assert names["f"]["busy_s"] == 4.0
    assert names["f"]["self_s"] == pytest.approx(3.0)


def _snapshot():
    out = {}
    for module_name, dotted, _, _ in spans.SITES:
        owner = importlib.import_module(module_name)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[(module_name, dotted)] = (owner, attr, getattr(owner, attr))
    return out


def test_tracer_unwraps_everything_and_survives_exceptions(tmp_path):
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    assert not tracer.missing
    try:
        for owner, attr, original in before.values():
            assert getattr(owner, attr) is not original
        import crossband.cli

        with pytest.raises(OSError):
            crossband.cli.load_dataset(tmp_path / "absent.json", 15.0, 28.0)
        assert tracer._stack == []
        assert tracer.spans[-1][spans.NAME] == "dataset.load_dataset"
    finally:
        tracer.uninstall()
    assert tracer.installed == 0
    for owner, attr, original in before.values():
        assert getattr(owner, attr) is original


def _traced_counts(name, tmp_path, tag):
    work = tmp_path / tag
    work.mkdir()
    runner = run.Runner(name, seed=5, work=work)
    runner.n_links = SMALL[name]
    runner.prepare()
    session = runner.session(trace=True)
    _, failed, _ = runner.check_session()
    assert failed == 0
    t = run.merge_traces(session["traces"], session["scales"])
    assert t["unwrapped"] and not t["missing"]
    metrics = run.layer_metrics(t, runner.n_links, session["session_ref_s"])
    return metrics, {k: v for k, v in metrics.items() if run.unit_of(k) in run.COUNT_UNITS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_and_self_times_add_up(name, tmp_path):
    first, counts_a = _traced_counts(name, tmp_path, "a")
    _, counts_b = _traced_counts(name, tmp_path, "b")
    assert counts_a == counts_b
    assert first["trace.self_sum_s"] == pytest.approx(first["trace.session_s"], abs=5e-3)
    expected_calls = {"batch-m1-ula": 2, "batch-m2-fine": 4, "ingest-psp-csv": 2}[name]
    assert counts_a["pas.filter_pas.calls_per_link"] == expected_calls
    assert counts_a["pas.filter_pas.gain_evals"] > 0
    if name == "batch-m2-fine":
        assert 0 < counts_a["beams.select_m2.accepted"] <= counts_a["beams.select_m2.candidates"]
    else:
        assert counts_a["beams.select_m2.candidates"] == 0
    if name == "ingest-psp-csv":
        assert counts_a["beampattern.gain.ula.calls"] == 0
        assert counts_a["dataset.write_dataset.bytes_out"] == counts_a["dataset.load_dataset.bytes_in"]
    else:
        assert counts_a["beams.analyze_pair.calls"] == SMALL[name]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1000)])[1:] == (99.0, 989.0)
    assert run.tail_percentile([float(i) for i in range(40)])[1] == 75.0
    assert run.tail_percentile([1.0] * 5) == (1.0, 0.0, 0.0)
    assert run.tail_pct(1000) == 99.0 and run.tail_pct(5) == 0.0


def test_non_finite_output_is_rejected(tmp_path):
    bad = tmp_path / "report.json"
    bad.write_text('{"x": NaN}')
    with pytest.raises(checks.OutputError):
        checks.load_json(bad)
    bad.write_text('{"x": [1e999]}')
    assert not checks.all_finite(checks.load_json(bad))


def test_reference_mismatch_is_reported_not_skipped(monkeypatch, tmp_path):
    ref = tmp_path / "reference.json"
    ref.write_text('{"batch-m1-ula": {"n_links": 1000, "digests": {"0": "abc"}}}')
    monkeypatch.setattr(checks, "REFERENCE_PATH", ref)
    assert checks.reference_digest("batch-m1-ula", 1000, 0) == "abc"
    assert checks.reference_digest("batch-m1-ula", 1000, 99) is None
    with pytest.raises(checks.OutputError):
        checks.reference_digest("batch-m1-ula", 500, 0)
    with pytest.raises(checks.OutputError):
        checks.reference_digest("batch-m2-fine", 50, 0)


def test_reference_matches_the_workloads():
    assert {k: checks.reference_digest(k, v["n_links"], 0) is not None
            for k, v in run.WORKLOADS.items()} == dict.fromkeys(run.WORKLOADS, True)
