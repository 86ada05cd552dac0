#!/usr/bin/env python3
"""Benchmark of the crossband CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload batch-m1-ula --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout: the program under test is
``src/crossband`` next to this directory, imported through PYTHONPATH, and
``tests/oracles.py`` is the brute-force reference for the output checks.

Load shape: a closed loop of one client. Each CLI call runs in a fresh,
single-threaded process (BLAS, OpenMP and MKL pools pinned to one thread in
the child environment), and a session starts only after the previous one
ended. Sessions repeat until ``--seconds`` have passed, and at least
``MIN_SESSIONS`` times. The seed only shapes the generated input: the
generator config file and, for the batch workloads, the dataset file the
harness writes with ``crossband generate`` before timing starts.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
links per second of the timed session (median over sessions), set-up time
from spawn until ``crossband.cli`` is imported (median over every process
of the run plus ``SETUP_PROBES`` probe processes), peak RSS of the run
process, and the fraction of links that completed with checked output.
With ``--trace 1`` it reports the per-layer metrics of ``spans.py``, taken
from traced sessions that alternate with untraced ones; the difference
between the two is the tracing overhead. The line before the last holds the
details: provenance, per-session samples, quartiles and check results.

Every reported time is at reference host speed: each process times the
fixed block of ``calib.py`` before and after its command, and its times are
scaled by ``calib.REFERENCE_S`` over the mean of the two (see ``calib.py``
for why). The wall-clock figures are in the details line as
``wall_links_per_s`` and ``wall_setup_s``.

Host note, for reading results: on a 2-vCPU VM (Intel Xeon, 2.1 GHz),
``crossband batch`` on the ``batch-m1-ula`` input at 5000 links read
6.0-6.5 s and then 4.0-4.8 s on the same input minutes apart. Compare
commits by alternating workloads and commits run by run, never by running
one side's batch after the other's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from calib import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
MIN_SESSIONS = 3
MIN_TRACED_SESSIONS = 2
CHILD_TIMEOUT_S = 45

BANDS = ["--low-ghz", "15", "--high-ghz", "28"]
ULA_PAIR = ["--pattern-low", "ula:n=4", "--pattern-high", "ula:n=8"]

# Link counts give sessions of about two seconds here, so a run holds
# several sessions and the median is taken over them.
WORKLOADS = {
    # The paper's main experiment and the ROADMAP baseline: the default
    # generator (7 low-band, 5 high-band rays), ULA 4/8 elements, a 1 degree
    # grid, m1 at 10 dB. Filtering (ULA gain) and select_m1 take most of the
    # analysis; the m2 gate never runs, so m2 work must not move it.
    "batch-m1-ula": {
        "n_links": 1000,
        "flags": ["--method", "m1", "--delta-th-db", "10", "--delta-p-db", "-30",
                  "--grid-step-deg", "1"],
        "oracle": {"step": 1.0, "m1": True, "delta_th_db": 10.0, "delta_p_db": -30.0},
        "oracle_links": 8,
    },
    # m2 at 20 dB on a 0.1 degree grid: the greedy correlation gate dominates
    # (about 2300 candidates per band, each compared with every accepted
    # direction, quadratic at worst); filter_pas runs twice per band and
    # _plateau_maxima never runs, so m1 work must not move it. Its cost
    # follows the seed's candidate count: 224k-252k candidates over seeds
    # 0-9 at 50 links.
    "batch-m2-fine": {
        "n_links": 50,
        "flags": ["--method", "m2", "--delta-th-db", "20", "--delta-p-db", "-30",
                  "--grid-step-deg", "0.1"],
        "oracle": {"step": 0.1, "m1": False},
        "oracle_links": 2,
    },
    # The congruence-sweep session: `crossband generate` writes a CSV from a
    # seed config, then `crossband psp` filters it with gpp3. The dataset
    # layer (CSV write, load, validation) is about half of it; it bypasses
    # the ULA kernel and the beams module, so changes there must not move it.
    "ingest-psp-csv": {
        "n_links": 2000,
        "oracle": {"step": 1.0, "m1": False},
        "oracle_links": 8,
    },
}

END_TO_END_UNITS = {"links_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "links_ok_frac": "1"}


def _gains(oracles, name):
    if name == "ingest-psp-csv":
        gpp3 = lambda off: oracles.gpp3_gain(off, 10.0, 30.0)  # noqa: E731
        return gpp3, gpp3
    return (lambda off: oracles.ula_gain(off, 4, 0.5, -60.0),
            lambda off: oracles.ula_gain(off, 8, 0.5, -60.0))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv, work: Path, tag: str, env: dict, trace: bool = False) -> dict:
    """Run one CLI call in a fresh process; raise RuntimeError when it fails."""
    job = {
        "argv": argv,
        "stdout": str(work / f"{tag}.stdout"),
        "result": str(work / f"{tag}.result.json"),
        "trace": trace,
    }
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    Path(job["result"]).unlink(missing_ok=True)
    t_launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job_path), repr(t_launch)],
            env=env, cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{argv[:1]} timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not Path(job["result"]).exists():
        tail = proc.stderr.decode(errors="replace")[-600:]
        raise RuntimeError(f"{argv[:1]} exited with {proc.returncode}: {tail}")
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    if argv and result["rc"] != 0:
        tail = proc.stderr.decode(errors="replace")[-600:]
        raise RuntimeError(f"crossband {argv[0]} returned {result['rc']}: {tail}")
    return result


def merge_traces(traces, scales) -> dict:
    """Sum per-name totals of the traced processes of one session.

    Each process's times are multiplied by its scale (reference speed over
    the speed that process ran at) before they are added.
    """
    out = {"names": {}, "spans": 0, "self_sum_s": 0.0, "missing": [], "unwrapped": True}
    for t, scale in zip(traces, scales):
        out["spans"] += t["spans"]
        out["self_sum_s"] += scale * t["self_sum_s"]
        out["missing"] = sorted(set(out["missing"]) | set(t["missing"]))
        out["unwrapped"] = out["unwrapped"] and t["unwrapped"]
        for name, e in t["names"].items():
            m = out["names"].setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                               "counts": {}, "durations_s": []})
            m["calls"] += e["calls"]
            m["busy_s"] += scale * e["busy_s"]
            m["self_s"] += scale * e["self_s"]
            m["durations_s"] += [scale * d for d in e.get("durations_s", [])]
            for k, v in e["counts"].items():
                m["counts"][k] = m["counts"].get(k, 0) + v
    return out


class Runner:
    """Inputs, sessions and checks of one benchmark run in a scratch directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.spec = WORKLOADS[name]
        self.n_links = self.spec["n_links"]
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.config = work / "gen_config.json"
        self.config.write_text(json.dumps({"seed": seed}), encoding="utf-8")
        self.data = work / ("links.csv" if name == "ingest-psp-csv" else "links.json")
        self.out_dir = work / "report"
        self.outputs: list[tuple[str, Path]] = []
        self.count = 0

    def _spawn(self, argv, trace=False):
        self.count += 1
        return spawn(argv, self.work, f"p{self.count}", self.env, trace)

    def _generate(self, trace=False):
        return self._spawn(["generate", "--config", str(self.config),
                            "--n-links", str(self.n_links), "--out", str(self.data)], trace)

    def prepare(self) -> None:
        if self.name != "ingest-psp-csv":
            self._generate()

    def probe(self) -> dict:
        return self._spawn([])

    def session(self, trace: bool) -> dict:
        """One timed session; output files are left for ``check_session``."""
        if self.name == "ingest-psp-csv":
            self.data.unlink(missing_ok=True)
            first = self._generate(trace)
            second = self._spawn(["psp", "--data", str(self.data), *BANDS, "--hpbw-deg", "10"],
                                 trace)
            self.outputs = [("links.csv", self.data),
                            ("psp.json", self.work / f"p{self.count}.stdout")]
            parts = [first, second]
        else:
            # Relative paths: report.json records --data, and it must not
            # depend on where the scratch directory is.
            shutil.rmtree(self.out_dir, ignore_errors=True)
            parts = [self._spawn(["batch", "--data", self.data.name, *BANDS, *ULA_PAIR,
                                  *self.spec["flags"], "--out", self.out_dir.name], trace)]
            self.outputs = [(p.name, p) for p in sorted(self.out_dir.iterdir())]
        return {
            "trace": trace,
            "session_s": sum(p["session_s"] for p in parts),
            "session_ref_s": sum(at_reference(p["session_s"], p["cal_before_s"], p["cal_after_s"])
                                 for p in parts),
            "setup_s": [p["setup_s"] for p in parts],
            "setup_ref_s": [at_reference(p["setup_s"], p["cal_before_s"]) for p in parts],
            "rss_kib": max(p["rss_kib"] for p in parts),
            "traces": [p["trace"] for p in parts] if trace else None,
            "scales": [at_reference(1.0, p["cal_before_s"], p["cal_after_s"]) for p in parts],
            "cal_s": [c for p in parts for c in (p["cal_before_s"], p["cal_after_s"])],
        }

    def check_session(self) -> tuple[str, int, dict]:
        """Digest of the outputs, links the output reports as failed, per-link values."""
        if self.name == "ingest-psp-csv":
            doc = checks.load_json(self.outputs[1][1])
            per_link = checks.psp_per_link(doc)
            failed = self.n_links - len(per_link)
        else:
            doc = checks.load_json(self.out_dir / "report.json")
            per_link = checks.batch_per_link(doc)
            failed = doc["n_failed"] + max(0, self.n_links - doc["n_links"])
        if not checks.all_finite(doc):
            raise checks.OutputError("output holds a non-finite number")
        return checks.digest(self.outputs), failed, per_link

    def oracle_check(self, per_link: dict) -> dict[str, list[str]]:
        oracles = checks.load_oracles(ROOT)
        spec = dict(self.spec["oracle"])
        spec["gain_low"], spec["gain_high"] = _gains(oracles, self.name)
        bands = checks.read_bands(self.data, 15.0, 28.0)
        ids = checks.sample_ids(bands, self.spec["oracle_links"], self.seed)
        return checks.recheck_links(oracles, spec, bands, per_link, ids)


def at_reference(seconds: float, *calibrations: float) -> float:
    """A time measured next to the given calibration times, at reference speed."""
    return seconds * REFERENCE_S / statistics.fmean(calibrations)


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def tail_pct(n: int) -> float:
    """The highest listed percentile of n samples with at least 10 samples beyond it."""
    for pct in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct
    return 0.0


def tail_percentile(durations) -> tuple[float, float, float]:
    """(p50, ``tail_pct`` of the sample count, the value at that percentile)."""
    s = sorted(durations)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0.0
    p50 = s[math.ceil(0.5 * n) - 1]
    pct = tail_pct(n)
    if pct == 0.0:
        return p50, 0.0, 0.0
    return p50, pct, s[math.ceil(pct / 100.0 * n) - 1]


def layer_metrics(t: dict, n_links: int, session_s: float) -> dict:
    """Per-layer metrics of one traced session (all processes merged)."""
    def entry(name):
        return t["names"].get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "counts": {}, "durations_s": []})

    m = {}
    fp = entry("pas.filter_pas")
    evals = fp["counts"].get("gain_evals", 0)
    m.update({
        "pas.filter_pas.calls": fp["calls"],
        "pas.filter_pas.calls_per_link": fp["calls"] / n_links,
        "pas.filter_pas.busy_s": fp["busy_s"],
        "pas.filter_pas.self_s": fp["self_s"],
        "pas.filter_pas.gain_evals": evals,
        "pas.filter_pas.gain_evals_per_s": evals / fp["busy_s"] if fp["busy_s"] else 0.0,
    })
    for kind in ("ula", "gpp3"):
        g = entry(f"beampattern.gain.{kind}")
        m[f"beampattern.gain.{kind}.calls"] = g["calls"]
        m[f"beampattern.gain.{kind}.offsets"] = g["counts"].get("offsets", 0)
        m[f"beampattern.gain.{kind}.busy_s"] = g["busy_s"]
    s1 = entry("beams.select_m1")
    m.update({
        "beams.select_m1.busy_s": s1["busy_s"],
        "beams.select_m1.self_s": s1["self_s"],
        "beams.select_m1.directions": s1["counts"].get("directions", 0),
    })
    s2, cfr = entry("beams.select_m2"), entry("beams.cfr_matrix")
    cand = cfr["counts"].get("candidates", 0)
    acc = s2["counts"].get("accepted", 0)
    m.update({
        "beams.select_m2.busy_s": s2["busy_s"],
        "beams.select_m2.self_s": s2["self_s"],
        "beams.cfr_matrix.busy_s": cfr["busy_s"],
        "beams.select_m2.candidates": cand,
        "beams.select_m2.accepted": acc,
        "beams.select_m2.accept_ratio": acc / cand if cand else 0.0,
    })
    ap = entry("beams.analyze_pair")
    p50, _, tail = tail_percentile(ap["durations_s"])
    m.update({
        "beams.analyze_pair.calls": ap["calls"],
        "beams.analyze_pair.p50_ms": p50 * 1e3,
        "beams.analyze_pair.tail_ms": tail * 1e3,
        "beams.analyze_pair.self_s": ap["self_s"],
        "beams.score.busy_s": entry("beams.score")["busy_s"],
        "metrics.psp.busy_s": entry("metrics.psp")["busy_s"],
        "pas.normalize_pas.busy_s": entry("pas.normalize_pas")["busy_s"],
    })
    ld, wr, dump = entry("dataset.load_dataset"), entry("dataset.write_dataset"), entry("jsonio.dump")
    m.update({
        "dataset.load_dataset.busy_s": ld["busy_s"],
        "dataset.load_dataset.bytes_in": ld["counts"].get("bytes_in", 0),
        "dataset.write_dataset.busy_s": wr["busy_s"],
        "dataset.write_dataset.bytes_out": wr["counts"].get("bytes_out", 0),
        "synth.generate_dataset.busy_s": entry("synth.generate_dataset")["busy_s"],
        "batch.analyze_dataset.busy_s": entry("batch.analyze_dataset")["busy_s"],
        "batch.analyze_dataset.self_s": entry("batch.analyze_dataset")["self_s"],
        "jsonio.dump.busy_s": dump["busy_s"],
        "jsonio.dump.bytes_out": dump["counts"].get("bytes_out", 0),
        "cli.self_s": entry("cli")["self_s"],
        "trace.spans": t["spans"],
        "trace.session_s": session_s,
        "trace.self_sum_s": t["self_sum_s"],
        "trace.unattributed_s": session_s - t["self_sum_s"],
    })
    return m


LAYER_UNITS = {
    "calls": "count", "calls_per_link": "calls/link", "gain_evals": "count",
    "gain_evals_per_s": "1/s", "offsets": "count", "directions": "count",
    "candidates": "count", "accepted": "count", "accept_ratio": "1", "p50_ms": "ms",
    "tail_ms": "ms", "bytes_in": "B", "bytes_out": "B",
    "spans": "count", "overhead_frac": "1", "untraced_links_per_s": "1/s",
    "traced_links_per_s": "1/s",
}


# Units of the metrics that count work; they must repeat exactly.
COUNT_UNITS = ("count", "B", "calls/link")


def unit_of(metric: str) -> str:
    leaf = metric.rsplit(".", 1)[1]
    return LAYER_UNITS.get(leaf, "s")


TRACE_TOTALS = ("trace.overhead_s", "trace.overhead_frac", "trace.untraced_links_per_s",
                "trace.traced_links_per_s")


def zero_metrics(trace: bool, n_links: int) -> dict:
    """Every reported metric at 0, for a run whose program could not run at all."""
    if trace:
        names = [*layer_metrics({"names": {}, "spans": 0, "self_sum_s": 0.0}, n_links, 0.0),
                 *TRACE_TOTALS]
        return {k: {"value": 0.0, "unit": unit_of(k)} for k in names}
    return {k: {"value": 0.0, "unit": u} for k, u in END_TO_END_UNITS.items()}


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    runner = Runner(name, seed, work)
    try:
        probes = [runner.probe() for _ in range(SETUP_PROBES)]
        runner.prepare()
    except RuntimeError as exc:
        result = {"correct": False, "attempted": runner.n_links, "failed": runner.n_links,
                  "metrics": zero_metrics(trace, runner.n_links)}
        return result, {"workload": name, "seed": seed, "problems": [str(exc)]}
    setups = [at_reference(p["setup_s"], p["cal_before_s"]) for p in probes]
    raw_setups = [p["setup_s"] for p in probes]

    sessions, errors, digests, failed_links = [], [], [], 0
    per_link = None
    start = time.perf_counter()
    while True:
        traced = trace and len(sessions) % 2 == 1
        try:
            s = runner.session(traced)
            d, failed, per_link_now = runner.check_session()
        except (RuntimeError, OSError, checks.OutputError, KeyError, TypeError) as exc:
            errors.append(f"session {len(sessions)}: {exc}")
            failed_links += runner.n_links
            break
        setups += s["setup_ref_s"]
        raw_setups += s["setup_s"]
        failed_links += failed
        digests.append(d)
        if per_link is None:
            per_link = per_link_now
        sessions.append(s)
        n_traced = sum(x["trace"] for x in sessions)
        enough = (n_traced >= MIN_TRACED_SESSIONS and len(sessions) - n_traced >= MIN_TRACED_SESSIONS
                  if trace else len(sessions) >= MIN_SESSIONS)
        if enough and time.perf_counter() - start >= seconds:
            break
    attempted = (len(sessions) + len(errors)) * runner.n_links

    problems = list(errors)
    if digests and len(set(digests)) != 1:
        problems.append(f"outputs differ between sessions: {sorted(set(digests))}")
        failed_links += runner.n_links * (len(digests) - digests.count(digests[0]))
    try:
        ref = checks.reference_digest(name, runner.n_links, seed)
    except checks.OutputError as exc:
        problems.append(str(exc))
        ref, failed_links = None, attempted
    if ref is not None and digests and digests[0] != ref:
        problems.append(f"output digest {digests[0]} != reference {ref}")
        failed_links = attempted
    mismatched = runner.oracle_check(per_link) if per_link is not None else {}
    problems += [f"{link}: {'; '.join(msgs)}" for link, msgs in mismatched.items()]
    failed_links = min(attempted, failed_links + len(mismatched))

    untraced = [s for s in sessions if not s["trace"]]
    lps = [runner.n_links / s["session_ref_s"] for s in untraced]
    raw_lps = [runner.n_links / s["session_s"] for s in untraced]
    rss = [s["rss_kib"] * 1024 / 1e6 for s in untraced]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "n_links": runner.n_links,
        "sessions": len(sessions), "traced_sessions": len(sessions) - len(untraced),
        "session_s": [s["session_s"] for s in sessions],
        "session_ref_s": [s["session_ref_s"] for s in sessions],
        "cal_s": [s["cal_s"] for s in sessions],
        "probe_cal_s": [p["cal_before_s"] for p in probes],
        "links_per_s": quartiles(lps) if lps else None,
        "setup_s": quartiles(setups),
        "wall_links_per_s": quartiles(raw_lps) if raw_lps else None,
        "wall_setup_s": quartiles(raw_setups),
        "peak_rss_mb": quartiles(rss) if rss else None,
        "digest": digests[0] if digests else None,
        "reference_digest": ref,
        "problems": problems,
        "provenance": provenance(probes[0], seed, runner),
    }
    if trace:
        metrics, extra = traced_metrics(sessions, runner.n_links, problems)
        detail.update(extra)
    else:
        metrics = {
            "links_per_s": statistics.median(lps) if lps else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "links_ok_frac": 1.0 - failed_links / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {
        "correct": not problems and failed_links == 0,
        "attempted": attempted,
        "failed": failed_links,
        "metrics": metrics,
    }
    return result, detail


def traced_metrics(sessions, n_links, problems) -> tuple[dict, dict]:
    traced = [s for s in sessions if s["trace"]]
    untraced = [s for s in sessions if not s["trace"]]
    if not traced or not untraced:
        problems.append("no traced or no untraced session completed")
        return zero_metrics(True, n_links), {}
    per_session, missing = [], set()
    for s in traced:
        t = merge_traces(s["traces"], s["scales"])
        missing.update(t["missing"])
        # A private site (``_name``) may be renamed by a later commit; its
        # metrics then read 0 and the details list it under missing_sites.
        public = [m for m in t["missing"] if not m.rsplit(".", 1)[1].startswith("_")]
        for problem, bad in ((f"trace sites not found: {public}", public),
                             ("traced functions were not all restored", not t["unwrapped"])):
            if bad and problem not in problems:
                problems.append(problem)
        per_session.append(layer_metrics(t, n_links, s["session_ref_s"]))
    metrics = {k: statistics.median(m[k] for m in per_session) for k in per_session[0]}
    t_traced = statistics.median(s["session_ref_s"] for s in traced)
    t_plain = statistics.median(s["session_ref_s"] for s in untraced)
    metrics["trace.overhead_s"] = t_traced - t_plain
    metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
    metrics["trace.untraced_links_per_s"] = n_links / t_plain
    metrics["trace.traced_links_per_s"] = n_links / t_traced
    # The `cli` span is the root and wraps the same call that session_s
    # times, so this holds by construction whenever spans nest properly: it
    # checks the nesting and the self-time arithmetic, not that the named
    # layers cover the session (cli.self_s takes whatever they leave).
    slack = max(metrics["trace.overhead_s"], 0.0) + 0.005
    if any(abs(m["trace.unattributed_s"]) > slack for m in per_session):
        problems.append("layer self times do not sum to the traced session time")
    counts = [{k: v for k, v in m.items() if unit_of(k) in COUNT_UNITS} for m in per_session]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced sessions of one input")
    extra = {
        "counts_by_session": counts,
        "missing_sites": sorted(missing),
        "analyze_pair_tail_pct": tail_pct(per_session[0]["beams.analyze_pair.calls"]),
    }
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}, extra


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(probe: dict, seed: int, runner: Runner) -> dict:
    out = dict(probe.get("provenance", {}))
    out.update({
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "seed": seed,
        "n_links": runner.n_links,
        "setup_method": "CLOCK_MONOTONIC from just before spawn until `import crossband.cli`"
                        " returns in the child",
        "rss_method": "getrusage(RUSAGE_SELF).ru_maxrss of each CLI process at exit; "
                      "max over a session's processes",
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for needed in (ROOT / "src" / "crossband" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed} not found; run inside a crossband source checkout",
                  file=sys.stderr)
            return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
