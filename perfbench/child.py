"""One fresh benchmark process: import the CLI, run one command, report.

Usage: ``python3 child.py <job.json> <t_launch>``. The job names the CLI
arguments, the file that receives the command's standard output, the file
this process writes its result to, and whether to trace; ``t_launch`` is the
parent's CLOCK_MONOTONIC reading taken just before it spawned this
process. The import of ``crossband.cli`` is timed from that reading, so
set-up covers interpreter start, numpy and the package, which every CLI call
pays. The host-speed calibration of ``calib.py`` runs once before the
command and once after it.
"""

import contextlib
import json
import resource
import sys
import time

import crossband.cli

_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

from calib import calibrate  # noqa: E402


def _provenance() -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
    }


def run(job: dict, t_launch: float) -> dict:
    out = {"setup_s": _READY - t_launch, "cal_before_s": calibrate()}
    if not job.get("argv"):
        out["provenance"] = _provenance()
        return out
    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    with open(job["stdout"], "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        rc = crossband.cli.main(job["argv"])
        t1 = time.perf_counter()
    out.update(rc=rc, session_s=t1 - t0, cal_after_s=calibrate())
    if tracer is not None:
        tracer.uninstall()
        trace = spans.summary(tracer.spans)
        trace["missing"] = tracer.missing
        trace["unwrapped"] = tracer.installed == 0
        out["trace"] = trace
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    result = run(job, float(sys.argv[2]))
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
