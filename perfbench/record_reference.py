#!/usr/bin/env python3
"""Record the output digest of every workload for seeds 0..SEEDS-1 in reference.json.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known good: the CLI promises
byte-identical files, so every later commit must reproduce these digests,
and ``run.py`` counts a mismatch as a failed run. Each seed is also
rechecked against the brute-force oracles before its digest is kept.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run

SEEDS = 24


def main() -> int:
    out = {}
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    for name, spec in run.WORKLOADS.items():
        digests = {}
        for seed in range(SEEDS):
            work = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
            try:
                runner = run.Runner(name, seed, work)
                runner.prepare()
                runner.session(trace=False)
                digest, failed, per_link = runner.check_session()
                mismatched = runner.oracle_check(per_link)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if failed or mismatched:
                print(f"{name} seed {seed}: {failed} failed links, {mismatched}", file=sys.stderr)
                return 1
            digests[str(seed)] = digest
        out[name] = {"n_links": spec["n_links"], "digests": digests}
    checks.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
