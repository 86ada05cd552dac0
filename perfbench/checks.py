"""Output checks for benchmark sessions.

Every session's outputs are parsed (no NaN or infinity allowed) and digested;
the digest must equal the first session's (the CLI promises byte-identical
reruns) and, for seeds listed in ``reference.json``, the digest recorded
there. A seeded sample of links is recomputed with the brute-force functions
of ``tests/oracles.py``, reading the dataset file with the standard library
only, so no crossband code sits between the input and the reference.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

POWER_RATIO_ATOL_DB = 1e-9
PSP_ATOL_PERCENT = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class OutputError(ValueError):
    """A session's output is missing, malformed or holds a non-finite number."""


def _reject_constant(token):
    raise OutputError(f"non-finite JSON constant {token}")


def load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise OutputError(f"{path}: {exc}") from exc


def digest(outputs) -> str:
    """SHA-256 over (label, file path) pairs, in the order given: labels and bytes."""
    h = hashlib.sha256()
    for label, path in outputs:
        h.update(label.encode() + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def reference_digest(workload: str, n_links: int, seed: int) -> str | None:
    """The recorded digest of a seed, or None for a seed that was never recorded.

    Raise OutputError when the reference cannot be used: the file is missing
    or unreadable, the workload is not in it, or the workload's link count
    changed since it was recorded (re-record with ``record_reference.py``).
    """
    try:
        entry = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[workload]
    except (OSError, ValueError, KeyError) as exc:
        raise OutputError(f"{REFERENCE_PATH.name} has no entry for {workload}: {exc!r}") from exc
    if entry["n_links"] != n_links:
        raise OutputError(
            f"{REFERENCE_PATH.name} was recorded for {workload} at {entry['n_links']} links,"
            f" the workload has {n_links}"
        )
    return entry["digests"].get(str(seed))


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("crossband_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_bands(path: Path, low_ghz: float, high_ghz: float) -> dict[str, tuple[list, list]]:
    """link_id -> (low rays, high rays), each ray a (linear power, aoa_deg) pair."""
    bands: dict[str, dict[float, list]] = {}
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                ray = (10.0 ** (float(row["power_db"]) / 10.0), float(row["aoa_deg"]))
                bands.setdefault(row["link_id"], {}).setdefault(float(row["freq_ghz"]), []).append(ray)
    else:
        for link in json.loads(path.read_text(encoding="utf-8"))["links"]:
            per_freq = bands.setdefault(link["link_id"], {})
            for band in link["bands"]:
                per_freq[band["freq_ghz"]] = [
                    (10.0 ** (p["power_db"] / 10.0), p["aoa_deg"]) for p in band["paths"]
                ]
    return {k: (v[low_ghz], v[high_ghz]) for k, v in bands.items()}


def _density(values, step):
    mass = sum(values) * step
    return [v / mass for v in values]


def oracle_psp(oracles, values_low, values_high, step) -> float:
    d = oracles.total_variation(_density(values_low, step), _density(values_high, step), step)
    return (1.0 - min(max(d, 0.0), 1.0)) * 100.0


def sample_ids(ids, k: int, seed: int) -> list[str]:
    ids = sorted(ids)
    return sorted(random.Random(seed).sample(ids, min(k, len(ids))))


def recheck_links(oracles, spec: dict, bands: dict, reported: dict, ids) -> dict[str, list[str]]:
    """Recompute sampled links with the oracles; map each mismatched link to its messages.

    ``spec`` gives the grid step, the gain of each band as a function of the
    offset, and whether direction sets (``m1``) are rechecked. ``reported``
    maps link_id to the output's per-link dict: ``power_ratio_db``,
    ``n_false``, ``card_low``, ``card_high`` and ``psp_percent``, whichever the
    command reports.
    """
    step = spec["step"]
    angles = [k * step for k in range(round(360.0 / step))]
    problems: dict[str, list[str]] = {}
    for link_id in ids:
        low, high = bands[link_id]
        got = reported.get(link_id)
        if got is None:
            problems[link_id] = ["missing from the output"]
            continue
        v_low = oracles.filter_values(low, spec["gain_low"], angles)
        v_high = oracles.filter_values(high, spec["gain_high"], angles)
        want = {"psp_percent": oracle_psp(oracles, v_low, v_high, step)}
        if spec.get("m1"):
            a_low = oracles.select_directions(v_low, spec["delta_th_db"])
            a_high = oracles.select_directions(v_high, spec["delta_th_db"])
            want.update(
                power_ratio_db=oracles.power_ratio_db(a_low, a_high, v_high),
                n_false=oracles.count_false(a_low, a_high, v_high, spec["delta_p_db"]),
                card_low=len(a_low),
                card_high=len(a_high),
            )
        for key, value in want.items():
            tol = {"psp_percent": PSP_ATOL_PERCENT, "power_ratio_db": POWER_RATIO_ATOL_DB}.get(key, 0)
            if not (isinstance(got.get(key), (int, float)) and abs(got[key] - value) <= tol):
                problems.setdefault(link_id, []).append(f"{key} {got.get(key)!r} != oracle {value!r}")
    return problems


def batch_per_link(report: dict) -> dict:
    """Per-link fields of a ``batch`` report.json, flattened for ``recheck_links``."""
    out = {}
    for link_id, r in report["per_link"].items():
        out[link_id] = dict(r)
        out[link_id]["psp_percent"] = (r.get("psp") or {}).get("psp_percent")
    return out


def psp_per_link(doc: dict) -> dict:
    return {k: {"psp_percent": v} for k, v in doc["per_link"].items()}


def all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_finite(v) for v in obj)
    return True
