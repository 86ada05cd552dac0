"""In-memory span tracer that wraps crossband's public functions from outside.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it started (its parent). Spans stay in a list until
the traced session ends; ``summary`` then folds them into per-name totals.
Nothing inside ``src/`` is edited: the tracer replaces module attributes at
the places the program looks functions up (``crossband.beams.filter_pas``,
``crossband.batch.analyze_pair``, the pattern classes' ``gain`` ...) and puts
the originals back in ``uninstall``.
"""

from __future__ import annotations

import importlib
import os
import time

_now = time.perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_filter_pas(args, kwargs, result):
    channel = _arg(args, kwargs, 0, "channel")
    grid = _arg(args, kwargs, 2, "grid")
    return {"gain_evals": len(channel.rays) * grid.n_points}


def _count_gain(args, kwargs, result):
    return {"offsets": int(getattr(result, "size", 1))}


def _count_directions(args, kwargs, result):
    return {"directions": len(result)}


def _count_accepted(args, kwargs, result):
    return {"accepted": len(result)}


def _count_candidates(args, kwargs, result):
    return {"candidates": len(_arg(args, kwargs, 2, "steer_deg"))}


def _count_loaded(args, kwargs, result):
    return {"bytes_in": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_written(args, kwargs, result):
    return {"bytes_out": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module, attribute, span name, count hook). The same function is wrapped
# at every module that imported it, because ``from x import f`` copies the
# reference and the program calls it through the importing module.
SITES = (
    ("crossband.cli", "main", "cli", None),
    ("crossband.cli", "generate_dataset", "synth.generate_dataset", None),
    ("crossband.cli", "write_dataset", "dataset.write_dataset", _count_written),
    ("crossband.cli", "load_dataset", "dataset.load_dataset", _count_loaded),
    ("crossband.cli", "analyze_dataset", "batch.analyze_dataset", None),
    ("crossband.cli", "dump", "jsonio.dump", _count_written),
    ("crossband.cli", "filter_pas", "pas.filter_pas", _count_filter_pas),
    ("crossband.cli", "normalize_pas", "pas.normalize_pas", None),
    ("crossband.cli", "psp", "metrics.psp", None),
    ("crossband.batch", "analyze_pair", "beams.analyze_pair", None),
    ("crossband.beams", "filter_pas", "pas.filter_pas", _count_filter_pas),
    ("crossband.beams", "normalize_pas", "pas.normalize_pas", None),
    ("crossband.beams", "psp", "metrics.psp", None),
    ("crossband.beams", "select_m1", "beams.select_m1", _count_directions),
    ("crossband.beams", "select_m2", "beams.select_m2", _count_accepted),
    # Private, so a later commit may rename it: a missing private site is
    # noted in the details, not counted as a failure.
    ("crossband.beams", "_cfr_matrix", "beams.cfr_matrix", _count_candidates),
    ("crossband.beams", "power_ratio", "beams.score", None),
    ("crossband.beams", "false_directions", "beams.score", None),
    ("crossband.metrics", "filter_pas", "pas.filter_pas", _count_filter_pas),
    ("crossband.metrics", "normalize_pas", "pas.normalize_pas", None),
    ("crossband.beampattern", "UlaPattern.gain", "beampattern.gain.ula", _count_gain),
    ("crossband.beampattern", "Gpp3Pattern.gain", "beampattern.gain.gpp3", _count_gain),
)

# Span names whose individual durations are kept for percentiles.
KEEP_DURATIONS = ("beams.analyze_pair",)

NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    """Records nested spans of wrapped calls; one instance per traced session."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = _now()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = _now()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        for module_name, dotted, name, count in SITES:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, attr):
                self.missing.append(f"{module_name}.{dotted}")
                continue
            self.wrap(owner, attr, name, count)

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raise if one was replaced meanwhile."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            current = getattr(owner, attr)
            setattr(owner, attr, original)
            if getattr(current, "__wrapped__", None) is not original:
                raise RuntimeError(f"{owner!r}.{attr} changed while traced")

    @property
    def installed(self) -> int:
        return len(self._patched)


def self_times(spans) -> list[float]:
    """Per span, its duration minus the union of its direct children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(kids):
            start = max(start, reach, span[START])
            end = min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append((span[END] - span[START]) - covered)
    return out


def summary(spans) -> dict:
    """Fold spans into per-name calls, busy time, self time and summed counts.

    Busy time counts only spans with no ancestor of the same name, so a
    layer that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    names: dict[str, dict] = {}
    for i, span in enumerate(spans):
        entry = names.setdefault(
            span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}}
        )
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["busy_s"] += span[END] - span[START]
        for key, value in (span[COUNTS] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
        if span[NAME] in KEEP_DURATIONS:
            entry.setdefault("durations_s", []).append(span[END] - span[START])
    return {"names": names, "spans": len(spans), "self_sum_s": sum(selfs)}
