"""Public names of the package, and the functions the benchmark tracer wraps."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import crossband as cb

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_public_names_are_unique_and_resolve():
    assert len(set(cb.__all__)) == len(cb.__all__)
    assert [name for name in cb.__all__ if not hasattr(cb, name)] == []


def test_benchmark_trace_sites_resolve():
    # perfbench/spans.py wraps these attributes by name; a refactor that moves
    # or renames one would silently drop its span from a traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for module_name, dotted, _span, _count in spans.SITES:
        owner = importlib.import_module(module_name)
        for part in dotted.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{dotted}")
    assert unresolved == []
