"""Public names of the package, and the functions the benchmark tracer wraps."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import tomllib
from pathlib import Path

import pytest

import crossband as cb
from crossband import beams, dataset, jsonio, pas, units

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SOURCES = sorted((ROOT / "src").rglob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_public_names_are_unique_and_resolve():
    assert len(set(cb.__all__)) == len(cb.__all__)
    assert [name for name in cb.__all__ if not hasattr(cb, name)] == []


def test_console_script_names_a_callable():
    # what `pip install .` turns into the crossband command
    with open(ROOT / "pyproject.toml", "rb") as file:
        target = tomllib.load(file)["project"]["scripts"]["crossband"]
    module, _, attribute = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attribute))


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


@pytest.mark.parametrize(
    "func, position, name",
    [
        (pas.filter_pas, 0, "channel"),
        (pas.filter_pas, 2, "grid"),
        (beams._cfr_matrix, 2, "steer_deg"),
        (dataset.load_dataset, 0, "path"),
        (dataset.write_dataset, 1, "path"),
        (jsonio.dump, 1, "path"),
    ],
)
def test_benchmark_count_hooks_read_the_right_arguments(func, position, name):
    # the count hooks in perfbench/spans.py read these arguments by position,
    # or by name when passed as keywords
    assert list(inspect.signature(func).parameters)[position] == name


def test_benchmark_count_hook_reads_band_rays():
    # perfbench/spans.py counts gain evaluations as len(channel.rays)
    assert "rays" in [field.name for field in dataclasses.fields(cb.BandChannel)]


def _calls(path):
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)]


def test_text_mode_opens_name_their_encoding():
    # without one, open() reads and writes the locale's encoding, ASCII under LC_ALL=C
    unnamed = []
    for path in SOURCES:
        for call in _calls(path):
            if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
                continue
            keywords = {k.arg: k.value for k in call.keywords}
            mode = call.args[1] if len(call.args) > 1 else keywords.get("mode")
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if not binary and "encoding" not in keywords:
                unnamed.append(f"{path.name}:{call.lineno}")
    assert unnamed == []


def _nodes(path):
    return list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_files_are_opened_by_jsonio_only():
    # every file the package reads or writes goes through jsonio, one encoding and line ending
    openers = sorted({path.name for path in SOURCES for call in _calls(path)
                      if isinstance(call.func, ast.Name) and call.func.id == "open"})
    assert openers == ["jsonio.py"]


def test_csv_is_imported_by_jsonio_only():
    # jsonio.write_csv and jsonio.csv_rows are the one CSV writer and reader
    importers = sorted({path.name for path in SOURCES for node in _nodes(path)
                        if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
                        or (isinstance(node, ast.ImportFrom) and node.module == "csv")})
    assert importers == ["jsonio.py"]


def test_normal_power_rule_is_spelled_by_units_only():
    # units.is_normal_power is the one rule for ray powers, gain floors and table gains
    spellers = sorted({path.name for path in SOURCES for node in _nodes(path)
                       if isinstance(node, ast.Attribute) and node.attr == "min"
                       and ((isinstance(node.value, ast.Attribute) and node.value.attr == "float_info")
                            or (isinstance(node.value, ast.Name) and node.value.id == "float_info"))})
    assert spellers == ["units.py"]


def test_db_ratios_are_spelled_by_units_only():
    # units.linear_to_db is the one dB conversion, libm's log10 on a float and numpy's otherwise
    spellers = sorted({path.name for path in SOURCES for node in _nodes(path)
                       if isinstance(node, ast.Attribute) and node.attr == "log10"})
    assert spellers == ["units.py"]


def test_batch_curve_headers_are_spelled_by_batch_only():
    # BatchReport.curves names each batch curve file's header once, for the CLI and the scripts
    headers = {"power_ratio_db,cumulative_probability", "n_false,probability", "cardinality,probability"}
    spellers = sorted({path.name for path in SOURCES + SCRIPTS for node in _nodes(path)
                       if isinstance(node, ast.Constant) and node.value in headers})
    assert spellers == ["batch.py"]


def test_arrays_are_frozen_by_units_read_only_only():
    # a flag set to False can be set back to True; units.read_only's copy over
    # immutable bytes cannot, so nothing in the package assigns the flag
    setters = [f"{path.name}:{node.lineno}" for path in SOURCES for node in _nodes(path)
               if (isinstance(node, ast.Attribute) and node.attr == "writeable"
                   and isinstance(node.ctx, ast.Store))
               or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "setflags")]
    assert setters == []


def test_ray_table_is_named_by_channel_only():
    # channel._channels is the one way from checked columns to channels
    namers = sorted({path.name for path in SOURCES for node in _nodes(path)
                     if (isinstance(node, ast.Name) and node.id == "RayTable")
                     or (isinstance(node, ast.Attribute) and node.attr == "RayTable")
                     or (isinstance(node, ast.alias) and node.name == "RayTable")})
    assert namers == ["__init__.py", "channel.py"]


def test_json_files_are_read_by_jsonio_only():
    # jsonio.load is the one place that turns bad JSON into an error naming the file
    readers = [path.name for path in SOURCES for call in _calls(path)
               if isinstance(call.func, ast.Attribute) and call.func.attr in ("load", "loads")
               and isinstance(call.func.value, ast.Name) and call.func.value.id == "json"]
    assert readers == ["jsonio.py"]



def _is_csv_reader(call):
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "reader"
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "csv")


def test_csv_files_are_read_by_jsonio_csv_rows_only():
    # jsonio.csv_rows is the one place that turns an unreadable CSV line into
    # an error naming the file and line
    readers = [path.name for path in SOURCES for call in _calls(path) if _is_csv_reader(call)]
    assert readers == ["jsonio.py"]
    tree = ast.parse(Path(jsonio.__file__).read_text(encoding="utf-8"))
    csv_rows = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "csv_rows")
    assert [call for call in ast.walk(csv_rows) if isinstance(call, ast.Call) and _is_csv_reader(call)]


def _names_a_decode_or_csv_error(node):
    # UnicodeError is the base class that also catches a UnicodeDecodeError
    if isinstance(node, ast.Name):
        return node.id in ("UnicodeDecodeError", "UnicodeError")
    return (isinstance(node, ast.Attribute) and node.attr == "Error"
            and isinstance(node.value, ast.Name) and node.value.id == "csv")


def test_decode_and_csv_errors_are_handled_by_jsonio_only():
    # the readers take every location from jsonio, so decode handling cannot grow back in a caller
    handlers = sorted({path.name for path in SOURCES
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if _names_a_decode_or_csv_error(node)})
    assert handlers == ["jsonio.py"]


def _is_360(node):
    return isinstance(node, ast.Constant) and node.value == 360


def _takes_an_angle_modulo_360(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
        return _is_360(node.right if isinstance(node, ast.BinOp) else node.value)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("remainder", "fmod")
            and any(_is_360(arg) for arg in [*node.args, *(k.value for k in node.keywords)]))


def test_angles_are_wrapped_by_units_only():
    # units.wrap_offset_deg and units.wrap_azimuths_deg are the one wrap of each kind
    wrappers = sorted({path.name for path in SOURCES
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if _takes_an_angle_modulo_360(node)})
    assert wrappers == ["units.py"]


def test_per_link_faults_are_caught_by_batch_only():
    # batch.map_links is the one per-link fault boundary, for analyze, batch and psp
    catchers = sorted({path.name for path in SOURCES
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.Name) and node.id == "ZeroDivisionError"})
    assert catchers == ["batch.py"]


def test_output_precision_is_not_spelled_as_a_literal():
    # jsonio.REPORT_SIG_DIGITS is the one output precision
    literal = [f"{path.name}:{node.lineno}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FormattedValue) and node.format_spec is not None
               and any(isinstance(part, ast.Constant) and "12g" in part.value
                       for part in node.format_spec.values)]
    assert literal == []


def test_frozen_types_are_rebuilt_by_units_only():
    # units.Rebuilt is the one copy and pickle rule for the classes that freeze arrays;
    # RayTable's constructor takes Rays and would drop its file columns, so it keeps its own
    reducers = sorted({path.name for path in SOURCES for node in _nodes(path)
                       if isinstance(node, ast.FunctionDef) and node.name == "__reduce__"})
    assert reducers == ["channel.py", "units.py"]
    freezers = [getattr(importlib.import_module(f"crossband.{path.stem}"), node.name)
                for path in SOURCES for node in _nodes(path)
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "read_only"
                    for call in ast.walk(node))]
    assert [cls.__name__ for cls in freezers if not issubclass(cls, units.Rebuilt)] == ["RayTable"]


def _is_gain_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "gain"


def test_pattern_gains_are_weighted_by_pas_only():
    # pas._weighted_gains is the one spectral kernel: filter_pas sums its rows and
    # the m2 responses take their amplitudes from its columns
    calls = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name != "beampattern.py"
             for node in _nodes(path) if _is_gain_call(node)]
    kernels = [node for node in _nodes(Path(pas.__file__))
               if isinstance(node, ast.FunctionDef) and node.name == "_weighted_gains"]
    assert calls == [f"pas.py:{node.lineno}" for kernel in kernels for node in ast.walk(kernel)
                     if _is_gain_call(node)]
    assert len(kernels) == len(calls) == 1


def _name(node):
    return {ast.Name: "id", ast.alias: "name", ast.Attribute: "attr"}.get(type(node), "")


def test_errors_end_in_cli_run_only():
    # cli.run is the one place that sets the heap top pad, prints an error: line
    # and picks the exit code, for the CLI and both study scripts
    files = SOURCES + SCRIPTS
    exit_namers = sorted({path.name for path in files for node in _nodes(path)
                          if getattr(node, _name(node), "").startswith("EXIT_")})
    error_printers = sorted({path.name for path in files for node in _nodes(path)
                             if isinstance(node, ast.JoinedStr) and node.values and isinstance(node.values[0], ast.Constant)
                             and node.values[0].value == "error: "})
    pad_setters = sorted({f"{path.name}:{func.name}" for path in files for func in _nodes(path)
                          if isinstance(func, ast.FunctionDef)
                          for node in ast.walk(func) if isinstance(node, ast.Call)
                          and getattr(node.func, _name(node.func), "") == "mallopt"})
    catchers = [path.name for path in SCRIPTS for node in _nodes(path) if isinstance(node, ast.Try)]
    assert (exit_namers, error_printers, pad_setters, catchers) == (["cli.py"], ["cli.py"], ["cli.py:run"], [])
