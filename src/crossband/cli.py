"""Command-line surface: generate, analyze, batch, psp, pattern.

Exit codes: 0 success, 2 usage errors (bad flags or pattern-spec grammar),
3 I/O errors, 4 validation and analysis errors. All outputs are
deterministic: rerunning a command on the same inputs yields byte-identical
files and stdout.

A pattern spec is ``file:path`` or ``kind:key=value,...``, such as
``gpp3:hpbw=10,amax=25`` or ``ula:n=8,floor=-50``. ``_SPEC_KINDS`` maps each
key onto a field of the kind's pattern class; a key left out takes the
field's class default.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .batch import BatchReport, analyze_dataset, empirical_cdf, map_links
from .beampattern import Gpp3Pattern, UlaPattern, pattern_from_csv, pattern_to_csv
from .beams import METHODS, SimilarityConfig
from .channel import LinkPair
from .dataset import load_dataset, write_dataset
from .jsonio import dump, dumps, load, round_floats, write_curve_csv
from .metrics import psp
from .pas import AngularGrid, filter_pas, normalize_pas
from .synth import GENERATOR_NAME, GenConfig, generate_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


class PatternSpecError(ValueError):
    """The --spec / --pattern-* grammar was violated."""


# Each kind's pattern class and the field each spec key sets. A key is
# required when its field has no default.
_SPEC_KINDS = {
    "gpp3": (Gpp3Pattern, {"hpbw": "hpbw_deg", "amax": "a_max_db"}),
    "ula": (UlaPattern, {"n": "n_elements", "spacing": "spacing_wavelengths",
                         "floor": "backplane_floor_db"}),
}


def parse_pattern_spec(text: str):
    """Build a beampattern from its command-line spec string."""
    kind, _, rest = text.partition(":")
    if kind == "file":
        if not rest:
            raise PatternSpecError("file: spec needs a path, e.g. file:pattern.csv")
        return pattern_from_csv(rest)
    if kind not in _SPEC_KINDS:
        raise PatternSpecError(f"unknown pattern kind {kind!r} (expected gpp3, ula, or file)")
    cls, field_of = _SPEC_KINDS[kind]
    params = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise PatternSpecError(f"malformed parameter {item!r} in spec {text!r}")
        if key not in field_of:
            raise PatternSpecError(f"unknown {kind} parameter {key!r} in spec {text!r}")
        if field_of[key] in params:
            raise PatternSpecError(f"duplicate parameter {key!r} in spec {text!r}")
        try:
            params[field_of[key]] = float(value)
        except ValueError:
            raise PatternSpecError(f"non-numeric value {value!r} in spec {text!r}") from None
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for key, name in field_of.items():
        if name in required and name not in params:
            raise PatternSpecError(f"{kind} spec needs {key}=<value>: {text!r}")
    try:
        return cls(**params)
    except ValueError as exc:
        raise PatternSpecError(f"invalid spec {text!r}: {exc}") from exc


def _add_dataset_flags(sub):
    sub.add_argument("--data", required=True, help="dataset file (.json or .csv)")
    sub.add_argument("--low-ghz", required=True, type=float, help="low band frequency")
    sub.add_argument("--high-ghz", required=True, type=float, help="high band frequency")
    sub.add_argument("--grid-step-deg", type=float, default=AngularGrid.step_deg)


def _add_analysis_flags(sub):
    _add_dataset_flags(sub)
    sub.add_argument("--pattern-low", required=True, help="low band pattern spec")
    sub.add_argument("--pattern-high", required=True, help="high band pattern spec")
    sub.add_argument("--method", choices=METHODS, default=SimilarityConfig.method)
    sub.add_argument("--delta-th-db", type=float, default=SimilarityConfig.delta_th_db,
                     help="direction selection threshold below the strongest direction")
    sub.add_argument("--delta-p-db", type=float, default=SimilarityConfig.delta_p_db,
                     help="false-direction power threshold (negative dB)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossband",
        description="Cross-band spatial similarity analysis of multipath channels.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a synthetic two-band dataset")
    gen.add_argument("--config", help="JSON file of generator settings (defaults if omitted)")
    gen.add_argument("--n-links", required=True, type=int)
    gen.add_argument("--out", required=True, help="output dataset path (.json or .csv)")
    gen.set_defaults(func=_cmd_generate)

    ana = commands.add_parser("analyze", help="similarity report for one link")
    _add_analysis_flags(ana)
    ana.add_argument("--link", help="link_id to analyze (default: the only link)")
    ana.set_defaults(func=_cmd_analyze)

    bat = commands.add_parser("batch", help="similarity statistics over a dataset")
    _add_analysis_flags(bat)
    bat.add_argument("--out", required=True, help="output directory for report and curves")
    bat.set_defaults(func=_cmd_batch)

    psc = commands.add_parser("psp", help="spectrum overlap percentage per link")
    _add_dataset_flags(psc)
    psc.add_argument("--hpbw-deg", required=True, type=float,
                     help="half-power beamwidth of the filtering pattern, both bands")
    psc.add_argument("--amax-db", type=float, default=Gpp3Pattern.a_max_db)
    psc.add_argument("--out", help="optional CDF CSV path")
    psc.set_defaults(func=_cmd_psp)

    pat = commands.add_parser("pattern", help="tabulate a beampattern to CSV")
    pat.add_argument("--spec", required=True)
    pat.add_argument("--out", required=True)
    pat.add_argument("--step-deg", type=float, default=0.1)
    pat.set_defaults(func=_cmd_pattern)
    return parser


def _load_pairs(args) -> list[LinkPair]:
    pairs = load_dataset(args.data, args.low_ghz, args.high_ghz)
    if not pairs:
        raise ValueError(
            f"no links in {args.data} carry both {args.low_ghz:g} and {args.high_ghz:g} GHz"
        )
    return pairs


def _analyze(args, pairs: list[LinkPair]) -> BatchReport:
    return analyze_dataset(
        pairs,
        parse_pattern_spec(args.pattern_low),
        parse_pattern_spec(args.pattern_high),
        AngularGrid(args.grid_step_deg),
        SimilarityConfig(delta_th_db=args.delta_th_db, delta_p_db=args.delta_p_db, method=args.method),
    )


def _cmd_generate(args) -> int:
    config = GenConfig() if args.config is None else GenConfig.from_dict(load(args.config))
    dataset = generate_dataset(config, args.n_links)
    metadata = {
        "generator": GENERATOR_NAME,
        "gen_config": config.to_dict(),
        "n_links": args.n_links,
    }
    write_dataset(dataset, args.out, metadata)
    return EXIT_OK


def _select_pair(pairs: list[LinkPair], link_id: str | None) -> LinkPair:
    if link_id is None:
        if len(pairs) != 1:
            raise ValueError(
                f"dataset has {len(pairs)} links; pick one with --link"
            )
        return pairs[0]
    for pair in pairs:
        if pair.link_id == link_id:
            return pair
    raise ValueError(f"no link {link_id!r} in dataset")


def _cmd_analyze(args) -> int:
    pair = _select_pair(_load_pairs(args), args.link)
    out = {"link_id": pair.link_id}
    out.update(_analyze(args, [pair]).per_link[pair.link_id].to_dict())
    sys.stdout.write(dumps(round_floats(out)))
    return EXIT_OK


def _export_batch(report: BatchReport, out_dir: Path, params: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"params": params}
    doc.update(report.to_dict())
    dump(round_floats(doc), out_dir / "report.json")
    for name, (header, rows) in report.curves().items():
        write_curve_csv(out_dir / f"{name}.csv", header, rows)


def _cmd_batch(args) -> int:
    report = _analyze(args, _load_pairs(args))
    names = ("data", "low_ghz", "high_ghz", "pattern_low", "pattern_high", "method",
             "delta_th_db", "delta_p_db", "grid_step_deg")
    _export_batch(report, Path(args.out), {name: getattr(args, name) for name in names})
    return EXIT_OK


def _cmd_psp(args) -> int:
    pairs = _load_pairs(args)
    pattern = Gpp3Pattern(args.hpbw_deg, args.amax_db)
    grid = AngularGrid(args.grid_step_deg)

    # This repeats metrics.pair_psp on purpose: perfbench times the analysis of
    # psp through the names crossband.cli.filter_pas, normalize_pas and psp
    # (tests/test_api.py::test_benchmark_trace_sites_resolve), so the closure
    # can become pair_psp only together with a change to the benchmark.
    def overlap(pair: LinkPair) -> float:
        low = normalize_pas(filter_pas(pair.low, pattern, grid))
        high = normalize_pas(filter_pas(pair.high, pattern, grid))
        return psp(low, high).psp_percent
    per_link, failures = map_links(sorted(pairs, key=lambda p: p.link_id), overlap)
    out = {"hpbw_deg": args.hpbw_deg, "amax_db": args.amax_db, "per_link": per_link}
    if failures:
        out["failures"] = failures
    if args.out:  # before the report, so a failed write prints none
        cdf = empirical_cdf(list(per_link.values()))
        write_curve_csv(args.out, "psp_percent,cumulative_probability", cdf)
    sys.stdout.write(dumps(round_floats(out)))
    return EXIT_OK


def _cmd_pattern(args) -> int:
    pattern_to_csv(parse_pattern_spec(args.spec), args.out, args.step_deg)
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PatternSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
