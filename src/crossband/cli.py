"""Command-line surface: generate, analyze, batch, psp, pattern.

Exit codes: 0 success, 2 usage errors (bad flags or pattern-spec grammar),
3 I/O errors, 4 validation and analysis errors. All outputs are
deterministic: rerunning a command on the same inputs yields byte-identical
files and stdout.

Pattern specs follow a small grammar::

    gpp3:hpbw=10,amax=30      synthetic main-lobe pattern
    ula:n=8,spacing=0.5,floor=-60
    file:/path/to/pattern.csv tabulated offsets/gains
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .batch import BatchReport, analyze_dataset, empirical_cdf, float_faults_raise, write_curve_csv
from .beampattern import pattern_from_csv, pattern_to_csv, synth_3gpp, synth_ula
from .beams import SimilarityConfig, analyze_pair
from .channel import LinkPair
from .dataset import DatasetFormatError, load_dataset, write_dataset
from .jsonio import dump, dumps
from .metrics import psp
from .pas import AngularGrid, filter_pas, normalize_pas
from .synth import GENERATOR_NAME, GenConfig, generate_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

REPORT_SIG_DIGITS = 12


class PatternSpecError(ValueError):
    """The --spec / --pattern-* grammar was violated."""


def parse_pattern_spec(text: str):
    """Build a beampattern from its command-line spec string."""
    kind, _, rest = text.partition(":")
    if kind == "file":
        if not rest:
            raise PatternSpecError("file: spec needs a path, e.g. file:pattern.csv")
        return pattern_from_csv(rest)
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key or not value:
                raise PatternSpecError(f"malformed parameter {item!r} in spec {text!r}")
            if key in params:
                raise PatternSpecError(f"duplicate parameter {key!r} in spec {text!r}")
            try:
                params[key] = float(value)
            except ValueError:
                raise PatternSpecError(f"non-numeric value {value!r} in spec {text!r}") from None
    try:
        if kind == "gpp3":
            return _build_gpp3(text, params)
        if kind == "ula":
            return _build_ula(text, params)
    except PatternSpecError:
        raise
    except ValueError as exc:
        raise PatternSpecError(f"invalid spec {text!r}: {exc}") from exc
    raise PatternSpecError(f"unknown pattern kind {kind!r} (expected gpp3, ula, or file)")


def _build_gpp3(text, params):
    unknown = set(params) - {"hpbw", "amax"}
    if unknown:
        raise PatternSpecError(f"unknown gpp3 parameters {sorted(unknown)} in {text!r}")
    if "hpbw" not in params:
        raise PatternSpecError(f"gpp3 spec needs hpbw=<deg>: {text!r}")
    return synth_3gpp(params["hpbw"], params.get("amax", 30.0))


def _build_ula(text, params):
    unknown = set(params) - {"n", "spacing", "floor"}
    if unknown:
        raise PatternSpecError(f"unknown ula parameters {sorted(unknown)} in {text!r}")
    if "n" not in params:
        raise PatternSpecError(f"ula spec needs n=<elements>: {text!r}")
    n = params["n"]
    if n != int(n):
        raise PatternSpecError(f"ula element count must be an integer, got {n!r}")
    return synth_ula(int(n), params.get("spacing", 0.5), params.get("floor", -60.0))


def _add_analysis_flags(sub, with_link: bool):
    sub.add_argument("--data", required=True, help="dataset file (.json or .csv)")
    sub.add_argument("--low-ghz", required=True, type=float, help="low band frequency")
    sub.add_argument("--high-ghz", required=True, type=float, help="high band frequency")
    sub.add_argument("--pattern-low", required=True, help="low band pattern spec")
    sub.add_argument("--pattern-high", required=True, help="high band pattern spec")
    sub.add_argument("--method", choices=("m1", "m2"), default="m1")
    sub.add_argument("--delta-th-db", type=float, default=10.0,
                     help="direction selection threshold below the strongest direction")
    sub.add_argument("--delta-p-db", type=float, default=-30.0,
                     help="false-direction power threshold (negative dB)")
    sub.add_argument("--grid-step-deg", type=float, default=1.0)
    if with_link:
        sub.add_argument("--link", help="link_id to analyze (default: the only link)")


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
    _add_analysis_flags(ana, with_link=True)
    ana.set_defaults(func=_cmd_analyze)

    bat = commands.add_parser("batch", help="similarity statistics over a dataset")
    _add_analysis_flags(bat, with_link=False)
    bat.add_argument("--out", required=True, help="output directory for report and curves")
    bat.set_defaults(func=_cmd_batch)

    psc = commands.add_parser("psp", help="spectrum overlap percentage per link")
    psc.add_argument("--data", required=True)
    psc.add_argument("--low-ghz", required=True, type=float)
    psc.add_argument("--high-ghz", required=True, type=float)
    psc.add_argument("--hpbw-deg", required=True, type=float,
                     help="half-power beamwidth of the filtering pattern, both bands")
    psc.add_argument("--amax-db", type=float, default=30.0)
    psc.add_argument("--grid-step-deg", type=float, default=1.0)
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


def _similarity_config(args) -> SimilarityConfig:
    return SimilarityConfig(
        delta_th_db=args.delta_th_db, delta_p_db=args.delta_p_db, method=args.method
    )


def _cmd_generate(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: not valid JSON: {exc}") from exc
        config = GenConfig.from_dict(raw)
    else:
        config = GenConfig()
    if args.n_links < 1:
        raise ValueError(f"--n-links must be >= 1, got {args.n_links}")
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
    with float_faults_raise():
        report = analyze_pair(
            pair,
            parse_pattern_spec(args.pattern_low),
            parse_pattern_spec(args.pattern_high),
            AngularGrid(args.grid_step_deg),
            _similarity_config(args),
        )
    out = {"link_id": pair.link_id}
    out.update(report.to_dict())
    sys.stdout.write(dumps(out, sig_digits=REPORT_SIG_DIGITS))
    return EXIT_OK


def _export_batch(report: BatchReport, out_dir: Path, params: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"params": params}
    doc.update(report.to_dict())
    dump(doc, out_dir / "report.json", sig_digits=REPORT_SIG_DIGITS)
    write_curve_csv(out_dir / "r_cdf.csv", "power_ratio_db,cumulative_probability", report.r_cdf)
    write_curve_csv(out_dir / "nf_pdf.csv", "n_false,probability", report.nf_pdf.items())
    write_curve_csv(out_dir / "card_low_pdf.csv", "cardinality,probability",
                    report.card_low_pdf.items())
    write_curve_csv(out_dir / "card_high_pdf.csv", "cardinality,probability",
                    report.card_high_pdf.items())


def _cmd_batch(args) -> int:
    report = analyze_dataset(
        _load_pairs(args),
        parse_pattern_spec(args.pattern_low),
        parse_pattern_spec(args.pattern_high),
        AngularGrid(args.grid_step_deg),
        _similarity_config(args),
    )
    params = {
        "data": args.data,
        "low_ghz": args.low_ghz,
        "high_ghz": args.high_ghz,
        "pattern_low": args.pattern_low,
        "pattern_high": args.pattern_high,
        "method": args.method,
        "delta_th_db": args.delta_th_db,
        "delta_p_db": args.delta_p_db,
        "grid_step_deg": args.grid_step_deg,
    }
    _export_batch(report, Path(args.out), params)
    return EXIT_OK


def _cmd_psp(args) -> int:
    pairs = _load_pairs(args)
    pattern = synth_3gpp(args.hpbw_deg, args.amax_db)
    grid = AngularGrid(args.grid_step_deg)
    per_link = {}
    with float_faults_raise():
        for pair in sorted(pairs, key=lambda p: p.link_id):
            low = normalize_pas(filter_pas(pair.low, pattern, grid))
            high = normalize_pas(filter_pas(pair.high, pattern, grid))
            per_link[pair.link_id] = psp(low, high).psp_percent
    out = {"hpbw_deg": args.hpbw_deg, "amax_db": args.amax_db, "per_link": per_link}
    sys.stdout.write(dumps(out, sig_digits=REPORT_SIG_DIGITS))
    if args.out:
        cdf = empirical_cdf(list(per_link.values()))
        write_curve_csv(args.out, "psp_percent,cumulative_probability", cdf)
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
    except DatasetFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
