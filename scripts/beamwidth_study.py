#!/usr/bin/env python3
"""Compare direction-set usability across high-band beamwidths and thresholds.

Runs the similarity pipeline over one synthetic dataset in three
configurations: equal 4-element arrays at both bands, a narrower 8-element
array at the high band, and the narrow array again with a looser selection
threshold. Prints a percentile table of the power loss and the
false-direction fractions, and optionally exports the per-configuration
curves as CSV.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import crossband as cb
from crossband.cli import load_pairs, run


def build_configurations(delta_p_db: float):
    ula4 = cb.UlaPattern(4)
    ula8 = cb.UlaPattern(8)
    return [
        ("ula4-ula4 th10", ula4, ula4, cb.SimilarityConfig(delta_th_db=10.0, delta_p_db=delta_p_db)),
        ("ula4-ula8 th10", ula4, ula8, cb.SimilarityConfig(delta_th_db=10.0, delta_p_db=delta_p_db)),
        ("ula4-ula8 th15", ula4, ula8, cb.SimilarityConfig(delta_th_db=15.0, delta_p_db=delta_p_db)),
    ]


def write_curves(report: cb.BatchReport, out_dir: Path, tag: str) -> None:
    curves = report.curves()
    for name in ("r_cdf", "nf_pdf"):
        cb.write_curve_csv(out_dir / f"{name}_{tag}.csv", *curves[name])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-links", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--data", help="analyze this dataset file instead of generating one")
    parser.add_argument("--low-ghz", type=float, default=15.0)
    parser.add_argument("--high-ghz", type=float, default=28.0)
    parser.add_argument("--delta-p-db", type=float, default=-30.0)
    parser.add_argument("--out", help="directory for CDF/PDF CSV exports")
    return run(study, parser.parse_args())


def study(args) -> None:
    # every setting is checked and every report computed before the first line prints
    configurations = build_configurations(args.delta_p_db)
    if args.data:
        dataset = load_pairs(args)
        source = f"{args.data} ({len(dataset)} links)"
    else:
        gen = cb.GenConfig(
            n_shared_paths=8, n_low_only_paths=3, n_high_only_paths=1,
            shared_power_decay_db=2.0, power_jitter_db=7.0,
            low_freq_ghz=args.low_ghz, high_freq_ghz=args.high_ghz,
            seed=args.seed,
        )
        dataset = cb.generate_dataset(gen, args.n_links)
        source = f"synthetic, {args.n_links} links, seed {args.seed}"
    grid = cb.AngularGrid(1.0)
    reports = {name: cb.analyze_dataset(dataset, pat_low, pat_high, grid, cfg)
               for name, pat_low, pat_high, cfg in configurations}
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, report in reports.items():
            write_curves(report, out_dir, name.replace(" ", "_"))

    print(f"dataset: {source}")
    header = f"{'configuration':<16} {'p10':>7} {'p50':>7} {'p90':>7} {'nf=0':>7} {'nf<=1':>7}"
    print(header)
    print("-" * len(header))
    for name, report in reports.items():
        p = report.percentiles
        f = report.nf_fractions
        print(
            f"{name:<16} {p[10]:>7.2f} {p[50]:>7.2f} {p[90]:>7.2f}"
            f" {100 * f['nf_eq_0']:>6.1f}% {100 * f['nf_le_1']:>6.1f}%"
        )
        if report.failures:
            print(f"  {len(report.failures)} links failed analysis")
    print("\npercentiles are power loss in dB (negated power ratio)")


if __name__ == "__main__":
    raise SystemExit(main())
