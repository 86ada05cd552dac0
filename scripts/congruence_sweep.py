#!/usr/bin/env python3
"""Sweep the cross-band congruence knobs and watch the similarity metrics react.

For each angle jitter value, generates a dataset, computes the spectrum
overlap percentage of every link and the direction-based power loss, and
reports medians. With --out, writes one overlap CDF per jitter value, which
makes a compact before/after plot of how fast congruence decays.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import crossband as cb
from crossband.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jitters-deg", type=float, nargs="+", default=[0.0, 5.0, 15.0])
    parser.add_argument("--n-links", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hpbw-deg", type=float, default=10.0)
    parser.add_argument("--out", help="directory for overlap CDF CSV files")
    return run(sweep, parser.parse_args())


def sweep(args) -> None:
    # every setting is checked and every row computed before the first line prints
    grid = cb.AngularGrid(1.0)
    pattern = cb.Gpp3Pattern(args.hpbw_deg)
    sim = cb.SimilarityConfig()
    configs = [cb.GenConfig(angle_jitter_deg=jitter, power_jitter_db=0.0,
                            n_low_only_paths=0, n_high_only_paths=0, seed=args.seed)
               for jitter in args.jitters_deg]
    paths = ([Path(args.out) / f"psp_cdf_jitter_{jitter:g}.csv" for jitter in args.jitters_deg]
             if args.out else [])
    first = {}
    for path, jitter in zip(paths, args.jitters_deg):
        if first.setdefault(path, jitter) != jitter:
            raise ValueError(f"{path}: jitters {first[path]!r} and {jitter!r} deg would share this file")
    rows = []
    for jitter, gen in zip(args.jitters_deg, configs):
        report = cb.analyze_dataset(cb.generate_dataset(gen, args.n_links), pattern, pattern, grid, sim)
        psp_cdf = cb.empirical_cdf([r.psp.psp_percent for r in report.per_link.values()])
        median_overlap = cb.percentiles(psp_cdf, levels=(50,))[50]
        median_loss = report.percentiles[50] + 0.0  # drop negative zero
        rows.append((jitter, psp_cdf, median_overlap, median_loss))
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        for path, (_, psp_cdf, _, _) in zip(paths, rows):
            cb.write_curve_csv(path, "psp_percent,cumulative_probability", psp_cdf)

    header = f"{'jitter':>8} {'median overlap':>15} {'median loss':>12}"
    print(header)
    print("-" * len(header))
    for jitter, _, median_overlap, median_loss in rows:
        print(f"{jitter:>7.1f}d {median_overlap:>14.2f}% {median_loss:>9.2f} dB")


if __name__ == "__main__":
    raise SystemExit(main())
