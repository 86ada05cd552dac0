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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jitters-deg", type=float, nargs="+", default=[0.0, 5.0, 15.0])
    parser.add_argument("--n-links", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hpbw-deg", type=float, default=10.0)
    parser.add_argument("--out", help="directory for overlap CDF CSV files")
    args = parser.parse_args()

    grid = cb.AngularGrid(1.0)
    pattern = cb.Gpp3Pattern(args.hpbw_deg)
    sim = cb.SimilarityConfig()

    header = f"{'jitter':>8} {'median overlap':>15} {'median loss':>12}"
    print(header)
    print("-" * len(header))
    for jitter in args.jitters_deg:
        gen = cb.GenConfig(
            angle_jitter_deg=jitter, power_jitter_db=0.0,
            n_low_only_paths=0, n_high_only_paths=0, seed=args.seed,
        )
        report = cb.analyze_dataset(cb.generate_dataset(gen, args.n_links), pattern, pattern, grid, sim)
        psp_cdf = cb.empirical_cdf([r.psp.psp_percent for r in report.per_link.values()])
        median_overlap = cb.percentiles(psp_cdf, levels=(50,))[50]
        median_loss = report.percentiles[50] + 0.0  # drop negative zero
        print(f"{jitter:>7.1f}d {median_overlap:>14.2f}% {median_loss:>9.2f} dB")

        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            cb.write_curve_csv(out_dir / f"psp_cdf_jitter_{jitter:g}.csv",
                               "psp_percent,cumulative_probability", psp_cdf)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
