"""Dataset-level runs of the similarity pipeline and their empirical statistics.

``analyze_dataset`` applies ``analyze_pair`` to every link of a dataset, and
its ``BatchReport`` folds the per-link reports into distribution summaries:
the CDF of the power ratio, discrete PDFs of the false-direction count and
the direction-set cardinalities, percentiles of the power loss, and the
fractions of links with no or at most one false direction. Per-link failures
are recorded and set aside; one malformed link must not sink a
multi-thousand-link batch.

A ``BatchReport`` keeps its reports sorted by link_id, so the outcome does
not depend on dataset ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beams import SimilarityConfig, SimilarityReport, analyze_pair
from .channel import LinkPair
from .pas import AngularGrid

# Slack for comparing cumulative probabilities (multiples of 1/n) against
# requested levels; far below the 1/n spacing of any feasible sample count.
_PROB_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class BatchReport:
    """Aggregated outcome of the similarity pipeline over a dataset.

    Built from the per-link reports and failures alone; every statistic is
    derived from ``per_link`` at construction.

    Attributes
    ----------
    per_link : dict mapping link_id to SimilarityReport, sorted by link_id
    failures : dict mapping link_id to the error message, for links whose
        analysis raised, sorted by link_id
    r_cdf : step CDF of power_ratio_db as (value, cumulative probability)
        pairs
    nf_pdf, card_low_pdf, card_high_pdf : discrete count distributions
    percentiles : level (percent) to power loss (dB, the negated power
        ratio) at that level
    nf_fractions : probabilities of "no false direction" and "at most one"
    """

    per_link: dict[str, SimilarityReport]
    failures: dict[str, str] = field(default_factory=dict)
    r_cdf: tuple[tuple[float, float], ...] = field(init=False)
    nf_pdf: dict[int, float] = field(init=False)
    card_low_pdf: dict[int, float] = field(init=False)
    card_high_pdf: dict[int, float] = field(init=False)
    percentiles: dict[int, float] = field(init=False)
    nf_fractions: dict[str, float] = field(init=False)

    def __post_init__(self):
        if not self.per_link:
            raise ValueError("a batch report needs at least one analyzed link")
        reports = dict(sorted(self.per_link.items()))
        r_values = [r.power_ratio_db for r in reports.values()]
        nf_values = [r.n_false for r in reports.values()]
        n = len(reports)
        derived = {
            "per_link": reports,
            "failures": dict(sorted(self.failures.items())),
            "r_cdf": tuple(empirical_cdf(r_values)),
            "nf_pdf": _count_pdf(nf_values),
            "card_low_pdf": _count_pdf([r.card_low for r in reports.values()]),
            "card_high_pdf": _count_pdf([r.card_high for r in reports.values()]),
            "percentiles": percentiles(empirical_cdf([-r for r in r_values])),
            "nf_fractions": {
                "nf_eq_0": sum(v == 0 for v in nf_values) / n,
                "nf_le_1": sum(v <= 1 for v in nf_values) / n,
            },
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n_links(self) -> int:
        return len(self.per_link) + len(self.failures)

    def to_dict(self) -> dict:
        return {
            "n_links": self.n_links,
            "n_analyzed": len(self.per_link),
            "n_failed": len(self.failures),
            "percentiles": {str(k): v for k, v in self.percentiles.items()},
            "nf_fractions": dict(self.nf_fractions),
            "nf_pdf": {str(k): v for k, v in self.nf_pdf.items()},
            "card_low_pdf": {str(k): v for k, v in self.card_low_pdf.items()},
            "card_high_pdf": {str(k): v for k, v in self.card_high_pdf.items()},
            "r_cdf": [[v, p] for v, p in self.r_cdf],
            "per_link": {k: r.to_dict() for k, r in self.per_link.items()},
            "failures": dict(self.failures),
        }


def empirical_cdf(samples) -> list[tuple[float, float]]:
    """Step CDF of a sample multiset.

    Returns (value, probability) pairs over the distinct sorted values, where
    the probability at a value is the fraction of samples less than or equal
    to it. Tied samples collapse to a single step.
    """
    ordered = sorted(float(s) for s in samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot build a CDF from no samples")
    pairs = []
    for i, value in enumerate(ordered, start=1):
        if i == n or ordered[i] != value:
            pairs.append((value, i / n))
    return pairs


def percentiles(cdf, levels=(10, 50, 90)) -> dict[int, float]:
    """Lower empirical quantiles read off a step CDF.

    For each level (in percent) returns the smallest sample value whose
    cumulative probability reaches the level. Levels must lie in (0, 100].
    """
    out = {}
    for level in levels:
        if not 0.0 < level <= 100.0:
            raise ValueError(f"percentile level must be in (0, 100], got {level!r}")
        target = level / 100.0 - _PROB_EPS
        for value, prob in cdf:
            if prob >= target:
                out[int(level)] = value
                break
        else:
            raise ValueError("CDF does not reach probability 1")
    return out


def float_faults_raise() -> np.errstate:
    """Numpy divide, overflow and invalid faults raise; tiny gains may underflow."""
    return np.errstate(divide="raise", over="raise", invalid="raise")


def analyze_dataset(
    dataset: list[LinkPair],
    pattern_low,
    pattern_high,
    grid: AngularGrid,
    config: SimilarityConfig,
) -> BatchReport:
    """Run the similarity pipeline over every link and aggregate.

    Links are processed independently; a link whose analysis raises is
    recorded under ``failures`` and excluded from the aggregates; under
    ``float_faults_raise``, a numpy float fault fails its link with its message.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    seen = set()
    for pair in dataset:
        if pair.link_id in seen:
            raise ValueError(f"duplicate link_id {pair.link_id!r} in dataset")
        seen.add(pair.link_id)
    reports: dict[str, SimilarityReport] = {}
    failures: dict[str, str] = {}
    with float_faults_raise():
        for pair in dataset:
            try:
                reports[pair.link_id] = analyze_pair(pair, pattern_low, pattern_high, grid, config)
            except (ValueError, ZeroDivisionError, FloatingPointError) as exc:
                failures[pair.link_id] = str(exc)
    if not reports:
        raise ValueError(f"every link failed analysis; first error: {failures[min(failures)]}")
    return BatchReport(per_link=reports, failures=failures)


def write_curve_csv(path, header: str, rows) -> None:
    """Write (x, y) rows under a one-line header as LF-terminated CSV.

    Both columns print with 12 significant digits (``%.12g``), so an integer
    x such as a direction count prints without a decimal point.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        for x, y in rows:
            handle.write(f"{x:.12g},{y:.12g}\n")


def _count_pdf(values: list[int]) -> dict[int, float]:
    n = len(values)
    return {k: values.count(k) / n for k in sorted(set(values))}
