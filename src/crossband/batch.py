"""Dataset-level runs of the similarity pipeline and their empirical statistics.

``analyze_dataset`` applies ``analyze_pair`` to every link of a dataset and
folds the per-link reports into distribution summaries: the CDF of the power
ratio, discrete PDFs of the false-direction count and the direction-set
cardinalities, percentiles of the power loss, and the fractions of links with
no or at most one false direction. Per-link failures are recorded and set
aside; one malformed link must not sink a multi-thousand-link batch.

Aggregation happens over link_id-sorted reports, so the outcome does not
depend on dataset ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .beams import SimilarityConfig, SimilarityReport, analyze_pair
from .channel import LinkPair
from .pas import AngularGrid

# Slack for comparing cumulative probabilities (multiples of 1/n) against
# requested levels; far below the 1/n spacing of any feasible sample count.
_PROB_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class BatchReport:
    """Aggregated outcome of the similarity pipeline over a dataset.

    Attributes
    ----------
    per_link : dict mapping link_id to SimilarityReport, sorted by link_id
    failures : dict mapping link_id to the error message, for links whose
        analysis raised
    r_cdf : step CDF of power_ratio_db as (value, cumulative probability)
        pairs
    nf_pdf, card_low_pdf, card_high_pdf : discrete count distributions
    percentiles : level (percent) to power loss (dB, the negated power
        ratio) at that level
    nf_fractions : probabilities of "no false direction" and "at most one"
    """

    per_link: dict[str, SimilarityReport]
    failures: dict[str, str] = field(default_factory=dict)
    r_cdf: tuple[tuple[float, float], ...] = ()
    nf_pdf: dict[int, float] = field(default_factory=dict)
    card_low_pdf: dict[int, float] = field(default_factory=dict)
    card_high_pdf: dict[int, float] = field(default_factory=dict)
    percentiles: dict[int, float] = field(default_factory=dict)
    nf_fractions: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.per_link:
            raise ValueError("a batch report needs at least one analyzed link")
        for value, prob in self.r_cdf:
            del value
            if not 0.0 < prob <= 1.0 + _PROB_EPS:
                raise ValueError("CDF probabilities must lie in (0, 1]")
        if self.r_cdf:
            if any(self.r_cdf[i] >= self.r_cdf[i + 1] for i in range(len(self.r_cdf) - 1)):
                raise ValueError("CDF pairs must be strictly increasing")
            if abs(self.r_cdf[-1][1] - 1.0) > _PROB_EPS:
                raise ValueError("CDF must end at probability 1")
        for name in ("nf_pdf", "card_low_pdf", "card_high_pdf"):
            pdf = getattr(self, name)
            if pdf and abs(sum(pdf.values()) - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1")

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


def analyze_dataset(
    dataset: list[LinkPair],
    pattern_low,
    pattern_high,
    grid: AngularGrid,
    config: SimilarityConfig,
    include_psp: bool = False,
) -> BatchReport:
    """Run the similarity pipeline over every link and aggregate.

    Links are processed independently; a link whose analysis raises is
    recorded under ``failures`` and excluded from the aggregates. Reports are
    aggregated in link_id order regardless of dataset order.
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
    for pair in sorted(dataset, key=lambda p: p.link_id):
        try:
            reports[pair.link_id] = analyze_pair(
                pair, pattern_low, pattern_high, grid, config, include_psp=include_psp
            )
        except (ValueError, ZeroDivisionError, FloatingPointError) as exc:
            failures[pair.link_id] = str(exc)
    if not reports:
        raise ValueError(f"every link failed analysis; first error: {next(iter(failures.values()))}")
    n = len(reports)
    r_values = [r.power_ratio_db for r in reports.values()]
    nf_values = [r.n_false for r in reports.values()]
    cdf = empirical_cdf(r_values)
    return BatchReport(
        per_link=reports,
        failures=failures,
        r_cdf=tuple(cdf),
        nf_pdf=_count_pdf(nf_values),
        card_low_pdf=_count_pdf([r.card_low for r in reports.values()]),
        card_high_pdf=_count_pdf([r.card_high for r in reports.values()]),
        percentiles=percentiles(empirical_cdf([-r for r in r_values])),
        nf_fractions={
            "nf_eq_0": sum(v == 0 for v in nf_values) / n,
            "nf_le_1": sum(v <= 1 for v in nf_values) / n,
        },
    )


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
