"""Cross-band spatial similarity of multipath radio channels.

The pipeline: represent a link's multipath channel per band (``channel``),
filter its discrete angular power spectrum through an antenna beampattern
(``beampattern``, ``pas``), compare bands either by spectrum overlap
(``metrics``) or by the usability of low-band beam directions at the high
band (``beams``), and aggregate over datasets (``batch``). ``synth``
generates controllable two-band datasets; ``dataset`` and ``cli`` handle
files and the command line.
"""

from .batch import BatchReport, analyze_dataset, empirical_cdf, percentiles, write_curve_csv
from .beampattern import (
    Gpp3Pattern,
    TabulatedPattern,
    UlaPattern,
    hpbw,
    pattern_from_csv,
    pattern_to_csv,
    synth_3gpp,
    synth_ula,
)
from .beams import (
    DirectionSet,
    SimilarityConfig,
    SimilarityReport,
    analyze_pair,
    beam_cfr,
    false_directions,
    power_ratio,
    select_m1,
    select_m2,
)
from .channel import BandChannel, LinkPair, Ray, cull_dynamic_range, total_gain
from .dataset import DatasetFormatError, load_dataset, write_dataset
from .metrics import PspResult, pair_psp, psp, total_variation
from .pas import AngularGrid, FilteredPas, NormalizedPas, filter_pas, normalize_pas
from .synth import GenConfig, generate_dataset, generate_link

__all__ = [
    "AngularGrid",
    "BandChannel",
    "BatchReport",
    "DatasetFormatError",
    "DirectionSet",
    "FilteredPas",
    "GenConfig",
    "Gpp3Pattern",
    "LinkPair",
    "NormalizedPas",
    "PspResult",
    "Ray",
    "SimilarityConfig",
    "SimilarityReport",
    "TabulatedPattern",
    "UlaPattern",
    "analyze_dataset",
    "analyze_pair",
    "beam_cfr",
    "cull_dynamic_range",
    "empirical_cdf",
    "false_directions",
    "filter_pas",
    "generate_dataset",
    "generate_link",
    "hpbw",
    "load_dataset",
    "normalize_pas",
    "pair_psp",
    "pattern_from_csv",
    "pattern_to_csv",
    "percentiles",
    "power_ratio",
    "psp",
    "select_m1",
    "select_m2",
    "synth_3gpp",
    "synth_ula",
    "total_gain",
    "total_variation",
    "write_curve_csv",
    "write_dataset",
]
