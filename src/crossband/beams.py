"""Best beam direction selection and cross-band direction usability metrics.

Two selectors pick a set of beam directions, indices into the steering grid,
from a filtered spectrum:

* method ``m1`` keeps every circular local maximum within a relative power
  threshold of the global maximum;
* method ``m2`` considers all grid directions within the threshold and accepts
  them greedily, strongest first, skipping any candidate whose synthesized
  channel frequency response correlates too strongly with an already accepted
  direction. Distinct path delays decorrelate responses, so ``m2`` can split
  directions that merge into a single lobe of the spectrum. The responses'
  tap amplitudes come from the band's ``pas._weighted_gains`` matrix, the
  spectral kernel whose rows ``filter_pas`` sums: ``select_m2`` has its one
  ``filter_pas`` call copy the matrix into ``out`` and takes its candidates'
  columns, so the pattern is evaluated once per band; the tap phases over
  the sweep are one table per band as well, and the gate builds every
  candidate's response at once, as ``min(rays, M2_FREQUENCY_POINTS)``
  coordinates in an orthonormal basis of that table's span.

Given a low-band and a high-band direction set on the high band's grid,
``power_ratio`` measures how much high-band power the low-band directions
would collect relative to the high band's own choice, and ``false_directions``
counts low-band directions that are useless at the high band.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import BandChannel, LinkPair
from .metrics import PspResult, psp
from .pas import AngularGrid, FilteredPas, filter_pas, normalize_pas
from .units import linear_to_db

# The fixed m2 gate: a candidate is rejected when its beam response
# correlates at or above this with an accepted one, the responses being
# sampled at this many frequencies across this bandwidth around the carrier.
M2_CORRELATION_THRESHOLD = 0.7
M2_FREQUENCY_POINTS = 101
M2_BANDWIDTH_GHZ = 2.0

# The direction selection methods, in the order the CLI lists them.
METHODS = ("m1", "m2")


@dataclass(frozen=True)
class SimilarityConfig:
    """Knobs of the direction-based similarity pipeline; both thresholds are finite."""

    delta_th_db: float = 10.0
    delta_p_db: float = -30.0
    method: str = "m1"

    def __post_init__(self):
        if not 0.0 < self.delta_th_db < math.inf:
            raise ValueError(f"delta_th_db must be finite and > 0, got {self.delta_th_db!r}")
        if not -math.inf < self.delta_p_db < 0.0:
            raise ValueError(f"delta_p_db must be finite and < 0, got {self.delta_p_db!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be 'm1' or 'm2', got {self.method!r}")


@dataclass(frozen=True)
class DirectionSet:
    """Selected beam directions for one band, as indices into a steering grid."""

    grid: AngularGrid
    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(operator.index(k) for k in self.indices)
        object.__setattr__(self, "indices", indices)
        if len(indices) == 0:
            raise ValueError("a direction set cannot be empty")
        if len(set(indices)) != len(indices):
            raise ValueError(f"direction set contains duplicate indices: {indices}")
        if not all(0 <= k < self.grid.n_points for k in indices):
            raise ValueError(f"direction indices {indices} not all in [0, {self.grid.n_points})")

    @property
    def angles(self) -> tuple[float, ...]:
        """Steering angles in degrees, read from the grid in index order."""
        return tuple(float(self.grid.angles[k]) for k in self.indices)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SimilarityReport:
    """Per-link outcome of the direction-based similarity pipeline."""

    power_ratio_db: float
    n_false: int
    card_low: int
    card_high: int
    psp: PspResult

    def __post_init__(self):
        if self.card_low < 1 or self.card_high < 1:
            raise ValueError("direction set cardinalities must be >= 1")
        if not 0 <= self.n_false <= self.card_low:
            raise ValueError("n_false must be in [0, card_low]")

    def to_dict(self) -> dict:
        return {
            "power_ratio_db": self.power_ratio_db,
            "n_false": self.n_false,
            "card_low": self.card_low,
            "card_high": self.card_high,
            "psp": self.psp.to_dict(),
        }


def _plateau_maxima(values) -> list[int]:
    """Indices of circular local maxima, one per plateau, in ascending order.

    A maximal run of equal values flanked by strictly smaller neighbors on
    both sides yields the run's central index (the lower-index one of the two
    centers for even run lengths). A constant spectrum has no flanked run and
    collapses to index 0, the smallest angle of the tied global maximum.
    """
    v = np.asarray(values)
    n = len(v)
    starts = np.flatnonzero(v != _shifted(v, 1))
    if starts.size == 0:
        return [0]
    lengths = _shifted(starts, -1) - starts
    lengths[-1] += n
    run_values = v[starts]
    peak = (run_values > _shifted(run_values, 1)) & (run_values > _shifted(run_values, -1))
    return np.sort((starts[peak] + (lengths[peak] - 1) // 2) % n).tolist()


def _shifted(a, shift: int):
    """``np.roll(a, shift)`` of a 1-d array for a shift of +1 or -1."""
    out = np.empty_like(a)
    if shift == 1:
        out[0] = a[-1]
        out[1:] = a[:-1]
    else:
        out[-1] = a[0]
        out[:-1] = a[1:]
    return out


def select_m1(pas: FilteredPas, delta_th_db: float) -> DirectionSet:
    """Local-maxima direction selection with a relative power threshold.

    Keeps the circular local maxima of the filtered spectrum that lie within
    ``delta_th_db`` of the global maximum. The global maximum always
    qualifies, so the result is never empty. Scaling all spectrum values by
    a common factor leaves the selection unchanged.
    """
    if not delta_th_db > 0.0:
        raise ValueError(f"delta_th_db must be > 0, got {delta_th_db!r}")
    v = pas.values
    vmax = float(v.max())
    kept = [
        k for k in _plateau_maxima(v)
        if linear_to_db(float(v[k]) / vmax) >= -delta_th_db
    ]
    return DirectionSet(pas.grid, tuple(kept))


def _cfr_matrix(phasors, weighted, steer_deg):
    """Rows of beam responses, one per steering angle, columns over frequency.

    Row ``i`` is the response of the beam steered to ``steer_deg[i]``:
    column ``i`` of ``weighted``, that angle's column of the band's
    ``pas._weighted_gains`` matrix (one row per ray), gives the tap
    amplitudes ``sqrt(power * gain)``, which multiply ``phasors``, a
    ``(rays, columns)`` table over the band's ``m2`` sweep: its tap phases,
    one column per frequency, or, as ``select_m2`` passes it, their
    coordinates in an orthonormal basis. The angles are not read, but the
    benchmark counts ``m2`` candidates from ``steer_deg``, so a matrix whose
    column count differs from it raises ValueError.
    """
    if weighted.shape[1] != len(steer_deg):
        raise ValueError(f"{weighted.shape[1]} weighted gain columns for {len(steer_deg)} steering angles")
    return np.matmul(np.sqrt(weighted.T).astype(complex), phasors)


def select_m2(channel: BandChannel, pattern, grid: AngularGrid, delta_th_db: float) -> DirectionSet:
    """Correlation-gated greedy direction selection.

    All grid angles within ``delta_th_db`` of the spectrum's global maximum
    are candidates, not just local maxima. Walking them in descending
    spectrum order (angle breaks ties), a candidate is accepted when the
    normalized inner product of its beam response with every already accepted
    response stays below ``M2_CORRELATION_THRESHOLD``. The global maximum is
    accepted first, so at least one direction survives. A band whose largest
    tap phase over the sweep, ``2*pi*delay*f``, overflows is refused with a
    ``ValueError`` naming the band and its largest delay.

    Candidate indices ascend with angle, so one stable sort of the negated
    spectrum values ranks them with ties broken by angle.

    Each band value is computed once per call: the spectrum's ``filter_pas``
    call also copies the band's weighted gain matrix into a buffer, whose
    columns are the candidates' tap amplitudes ``a``, and the tap phases over
    the frequency sweep, ``exp(-2j*pi*delay*f)``, form one ``(rays,
    M2_FREQUENCY_POINTS)`` table ``P``. A response ``a @ P`` lies in the
    span of ``P``'s rows, at most ``rays`` dimensions, so the gate works in
    coordinates: with ``P.T = Q R`` and ``Q``'s columns orthonormal, ``a @
    P`` has the coordinates ``a @ R.T`` in them, and ``R.T``, of ``(rays,
    k)`` with ``k = min(rays, M2_FREQUENCY_POINTS)``, is the one table that
    the amplitudes multiply. Inner products and norms of the coordinates
    equal those of the ``M2_FREQUENCY_POINTS``-point responses in exact
    arithmetic; in floating point, the correlations of every candidate with
    every accepted direction in the 50-link datasets of config seeds 0-23
    (ULA 4/8, 0.1 deg, 20 dB) differ from those by at most 2.4e-15. The
    Gram form ``a @ (P @ P^H)`` would square the table's conditioning, and
    its squared norms can round below zero where taps cancel across the
    whole sweep.

    One ``_cfr_matrix`` call builds the responses of all ranked candidates,
    one row each in rank order, and the walk visits accepted candidates
    only: each one correlates its response with every later row in one
    matrix-vector product and rejects those at ``corr >=
    M2_CORRELATION_THRESHOLD``; the next row still alive is accepted. This
    is the pairwise greedy rule, but the inner products are summed in BLAS
    order over the ``k`` coordinates, so a correlation within about 1e-15 of
    the threshold may fall on the other side of it than a pairwise
    ``np.vdot`` of the ``M2_FREQUENCY_POINTS``-point responses would put it.

    Cost: one QR of the phasor table per band, then one ``k``-column
    matrix-vector product over the candidates ranked after it per accepted
    direction, so O(accepted x candidates x k) time. Memory is the band's
    rays x grid weighted gain matrix, phasor table and basis, and the
    candidates' columns of the matrix and their ``k``-coordinate complex128
    responses (16 * k bytes a row). With ``k <= rays`` and at most one
    candidate per grid angle, the responses take at most twice the bytes of
    the weighted gain matrix.
    """
    if not delta_th_db > 0.0:
        raise ValueError(f"delta_th_db must be > 0, got {delta_th_db!r}")
    f_top_hz = (channel.frequency + 0.5 * M2_BANDWIDTH_GHZ) * 1e9
    # the largest tap phase, in Python floats so no numpy errstate raises first
    max_delay = float(channel.rays.delays.max())
    if math.isinf(2.0 * math.pi * max_delay * f_top_hz):
        raise ValueError(f"{channel.frequency:g} GHz band: ray delay {max_delay!r} s times the m2 sweep's "
                         f"top frequency {f_top_hz:g} Hz overflows")
    weighted = np.empty((len(channel.rays), grid.n_points))
    pas = filter_pas(channel, pattern, grid, out=weighted)
    v = pas.values
    vmax = float(v.max())
    candidates = np.flatnonzero(linear_to_db(v / vmax) >= -delta_th_db)
    order = candidates[np.argsort(-v[candidates], kind="stable")]
    f_hz = np.linspace((channel.frequency - 0.5 * M2_BANDWIDTH_GHZ) * 1e9, f_top_hz, M2_FREQUENCY_POINTS)
    phasors = np.exp(-2j * np.pi * channel.rays.delays[:, None] * f_hz)
    basis = np.linalg.qr(phasors.T, mode="r").T
    responses = _cfr_matrix(basis, weighted[:, order], grid.angles[order])
    norms = np.linalg.norm(responses, axis=1)
    alive = np.ones(len(order), dtype=bool)
    i = -1
    while (later := np.flatnonzero(alive[i + 1:])).size:
        i += 1 + int(later[0])
        corr = np.abs(responses[i + 1:] @ responses[i].conj()) / (norms[i] * norms[i + 1:])
        alive[i + 1:] &= corr < M2_CORRELATION_THRESHOLD
    return DirectionSet(grid, tuple(sorted(order[alive].tolist())))


def _gather(pas: FilteredPas, directions: DirectionSet) -> np.ndarray:
    """Spectrum values at a direction set's indices; the set must be on its grid."""
    if directions.grid != pas.grid:
        raise ValueError(f"direction set grid {directions.grid} is not the spectrum's {pas.grid}")
    return pas.values[list(directions.indices)]


def power_ratio(a_low: DirectionSet, a_high: DirectionSet, pas_high: FilteredPas) -> float:
    """High-band power collected at low-band directions vs its own, in dB.

    Ratio of the summed high-band spectrum values over the two direction
    sets; identical sets give exactly 0 dB. Both sets must be on the grid of
    the high-band spectrum.
    """
    num = float(_gather(pas_high, a_low).sum())
    den = float(_gather(pas_high, a_high).sum())
    return linear_to_db(num / den)


def false_directions(
    a_low: DirectionSet,
    a_high: DirectionSet,
    pas_high: FilteredPas,
    delta_p_db: float,
) -> int:
    """Count low-band directions below ``delta_p_db`` of the best high-band one.

    Both sets must be on the grid of the high-band spectrum.
    """
    if not delta_p_db < 0.0:
        raise ValueError(f"delta_p_db must be < 0, got {delta_p_db!r}")
    best = float(_gather(pas_high, a_high).max())
    low_values = _gather(pas_high, a_low)
    return int(np.count_nonzero(linear_to_db(low_values / best) < delta_p_db))


def analyze_pair(
    pair: LinkPair,
    pattern_low,
    pattern_high,
    grid: AngularGrid,
    config: SimilarityConfig,
) -> SimilarityReport:
    """Direction-based similarity pipeline for one link pair.

    Filters each band through its pattern, selects directions per the
    configured method, and reports the power ratio, false direction count,
    set cardinalities, and the spectrum-overlap percentage computed from the
    same filtered spectra.
    """
    pas_low = filter_pas(pair.low, pattern_low, grid)
    pas_high = filter_pas(pair.high, pattern_high, grid)
    if config.method == "m1":
        a_low = select_m1(pas_low, config.delta_th_db)
        a_high = select_m1(pas_high, config.delta_th_db)
    else:
        a_low = select_m2(pair.low, pattern_low, grid, config.delta_th_db)
        a_high = select_m2(pair.high, pattern_high, grid, config.delta_th_db)
    return SimilarityReport(
        power_ratio_db=power_ratio(a_low, a_high, pas_high),
        n_false=false_directions(a_low, a_high, pas_high, config.delta_p_db),
        card_low=len(a_low),
        card_high=len(a_high),
        psp=psp(normalize_pas(pas_low), normalize_pas(pas_high)),
    )
