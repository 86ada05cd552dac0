"""End-to-end acceptance checks.

One test per criterion, so ``pytest -v`` prints one verdict line for each.
The distribution criteria run on a fixed 500-link synthetic dataset; its
generator settings are frozen here and the draw is bit-reproducible.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import crossband as cb
from crossband.cli import main
from oracles import (
    count_false,
    filter_values,
    gpp3_gain,
    power_ratio_db,
    select_directions,
    total_variation,
    ula_gain,
)

GRID = cb.AngularGrid(step_deg=1.0)
GPP3 = cb.synth_3gpp(hpbw_deg=10.0, a_max_db=30.0)
ULA4 = cb.synth_ula(n_elements=4)
ULA8 = cb.synth_ula(n_elements=8)

# Frozen settings of the fixed evaluation dataset. The large power jitter
# gives the two bands genuinely different power orderings, so a looser
# selection threshold can recover directions that are weak at the low band
# but strong at the high band.
FIXED_CONFIG = cb.GenConfig(
    n_shared_paths=8,
    n_low_only_paths=3,
    n_high_only_paths=1,
    shared_power_decay_db=2.0,
    angle_jitter_deg=5.0,
    power_jitter_db=7.0,
    delay_spread_ns=50.0,
    low_freq_ghz=15.0,
    high_freq_ghz=28.0,
    seed=0,
)
N_LINKS = 500


@pytest.fixture(scope="module")
def fixed_dataset():
    return cb.generate_dataset(FIXED_CONFIG, N_LINKS)


@pytest.fixture(scope="module")
def survey(fixed_dataset):
    """Batches over the fixed dataset for the distribution criteria."""

    def run(pattern_high, delta_th=10.0, delta_p=-30.0):
        cfg = cb.SimilarityConfig(delta_th_db=delta_th, delta_p_db=delta_p)
        return cb.analyze_dataset(fixed_dataset, ULA4, pattern_high, GRID, cfg)

    t0 = time.perf_counter()
    b44_th10 = run(ULA4)
    b48_th10 = run(ULA8)
    elapsed_beam_pair = time.perf_counter() - t0
    return {
        "b44_th10": b44_th10,
        "b48_th10": b48_th10,
        "b48_th15": run(ULA8, delta_th=15.0),
        "b48_p40": run(ULA8, delta_p=-40.0),
        "b48_p20": run(ULA8, delta_p=-20.0),
        "elapsed_beam_pair": elapsed_beam_pair,
    }


def test_criterion_01_pattern_calibration():
    start = time.perf_counter()
    assert float(GPP3.gain_db(5.0)) == pytest.approx(-3.0, abs=1e-12)
    assert float(GPP3.gain_db(-5.0)) == pytest.approx(-3.0, abs=1e-12)
    assert float(GPP3.gain_db(180.0)) == pytest.approx(-30.0, abs=1e-9)
    assert cb.hpbw(ULA4) == pytest.approx(26.2, abs=0.3)
    assert cb.hpbw(ULA8) == pytest.approx(12.8, abs=0.3)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_equal_band_calibration(fixed_dataset):
    start = time.perf_counter()
    self_pairs = [cb.LinkPair(low=p.low, high=p.low) for p in fixed_dataset]
    report = cb.analyze_dataset(self_pairs, GPP3, GPP3, GRID, cb.SimilarityConfig())
    assert not report.failures
    assert report.n_links == N_LINKS
    for link in report.per_link.values():
        assert link.power_ratio_db == 0.0
        assert link.n_false == 0
        assert abs(link.psp.psp_percent - 100.0) <= 1e-9
    assert time.perf_counter() - start < 30.0


def test_criterion_03_reference_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    grid_angles = [float(a) for a in GRID.angles]
    step = GRID.step_deg

    def draw_band(n_rays):
        powers = 10.0 ** rng.uniform(-4.0, 0.0, n_rays)
        aoas = rng.uniform(0.0, 360.0, n_rays)
        rays = tuple(
            cb.Ray(float(p), 0.0, float(a)) for p, a in zip(powers, aoas)
        )
        return cb.BandChannel(28.0, rays)

    def check_instance(pattern, gain_of, n_low, n_high, delta_th, delta_p):
        low, high = draw_band(n_low), draw_band(n_high)
        ref = {}
        for name, ch in (("low", low), ("high", high)):
            pas = cb.filter_pas(ch, pattern, GRID)
            values = filter_values(
                [(r.power, r.aoa_azimuth) for r in ch.rays], gain_of, grid_angles
            )
            np.testing.assert_allclose(pas.values, values, rtol=1e-12, atol=0.0)
            selected = cb.select_m1(pas, delta_th)
            indices = select_directions(values, delta_th)
            assert selected.indices == tuple(indices)
            ref[name] = (pas, values, selected, indices)
        pas_low, val_low, _, _ = ref["low"]
        pas_high, val_high, sel_high, idx_high = ref["high"]
        sel_low, idx_low = ref["low"][2], ref["low"][3]

        norm_low = [v / (math.fsum(val_low) * step) for v in val_low]
        norm_high = [v / (math.fsum(val_high) * step) for v in val_high]
        got_tv = cb.total_variation(
            cb.normalize_pas(pas_low), cb.normalize_pas(pas_high)
        )
        assert got_tv == pytest.approx(
            total_variation(norm_low, norm_high, step), abs=1e-12
        )

        got_r = cb.power_ratio(sel_low, sel_high, pas_high)
        assert got_r == pytest.approx(
            power_ratio_db(idx_low, idx_high, val_high), rel=1e-12, abs=1e-9
        )
        assert cb.false_directions(sel_low, sel_high, pas_high, delta_p) == count_false(
            idx_low, idx_high, val_high, delta_p
        )

    for _ in range(1000):
        delta_th = float(rng.choice([6.0, 10.0, 15.0]))
        delta_p = float(rng.choice([-40.0, -30.0, -20.0]))
        if rng.uniform() < 0.7:
            hpbw_deg = float(rng.uniform(5.0, 40.0))
            a_max = float(rng.uniform(15.0, 35.0))
            check_instance(
                cb.synth_3gpp(hpbw_deg, a_max),
                lambda off, h=hpbw_deg, a=a_max: gpp3_gain(off, h, a),
                int(rng.integers(1, 51)),
                int(rng.integers(1, 51)),
                delta_th,
                delta_p,
            )
        else:
            n_el = int(rng.choice([4, 8]))
            check_instance(
                cb.synth_ula(n_el),
                lambda off, n=n_el: ula_gain(off, n, 0.5, -60.0),
                int(rng.integers(3, 21)),
                int(rng.integers(3, 21)),
                delta_th,
                delta_p,
            )

    # quantized spectra force plateaus and exact ties in the selector
    for _ in range(200):
        values = rng.integers(1, 12, GRID.n_points).astype(float)
        pas = cb.FilteredPas(GRID, values)
        got = cb.select_m1(pas, 6.0)
        assert got.indices == tuple(select_directions(values.tolist(), 6.0))

    assert time.perf_counter() - start < 120.0


def test_criterion_04_distance_axioms():
    rng = np.random.default_rng(404)

    def random_density():
        v = rng.uniform(1e-3, 1.0, GRID.n_points)
        return cb.NormalizedPas(GRID, v / (v.sum() * GRID.step_deg))

    for _ in range(1000):
        a, b, c = random_density(), random_density(), random_density()
        d_ab = cb.total_variation(a, b)
        assert cb.total_variation(a, a) <= 1e-12
        assert abs(d_ab - cb.total_variation(b, a)) <= 1e-12
        assert 0.0 <= d_ab <= 1.0
        assert cb.total_variation(a, c) <= d_ab + cb.total_variation(b, c) + 1e-12


def test_criterion_05_narrower_high_beam_hurts(survey):
    assert survey["elapsed_beam_pair"] < 60.0
    loss_same_width = survey["b44_th10"].percentiles[50]
    loss_narrower = survey["b48_th10"].percentiles[50]
    assert loss_same_width < loss_narrower


def test_criterion_06_looser_threshold_tradeoff(survey):
    median_r_th10 = -survey["b48_th10"].percentiles[50]
    median_r_th15 = -survey["b48_th15"].percentiles[50]
    assert median_r_th15 >= median_r_th10

    many_false_th10 = 1.0 - survey["b48_th10"].nf_fractions["nf_le_1"]
    many_false_th15 = 1.0 - survey["b48_th15"].nf_fractions["nf_le_1"]
    assert many_false_th15 >= many_false_th10


def test_criterion_07_false_count_monotone_per_link(survey):
    loose = survey["b48_p40"].per_link
    mid = survey["b48_th10"].per_link
    tight = survey["b48_p20"].per_link
    assert set(loose) == set(mid) == set(tight)
    for link_id in mid:
        assert loose[link_id].n_false <= mid[link_id].n_false <= tight[link_id].n_false


def test_criterion_08_response_gate_splits_fused_paths():
    rng = np.random.default_rng(2024)
    cfg = cb.SimilarityConfig(method="m2")
    strict = 0
    for _ in range(200):
        # two paths closer than the beamwidth, with distinct delays
        base = float(rng.uniform(0.0, 360.0))
        separation = float(rng.uniform(2.0, 21.0))
        second_power = float(rng.uniform(0.3, 1.0))
        first_delay = float(rng.uniform(0.0, 50.0)) * 1e-9
        delay_gap = float(rng.uniform(20.0, 100.0)) * 1e-9
        ch = cb.BandChannel(
            28.0,
            (
                cb.Ray(1.0, first_delay, base),
                cb.Ray(second_power, first_delay + delay_gap, (base + separation) % 360.0),
            ),
        )
        n_m1 = len(cb.select_m1(cb.filter_pas(ch, ULA4, GRID), cfg.delta_th_db))
        n_m2 = len(cb.select_m2(ch, ULA4, GRID, cfg.delta_th_db))
        assert n_m2 >= n_m1
        strict += n_m2 > n_m1
    assert strict > 0

    # pinned strict example: one lobe in the spectrum, two taps in delay
    ch = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 30e-9, 22.0)))
    assert cb.select_m1(cb.filter_pas(ch, ULA4, GRID), 10.0).angles == (3.0,)
    assert cb.select_m2(ch, ULA4, GRID, cfg.delta_th_db).angles == (3.0, 22.0)


def test_criterion_09_floor_bounds_singleton_loss(fixed_dataset):
    # worst case first: disjoint single-ray bands land exactly on the floor
    low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0),), "w")
    high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 180.0),))
    worst = cb.analyze_pair(
        cb.LinkPair(low=low, high=high), GPP3, GPP3, GRID, cb.SimilarityConfig()
    )
    assert worst.power_ratio_db >= -30.0 - 1e-9
    assert worst.power_ratio_db == pytest.approx(-30.0, abs=1e-9)

    singles = 0
    for hpbw_deg in (10.0, 20.0, 35.0):
        pattern = cb.synth_3gpp(hpbw_deg, 30.0)
        for pair in fixed_dataset[:200]:
            pas_low = cb.filter_pas(pair.low, pattern, GRID)
            pas_high = cb.filter_pas(pair.high, pattern, GRID)
            a_low = cb.select_m1(pas_low, 3.0)
            a_high = cb.select_m1(pas_high, 3.0)
            if len(a_low) == 1 and len(a_high) == 1:
                singles += 1
                assert cb.power_ratio(a_low, a_high, pas_high) >= -30.0 - 1e-9
    assert singles >= 100


def test_criterion_10_bit_stable_pipeline(tmp_path):
    def generate(out):
        assert main(["generate", "--n-links", "40", "--out", str(out)]) == 0

    generate(tmp_path / "d1.json")
    generate(tmp_path / "d2.json")
    assert (tmp_path / "d1.json").read_bytes() == (tmp_path / "d2.json").read_bytes()

    def batch(out):
        argv = [
            "batch", "--data", str(tmp_path / "d1.json"),
            "--low-ghz", "15", "--high-ghz", "28",
            "--pattern-low", "ula:n=4", "--pattern-high", "ula:n=8",
            "--out", str(out),
        ]
        assert main(argv) == 0

    batch(tmp_path / "r1")
    batch(tmp_path / "r2")
    for name in (
        "report.json", "r_cdf.csv", "nf_pdf.csv", "card_low_pdf.csv", "card_high_pdf.csv",
    ):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    again = cb.generate_dataset(FIXED_CONFIG, 20)
    baseline = cb.generate_dataset(FIXED_CONFIG, 20)
    for pa, pb in zip(baseline, again):
        assert pa.low.rays == pb.low.rays
        assert pa.high.rays == pb.high.rays
