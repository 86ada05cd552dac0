"""Direction selection, beam responses, and the cross-band usability metrics."""

from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import crossband as cb
from crossband import beams
from crossband.beams import _cfr_matrix, _plateau_maxima
from crossband.pas import _weighted_gains
from crossband.units import linear_to_db
from oracles import (
    beam_response,
    count_false,
    greedy_gate,
    local_maxima,
    m2_walk_order,
    power_ratio_db,
    select_directions,
    ula_gain,
)

FLOOR = 1e-6
PSP = cb.PspResult(d_tv=0.25)


def spectrum(grid, bumps, floor=FLOOR):
    """FilteredPas with given {index: value} bumps on a flat floor."""
    values = np.full(grid.n_points, floor)
    for idx, val in bumps.items():
        values[idx] = val
    return cb.FilteredPas(grid, values)


def directions(*indices):
    """Direction set on the 1 degree grid, where index k is the angle k."""
    return cb.DirectionSet(cb.AngularGrid(1.0), indices)


class TestSimilarityConfig:
    def test_defaults(self):
        cfg = cb.SimilarityConfig()
        assert cfg.delta_th_db == 10.0
        assert cfg.delta_p_db == -30.0
        assert cfg.method == "m1"
        # the fixed m2 gate, as documented in the README
        assert beams.M2_CORRELATION_THRESHOLD == 0.7
        assert beams.M2_FREQUENCY_POINTS == 101
        assert beams.M2_BANDWIDTH_GHZ == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_th_db": 0.0},
            {"delta_th_db": -5.0},
            {"delta_p_db": 0.0},
            {"delta_p_db": 10.0},
            {"method": "m3"},
            {"delta_th_db": float("inf")},
            {"delta_p_db": float("-inf")},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            cb.SimilarityConfig(**kwargs)


class TestDirectionSet:
    def test_angles_coerced_to_floats(self, grid):
        ds = cb.DirectionSet(grid, (np.int64(90), 0))
        assert ds.indices == (90, 0)
        assert all(type(k) is int for k in ds.indices)
        assert ds.angles == (90.0, 0.0)
        assert all(type(a) is float for a in ds.angles)
        assert len(ds) == 2

    def test_angles_read_from_a_fine_grid(self):
        fine = cb.AngularGrid(0.1)
        ds = cb.DirectionSet(fine, (0, 1, 3, 3599))
        assert ds.angles == tuple(float(fine.angles[k]) for k in (0, 1, 3, 3599))
        assert ds.angles == (0.0, 0.1, 0.30000000000000004, 359.90000000000003)

    def test_fields_are_grid_and_indices(self, grid):
        assert [f.name for f in dataclasses.fields(cb.DirectionSet)] == ["grid", "indices"]
        with pytest.raises(AttributeError):
            cb.DirectionSet(grid, (1,)).angles = (2.0,)

    def test_empty_rejected(self, grid):
        with pytest.raises(ValueError, match="empty"):
            cb.DirectionSet(grid, ())

    def test_duplicates_rejected(self, grid):
        with pytest.raises(ValueError, match="duplicate"):
            cb.DirectionSet(grid, (10, 10))

    @pytest.mark.parametrize("index", [3.0, 3.5, "3", None])
    def test_non_integer_index_rejected(self, grid, index):
        with pytest.raises(TypeError):
            cb.DirectionSet(grid, (1, index))

    @pytest.mark.parametrize("index", [-1, 360, 3600])
    def test_index_outside_the_grid_rejected(self, grid, index):
        with pytest.raises(ValueError, match=r"\[0, 360\)"):
            cb.DirectionSet(grid, (0, index))


class TestSimilarityReport:
    def test_round_trip_dict(self):
        rep = cb.SimilarityReport(power_ratio_db=-2.5, n_false=1, card_low=3, card_high=2, psp=PSP)
        d = rep.to_dict()
        assert d["power_ratio_db"] == -2.5
        assert d["psp"] == {"d_tv": 0.25, "psp_percent": 75.0}

    def test_false_count_bounded_by_low_cardinality(self):
        with pytest.raises(ValueError):
            cb.SimilarityReport(power_ratio_db=0.0, n_false=4, card_low=3, card_high=1, psp=PSP)
        with pytest.raises(ValueError):
            cb.SimilarityReport(power_ratio_db=0.0, n_false=-1, card_low=3, card_high=1, psp=PSP)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            cb.SimilarityReport(power_ratio_db=0.0, n_false=0, card_low=0, card_high=1, psp=PSP)


class TestSelectM1:
    def test_single_peak(self, grid):
        ds = cb.select_m1(spectrum(grid, {40: 1.0}), 10.0)
        assert ds.angles == (40.0,)

    def test_threshold_filters_secondary_peaks(self, grid):
        pas = spectrum(grid, {0: 1.0, 90: 10.0 ** -0.5})
        assert cb.select_m1(pas, 10.0).angles == (0.0, 90.0)
        assert cb.select_m1(pas, 4.0).angles == (0.0,)

    def test_threshold_boundary_inclusive(self, grid):
        pas = spectrum(grid, {0: 1.0, 90: 0.1})
        assert cb.select_m1(pas, 10.0).angles == (0.0, 90.0)

    def test_odd_plateau_keeps_central_angle(self, grid):
        pas = spectrum(grid, {10: 0.5, 11: 0.5, 12: 0.5})
        assert cb.select_m1(pas, 10.0).angles == (11.0,)

    def test_even_plateau_keeps_lower_center(self, grid):
        pas = spectrum(grid, {100: 0.5, 101: 0.5})
        assert cb.select_m1(pas, 10.0).angles == (100.0,)

    def test_plateau_across_the_wrap(self, grid):
        pas = spectrum(grid, {358: 1.0, 359: 1.0, 0: 1.0})
        assert cb.select_m1(pas, 10.0).angles == (359.0,)

    def test_constant_spectrum_collapses_to_zero(self, grid):
        pas = cb.FilteredPas(grid, np.full(grid.n_points, 0.3))
        assert cb.select_m1(pas, 10.0).angles == (0.0,)

    def test_tied_global_maxima_both_kept(self, grid):
        pas = spectrum(grid, {11: 0.5, 100: 0.5})
        assert cb.select_m1(pas, 10.0).angles == (11.0, 100.0)

    def test_bad_threshold_rejected(self, grid):
        with pytest.raises(ValueError):
            cb.select_m1(spectrum(grid, {0: 1.0}), 0.0)

    def test_power_of_two_scaling_is_bitwise_invariant(self, grid):
        values = np.full(grid.n_points, FLOOR)
        rng = np.random.default_rng(3)
        values[rng.integers(0, 360, 12)] = rng.uniform(0.05, 1.0, 12)
        a = cb.select_m1(cb.FilteredPas(grid, values), 10.0)
        b = cb.select_m1(cb.FilteredPas(grid, 4.0 * values), 10.0)
        assert a.angles == b.angles

    def test_matches_reference_walk(self, grid):
        rng = np.random.default_rng(17)
        for _ in range(50):
            # quantized values force plateaus and ties
            values = rng.integers(1, 12, grid.n_points).astype(float)
            pas = cb.FilteredPas(grid, values)
            got = cb.select_m1(pas, 6.0)
            expected = select_directions(values.tolist(), 6.0)
            assert got.indices == tuple(expected)
            assert local_maxima(values.tolist()) == sorted(
                set(local_maxima(values.tolist()))
            )


class TestPlateauMaxima:
    @given(
        st.integers(1, 5).flatmap(
            lambda levels: st.lists(st.integers(0, levels - 1), min_size=1, max_size=400)
        ),
        st.integers(0, 399),
    )
    @example(levels=[3], shift=0)
    @example(levels=[3] * 360, shift=0)
    @example(levels=[5, 5, 5, 5, 5, 1, 1, 2, 1], shift=6)  # 5-run wraps over index 0
    @example(levels=[2, 2, 1, 1], shift=3)  # even run wraps, lower center at n - 1
    def test_matches_reference_walk(self, levels, shift):
        # rotating by a random shift moves plateaus across index 0
        values = np.roll(np.asarray(levels, dtype=float), shift)
        assert _plateau_maxima(values) == local_maxima(values.tolist())


CFR_PATTERNS = {
    "ula4": cb.UlaPattern(4),
    "ula8": cb.UlaPattern(8),
    "ula16": cb.UlaPattern(16),
    "gpp3_10": cb.Gpp3Pattern(10.0, 30.0),
    "tabulated": cb.TabulatedPattern(
        np.array([-170.0, -30.0, 0.0, 45.0, 175.0]),
        np.array([-25.0, -8.0, 0.0, -6.0, -20.0]),
    ),
}


def random_band(rng, dyadic=False, n_rays=None):
    """``n_rays`` (else 1-12) rays of random power, delay and angle (eighths of a degree if dyadic)."""
    rays = tuple(cb.Ray(float(10.0 ** rng.uniform(-6.0, 0.0)), float(rng.uniform(0.0, 500e-9)),
                        float(rng.integers(0, 2880) / 8.0 if dyadic else rng.uniform(0.0, 360.0)))
                 for _ in range(n_rays or int(rng.integers(1, 13))))
    return cb.BandChannel(float(rng.uniform(10.0, 80.0)), rays)


def sweep_phasors(channel):
    """The band's tap phases ``exp(-2j*pi*delay*f)`` over the m2 sweep, one row per ray."""
    f_hz = np.linspace((channel.frequency - 0.5 * beams.M2_BANDWIDTH_GHZ) * 1e9,
                       (channel.frequency + 0.5 * beams.M2_BANDWIDTH_GHZ) * 1e9,
                       beams.M2_FREQUENCY_POINTS)
    return np.exp(-2j * np.pi * channel.rays.delays[:, None] * f_hz)


def per_row_responses(channel, pattern, steer):
    """Beam responses with each row's amplitudes ``sqrt(powers * gain(steer - aoas))``."""
    rays = channel.rays
    amplitudes = np.sqrt(rays.powers * pattern.gain(steer[:, None] - rays.aoas))
    return np.matmul(amplitudes.astype(complex), sweep_phasors(channel))


class TestBeamCfr:
    def test_zero_delay_gives_flat_response(self, gpp3_10):
        ch = cb.BandChannel(15.0, (cb.Ray(4.0, 0.0, 30.0),))
        steer = np.array([30.0])
        h = _cfr_matrix(sweep_phasors(ch), _weighted_gains(ch, gpp3_10, steer), steer)[0]
        assert h.shape == (beams.M2_FREQUENCY_POINTS,)
        np.testing.assert_allclose(np.abs(h), 2.0, rtol=1e-12)

    def test_gain_scales_tap_amplitude(self, gpp3_10):
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 5.0),))
        steer = np.array([0.0])
        h = _cfr_matrix(sweep_phasors(ch), _weighted_gains(ch, gpp3_10, steer), steer)[0]
        assert h.shape == (beams.M2_FREQUENCY_POINTS,)
        np.testing.assert_allclose(np.abs(h), math.sqrt(10.0 ** -0.3), rtol=1e-12)

    def test_two_tap_interference_null(self, gpp3_10):
        # equal taps, 0.5 ns apart: phase difference 15*pi at 15 GHz
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(1.0, 0.5e-9, 0.0)))
        steer = np.array([0.0])
        h = _cfr_matrix(sweep_phasors(ch), _weighted_gains(ch, gpp3_10, steer), steer)[0]
        assert h.shape == (beams.M2_FREQUENCY_POINTS,)
        assert abs(h[50]) < 1e-12
        # one bin off the null: 20 MHz shifts the tap phase by 0.02*pi
        expected = 2.0 * math.sin(0.01 * math.pi)
        assert abs(h[49]) == pytest.approx(expected, rel=1e-9)
        assert abs(h[51]) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("pattern", sorted(CFR_PATTERNS))
    def test_amplitudes_from_the_kernel_keep_the_per_row_bits(self, pattern):
        # _cfr_matrix takes the square roots of a transposed pas._weighted_gains
        # rays x angles matrix; the products are those of a steering x rays one
        pattern = CFR_PATTERNS[pattern]
        rng = np.random.default_rng(22)
        for i in range(40):
            ch = random_band(rng, dyadic=i % 2 == 0)
            steer = rng.uniform(0.0, 360.0, int(rng.integers(1, 512 + 1)))
            # some rows steer exactly +-90 and 180 degrees off a ray when its angle is dyadic:
            # the ULA front half-plane edge and the wrap point of every pattern
            rows = rng.integers(0, len(steer), min(len(steer), 8))
            steer[rows] = (ch.rays.aoas[rng.integers(0, len(ch.rays), len(rows))]
                           + rng.choice([90.0, -90.0, 180.0], len(rows))) % 360.0
            got = _cfr_matrix(sweep_phasors(ch), _weighted_gains(ch, pattern, steer), steer)
            assert got.tobytes() == per_row_responses(ch, pattern, steer).tobytes()

    @pytest.mark.parametrize("pattern", sorted(CFR_PATTERNS))
    def test_columns_of_the_band_matrix_keep_the_per_row_bits(self, pattern):
        # select_m2 hands _cfr_matrix its candidates' columns of the matrix filter_pas copied out
        pattern = CFR_PATTERNS[pattern]
        rng = np.random.default_rng(24)
        for step in (0.1, 0.5, 1.0):
            grid = cb.AngularGrid(step)
            for _ in range(5):
                ch = random_band(rng)
                weighted = np.empty((len(ch.rays), grid.n_points))
                cb.filter_pas(ch, pattern, grid, out=weighted)
                block = rng.permutation(grid.n_points)[:int(rng.integers(1, 512 + 1))]
                steer = grid.angles[block]
                got = _cfr_matrix(sweep_phasors(ch), weighted[:, block], steer)
                assert got.tobytes() == per_row_responses(ch, pattern, steer).tobytes()

    @pytest.mark.parametrize("columns", [0, 2, 4])
    def test_refuses_a_block_whose_columns_are_not_its_steering_angles(self, ula4, columns):
        ch = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 30e-9, 22.0)))
        steer = np.array([0.0, 10.0, 20.0])
        weighted = _weighted_gains(ch, ula4, np.arange(columns, dtype=float))
        with pytest.raises(ValueError, match=f"{columns} weighted gain columns for 3 steering angles"):
            _cfr_matrix(sweep_phasors(ch), weighted, steer)

    @pytest.mark.parametrize("pattern", sorted(CFR_PATTERNS))
    def test_kernel_columns_do_not_depend_on_the_other_angles(self, pattern):
        # a column of one band's grid-wide matrix equals the column computed for its angle
        # alone, so the m2 gate may take its candidates' from the spectrum's matrix
        pattern = CFR_PATTERNS[pattern]
        rng = np.random.default_rng(23)
        for step in (0.1, 0.5, 1.0):
            grid = cb.AngularGrid(step)
            for _ in range(5):
                ch = random_band(rng)
                idx = rng.integers(0, grid.n_points, int(rng.integers(1, 512 + 1)))
                whole = _weighted_gains(ch, pattern, grid.angles)
                assert whole[:, idx].tobytes() == _weighted_gains(ch, pattern, grid.angles[idx]).tobytes()


class TestFilterPasOut:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("pattern", sorted(CFR_PATTERNS))
    def test_out_receives_the_kernel_matrix(self, pattern, order):
        # the spectrum is summed from the kernel's own matrix, whatever the layout of out
        pattern = CFR_PATTERNS[pattern]
        rng = np.random.default_rng(25)
        for step in (0.1, 0.5, 1.0):
            grid = cb.AngularGrid(step)
            for _ in range(4):
                ch = random_band(rng)
                out = np.full((len(ch.rays), grid.n_points), np.nan, order=order)
                got = cb.filter_pas(ch, pattern, grid, out=out)
                assert out.tobytes() == _weighted_gains(ch, pattern, grid.angles).tobytes()
                assert got.values.tobytes() == cb.filter_pas(ch, pattern, grid).values.tobytes()

    @pytest.mark.parametrize("shape", [(2, 360), (3, 359), (1, 360), (360,)])
    def test_out_of_another_shape_is_refused(self, gpp3_10, grid, shape):
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0), cb.Ray(0.5, 1e-9, 40.0), cb.Ray(0.2, 2e-9, 80.0)))
        with pytest.raises(ValueError, match=r"out must have shape \(3, 360\)"):
            cb.filter_pas(ch, gpp3_10, grid, out=np.empty(shape))


class CountingPattern:
    """A pattern that counts the calls of its ``gain``."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def gain(self, offsets):
        self.calls += 1
        return self.pattern.gain(offsets)


class TestSelectM2:
    # two paths inside one ULA4 lobe, 30 ns apart: the spectrum fuses them,
    # the responses do not
    CH = cb.BandChannel(
        28.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 30e-9, 22.0))
    )

    def test_splits_paths_that_share_a_lobe(self, grid, ula4):
        m1 = cb.select_m1(cb.filter_pas(self.CH, ula4, grid), 10.0)
        m2 = cb.select_m2(self.CH, ula4, grid, 10.0)
        assert m1.angles == (3.0,)
        assert m2.angles == (3.0, 22.0)

    def test_same_delay_paths_stay_fused(self, grid, ula4):
        ch = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 0.0), cb.Ray(0.5, 0.0, 22.0)))
        assert len(cb.select_m2(ch, ula4, grid, 10.0)) == 1

    def test_tight_correlation_gate_keeps_only_strongest(self, grid, ula4, monkeypatch):
        monkeypatch.setattr(beams, "M2_CORRELATION_THRESHOLD", 1e-9)
        ds = cb.select_m2(self.CH, ula4, grid, 10.0)
        assert ds.angles == (3.0,)

    def test_looser_gate_never_selects_fewer(self, grid, ula4, monkeypatch):
        monkeypatch.setattr(beams, "M2_CORRELATION_THRESHOLD", 0.5)
        n_tight = len(cb.select_m2(self.CH, ula4, grid, 10.0))
        monkeypatch.setattr(beams, "M2_CORRELATION_THRESHOLD", 0.999)
        n_loose = len(cb.select_m2(self.CH, ula4, grid, 10.0))
        assert n_tight <= n_loose

    def test_metadata_and_determinism(self, grid, ula4):
        a = cb.select_m2(self.CH, ula4, grid, 12.0)
        b = cb.select_m2(self.CH, ula4, grid, 12.0)
        assert a == b

    @pytest.mark.parametrize("delta_th_db", [0.0, -5.0, float("nan")])
    def test_bad_threshold_rejected(self, grid, ula4, delta_th_db):
        with pytest.raises(ValueError):
            cb.select_m2(self.CH, ula4, grid, delta_th_db)

    # a 1e299 s tap: its phase 2*pi*delay*f overflows at the sweep's top frequency, 29 GHz
    OVERFLOWING = cb.BandChannel(28.0, [cb.Ray(1.0, 1e299, 10.0), cb.Ray(0.5, 0.0, 40.0),
                                        cb.Ray(0.5, 1e-8, 200.0)])
    OVERFLOW = "28 GHz band: ray delay 1e+299 s times the m2 sweep's top frequency 2.9e+10 Hz overflows"

    def test_delay_whose_phase_overflows_is_refused(self):
        # it used to warn of an overflow in multiply and select (10.0,) from NaN phasors
        with pytest.raises(ValueError) as exc_info:
            cb.select_m2(self.OVERFLOWING, cb.UlaPattern(8), cb.AngularGrid(1.0), 20.0)
        assert str(exc_info.value) == self.OVERFLOW

    def test_refused_exactly_where_the_phasors_would_overflow(self, grid, ula4):
        top_hz = (28.0 + 0.5 * beams.M2_BANDWIDTH_GHZ) * 1e9
        delay = sys.float_info.max / (2.0 * math.pi) / top_hz
        while math.isinf(2.0 * math.pi * delay * top_hz):
            delay = math.nextafter(delay, 0.0)
        while not math.isinf(2.0 * math.pi * math.nextafter(delay, math.inf) * top_hz):
            delay = math.nextafter(delay, math.inf)
        band = lambda d: cb.BandChannel(28.0, (cb.Ray(1.0, d, 10.0), cb.Ray(0.5, 0.0, 40.0)))  # noqa: E731
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            cb.select_m2(band(delay), ula4, grid, 20.0)
            with pytest.raises(ValueError, match="overflows"):
                cb.select_m2(band(math.nextafter(delay, math.inf)), ula4, grid, 20.0)

    def test_batch_names_the_band_of_an_overflowing_delay(self, tmp_path):
        # the loader takes any finite delay_ns; the link's failure used to read only
        # "overflow encountered in multiply", raised under map_links' errstate
        good = cb.generate_dataset(cb.GenConfig(seed=0), 1)[0]
        path = tmp_path / "links.json"
        cb.write_dataset([good, cb.LinkPair(good.low, self.OVERFLOWING, "bad")], path)
        assert '"delay_ns": 1e+308' in path.read_text()
        report = cb.analyze_dataset(cb.load_dataset(path, 15.0, 28.0), cb.UlaPattern(4), cb.UlaPattern(8),
                                    cb.AngularGrid(1.0), cb.SimilarityConfig(20.0, method="m2"))
        assert report.failures == {"bad": self.OVERFLOW}
        assert list(report.per_link) == [good.link_id]

    @staticmethod
    def _gated(rng, n_elements, grid, delta_th_db, n_rays=None):
        """``select_m2`` on a random channel, the oracle gate's choice, and the candidate count."""
        f0, bw, n_freq = 28.0, beams.M2_BANDWIDTH_GHZ, beams.M2_FREQUENCY_POINTS
        freqs = [(f0 - 0.5 * bw + bw * k / (n_freq - 1)) * 1e9 for k in range(n_freq)]
        rays = [
            (float(10.0 ** rng.uniform(-3.0, 0.0)), float(rng.uniform(0.0, 360.0)),
             float(rng.uniform(0.0, 200e-9)))
            for _ in range(n_rays or int(rng.integers(2, 9)))
        ]
        ch = cb.BandChannel(f0, tuple(cb.Ray(p, d, a) for p, a, d in rays))
        pattern = cb.UlaPattern(n_elements)
        got = cb.select_m2(ch, pattern, grid, delta_th_db)

        order = m2_walk_order(cb.filter_pas(ch, pattern, grid).values.tolist(), delta_th_db)
        gain_of = lambda off: ula_gain(off, n_elements, 0.5, -60.0)  # noqa: E731
        rows = [beam_response(rays, gain_of, float(grid.angles[k]), freqs) for k in order]
        accepted = greedy_gate(rows, beams.M2_CORRELATION_THRESHOLD)
        return got.angles, tuple(sorted(float(grid.angles[order[i]]) for i in accepted)), len(order)

    @pytest.mark.parametrize("delta_th_db", [10.0, 20.0])
    def test_matches_pairwise_greedy_gate(self, grid, delta_th_db):
        rng = np.random.default_rng(int(delta_th_db))
        # the last draw has 12 rays, so the gate's basis has 12 columns
        for n_elements, n_rays in ((4, None), (8, None), (4, None), (8, None), (4, 12)):
            got, expected, n_candidates = self._gated(rng, n_elements, grid, delta_th_db, n_rays)
            assert n_candidates > 3
            assert got == expected

    def test_matches_pairwise_greedy_gate_past_a_full_block(self):
        # 922 candidates, two of the four accepted directions ranked past the 512th
        grid = cb.AngularGrid(0.25)
        got, expected, n_candidates = self._gated(np.random.default_rng(21), 4, grid, 20.0)
        assert n_candidates > 512
        assert got == expected

    @pytest.mark.parametrize("step, n_links", [(1.0, 3), (0.1, 2)])
    def test_evaluates_the_pattern_once_per_band(self, step, n_links):
        # the gate takes its amplitudes from the spectrum's own matrix, at 0.1 degrees
        # for more than 512 candidates
        grid = cb.AngularGrid(step)
        for pair in cb.generate_dataset(cb.GenConfig(seed=17), n_links):
            for band, pattern in ((pair.low, cb.UlaPattern(4)), (pair.high, cb.Gpp3Pattern(10.0, 30.0))):
                v = cb.filter_pas(band, pattern, grid).values
                n_candidates = np.count_nonzero(linear_to_db(v / v.max()) >= -20.0)
                assert (n_candidates > 512) == (step == 0.1)
                counting = CountingPattern(pattern)
                assert cb.select_m2(band, counting, grid, 20.0) == cb.select_m2(band, pattern, grid, 20.0)
                assert counting.calls == 1

    @staticmethod
    def _tables(monkeypatch, band, pattern, grid):
        """The table, steering angles and result of every ``_cfr_matrix`` call of one ``select_m2``."""
        calls = []

        def recording(phasors, weighted, steer_deg):
            responses = _cfr_matrix(phasors, weighted, steer_deg)
            calls.append((phasors, steer_deg.copy(), responses))
            return responses

        monkeypatch.setattr(beams, "_cfr_matrix", recording)
        cb.select_m2(band, pattern, grid, 20.0)
        return calls

    @pytest.mark.parametrize("n_rays", [None, 120], ids=["generated", "120_rays"])
    def test_builds_one_basis_per_band(self, monkeypatch, n_rays):
        # one call builds every candidate's response at once, in rank order, from one table
        # built from the band's delays: the R factor of the phasor table's QR, min(rays, 101)
        # columns. The benchmark counts the m2 candidates from the steering angles passed.
        if n_rays is None:
            band = cb.generate_dataset(cb.GenConfig(seed=17), 1)[0].low
        else:
            band = random_band(np.random.default_rng(26), n_rays=n_rays)
        grid, pattern = cb.AngularGrid(0.1), cb.UlaPattern(4)
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: qr_calls.append(a) or qr(*a, **kw))
        calls = self._tables(monkeypatch, band, pattern, grid)
        k = min(len(band.rays), beams.M2_FREQUENCY_POINTS)
        order = m2_walk_order(cb.filter_pas(band, pattern, grid).values.tolist(), 20.0)
        assert len(order) > 512
        assert len(calls) == 1
        (table, steer, responses), = calls
        assert steer.tobytes() == grid.angles[order].tobytes()
        assert responses.shape == (len(order), k)
        assert len(qr_calls) == 1
        assert table.shape == (len(band.rays), k)
        assert table.dtype == complex
        assert table.tobytes() == np.linalg.qr(sweep_phasors(band).T, mode="r").T.tobytes()

    @pytest.mark.parametrize("pattern", sorted(CFR_PATTERNS))
    def test_basis_keeps_the_inner_products_of_the_responses(self, monkeypatch, pattern):
        # the gate reads its rows only through inner products and norms, which the basis must keep
        pattern, grid = CFR_PATTERNS[pattern], cb.AngularGrid(1.0)
        rng = np.random.default_rng(27)
        for n_rays in [None] * 20 + [101, 150]:
            ch = random_band(rng, dyadic=rng.integers(2) == 0, n_rays=n_rays)
            basis = self._tables(monkeypatch, ch, pattern, grid)[0][0]
            steer = rng.uniform(0.0, 360.0, 64)
            steer[:8] = (ch.rays.aoas[rng.integers(0, len(ch.rays), 8)]
                         + rng.choice([0.0, 90.0, -90.0, 180.0], 8)) % 360.0
            got = _cfr_matrix(basis, _weighted_gains(ch, pattern, steer), steer)
            full = per_row_responses(ch, pattern, steer)
            norms = np.linalg.norm(full, axis=1)
            bound = 1e-13 * np.outer(norms, norms)
            assert np.all(np.abs(got @ got.conj().T - full @ full.conj().T) <= bound)
            assert np.all(np.abs(np.linalg.norm(got, axis=1) - norms) <= 1e-13 * norms)

    @pytest.mark.parametrize("pattern, expected", [(cb.UlaPattern(4), (10.0, 30.0)),
                                                   (cb.Gpp3Pattern(10.0, 30.0), (30.0,))],
                             ids=["ula4", "gpp3_10"])
    def test_taps_that_cancel_in_every_bin(self, grid, pattern, expected):
        # two equal taps 50 ns apart are in antiphase at every point of the 15.01 GHz sweep;
        # a Gram matrix of the phasor table would square its conditioning here
        ch = cb.BandChannel(15.01, (cb.Ray(1.0, 0.0, 30.0), cb.Ray(1.0, 50e-9, 30.0),
                                    cb.Ray(0.3, 10e-9, 100.0)))
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            assert cb.select_m2(ch, pattern, grid, 20.0).angles == expected

    @pytest.mark.parametrize("n_rays, step", [(None, 0.01), (120, 0.1)], ids=["generated", "120_rays"])
    def test_memory_stays_within_the_spectrum_filter(self, n_rays, step):
        # the gate once held three candidates x 101 complex arrays: 110 MB for the generated
        # band; now it holds the band's weighted gain matrix beside the spectrum filter's
        # own peak, and every candidate's min(rays, 101) coordinates below that peak
        if n_rays is None:
            band = cb.generate_dataset(cb.GenConfig(seed=0), 1)[0].low
        else:
            band = random_band(np.random.default_rng(28), n_rays=n_rays)
        grid, pattern = cb.AngularGrid(step), cb.UlaPattern(4)
        weighted_nbytes = len(band.rays) * grid.n_points * 8

        def peak_of(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        filtered = peak_of(lambda: cb.filter_pas(band, pattern, grid))
        selected = peak_of(lambda: cb.select_m2(band, pattern, grid, 20.0))
        assert selected <= filtered + weighted_nbytes + 2**20


class TestPowerRatio:
    def test_identical_sets_give_exact_zero(self, grid):
        pas = spectrum(grid, {10: 1.0, 40: 0.5})
        ds = directions(10, 40)
        assert cb.power_ratio(ds, ds, pas) == 0.0

    def test_hand_computed_ratio(self, grid):
        pas = spectrum(grid, {0: 0.5, 10: 1.0})
        r = cb.power_ratio(directions(0), directions(10), pas)
        assert r == pytest.approx(10.0 * math.log10(0.5), abs=1e-12)

    def test_extra_low_directions_raise_the_ratio(self, grid):
        pas = spectrum(grid, {0: 0.5, 10: 1.0})
        r = cb.power_ratio(directions(0, 10), directions(10), pas)
        assert r == pytest.approx(10.0 * math.log10(1.5), abs=1e-12)

    def test_off_grid_angle_rejected(self, grid):
        # 0.5 degrees, index 1 of a 0.5 degree grid, is not on the 1 degree grid
        pas = spectrum(grid, {0: 1.0})
        half = cb.DirectionSet(cb.AngularGrid(0.5), (1,))
        with pytest.raises(ValueError, match="spectrum"):
            cb.power_ratio(half, directions(0), pas)
        with pytest.raises(ValueError, match="spectrum"):
            cb.power_ratio(directions(0), half, pas)

    def test_set_from_a_coarser_grid_rejected(self):
        # 10 degrees lies on the 0.5 degree grid too, but the set's grid differs
        pas = spectrum(cb.AngularGrid(0.5), {20: 1.0})
        coarse = cb.DirectionSet(cb.AngularGrid(1.0), (10,))
        with pytest.raises(ValueError, match="spectrum"):
            cb.power_ratio(coarse, coarse, pas)

    def test_matches_reference_loop(self, grid):
        rng = np.random.default_rng(23)
        values = rng.uniform(0.01, 1.0, grid.n_points)
        pas = cb.FilteredPas(grid, values)
        low = sorted(rng.choice(360, 5, replace=False).tolist())
        high = sorted(rng.choice(360, 3, replace=False).tolist())
        got = cb.power_ratio(directions(*low), directions(*high), pas)
        assert got == pytest.approx(power_ratio_db(low, high, values.tolist()), rel=1e-12)


class TestFalseDirections:
    PAS_BUMPS = {10: 1.0, 0: 0.5, 40: 1e-4}

    def test_strictly_below_threshold_counts(self, grid):
        pas = spectrum(grid, self.PAS_BUMPS)
        low = directions(0, 40)
        high = directions(10)
        assert cb.false_directions(low, high, pas, -30.0) == 1
        # -40 dB exactly is not strictly below -40
        assert cb.false_directions(low, high, pas, -40.0) == 0
        assert cb.false_directions(low, high, pas, -20.0) == 1

    def test_monotone_in_threshold(self, grid):
        rng = np.random.default_rng(5)
        values = 10.0 ** rng.uniform(-6.0, 0.0, grid.n_points)
        pas = cb.FilteredPas(grid, values)
        low = directions(*range(0, 360, 45))
        high = directions(17)
        counts = [
            cb.false_directions(low, high, pas, d) for d in (-40.0, -30.0, -20.0)
        ]
        assert counts == sorted(counts)

    def test_reference_is_best_of_high_set(self, grid):
        # global max at 50 is deliberately outside the high set
        pas = spectrum(grid, {50: 10.0, 10: 1.0, 40: 0.0011})
        n = cb.false_directions(directions(40), directions(10), pas, -30.0)
        assert n == 0

    def test_set_from_another_grid_rejected(self, grid):
        pas = spectrum(grid, {0: 1.0})
        half = cb.DirectionSet(cb.AngularGrid(0.5), (2,))
        with pytest.raises(ValueError, match="spectrum"):
            cb.false_directions(half, directions(0), pas, -30.0)
        with pytest.raises(ValueError, match="spectrum"):
            cb.false_directions(directions(0), half, pas, -30.0)

    def test_nonnegative_threshold_rejected(self, grid):
        pas = spectrum(grid, {0: 1.0})
        with pytest.raises(ValueError):
            cb.false_directions(directions(0), directions(0), pas, 0.0)

    def test_matches_reference_loop(self, grid):
        rng = np.random.default_rng(29)
        values = 10.0 ** rng.uniform(-5.0, 0.0, grid.n_points)
        pas = cb.FilteredPas(grid, values)
        low = sorted(rng.choice(360, 6, replace=False).tolist())
        high = sorted(rng.choice(360, 4, replace=False).tolist())
        got = cb.false_directions(directions(*low), directions(*high), pas, -25.0)
        assert got == count_false(low, high, values.tolist(), -25.0)


class TestAnalyzePair:
    def _self_pair(self):
        ch = cb.BandChannel(
            15.0,
            (cb.Ray(1.0, 0.0, 20.0), cb.Ray(0.3, 40e-9, 200.0), cb.Ray(0.1, 90e-9, 310.0)),
        )
        return cb.LinkPair(low=ch, high=ch, link_id="self")

    def test_equal_bands_are_a_fixed_point(self, grid, gpp3_10):
        rep = cb.analyze_pair(
            self._self_pair(), gpp3_10, gpp3_10, grid, cb.SimilarityConfig()
        )
        assert rep.power_ratio_db == 0.0
        assert rep.n_false == 0
        assert rep.card_low == rep.card_high
        assert rep.psp.psp_percent == 100.0

    def test_band_specific_patterns_in_overlap(self, grid, gpp3_10, ula8):
        # the overlap filters each band through its own pattern
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 40.0),))
        pair = cb.LinkPair(low=ch, high=cb.BandChannel(28.0, ch.rays))
        cfg = cb.SimilarityConfig()
        wide = cb.analyze_pair(pair, gpp3_10, gpp3_10, grid, cfg).psp
        mixed = cb.analyze_pair(pair, gpp3_10, ula8, grid, cfg).psp
        assert wide.psp_percent == 100.0
        assert mixed.psp_percent < wide.psp_percent
        assert mixed == cb.psp(
            cb.normalize_pas(cb.filter_pas(pair.low, gpp3_10, grid)),
            cb.normalize_pas(cb.filter_pas(pair.high, ula8, grid)),
        )

    def test_method_m2_changes_cardinalities(self, grid, ula4):
        ch = TestSelectM2.CH
        pair = cb.LinkPair(low=ch, high=ch)
        m1 = cb.analyze_pair(pair, ula4, ula4, grid, cb.SimilarityConfig(method="m1"))
        m2 = cb.analyze_pair(pair, ula4, ula4, grid, cb.SimilarityConfig(method="m2"))
        assert m1.card_low == 1
        assert m2.card_low == 2
        assert m2.power_ratio_db == 0.0

    def test_mismatched_bands_report_negative_ratio(self, grid, gpp3_10):
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 0.0),))
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, 30.0),))
        rep = cb.analyze_pair(
            cb.LinkPair(low=low, high=high), gpp3_10, gpp3_10, grid,
            cb.SimilarityConfig(),
        )
        assert rep.power_ratio_db == pytest.approx(-30.0, abs=1e-9)
        assert rep.n_false == 0
        assert rep.card_low == 1
        assert rep.card_high == 1
