"""Gain patterns: shapes, symmetry, wrapping, tabulation."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import crossband as cb
from crossband.beampattern import _sum_rows_pairwise
from crossband.pas import _weighted_gains
from crossband.units import wrap_offset_deg

offsets = st.floats(-720.0, 720.0, allow_nan=False)
# eighth-degree multiples keep the wrap arithmetic exact, so bitwise
# symmetry / periodicity assertions stay meaningful
dyadic_offsets = st.integers(-5760, 5760).map(lambda k: k / 8.0)

ALL_KINDS = [
    cb.Gpp3Pattern(10.0, 30.0),
    cb.UlaPattern(4),
    cb.UlaPattern(8),
    cb.TabulatedPattern(
        np.array([-170.0, -30.0, 0.0, 45.0, 175.0]),
        np.array([-25.0, -8.0, 0.0, -6.0, -20.0]),
    ),
]
ALL_KIND_IDS = ["gpp3", "ula4", "ula8", "tabulated"]


class TestGpp3:
    def test_peak_is_zero_db(self, gpp3_10):
        assert float(gpp3_10.gain_db(0.0)) == 0.0
        assert float(gpp3_10.gain(0.0)) == 1.0

    def test_half_power_at_half_beamwidth(self, gpp3_10):
        assert float(gpp3_10.gain_db(5.0)) == pytest.approx(-3.0, abs=1e-12)
        assert float(gpp3_10.gain_db(-5.0)) == pytest.approx(-3.0, abs=1e-12)
        assert float(gpp3_10.gain(5.0)) == pytest.approx(10.0 ** -0.3, rel=1e-12)

    def test_floor_clips_far_offsets(self, gpp3_10):
        assert float(gpp3_10.gain_db(180.0)) == -30.0
        assert float(gpp3_10.gain(180.0)) == pytest.approx(1e-3, rel=1e-12)
        # clip starts where 12*(x/hpbw)^2 = a_max: x = 10*sqrt(30/12)
        edge = 10.0 * math.sqrt(30.0 / 12.0)
        assert float(gpp3_10.gain_db(edge + 0.001)) == -30.0
        assert float(gpp3_10.gain_db(edge - 0.001)) > -30.0

    @given(dyadic_offsets)
    def test_symmetric_and_periodic(self, x):
        pat = cb.Gpp3Pattern(hpbw_deg=25.0, a_max_db=20.0)
        assert float(pat.gain_db(x)) == float(pat.gain_db(-x))
        assert float(pat.gain_db(x)) == float(pat.gain_db(x + 360.0))

    @given(offsets)
    def test_nearly_symmetric_off_grid(self, x):
        pat = cb.Gpp3Pattern(hpbw_deg=25.0, a_max_db=20.0)
        assert float(pat.gain_db(x)) == pytest.approx(
            float(pat.gain_db(-x)), abs=1e-9
        )

    @given(offsets)
    def test_gain_matches_gain_db(self, x):
        pat = cb.Gpp3Pattern(hpbw_deg=25.0, a_max_db=20.0)
        assert float(pat.gain(x)) == pytest.approx(
            10.0 ** (float(pat.gain_db(x)) / 10.0), rel=1e-12
        )

    def test_measured_beamwidth_matches_parameter(self, gpp3_10):
        assert cb.hpbw(gpp3_10) == pytest.approx(10.0, abs=0.02)

    @pytest.mark.parametrize("hpbw_deg", [0.0, -10.0, 181.0, 1e-300, 0.005])
    def test_bad_beamwidth_rejected(self, hpbw_deg):
        with pytest.raises(ValueError):
            cb.Gpp3Pattern(hpbw_deg=hpbw_deg, a_max_db=30.0)

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            cb.Gpp3Pattern(hpbw_deg=10.0, a_max_db=0.0)

    @pytest.mark.parametrize("a_max_db", [math.inf, math.nan])
    def test_non_finite_floor_rejected_by_name(self, a_max_db):
        with pytest.raises(ValueError, match="a_max_db must be finite"):
            cb.Gpp3Pattern(hpbw_deg=10.0, a_max_db=a_max_db)

    @pytest.mark.parametrize("a_max_db", [1e300, 3100.0, 3076.53])
    def test_floor_that_is_not_a_normal_float_rejected_by_name(self, a_max_db):
        # once accepted: the floor underflowed to 0 or a subnormal, and a link
        # failed with "filtered spectrum values must be finite and strictly positive"
        with pytest.raises(ValueError, match=rf"^a_max_db must keep the gain floor a normal float .*"
                                             rf"got {re.escape(repr(a_max_db))}$"):
            cb.Gpp3Pattern(hpbw_deg=1.0, a_max_db=a_max_db)

    def test_deepest_normal_floor_accepted(self):
        pat = cb.Gpp3Pattern(hpbw_deg=1.0, a_max_db=3076.52)
        assert float(pat.gain(180.0)) >= sys.float_info.min

    @pytest.mark.parametrize("hpbw_deg, a_max_db", [(10, 30), (20, 25), (3, 30), (65, 20), (180, 30)])
    def test_gain_is_the_linear_gain_db_bit_for_bit(self, hpbw_deg, a_max_db):
        # the gain evaluates pow inside the main lobe only; the floor value
        # must still be the one db_to_linear gives inside a whole array
        pat = cb.Gpp3Pattern(hpbw_deg, a_max_db)
        edge = hpbw_deg * math.sqrt(a_max_db / 12.0)
        at_edge = [s * e for s in (1.0, -1.0)
                   for e in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, 360.0))]
        x = np.concatenate([np.random.default_rng(hpbw_deg).uniform(-720.0, 720.0, 20000),
                            at_edge, [0.0, 180.0, -180.0, 360.0]])
        for part in (x, x[:1], x[:7], x[-17:]):
            expected = cb.units.db_to_linear(pat.gain_db(part))
            assert pat.gain(part).tobytes() == expected.tobytes()


class TestUla:
    def test_boresight_peak(self, ula4, ula8):
        assert float(ula4.gain_db(0.0)) == 0.0
        assert float(ula8.gain_db(0.0)) == 0.0

    def test_nulls_at_grating_angles(self, ula4, ula8):
        # half-wavelength spacing: nulls where sin(theta) = k / n_elements
        assert float(ula4.gain(30.0)) < 1e-30
        assert float(ula8.gain(math.degrees(math.asin(0.25)))) < 1e-30

    def test_first_sidelobe_levels(self, ula4, ula8):
        assert float(ula4.gain_db(47.078)) == pytest.approx(-11.30, abs=0.01)
        assert float(ula8.gain_db(21.0695)) == pytest.approx(-12.80, abs=0.01)

    def test_backplane_is_constant_floor(self, ula4):
        for off in (91.0, -120.0, 179.0, 180.0):
            assert float(ula4.gain(off)) == pytest.approx(1e-6, rel=1e-12)

    def test_front_half_plane_boundary_uses_array_factor(self, ula4):
        # sin(90 deg) = 1 lands on a null for even element counts
        assert float(ula4.gain(90.0)) < 1e-30

    def test_measured_beamwidths(self, ula4, ula8):
        assert cb.hpbw(ula4) == pytest.approx(26.28, abs=0.02)
        assert cb.hpbw(ula8) == pytest.approx(12.78, abs=0.02)

    def test_narrows_with_more_elements(self):
        widths = [cb.hpbw(cb.UlaPattern(n)) for n in (2, 4, 8, 16)]
        assert widths == sorted(widths, reverse=True)

    @given(dyadic_offsets)
    def test_symmetric_and_periodic(self, x):
        pat = cb.UlaPattern(n_elements=4)
        assert float(pat.gain(x)) == float(pat.gain(-x))
        assert float(pat.gain(x)) == float(pat.gain(x + 360.0))

    @pytest.mark.parametrize("n", [1, 0, 2.5, math.inf, math.nan, 4097, 1e18])
    def test_bad_element_count_rejected(self, n):
        with pytest.raises(ValueError, match=r"^n_elements must be an integer in \[2, 4096\]"):
            cb.UlaPattern(n_elements=n)

    def test_element_count_bound_is_inclusive(self):
        assert cb.UlaPattern(n_elements=4096.0).n_elements == 4096

    def test_bad_spacing_and_floor_rejected(self):
        with pytest.raises(ValueError):
            cb.UlaPattern(4, spacing_wavelengths=0.0)
        with pytest.raises(ValueError):
            cb.UlaPattern(4, spacing_wavelengths=math.inf)
        with pytest.raises(ValueError):
            cb.UlaPattern(4, backplane_floor_db=0.0)

    @pytest.mark.parametrize("floor_db", [-math.inf, math.nan])
    def test_non_finite_floor_rejected_by_name(self, floor_db):
        with pytest.raises(ValueError, match="backplane_floor_db must be finite"):
            cb.UlaPattern(4, backplane_floor_db=floor_db)

    @pytest.mark.parametrize("floor_db", [-1e300, -3100.0, -3076.53])
    def test_floor_that_is_not_a_normal_float_rejected_by_name(self, floor_db):
        # once accepted: -1e300 tabulated as 1800 rows of -inf
        with pytest.raises(ValueError, match=rf"^backplane_floor_db must keep the gain floor a normal "
                                             rf"float .*got {re.escape(repr(floor_db))}$"):
            cb.UlaPattern(4, backplane_floor_db=floor_db)

    @pytest.mark.parametrize("spacing", [1e308, 1000.5, math.nan])
    def test_spacing_above_the_bound_rejected_by_name(self, spacing):
        # once accepted: spacing=1e308 overflowed every phase to a NaN gain
        with pytest.raises(ValueError, match=r"^spacing_wavelengths must be in \(0, 1000\], got "):
            cb.UlaPattern(4, spacing_wavelengths=spacing)

    def test_widest_spacing_at_the_most_elements_stays_finite(self):
        pat = cb.UlaPattern(4096, spacing_wavelengths=1000.0)
        gains = pat.gain(np.linspace(-180.0, 180.0, 721))
        assert np.isfinite(gains).all() and (gains > 0.0).all()


def complex_exponential_ula_gain(offset_deg, n, spacing):
    """The ULA gain as a row sum of complex exponentials (the reference form)."""
    off = 180.0 - (180.0 - offset_deg) % 360.0
    out = np.full(off.shape, 1e-6)
    front = np.abs(off) <= 90.0
    sin_theta = np.sin(np.deg2rad(off[front]))
    phase = 2.0 * np.pi * spacing * sin_theta[..., None] * np.arange(n)
    out[front] = np.abs(np.exp(1j * phase).sum(axis=-1)) ** 2 / n**2
    return out


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


EDGE_OFFSETS = [0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 89.99999999999999, 1e6, -1e6]


class TestKernelBitIdentity:
    """The kernel's real cos/sin rows and its own summation order reproduce
    the complex-exponential form bit for bit. A numpy or libm change to the
    order of ``sum`` or to ``exp``/``cos``/``sin`` fails these tests."""

    @pytest.mark.parametrize("spacing", [0.25, 0.5, 1.0, 2.0])
    def test_ula_gain_matches_complex_exponential_sum(self, spacing):
        rng = np.random.default_rng(7)
        x = np.concatenate([EDGE_OFFSETS, rng.uniform(-720.0, 720.0, 600)])
        mismatched = []
        for n in [*range(2, 131), 257]:
            pat = cb.UlaPattern(n, spacing_wavelengths=spacing)
            if not same_bits(pat.gain(x), complex_exponential_ula_gain(x, n, spacing)):
                mismatched.append(n)
            for off in EDGE_OFFSETS:  # one offset per call: a 1-element row
                if not same_bits(pat.gain(np.array([off])),
                                 complex_exponential_ula_gain(np.array([off]), n, spacing)):
                    mismatched.append((n, off))
        assert mismatched == []

    @pytest.mark.parametrize("n", [64, 1000, 4096])
    def test_ula_gain_over_several_blocks(self, n):
        # 2**20 complex terms per block: 16384, 1048 and 256 offsets; the
        # last block is partial. The reference runs 500 offsets at a time to
        # keep its memory small; each offset sums on its own.
        width = 2**20 // n
        x = np.concatenate([EDGE_OFFSETS, np.random.default_rng(n).uniform(-90.0, 90.0, 2 * width)])
        want = np.concatenate([complex_exponential_ula_gain(x[k:k + 500], n, 0.5)
                               for k in range(0, len(x), 500)])
        assert same_bits(cb.UlaPattern(n).gain(x), want)

    def test_ula_gain_memory_is_bounded_by_the_block(self):
        # one (4096, 2001) complex array and its phases once peaked at 197 MB
        pat = cb.UlaPattern(4096)
        x = np.linspace(-90.0, 90.0, 2001)
        tracemalloc.start()
        try:
            pat.gain(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_ula_gain_of_a_rays_by_grid_matrix(self, ula8):
        offsets = np.arange(0.0, 360.0, 0.1)[None, :] - np.array([[3.3], [171.25], [359.9]])
        assert same_bits(ula8.gain(offsets), complex_exponential_ula_gain(offsets, 8, 0.5))

    def test_row_sum_follows_numpy_pairwise_order(self):
        rng = np.random.default_rng(3)
        for n in [*range(1, 140), 255, 256, 257, 600]:
            scale = 10.0 ** rng.integers(-8, 9, size=(n, 1))
            terms = (rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))) * scale
            expected = np.ascontiguousarray(terms.T).sum(axis=-1)
            got = _sum_rows_pairwise(terms.copy())
            assert same_bits(got.real, expected.real) and same_bits(got.imag, expected.imag), n

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(180.0)
    @example(-180.0)
    @example(360.0)
    @example(-360.0)
    @example(540.0)
    @example(-540.0)
    @example(1e300)
    @example(-1e300)
    @example(5e-324)
    @example(-5e-324)
    # The fast path takes y = 180 - x in [-360, 720): 540, 180, -180 and the
    # next example give y = -360, 0, 360 and the float below 720; -540 and the
    # last two give 720 and the floats beyond the ends, which keep fmod. No x
    # gives y = -0.0: 180 - 180 is +0.0.
    @example(-180.0)
    @example(float(180.0 - np.nextafter(720.0, 0.0)))
    @example(float(np.nextafter(-540.0, -1000.0)))
    @example(float(np.nextafter(540.0, 1000.0)))
    def test_wrap_offset_matches_floor_mod(self, x):
        # an array with a value beyond one turn falls back to fmod as a whole
        for value in (x, np.array([x, -x]), np.array([x, 1e6]), np.array([-540.0, x, 0.0])):
            want = 180.0 - (180.0 - np.asarray(value)) % 360.0
            assert same_bits(wrap_offset_deg(value), want)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_wrap_offset_of_a_value_that_is_not_finite_matches_floor_mod(self, bad):
        value = np.array([0.0, bad, 540.0])
        with np.errstate(invalid="ignore"):
            got, want = wrap_offset_deg(value), 180.0 - (180.0 - value) % 360.0
        assert np.isnan(got[1]) and same_bits(got[[0, 2]], want[[0, 2]])

    def test_offset_just_above_180_wraps_to_minus_180(self):
        assert float(wrap_offset_deg(np.nextafter(180.0, 200.0))) == -180.0

    @pytest.mark.parametrize("pattern", ALL_KINDS, ids=ALL_KIND_IDS)
    def test_both_ends_of_the_wrap_give_one_gain(self, pattern):
        # -180 and 180 are one direction, whichever end the wrap lands on
        edge = np.nextafter(180.0, 200.0)
        gains = [float(pattern.gain(x)) for x in (-180.0, 180.0, edge, -edge)]
        assert gains == [gains[0]] * 4


class TestNonFiniteOffsets:
    @pytest.mark.parametrize("pattern", ALL_KINDS, ids=ALL_KIND_IDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_gain_rejects(self, pattern, bad):
        for evaluate in (pattern.gain, pattern.gain_db):
            with pytest.raises(ValueError, match="finite"):
                evaluate(bad)
            with pytest.raises(ValueError, match="finite"):
                evaluate(np.array([[0.0, 10.0], [bad, 20.0]]))

    def test_beam_cfr_rejects_nan_steering(self, ula4):
        # the m2 responses take their amplitudes from the kernel, where the check runs
        channel = cb.BandChannel(28.0, (cb.Ray(1.0, 10e-9, 30.0),))
        with pytest.raises(ValueError, match="finite"):
            _weighted_gains(channel, ula4, np.array([math.nan]))


class TestTabulated:
    def test_interpolates_linearly_in_db(self):
        pat = cb.TabulatedPattern(
            np.array([-180.0, -90.0, 0.0, 90.0, 180.0]),
            np.array([-40.0, -20.0, 0.0, -20.0, -40.0]),
        )
        assert float(pat.gain_db(45.0)) == pytest.approx(-10.0)
        assert float(pat.gain_db(-135.0)) == pytest.approx(-30.0)

    def test_samples_renormalized_to_zero_peak(self):
        pat = cb.TabulatedPattern(np.array([0.0, 90.0]), np.array([3.0, -7.0]))
        assert float(pat.gain_db(0.0)) == 0.0
        assert float(pat.gain_db(90.0)) == -10.0

    def test_peak_off_zero_rejected(self):
        with pytest.raises(ValueError):
            cb.TabulatedPattern(np.array([0.0, 90.0]), np.array([-10.0, 0.0]))

    def test_too_few_or_nonfinite_samples_rejected(self):
        # two samples at one direction once loaded as a flat 0 dB pattern
        for offsets in ([], [0.0], [-180.0, 180.0], [0.0, 0.0]):
            with pytest.raises(ValueError, match="^a tabulated pattern needs at least two samples$"):
                cb.TabulatedPattern(np.array(offsets), np.zeros(len(offsets)))
        with pytest.raises(ValueError):
            cb.TabulatedPattern(np.array([0.0, 90.0]), np.array([0.0, np.nan]))

    @pytest.mark.parametrize("offsets, gains", [
        ([0.0, 90.0, 180.0], [0.0, -10.0]),
        ([[0.0, 90.0]], [[0.0, -10.0]]),
    ], ids=["lengths-differ", "two-dimensional"])
    def test_offsets_and_gains_must_be_equal_1d_arrays(self, offsets, gains):
        with pytest.raises(ValueError, match="^offsets and gains must be 1-d arrays of equal length$"):
            cb.TabulatedPattern(np.array(offsets), np.array(gains))

    @pytest.mark.parametrize("peak_db", [0.0, 20.0])
    def test_sample_that_is_not_a_normal_float_refused(self, peak_db):
        # normalized to the peak, -1e300 dB is 0 as a linear power: the table
        # once loaded and failed each link with "filtered spectrum values
        # must be finite and strictly positive"
        offsets = np.array([-180.0, 0.0, 90.0])
        gains = np.array([-1e300, 0.0, -1e300]) + peak_db
        with pytest.raises(ValueError, match=r"^tabulated pattern gain -1e\+300 dB \(normalized\) at "
                                             r"offset 90\.0 deg is not a normal float"):
            cb.TabulatedPattern(offsets, gains)

    def test_deepest_normal_sample_accepted(self):
        pat = cb.TabulatedPattern(np.array([0.0, 180.0]), np.array([0.0, -3076.52]))
        assert float(pat.gain(180.0)) >= sys.float_info.min

    def test_samples_are_read_only(self, tmp_path, gpp3_10, assert_frozen, assert_copies_frozen):
        built = cb.TabulatedPattern(np.array([0.0, 90.0, -90.0]), np.array([3.0, -7.0, -7.0]))
        cb.pattern_to_csv(gpp3_10, tmp_path / "gpp3.csv", step_deg=1.0)
        for pat in (built, cb.pattern_from_csv(tmp_path / "gpp3.csv")):
            assert_frozen(pat.offsets_deg)
            assert_frozen(pat.gains_db)
            assert_copies_frozen(pat, "offsets_deg", "gains_db")

    def test_duplicate_offsets_collapsed(self):
        pat = cb.TabulatedPattern(
            np.array([0.0, 90.0, 90.0, -180.0, 180.0]), np.array([0.0, -10.0, -10.0, -30.0, -30.0])
        )
        assert pat.offsets_deg.tolist() == [0.0, 90.0, 180.0]

    @pytest.mark.parametrize("offsets, gains, message", [
        ([0.0, 90.0, 90.0], [0.0, -10.0, -20.0], "offset 90.0 deg: -10.0 and -20.0 dB"),
        ([0.0, -180.0, 180.0], [0.0, -30.0, -20.0], "offset 180.0 deg: -30.0 and -20.0 dB"),
    ], ids=["same", "wrapped"])
    def test_two_gains_at_one_offset_refused(self, offsets, gains, message):
        with pytest.raises(ValueError, match=f"two gains at {re.escape(message)}$"):
            cb.TabulatedPattern(np.array(offsets), np.array(gains))

    def test_wraps_around_the_circle(self):
        pat = cb.TabulatedPattern(
            np.array([-90.0, 0.0, 90.0]), np.array([-20.0, 0.0, -10.0])
        )
        # between +90 and -90 going through the back: period-360 interpolation
        assert float(pat.gain_db(180.0)) == pytest.approx(-15.0)


class TestCsvRoundTrip:
    def test_gpp3_round_trip_exact_at_samples(self, tmp_path, gpp3_10):
        path = tmp_path / "pat.csv"
        cb.pattern_to_csv(gpp3_10, path, step_deg=0.5)
        loaded = cb.pattern_from_csv(path)
        xs = np.arange(-180.0, 180.5, 0.5)
        np.testing.assert_allclose(
            loaded.gain_db(xs), gpp3_10.gain_db(xs), atol=1e-9
        )

    def test_midpoints_follow_db_interpolation(self, tmp_path, gpp3_10):
        path = tmp_path / "pat.csv"
        cb.pattern_to_csv(gpp3_10, path, step_deg=1.0)
        loaded = cb.pattern_from_csv(path)
        mid = float(loaded.gain_db(3.5))
        ends = gpp3_10.gain_db(np.array([3.0, 4.0]))
        assert mid == pytest.approx(float(ends.mean()), abs=1e-9)

    def test_header_optional(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0,0\n90,-10\n")
        pat = cb.pattern_from_csv(path)
        assert float(pat.gain_db(90.0)) == -10.0

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("offset_deg,gain_db\n0,0\noops,nope\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: expected two finite numbers, got \['oops', 'nope'\]$"):
            cb.pattern_from_csv(path)

    def test_field_over_the_csv_limit_located(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("offset_deg,gain_db\n0,0\n" + "9" * 200_000 + ",-10\n")
        with pytest.raises(ValueError, match=r"wide\.csv:3: field larger than field limit"):
            cb.pattern_from_csv(path)

    def test_bytes_that_are_not_utf8_located(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_bytes(b"offset_deg,gain_db\n0,0\n\xff90,-10\n")
        with pytest.raises(ValueError, match=r"odd\.csv:3: not valid UTF-8: byte 0xff \(invalid start byte\)$"):
            cb.pattern_from_csv(path)

    def test_byte_that_is_not_utf8_located_past_the_first_read_chunk(self, tmp_path, gpp3_10):
        # the codec's own position counts from the start of an 8 KB chunk
        path = tmp_path / "odd.csv"
        cb.pattern_to_csv(gpp3_10, path, step_deg=0.1)
        data = bytearray(path.read_bytes())
        data[-30] = 0xFF
        path.write_bytes(bytes(data))
        line = data[:-30].count(b"\n") + 1
        assert line > 3000
        with pytest.raises(ValueError, match=rf"odd\.csv:{line}: not valid UTF-8: byte 0xff"):
            cb.pattern_from_csv(path)

    def test_headerless_file_with_a_byte_order_mark_keeps_its_first_sample(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf-90,-20\n0,0\n90,-10\n")
        pat = cb.pattern_from_csv(path)
        assert pat.offsets_deg.tolist() == [-90.0, 0.0, 90.0]
        assert pat.gains_db.tolist() == [-20.0, 0.0, -10.0]

    def test_one_sample_refused(self, tmp_path):
        # TabulatedPattern's one refusal, with the file name in front
        path = tmp_path / "one.csv"
        path.write_text("offset_deg,gain_db\n0,0\n\n")
        with pytest.raises(ValueError, match=r"one\.csv: a tabulated pattern needs at least two samples$"):
            cb.pattern_from_csv(path)

    @pytest.mark.parametrize("text", ["", "offset_deg,gain_db\n"], ids=["empty", "header-only"])
    def test_file_without_samples_refused_as_one_sample_is(self, tmp_path, text):
        path = tmp_path / "none.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"none\.csv: a tabulated pattern needs at least two samples$"):
            cb.pattern_from_csv(path)

    def test_two_gains_at_one_direction_refused(self, tmp_path):
        # -180 and 180 wrap to one direction; the -20 was once dropped silently
        path = tmp_path / "ends.csv"
        path.write_text("-180,-30\n0,0\n180,-20\n")
        with pytest.raises(ValueError, match=r"ends\.csv: tabulated pattern has two gains at offset 180\.0 "
                                             r"deg: -30\.0 and -20\.0 dB$"):
            cb.pattern_from_csv(path)

    @pytest.mark.parametrize("text", ["-180,0\n180,0\n", "0,0\n0,0\n"], ids=["wrapped", "repeated"])
    def test_samples_that_merge_to_one_refused_naming_the_file(self, tmp_path, text):
        path = tmp_path / "two.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"two\.csv: a tabulated pattern needs at least two samples$"):
            cb.pattern_from_csv(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("offset_deg,gain_db\n\n0,0\n , \n90,-10\n")
        assert cb.pattern_from_csv(path).offsets_deg.tolist() == [0.0, 90.0]

    @pytest.mark.parametrize("text, message", [
        ("0,0\n,-10\n90,-10\n", r":2: expected two finite numbers, got \['', '-10'\]$"),
        ("-180,-3O\n0,0\n90,-10\n", r":1: expected two finite numbers, got \['-180', '-3O'\]$"),
        ("0,0,7\n90,-10\n", r":1: expected two fields, got 3$"),
        ("0,0\n90,-inf\n", r":2: expected two finite numbers, got \['90', '-inf'\]$"),
    ], ids=["blank-offset", "first-row-half-numeric", "third-field", "infinite-gain"])
    def test_row_that_is_not_two_numbers_refused(self, tmp_path, text, message):
        # once skipped as blank, skipped as a header, cut to two fields, or
        # refused naming neither file nor line
        path = tmp_path / "rows.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"rows\.csv" + message):
            cb.pattern_from_csv(path)

    def test_files_are_utf8_whatever_the_locale(self, tmp_path, gpp3_10):
        # under the C locale, open() without an encoding reads ASCII and
        # refuses the byte order mark a spreadsheet may write
        path = tmp_path / "bom.csv"
        cb.pattern_to_csv(gpp3_10, path, step_deg=1.0)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        src = Path(cb.__file__).resolve().parents[1]
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(src)}
        code = ("import sys, crossband as cb; "
                "p = cb.pattern_from_csv(sys.argv[1]); cb.pattern_to_csv(p, sys.argv[2], 1.0)")
        subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out.csv")],
                       env=env, check=True, capture_output=True)
        xs = np.arange(-180.0, 181.0)
        loaded = cb.pattern_from_csv(tmp_path / "out.csv")
        np.testing.assert_allclose(loaded.gain_db(xs), gpp3_10.gain_db(xs), atol=1e-9)

    def test_step_must_divide_circle(self, tmp_path, gpp3_10):
        with pytest.raises(ValueError):
            cb.pattern_to_csv(gpp3_10, tmp_path / "x.csv", step_deg=0.7)


class TestHpbwEdgeCases:
    def test_shallow_pattern_has_no_half_power_width(self):
        flat = cb.Gpp3Pattern(hpbw_deg=10.0, a_max_db=2.5)
        with pytest.raises(ValueError):
            cb.hpbw(flat)

    def test_tabulated_pattern_measurable(self):
        pat = cb.TabulatedPattern(
            np.array([-180.0, -10.0, 0.0, 10.0, 180.0]),
            np.array([-30.0, -6.0, 0.0, -6.0, -30.0]),
        )
        assert cb.hpbw(pat) == pytest.approx(10.0, abs=0.02)
