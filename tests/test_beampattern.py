"""Gain patterns: shapes, symmetry, wrapping, tabulation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import crossband as cb
from crossband.beampattern import _sum_rows_pairwise
from crossband.units import wrap_offset_deg

offsets = st.floats(-720.0, 720.0, allow_nan=False)
# eighth-degree multiples keep the wrap arithmetic exact, so bitwise
# symmetry / periodicity assertions stay meaningful
dyadic_offsets = st.integers(-5760, 5760).map(lambda k: k / 8.0)


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
        pat = cb.synth_3gpp(hpbw_deg=25.0, a_max_db=20.0)
        assert float(pat.gain_db(x)) == float(pat.gain_db(-x))
        assert float(pat.gain_db(x)) == float(pat.gain_db(x + 360.0))

    @given(offsets)
    def test_nearly_symmetric_off_grid(self, x):
        pat = cb.synth_3gpp(hpbw_deg=25.0, a_max_db=20.0)
        assert float(pat.gain_db(x)) == pytest.approx(
            float(pat.gain_db(-x)), abs=1e-9
        )

    @given(offsets)
    def test_gain_matches_gain_db(self, x):
        pat = cb.synth_3gpp(hpbw_deg=25.0, a_max_db=20.0)
        assert float(pat.gain(x)) == pytest.approx(
            10.0 ** (float(pat.gain_db(x)) / 10.0), rel=1e-12
        )

    def test_measured_beamwidth_matches_parameter(self, gpp3_10):
        assert cb.hpbw(gpp3_10) == pytest.approx(10.0, abs=0.02)

    @pytest.mark.parametrize("hpbw_deg", [0.0, -10.0, 181.0])
    def test_bad_beamwidth_rejected(self, hpbw_deg):
        with pytest.raises(ValueError):
            cb.synth_3gpp(hpbw_deg=hpbw_deg, a_max_db=30.0)

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            cb.synth_3gpp(hpbw_deg=10.0, a_max_db=0.0)


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
        widths = [cb.hpbw(cb.synth_ula(n)) for n in (2, 4, 8, 16)]
        assert widths == sorted(widths, reverse=True)

    @given(dyadic_offsets)
    def test_symmetric_and_periodic(self, x):
        pat = cb.synth_ula(n_elements=4)
        assert float(pat.gain(x)) == float(pat.gain(-x))
        assert float(pat.gain(x)) == float(pat.gain(x + 360.0))

    @pytest.mark.parametrize("n", [1, 0, 2.5])
    def test_bad_element_count_rejected(self, n):
        with pytest.raises(ValueError):
            cb.synth_ula(n_elements=n)

    def test_bad_spacing_and_floor_rejected(self):
        with pytest.raises(ValueError):
            cb.synth_ula(4, spacing_wavelengths=0.0)
        with pytest.raises(ValueError):
            cb.synth_ula(4, backplane_floor_db=0.0)


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
            pat = cb.synth_ula(n, spacing_wavelengths=spacing)
            if not same_bits(pat.gain(x), complex_exponential_ula_gain(x, n, spacing)):
                mismatched.append(n)
            for off in EDGE_OFFSETS:  # one offset per call: a 1-element row
                if not same_bits(pat.gain(np.array([off])),
                                 complex_exponential_ula_gain(np.array([off]), n, spacing)):
                    mismatched.append((n, off))
        assert mismatched == []

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
    def test_wrap_offset_matches_floor_mod(self, x):
        for value in (x, np.array([x, -x])):
            want = 180.0 - (180.0 - np.asarray(value)) % 360.0
            assert same_bits(wrap_offset_deg(value), want)

    def test_offset_just_above_180_wraps_to_minus_180(self):
        assert float(wrap_offset_deg(np.nextafter(180.0, 200.0))) == -180.0

    @pytest.mark.parametrize(
        "pattern",
        [
            cb.synth_3gpp(10.0, 30.0),
            cb.synth_ula(4),
            cb.synth_ula(8),
            cb.TabulatedPattern(
                np.array([-170.0, -30.0, 0.0, 45.0, 175.0]),
                np.array([-25.0, -8.0, 0.0, -6.0, -20.0]),
            ),
        ],
        ids=["gpp3", "ula4", "ula8", "tabulated"],
    )
    def test_both_ends_of_the_wrap_give_one_gain(self, pattern):
        # -180 and 180 are one direction, whichever end the wrap lands on
        edge = np.nextafter(180.0, 200.0)
        gains = [float(pattern.gain(x)) for x in (-180.0, 180.0, edge, -edge)]
        assert gains == [gains[0]] * 4


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
        with pytest.raises(ValueError):
            cb.TabulatedPattern(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            cb.TabulatedPattern(np.array([0.0, 90.0]), np.array([0.0, np.nan]))

    def test_duplicate_offsets_collapsed(self):
        pat = cb.TabulatedPattern(
            np.array([0.0, 90.0, 90.0]), np.array([0.0, -10.0, -20.0])
        )
        assert len(pat.offsets_deg) == 2

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
        with pytest.raises(ValueError, match="line 3"):
            cb.pattern_from_csv(path)

    def test_step_must_divide_circle(self, tmp_path, gpp3_10):
        with pytest.raises(ValueError):
            cb.pattern_to_csv(gpp3_10, tmp_path / "x.csv", step_deg=0.7)


class TestHpbwEdgeCases:
    def test_shallow_pattern_has_no_half_power_width(self):
        flat = cb.synth_3gpp(hpbw_deg=10.0, a_max_db=2.5)
        with pytest.raises(ValueError):
            cb.hpbw(flat)

    def test_tabulated_pattern_measurable(self):
        pat = cb.TabulatedPattern(
            np.array([-180.0, -10.0, 0.0, 10.0, 180.0]),
            np.array([-30.0, -6.0, 0.0, -6.0, -30.0]),
        )
        assert cb.hpbw(pat) == pytest.approx(10.0, abs=0.02)
