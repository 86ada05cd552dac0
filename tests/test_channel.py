"""Channel types: rays, single-band channels and link pairs."""

from __future__ import annotations

import dataclasses
import math
import pickle
import re
import sys

import pytest
import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import crossband as cb
from crossband.units import is_normal_power, linear_to_db, wrap_azimuths_deg


def ray(power=1.0, delay=0.0, aoa=0.0, aod=None):
    return cb.Ray(power=power, delay=delay, aoa_azimuth=aoa, aod_azimuth=aod)


class TestRay:
    def test_aoa_normalized_into_circle(self):
        assert ray(aoa=361.5).aoa_azimuth == pytest.approx(1.5)
        assert ray(aoa=-90.0).aoa_azimuth == 270.0
        assert ray(aoa=360.0).aoa_azimuth == 0.0

    def test_aod_optional_and_normalized(self):
        assert ray().aod_azimuth is None
        assert ray(aod=-10.0).aod_azimuth == 350.0

    @pytest.mark.parametrize("angle", [-1e-20, -5e-324, -1e-14, -0.0])
    def test_tiny_negative_angles_wrap_below_360(self, angle):
        # angle % 360 rounds these up to 360.0; 0 is their nearest point
        r = ray(aoa=angle, aod=angle)
        assert r.aoa_azimuth == 0.0
        assert r.aod_azimuth == 0.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-5e-324)
    @example(-0.0)
    @example(1e300)
    def test_one_wrap_for_scalars_and_columns(self, angle):
        # Python's float % with 360.0 mapped to 0, bit for bit, either way in
        python = angle % 360.0 if angle % 360.0 < 360.0 else 0.0
        for wrapped in (float(wrap_azimuths_deg(angle)), wrap_azimuths_deg(np.array([angle]))[0]):
            assert (wrapped, math.copysign(1.0, wrapped)) == (python, math.copysign(1.0, python))

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_a_wrapped_value_that_is_not_finite_is_nan(self, angle):
        with np.errstate(invalid="ignore"):  # np.remainder warns on an infinity
            assert np.isnan(wrap_azimuths_deg(angle))
            assert np.isnan(wrap_azimuths_deg(np.array([90.0, angle]))).tolist() == [False, True]

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-1e-20)
    @example(-0.0)
    @example(360.0)
    @example(math.nextafter(360.0, 0.0))
    @example(1e300)
    @example(-1e300)
    def test_finite_wrap_keeps_the_bits_of_the_masked_remainder(self, angle):
        r = np.remainder(angle, 360.0)
        assert wrap_azimuths_deg(angle).tobytes() == np.where(r < 360.0, r, 0.0).tobytes()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_angles_land_in_the_documented_range(self, angle):
        r = ray(aoa=angle, aod=angle)
        assert 0.0 <= r.aoa_azimuth < 360.0
        assert 0.0 <= r.aod_azimuth < 360.0
        assert type(r.aoa_azimuth) is float

    @pytest.mark.parametrize("power", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_power_rejected(self, power):
        with pytest.raises(ValueError):
            ray(power=power)

    @pytest.mark.parametrize("power", [5e-324, 1e-310, math.nextafter(sys.float_info.min, 0.0)])
    def test_subnormal_power_rejected(self, power):
        # a subnormal power underflows to 0 through a pattern floor
        with pytest.raises(ValueError, match=re.escape(repr(power))):
            ray(power=power)

    def test_integer_power_too_large_for_a_float_overflows(self):
        # it passes the normal-power comparisons and fails its float conversion
        with pytest.raises(OverflowError):
            ray(power=10**400)

    def test_smallest_normal_power_accepted(self):
        assert ray(power=sys.float_info.min).power == sys.float_info.min

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ray(delay=-1e-9)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ray().power = 2.0

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, message", [("aoa", "ray AoA azimuth must be finite"),
                                                ("aod", "ray AoD azimuth must be finite")])
    def test_non_finite_angle_rejected_by_name(self, field, message, angle):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ray(**{field: angle})


class TestBandChannel:
    def test_requires_a_ray(self):
        with pytest.raises(ValueError):
            cb.BandChannel(frequency=15.0, rays=())

    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            cb.BandChannel(frequency=0.0, rays=(ray(),))

    def test_rays_coerced_to_a_table(self):
        rays = [ray(), ray(aoa=90.0)]
        ch = cb.BandChannel(frequency=15.0, rays=rays)
        assert isinstance(ch.rays, cb.RayTable)
        assert ch.rays == tuple(rays)

    def test_non_rays_refused(self):
        with pytest.raises(TypeError, match="Ray"):
            cb.BandChannel(15.0, [(1.0, 0.0, 0.0)])


class TestRayTable:
    RAYS = (ray(1.0, 0.0, 10.0), ray(0.5, 2e-9, 350.0, aod=20.0), ray(0.25, -0.0, 359.5))

    def test_columns_hold_the_ray_fields(self):
        table = cb.BandChannel(15.0, self.RAYS).rays
        assert table.powers.tolist() == [1.0, 0.5, 0.25]
        assert table.delays.tolist() == [0.0, 2e-9, -0.0]
        assert table.aoas.tolist() == [10.0, 350.0, 359.5]
        assert table.aods == (None, 20.0, None)
        assert all(c.dtype == float for c in (table.powers, table.delays, table.aoas))
        assert len(table) == 3

    def test_no_departure_angles_is_none(self):
        assert cb.BandChannel(15.0, (ray(), ray(aoa=5.0))).rays.aods is None

    def test_columns_are_read_only(self):
        table = cb.BandChannel(15.0, self.RAYS).rays
        for column in (table.powers, table.delays, table.aoas):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 2.0
        with pytest.raises(AttributeError):
            table.powers = table.delays

    def test_rays_round_trip(self):
        ch = cb.BandChannel(15.0, self.RAYS)
        assert ch.rays == self.RAYS
        assert tuple(ch.rays) == self.RAYS
        assert [ch.rays[k] for k in range(-3, 3)] == list(self.RAYS + self.RAYS)
        assert cb.BandChannel(15.0, tuple(ch.rays)) == ch
        with pytest.raises(IndexError):
            ch.rays[3]

    def test_equality_and_hash_by_value(self):
        a = cb.BandChannel(15.0, self.RAYS)
        b = cb.BandChannel(15.0, list(self.RAYS))
        assert a == b and hash(a) == hash(b)
        assert hash(a.rays) == hash(self.RAYS)
        assert a.rays != cb.BandChannel(15.0, self.RAYS[:2]).rays
        assert a.rays != cb.BandChannel(15.0, self.RAYS[:2] + (ray(0.25, 0.0, 359.0),)).rays

    def test_fields_cannot_be_deleted(self):
        table = cb.BandChannel(15.0, self.RAYS).rays
        with pytest.raises(AttributeError, match="^cannot delete field 'powers'$"):
            del table.powers
        assert table.powers.tolist() == [1.0, 0.5, 0.25]

    def test_pickle_keeps_the_columns_read_only(self):
        table = pickle.loads(pickle.dumps(cb.BandChannel(15.0, self.RAYS).rays))
        assert table == self.RAYS
        assert not table.powers.flags.writeable

    @pytest.mark.parametrize("rays", [RAYS, RAYS[:1] + RAYS[2:]], ids=["with-aod", "without-aod"])
    def test_repr_evaluates_to_an_equal_table(self, rays):
        table = cb.RayTable(rays)
        assert eval(repr(table), {"RayTable": cb.RayTable, "Ray": cb.Ray}) == table
        assert repr(table).startswith("RayTable([Ray(power=1.0, ")

    def test_other_types_are_left_to_the_other_operand(self):
        table = cb.RayTable(self.RAYS)
        assert table.__eq__(3) is NotImplemented
        assert table != 3


class TestIsNormalPower:
    def test_scalars(self):
        assert is_normal_power(sys.float_info.min)
        assert is_normal_power(sys.float_info.max)
        for power in (0.0, -1.0, 5e-324, math.nextafter(sys.float_info.min, 0.0), math.inf, math.nan):
            assert not is_normal_power(power)

    def test_arrays_elementwise(self):
        powers = np.array([1.0, 0.0, 1e-310, np.inf, np.nan, sys.float_info.min])
        assert is_normal_power(powers).tolist() == [True, False, False, False, False, True]


class TestLinearToDb:
    # numpy's log10 and libm's differ in the last bits of about one value in six in (0, 1)
    RATIOS = 1.0 - np.random.default_rng(20).random(100_000)  # in (0, 1]

    def test_floats_take_libm(self):
        for ratio in self.RATIOS.tolist():
            expected = 10.0 * math.log10(ratio)
            assert linear_to_db(ratio).hex() == expected.hex()
            assert linear_to_db(np.float64(ratio)).hex() == expected.hex()

    def test_arrays_take_numpy(self):
        assert linear_to_db(self.RATIOS).tobytes() == (10.0 * np.log10(self.RATIOS)).tobytes()


class TestLinkPair:
    def test_rejects_inverted_frequencies(self):
        low = cb.BandChannel(28.0, (ray(),))
        high = cb.BandChannel(15.0, (ray(),))
        with pytest.raises(ValueError):
            cb.LinkPair(low=low, high=high)

    def test_equal_frequencies_allowed(self):
        ch = cb.BandChannel(15.0, (ray(),))
        pair = cb.LinkPair(low=ch, high=ch, link_id="x")
        assert pair.link_id == "x"

    def test_band_holds_frequency_and_rays_only(self):
        assert [f.name for f in dataclasses.fields(cb.BandChannel)] == ["frequency", "rays"]
