"""Channel types: rays, single-band channels and link pairs."""

from __future__ import annotations

import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import crossband as cb


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

    def test_smallest_normal_power_accepted(self):
        assert ray(power=sys.float_info.min).power == sys.float_info.min

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ray(delay=-1e-9)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ray().power = 2.0


class TestBandChannel:
    def test_requires_a_ray(self):
        with pytest.raises(ValueError):
            cb.BandChannel(frequency=15.0, rays=())

    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            cb.BandChannel(frequency=0.0, rays=(ray(),))

    def test_rays_coerced_to_tuple(self):
        ch = cb.BandChannel(frequency=15.0, rays=[ray(), ray(aoa=90.0)])
        assert isinstance(ch.rays, tuple)


class TestLinkPair:
    def test_rejects_inverted_frequencies(self):
        low = cb.BandChannel(28.0, (ray(),))
        high = cb.BandChannel(15.0, (ray(),))
        with pytest.raises(ValueError):
            cb.LinkPair(low=low, high=high)

    def test_equal_frequencies_allowed(self):
        ch = cb.BandChannel(15.0, (ray(),), "x")
        pair = cb.LinkPair(low=ch, high=ch)
        assert pair.link_id == "x"

    def test_link_id_conflict_rejected(self):
        low = cb.BandChannel(15.0, (ray(),), "a")
        high = cb.BandChannel(28.0, (ray(),), "b")
        with pytest.raises(ValueError):
            cb.LinkPair(low=low, high=high)
