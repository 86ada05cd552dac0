"""Channel types and the elementary gain utilities."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import crossband as cb


def ray(power=1.0, delay=0.0, aoa=0.0, aod=None):
    return cb.Ray(power=power, delay=delay, aoa_azimuth=aoa, aod_azimuth=aod)


def channel(*powers, frequency=15.0):
    rays = tuple(ray(power=p, aoa=i * 10.0) for i, p in enumerate(powers))
    return cb.BandChannel(frequency=frequency, rays=rays)


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


class TestTotalGain:
    def test_single_ray(self):
        assert cb.total_gain(channel(1.0)) == 1.0

    def test_three_rays(self):
        assert cb.total_gain(channel(0.5, 0.25, 0.25)) == 1.0

    def test_many_tiny_rays(self):
        ch = channel(*([1e-13] * 100))
        total = cb.total_gain(ch)
        assert total == pytest.approx(1e-11, rel=1e-12)
        assert 10.0 * math.log10(total) == pytest.approx(-110.0, abs=1e-9)

    @given(st.lists(st.floats(1e-9, 1e6), min_size=1, max_size=40), st.randoms())
    def test_invariant_under_reordering(self, powers, rnd):
        shuffled = list(powers)
        rnd.shuffle(shuffled)
        assert cb.total_gain(channel(*powers)) == cb.total_gain(channel(*shuffled))


class TestCullDynamicRange:
    def test_all_within_range_kept(self):
        ch = channel(1.0, 0.1, 1e-4)
        assert cb.cull_dynamic_range(ch, 40.0).rays == ch.rays

    def test_below_range_dropped(self):
        culled = cb.cull_dynamic_range(channel(1.0, 1e-4), 30.0)
        assert [r.power for r in culled.rays] == [1.0]

    def test_boundary_ray_kept(self):
        # 10*log10(1e-3) is exactly -30 within float eval, not strictly below
        culled = cb.cull_dynamic_range(channel(1.0, 1e-3), 30.0)
        assert len(culled.rays) == 2

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ValueError):
            cb.cull_dynamic_range(channel(1.0), 0.0)

    def test_matches_threshold_scan(self):
        rnd = random.Random(7)
        powers = [10.0 ** rnd.uniform(-4.0, 0.0) for _ in range(50)]
        ch = channel(*powers)
        culled = cb.cull_dynamic_range(ch, 20.0)
        peak = max(powers)
        expected = [p for p in powers if 10.0 * math.log10(p / peak) >= -20.0]
        assert [r.power for r in culled.rays] == expected

    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=30), st.floats(1.0, 60.0))
    def test_idempotent_and_never_empty(self, powers, range_db):
        once = cb.cull_dynamic_range(channel(*powers), range_db)
        twice = cb.cull_dynamic_range(once, range_db)
        assert once.rays == twice.rays
        assert len(once.rays) >= 1
        assert cb.total_gain(once) <= cb.total_gain(channel(*powers))
