"""Total variation distance and the similarity percentage built on it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import crossband as cb

GRID36 = cb.AngularGrid(step_deg=10.0)


def density(weights, grid=GRID36):
    v = np.asarray(weights, dtype=float)
    return cb.NormalizedPas(grid, v / (v.sum() * grid.step_deg))


def point_mass(index, grid=GRID36):
    v = np.zeros(grid.n_points)
    v[index] = 1.0 / grid.step_deg
    return cb.NormalizedPas(grid, v)


weight_vectors = st.lists(
    st.floats(1e-3, 1e3), min_size=GRID36.n_points, max_size=GRID36.n_points
)


class TestPspResult:
    def test_round_trip_dict(self):
        res = cb.PspResult(d_tv=0.25)
        assert res.to_dict() == {"d_tv": 0.25, "psp_percent": 75.0}

    @pytest.mark.parametrize("d", [-0.1, 1.1])
    def test_distance_out_of_range_rejected(self, d):
        with pytest.raises(ValueError):
            cb.PspResult(d_tv=d)


class TestTotalVariation:
    def test_identical_densities_give_zero(self):
        a = density(np.arange(1.0, 37.0))
        assert cb.total_variation(a, a) == 0.0

    def test_disjoint_point_masses_give_one(self):
        assert cb.total_variation(point_mass(0), point_mass(9)) == 1.0

    def test_hand_computed_value(self):
        a = density([3.0, 2.0] + [0.0] * 34)
        b = density([5.0, 0.0] + [0.0] * 34)
        # masses 0.06/0.04 vs 0.10 per degree: d = 0.5*(0.04+0.04)*10
        assert cb.total_variation(a, b) == pytest.approx(0.4, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        fine = cb.AngularGrid(step_deg=5.0)
        v = np.full(fine.n_points, 1.0 / 360.0)
        with pytest.raises(ValueError):
            cb.total_variation(point_mass(0), cb.NormalizedPas(fine, v))

    @given(weight_vectors, weight_vectors)
    def test_symmetric_bounded(self, wa, wb):
        a, b = density(wa), density(wb)
        d = cb.total_variation(a, b)
        assert d == cb.total_variation(b, a)
        assert 0.0 <= d <= 1.0

    @given(weight_vectors, weight_vectors, weight_vectors)
    def test_triangle_inequality(self, wa, wb, wc):
        a, b, c = density(wa), density(wb), density(wc)
        assert cb.total_variation(a, c) <= (
            cb.total_variation(a, b) + cb.total_variation(b, c) + 1e-12
        )

    @given(weight_vectors, weight_vectors, st.integers(1, 35))
    def test_rotation_invariant(self, wa, wb, shift):
        a, b = density(wa), density(wb)
        ra = cb.NormalizedPas(GRID36, np.roll(a.density, shift))
        rb = cb.NormalizedPas(GRID36, np.roll(b.density, shift))
        assert cb.total_variation(ra, rb) == pytest.approx(
            cb.total_variation(a, b), abs=1e-12
        )


class TestPsp:
    def test_identity_scores_hundred_exactly(self):
        a = density(np.arange(1.0, 37.0))
        res = cb.psp(a, a)
        assert res.d_tv == 0.0
        assert res.psp_percent == 100.0

    def test_disjoint_scores_zero(self):
        res = cb.psp(point_mass(0), point_mass(18))
        assert res.psp_percent == 0.0

    def test_hand_computed_percentage(self):
        a = density([3.0, 2.0] + [0.0] * 34)
        b = density([5.0, 0.0] + [0.0] * 34)
        assert cb.psp(a, b).psp_percent == pytest.approx(60.0, abs=1e-9)

    @given(weight_vectors, weight_vectors)
    def test_percentage_locked_to_distance(self, wa, wb):
        res = cb.psp(density(wa), density(wb))
        assert res.psp_percent == (1.0 - res.d_tv) * 100.0


class TestPairPsp:
    def _pair(self, low_aoa, high_aoa):
        low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, low_aoa),))
        high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, high_aoa),))
        return cb.LinkPair(low=low, high=high)

    def test_identical_bands_match_perfectly(self, grid, gpp3_10):
        ch = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 123.0), cb.Ray(0.5, 1e-9, 10.0)))
        pair = cb.LinkPair(low=ch, high=ch)
        res = cb.pair_psp(pair, gpp3_10, grid)
        assert res.psp_percent == 100.0

    def test_matches_direct_density_computation(self, grid, gpp3_10):
        pair = self._pair(0.0, 180.0)
        res = cb.pair_psp(pair, gpp3_10, grid)

        def dens(aoa):
            v = gpp3_10.gain(grid.angles - aoa)
            return v / (v.sum() * grid.step_deg)

        expected = 0.5 * float(np.abs(dens(0.0) - dens(180.0)).sum()) * grid.step_deg
        assert res.d_tv == pytest.approx(expected, abs=1e-12)
        assert res.psp_percent < 10.0
