"""Angular grids and beam-filtered spectra."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import crossband as cb
from oracles import filter_values, gpp3_gain


def ray(power=1.0, aoa=0.0, delay=0.0):
    return cb.Ray(power=power, delay=delay, aoa_azimuth=aoa)


class TestAngularGrid:
    @pytest.mark.parametrize("step,n", [(1.0, 360), (0.5, 720), (2.0, 180), (10.0, 36), (2, 180), (1, 360)])
    def test_point_counts(self, step, n):
        g = cb.AngularGrid(step_deg=step)
        assert g.n_points == n
        assert g.angles.dtype == np.float64
        np.testing.assert_array_equal(g.angles, np.arange(n) * float(step))
        assert g.angles[0] == 0.0
        assert g.angles[-1] == 360.0 - step

    @pytest.mark.parametrize("step", [0.0, -1.0, 10.5, 0.7])
    def test_bad_steps_rejected(self, step):
        with pytest.raises(ValueError):
            cb.AngularGrid(step_deg=step)

    def test_smallest_step_is_fixed(self):
        assert cb.AngularGrid(step_deg=0.01).n_points == 36000
        for step in (0.005, 1e-7, float("nan")):
            with pytest.raises(ValueError, match=r"grid step must be in \[0\.01, 10\] degrees"):
                cb.AngularGrid(step_deg=step)

    def test_angles_are_read_only(self, grid, assert_frozen, assert_copies_frozen):
        for g in (grid, cb.AngularGrid(0.5), cb.AngularGrid(2)):
            assert_frozen(g.angles)
            assert_copies_frozen(g, "angles")


class TestFilteredPas:
    def test_length_must_match_grid(self, grid):
        with pytest.raises(ValueError):
            cb.FilteredPas(grid, np.ones(100))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_nonpositive_values_rejected(self, grid, bad):
        values = np.ones(grid.n_points)
        values[7] = bad
        with pytest.raises(ValueError):
            cb.FilteredPas(grid, values)

    def test_values_copied_and_frozen(self, grid, gpp3_10, assert_frozen, assert_copies_frozen):
        src = np.ones(grid.n_points)
        pas = cb.FilteredPas(grid, src)
        src[0] = 99.0
        assert pas.values[0] == 1.0
        filtered = cb.filter_pas(cb.BandChannel(15.0, (ray(aoa=30.0),)), gpp3_10, grid)
        for spectrum in (pas, filtered, cb.FilteredPas(grid, filtered.values)):
            assert_frozen(spectrum.values)
            assert_copies_frozen(spectrum, "values")


class TestSpectrumCheck:
    # each constructor checks its array with one min/max pass; it must accept
    # exactly what the former isfinite-then-sign pass over every entry did
    ENTRIES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324, 5e-324, 1e-310, 1.0]

    @pytest.mark.parametrize("everywhere", [False, True], ids=["one", "all"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_filtered_values(self, grid, entry, everywhere):
        values = np.full(grid.n_points, entry) if everywhere else np.ones(grid.n_points)
        values[7] = entry
        two_pass = np.all(np.isfinite(values)) and np.all(values > 0.0)
        with np.errstate(all="raise"):
            if two_pass:
                assert np.array_equal(cb.FilteredPas(grid, values).values, values)
            else:
                with pytest.raises(ValueError, match="^filtered spectrum values must be finite and strictly"):
                    cb.FilteredPas(grid, values)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_densities(self, grid, entry):
        # the next entry takes up the difference, so an accepted density has unit mass
        density = np.full(grid.n_points, 1.0 / 360.0)
        density[7] = entry
        if math.isfinite(entry):
            density[8] = 2.0 / 360.0 - entry
        two_pass = np.all(np.isfinite(density)) and np.all(density >= 0.0)
        with np.errstate(all="raise"):
            if two_pass:
                assert np.array_equal(cb.NormalizedPas(grid, density).density, density)
            else:
                with pytest.raises(ValueError, match="^densities must be finite and non-negative$"):
                    cb.NormalizedPas(grid, density)


class TestFilterPas:
    def test_single_ray_peak_and_shoulders(self, grid, gpp3_10):
        ch = cb.BandChannel(15.0, (ray(power=2.0, aoa=40.0),))
        pas = cb.filter_pas(ch, gpp3_10, grid)
        assert pas.values[40] == 2.0
        assert pas.values[45] == pytest.approx(2.0 * 10.0 ** -0.3, rel=1e-12)
        assert pas.values[35] == pytest.approx(2.0 * 10.0 ** -0.3, rel=1e-12)
        assert pas.values[220] == pytest.approx(2e-3, rel=1e-12)

    def test_rays_never_snap_to_grid(self, grid, gpp3_10):
        # a ray between grid points contributes through exact offsets
        ch = cb.BandChannel(15.0, (ray(aoa=40.25),))
        pas = cb.filter_pas(ch, gpp3_10, grid)
        assert pas.values[40] == gpp3_gain(-0.25, 10.0, 30.0)
        assert pas.values[41] == gpp3_gain(0.75, 10.0, 30.0)

    def test_grid_refinement_reproduces_coarse_values(self, gpp3_10):
        ch = cb.BandChannel(
            15.0, (ray(power=1.0, aoa=11.3), ray(power=0.4, aoa=201.7))
        )
        coarse = cb.filter_pas(ch, gpp3_10, cb.AngularGrid(1.0))
        fine = cb.filter_pas(ch, gpp3_10, cb.AngularGrid(0.5))
        assert np.array_equal(fine.values[::2], coarse.values)

    def test_superposition_is_exact(self, grid, gpp3_10):
        r1, r2 = ray(power=1.5, aoa=10.0), ray(power=0.7, aoa=95.0)
        both = cb.filter_pas(cb.BandChannel(15.0, (r1, r2)), gpp3_10, grid)
        a = cb.filter_pas(cb.BandChannel(15.0, (r1,)), gpp3_10, grid)
        b = cb.filter_pas(cb.BandChannel(15.0, (r2,)), gpp3_10, grid)
        assert np.array_equal(both.values, a.values + b.values)

    def test_underflowing_spectrum_names_the_band_and_angle(self, grid):
        # each ray power and gain is a normal float; their product is not
        faint = cb.BandChannel(15.0, (ray(power=1e-300, aoa=10.0),))
        pattern = cb.Gpp3Pattern(hpbw_deg=10.0, a_max_db=300.0)
        with pytest.raises(ValueError, match=r"^15 GHz band: filtered spectrum is zero at steering "
                                             r"angle 55 deg, where every ray's power times its gain "
                                             r"underflowed$"):
            cb.filter_pas(faint, pattern, grid)

    def test_matches_reference_loop(self, grid, gpp3_10):
        rng = np.random.default_rng(11)
        rays = tuple(
            ray(power=float(p), aoa=float(a))
            for p, a in zip(rng.uniform(0.01, 1.0, 8), rng.uniform(0.0, 360.0, 8))
        )
        pas = cb.filter_pas(cb.BandChannel(15.0, rays), gpp3_10, grid)
        expected = filter_values(
            [(r.power, r.aoa_azimuth) for r in rays],
            lambda off: gpp3_gain(off, 10.0, 30.0),
            [float(a) for a in grid.angles],
        )
        np.testing.assert_allclose(pas.values, expected, rtol=1e-12)


KERNEL_PATTERNS = {
    "gpp3": cb.Gpp3Pattern(hpbw_deg=10.0, a_max_db=30.0),
    "ula4": cb.UlaPattern(n_elements=4),
    "ula8": cb.UlaPattern(n_elements=8),
    "tabulated": cb.TabulatedPattern(
        np.array([-180.0, -40.0, -7.5, 0.0, 12.0, 90.0]),
        np.array([-35.0, -20.0, -3.0, 0.0, -6.5, -28.0]),
    ),
}


class TestKernelContract:
    """The rays x grid evaluation equals the per-ray accumulation bit for bit."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_PATTERNS))
    @pytest.mark.parametrize("step", [1.0, 0.1])
    @pytest.mark.parametrize("n_rays", [1, 50])
    def test_equals_per_ray_loop(self, kind, step, n_rays):
        pattern = KERNEL_PATTERNS[kind]
        grid = cb.AngularGrid(step)
        rng = np.random.default_rng(n_rays)
        rays = tuple(
            ray(power=float(p), aoa=float(a))
            for p, a in zip(10.0 ** rng.uniform(-6.0, 0.0, n_rays), rng.uniform(0.0, 360.0, n_rays))
        )
        values = np.zeros(grid.n_points)
        for r in rays:
            values += r.power * pattern.gain(grid.angles - r.aoa_azimuth)
        pas = cb.filter_pas(cb.BandChannel(28.0, rays), pattern, grid)
        assert np.array_equal(pas.values, values)


class TestNormalizePas:
    def test_unit_mass(self, grid, gpp3_10):
        ch = cb.BandChannel(15.0, (ray(aoa=0.0), ray(power=0.5, aoa=120.0)))
        dens = cb.normalize_pas(cb.filter_pas(ch, gpp3_10, grid))
        assert float(dens.density.sum()) * grid.step_deg == pytest.approx(1.0, abs=1e-12)

    def test_mass_accounts_for_grid_step(self, gpp3_10):
        ch = cb.BandChannel(15.0, (ray(aoa=0.0),))
        half = cb.normalize_pas(cb.filter_pas(ch, gpp3_10, cb.AngularGrid(0.5)))
        assert float(half.density.sum()) * 0.5 == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(1e-6, 1e6))
    def test_invariant_under_power_scaling(self, scale):
        grid = cb.AngularGrid(2.0)
        pat = cb.Gpp3Pattern(hpbw_deg=20.0, a_max_db=25.0)
        ch1 = cb.BandChannel(15.0, (ray(power=1.0, aoa=30.0),))
        ch2 = cb.BandChannel(15.0, (ray(power=scale, aoa=30.0),))
        d1 = cb.normalize_pas(cb.filter_pas(ch1, pat, grid))
        d2 = cb.normalize_pas(cb.filter_pas(ch2, pat, grid))
        np.testing.assert_allclose(d1.density, d2.density, rtol=1e-12)

    def test_density_copied_and_frozen(self, grid, gpp3_10, assert_frozen, assert_copies_frozen):
        src = np.full(grid.n_points, 1.0 / 360.0)
        dens = cb.NormalizedPas(grid, src)
        src[0] = 99.0
        assert dens.density[0] == 1.0 / 360.0
        normalized = cb.normalize_pas(cb.filter_pas(cb.BandChannel(15.0, (ray(aoa=30.0),)), gpp3_10, grid))
        for spectrum in (dens, normalized):
            assert_frozen(spectrum.density)
            assert_copies_frozen(spectrum, "density")

    def test_non_unit_density_rejected(self, grid):
        with pytest.raises(ValueError):
            cb.NormalizedPas(grid, np.ones(grid.n_points))

    def test_length_must_match_grid(self, grid):
        density = np.full(grid.n_points + 1, 1.0 / 360.0)
        with pytest.raises(ValueError, match="^density length does not match the grid$"):
            cb.NormalizedPas(grid, density)

    @pytest.mark.parametrize("bad", [-1e-3, np.nan])
    def test_negative_or_nan_density_rejected(self, grid, bad):
        density = np.full(grid.n_points, 1.0 / 360.0)
        density[7] = bad
        with pytest.raises(ValueError, match="^densities must be finite and non-negative$"):
            cb.NormalizedPas(grid, density)

