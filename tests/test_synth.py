"""Synthetic two-band link generation: determinism and congruence knobs."""

from __future__ import annotations

import dataclasses

import pytest

import crossband as cb


class TestGenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_shared_paths": -1},
            {"n_shared_paths": 4.0},
            {"n_shared_paths": True},
            {"n_shared_paths": 0, "n_low_only_paths": 0},
            {"n_shared_paths": 0, "n_high_only_paths": 0},
            {"shared_power_decay_db": -1.0},
            {"angle_jitter_deg": -0.1},
            {"power_jitter_db": -0.1},
            {"delay_spread_ns": -1.0},
            {"low_freq_ghz": 30.0, "high_freq_ghz": 15.0},
            {"low_freq_ghz": 0.0},
            {"seed": -1},
            {"angle_jitter_deg": "5"},
            {"power_jitter_db": True},
            {"low_freq_ghz": None},
            {"delay_spread_ns": float("nan")},
            {"high_freq_ghz": float("inf")},
            {"angle_jitter_deg": 10**400},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            cb.GenConfig(**kwargs)

    def test_first_bad_setting_in_declaration_order_named(self):
        with pytest.raises(ValueError, match=r"^angle_jitter_deg must be a finite number >= 0, got -1$"):
            cb.GenConfig(angle_jitter_deg=-1, seed=-1)

    @pytest.mark.parametrize("field", dataclasses.fields(cb.GenConfig), ids=lambda f: f.name)
    def test_every_setting_is_checked(self, field):
        with pytest.raises(ValueError, match=rf"^{field.name} must be an? (integer|finite number) >= 0, got -1$"):
            cb.GenConfig(**{field.name: -1})

    def test_integer_settings_kept_as_given(self):
        # written verbatim into the dataset metadata
        data = cb.GenConfig.from_dict({"angle_jitter_deg": 5}).to_dict()
        assert type(data["angle_jitter_deg"]) is int

    def test_equal_band_frequencies_allowed(self):
        cfg = cb.GenConfig(low_freq_ghz=15.0, high_freq_ghz=15.0)
        assert cfg.high_freq_ghz == 15.0

    def test_dict_round_trip(self):
        cfg = cb.GenConfig(n_shared_paths=6, seed=42)
        assert cb.GenConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            cb.GenConfig.from_dict({"seed": 1, "n_paths": 4})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            cb.GenConfig.from_dict([])


class TestGenerateLink:
    def test_deterministic_per_index(self):
        cfg = cb.GenConfig(seed=7)
        a = cb.generate_link(cfg, 3)
        b = cb.generate_link(cfg, 3)
        assert a.low.rays == b.low.rays
        assert a.high.rays == b.high.rays

    def test_indices_draw_independent_links(self):
        cfg = cb.GenConfig(seed=7)
        assert cb.generate_link(cfg, 0).low.rays != cb.generate_link(cfg, 1).low.rays

    def test_seed_changes_the_draw(self):
        a = cb.generate_link(cb.GenConfig(seed=1), 0)
        b = cb.generate_link(cb.GenConfig(seed=2), 0)
        assert a.low.rays != b.low.rays

    def test_link_identity_and_frequencies(self):
        cfg = cb.GenConfig(low_freq_ghz=6.0, high_freq_ghz=60.0)
        pair = cb.generate_link(cfg, 7)
        assert pair.link_id == "link-00007"
        assert pair.low.frequency == 6.0
        assert pair.high.frequency == 60.0

    def test_ray_counts_follow_config(self):
        cfg = cb.GenConfig(n_shared_paths=5, n_low_only_paths=2, n_high_only_paths=3)
        pair = cb.generate_link(cfg, 0)
        assert len(pair.low.rays) == 7
        assert len(pair.high.rays) == 8

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            cb.generate_link(cb.GenConfig(), -1)

    def test_zero_jitter_gives_congruent_bands(self):
        cfg = cb.GenConfig(
            angle_jitter_deg=0.0, power_jitter_db=0.0,
            n_low_only_paths=0, n_high_only_paths=0,
        )
        pair = cb.generate_link(cfg, 0)
        assert pair.low.rays == pair.high.rays

    def test_shared_power_ramp_without_jitter(self):
        cfg = cb.GenConfig(
            n_shared_paths=4, shared_power_decay_db=3.0, power_jitter_db=0.0,
            n_low_only_paths=0, n_high_only_paths=0,
        )
        pair = cb.generate_link(cfg, 0)
        for i, ray in enumerate(pair.low.rays):
            assert ray.power == pytest.approx(10.0 ** (-0.3 * i), rel=1e-12)

    def test_exclusive_paths_sit_in_the_deficit_window(self):
        cfg = cb.GenConfig(n_shared_paths=2, n_low_only_paths=20, n_high_only_paths=20)
        pair = cb.generate_link(cfg, 0)
        for rays in (pair.low.rays, pair.high.rays):
            assert ((1e-3 <= rays.powers[2:]) & (rays.powers[2:] <= 1e-1)).all()

    def test_zero_delay_spread_collapses_delays(self):
        cfg = cb.GenConfig(delay_spread_ns=0.0)
        pair = cb.generate_link(cfg, 0)
        assert (pair.low.rays.delays == 0.0).all() and (pair.high.rays.delays == 0.0).all()


class TestGenerateDataset:
    def test_ids_unique_and_ordered(self):
        ds = cb.generate_dataset(cb.GenConfig(), 5)
        assert [p.link_id for p in ds] == [f"link-0000{i}" for i in range(5)]

    def test_size_validated(self):
        with pytest.raises(ValueError):
            cb.generate_dataset(cb.GenConfig(), 0)

    def test_links_independent_of_batch_size(self):
        cfg = cb.GenConfig(seed=3)
        ds = cb.generate_dataset(cfg, 4)
        assert ds[2].low.rays == cb.generate_link(cfg, 2).low.rays

    def test_links_across_generation_blocks_match_generate_link(self):
        # generate_dataset draws links in blocks and checks each block's columns together
        cfg = cb.GenConfig(seed=3)
        ds = cb.generate_dataset(cfg, 300)
        for i in (0, 255, 256, 299):
            assert ds[i] == cb.generate_link(cfg, i)

    def test_regeneration_is_bit_identical(self):
        cfg = cb.GenConfig(seed=9)
        a = cb.generate_dataset(cfg, 10)
        b = cb.generate_dataset(cfg, 10)
        for pa, pb in zip(a, b):
            assert pa.low.rays == pb.low.rays
            assert pa.high.rays == pb.high.rays


class TestCongruenceKnobs:
    def test_angle_jitter_degrades_power_ratio(self, grid, gpp3_10):
        medians = []
        for jitter in (0.0, 5.0, 15.0):
            cfg = cb.GenConfig(
                angle_jitter_deg=jitter, power_jitter_db=0.0,
                n_low_only_paths=0, n_high_only_paths=0, seed=1,
            )
            rep = cb.analyze_dataset(
                cb.generate_dataset(cfg, 60), gpp3_10, gpp3_10, grid,
                cb.SimilarityConfig(),
            )
            medians.append(rep.percentiles[50])
        assert medians[0] == 0.0
        assert medians == sorted(medians)
        assert medians[2] > medians[1] > 0.0
