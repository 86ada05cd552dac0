"""Dataset-level aggregation: CDFs, percentiles, failure isolation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import crossband as cb


def one_ray_pair(link_id, low_aoa, high_aoa):
    low = cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, low_aoa),), link_id)
    high = cb.BandChannel(28.0, (cb.Ray(1.0, 0.0, high_aoa),))
    return cb.LinkPair(low=low, high=high)


def hot_pair(link_id):
    # two 1e308 rays overflow the high band's filtered spectrum
    hot = cb.BandChannel(28.0, (cb.Ray(1e308, 0.0, 10.0), cb.Ray(1e308, 0.0, 10.0)))
    return cb.LinkPair(low=cb.BandChannel(15.0, (cb.Ray(1.0, 0.0, 10.0),), link_id), high=hot)


def three_link_dataset():
    # high-band offsets 0 / 5 / 60 degrees under a 10 deg beam with a
    # -30 dB floor give power ratios of exactly 0, -3 and -30 dB
    return [
        one_ray_pair("a", 100.0, 100.0),
        one_ray_pair("b", 100.0, 105.0),
        one_ray_pair("c", 100.0, 160.0),
    ]


class TestEmpiricalCdf:
    def test_sorted_steps(self):
        assert cb.empirical_cdf([3.0, 1.0, 2.0]) == [
            (1.0, 1 / 3),
            (2.0, 2 / 3),
            (3.0, 1.0),
        ]

    def test_ties_collapse(self):
        assert cb.empirical_cdf([1.0, 1.0, 2.0]) == [(1.0, 2 / 3), (2.0, 1.0)]

    def test_single_sample(self):
        assert cb.empirical_cdf([7]) == [(7.0, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cb.empirical_cdf([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_steps_monotone_ending_at_one(self, samples):
        cdf = cb.empirical_cdf(samples)
        values = [v for v, _ in cdf]
        probs = [p for _, p in cdf]
        assert values == sorted(set(values))
        assert probs == sorted(probs)
        assert probs[-1] == 1.0
        assert all(p > 0.0 for p in probs)


class TestPercentiles:
    def test_three_sample_quantiles(self):
        cdf = cb.empirical_cdf([0.0, 3.0, 30.0])
        assert cb.percentiles(cdf) == {10: 0.0, 50: 3.0, 90: 30.0}

    def test_levels_on_step_boundaries(self):
        cdf = cb.empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cb.percentiles(cdf, levels=(25, 50, 75, 100)) == {
            25: 1.0,
            50: 2.0,
            75: 3.0,
            100: 4.0,
        }

    def test_custom_levels(self):
        cdf = cb.empirical_cdf([5.0, 10.0])
        assert cb.percentiles(cdf, levels=(1,)) == {1: 5.0}

    @pytest.mark.parametrize("level", [0, -5, 101])
    def test_bad_levels_rejected(self, level):
        with pytest.raises(ValueError):
            cb.percentiles([(0.0, 1.0)], levels=(level,))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=100))
    def test_median_is_a_sample_with_majority_below(self, samples):
        cdf = cb.empirical_cdf(samples)
        med = cb.percentiles(cdf, levels=(50,))[50]
        ordered = sorted(samples)
        assert med in ordered
        assert sum(s <= med for s in ordered) / len(ordered) >= 0.5 - 1e-9


PSP = cb.PspResult(d_tv=0.0, psp_percent=100.0)


@st.composite
def similarity_reports(draw):
    card_low = draw(st.integers(1, 6))
    return cb.SimilarityReport(
        # a few fixed values force ties in the CDF
        power_ratio_db=draw(st.sampled_from([0.0, -3.0, -30.0]) | st.floats(-60.0, 60.0)),
        n_false=draw(st.integers(0, card_low)),
        card_low=card_low,
        card_high=draw(st.integers(1, 6)),
        psp=PSP,
    )


def batch_of(reports):
    return cb.BatchReport(per_link={f"l{i:03d}": r for i, r in enumerate(reports)})


report_lists = st.lists(similarity_reports(), min_size=1, max_size=40)


class TestBatchReportValidation:
    """The statistics are derived from ``per_link``; each invariant they must
    satisfy is checked over random per-link reports."""

    REPORT = cb.SimilarityReport(power_ratio_db=0.0, n_false=0, card_low=1, card_high=1, psp=PSP)

    def test_needs_a_link(self):
        with pytest.raises(ValueError):
            cb.BatchReport(per_link={})

    @given(report_lists)
    def test_cdf_must_increase(self, reports):
        cdf = batch_of(reports).r_cdf
        assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(cdf, cdf[1:]))
        assert all(0.0 < p <= 1.0 for _, p in cdf)

    @given(report_lists)
    def test_cdf_must_end_at_one(self, reports):
        assert batch_of(reports).r_cdf[-1][1] == 1.0

    @given(report_lists)
    def test_pdf_must_sum_to_one(self, reports):
        rep = batch_of(reports)
        for pdf in (rep.nf_pdf, rep.card_low_pdf, rep.card_high_pdf):
            assert abs(sum(pdf.values()) - 1.0) <= 1e-9

    @given(report_lists)
    def test_percentiles_read_off_the_loss_cdf(self, reports):
        losses = [-r.power_ratio_db for r in reports]
        assert batch_of(reports).percentiles == cb.percentiles(cb.empirical_cdf(losses))

    @given(report_lists, st.randoms())
    def test_to_dict_independent_of_input_order(self, reports, rnd):
        per_link = {f"l{i:03d}": r for i, r in enumerate(reports)}
        items = list(per_link.items())
        rnd.shuffle(items)
        failures = {"f1": "boom", "f0": "bang"}
        forward = cb.BatchReport(per_link=per_link, failures=failures)
        shuffled = cb.BatchReport(per_link=dict(items), failures=dict(reversed(failures.items())))
        # same keys in the same order, so the JSON report bytes match too
        assert json.dumps(forward.to_dict()) == json.dumps(shuffled.to_dict())

    def test_statistics_are_not_settable(self):
        with pytest.raises(TypeError):
            cb.BatchReport(per_link={"a": self.REPORT}, nf_pdf={0: 1.0})

    def test_n_links_counts_failures(self):
        rep = cb.BatchReport(per_link={"a": self.REPORT}, failures={"b": "boom"})
        assert rep.n_links == 2


class TestAnalyzeDataset:
    def run(self, dataset):
        cfg = cb.SimilarityConfig()
        pat = cb.synth_3gpp(hpbw_deg=10.0, a_max_db=30.0)
        return cb.analyze_dataset(dataset, pat, pat, cb.AngularGrid(1.0), cfg)

    def test_three_link_fixture(self):
        rep = self.run(three_link_dataset())
        assert rep.n_links == 3
        assert not rep.failures
        assert rep.per_link["a"].power_ratio_db == 0.0
        assert rep.per_link["b"].power_ratio_db == pytest.approx(-3.0, abs=1e-9)
        assert rep.per_link["c"].power_ratio_db == pytest.approx(-30.0, abs=1e-9)
        assert [p for _, p in rep.r_cdf] == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]
        assert rep.percentiles[10] == 0.0
        assert rep.percentiles[50] == pytest.approx(3.0, abs=1e-9)
        assert rep.percentiles[90] == pytest.approx(30.0, abs=1e-9)
        assert rep.nf_pdf == {0: 1.0}
        assert rep.card_low_pdf == {1: 1.0}
        assert rep.nf_fractions == {"nf_eq_0": 1.0, "nf_le_1": 1.0}

    def test_order_independent(self):
        forward = self.run(three_link_dataset())
        backward = self.run(list(reversed(three_link_dataset())))
        assert forward.to_dict() == backward.to_dict()
        assert list(forward.per_link) == ["a", "b", "c"]

    def test_duplicate_ids_rejected(self):
        dataset = [one_ray_pair("a", 0.0, 0.0), one_ray_pair("a", 10.0, 10.0)]
        with pytest.raises(ValueError, match="duplicate"):
            self.run(dataset)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            self.run([])

    def test_failing_link_recorded_not_fatal(self):
        rep = self.run([one_ray_pair("good", 0.0, 0.0), hot_pair("bad")])
        assert list(rep.per_link) == ["good"]
        assert set(rep.failures) == {"bad"}
        assert rep.failures["bad"]
        assert rep.n_links == 2
        assert rep.r_cdf == ((0.0, 1.0),)

    def test_all_links_failing_raises(self):
        with pytest.raises(ValueError, match="every link failed"):
            self.run([hot_pair("bad")])

    def test_psp_always_included(self):
        rep = self.run(three_link_dataset())
        assert rep.per_link["a"].psp.psp_percent == 100.0
        assert all(r.psp.psp_percent < 100.0 for k, r in rep.per_link.items() if k != "a")

    def test_float_fault_fails_its_link_only(self):
        before = np.geterr()
        rep = self.run([hot_pair("bad"), one_ray_pair("good", 0.0, 0.0)])
        assert list(rep.per_link) == ["good"]
        assert "overflow" in rep.failures["bad"]
        assert np.geterr() == before

    def test_to_dict_shape(self):
        d = self.run(three_link_dataset()).to_dict()
        assert list(d) == [
            "n_links",
            "n_analyzed",
            "n_failed",
            "percentiles",
            "nf_fractions",
            "nf_pdf",
            "card_low_pdf",
            "card_high_pdf",
            "r_cdf",
            "per_link",
            "failures",
        ]
        assert d["n_analyzed"] == 3
        assert set(d["percentiles"]) == {"10", "50", "90"}
        assert set(d["nf_pdf"]) == {"0"}
