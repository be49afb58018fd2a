"""Pairwise labeling cascade, the per-query pair stage, and the
preference model."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from corpus_builders import click, corpus, imp, records
from oracles import LABEL_BLOCK, MetricVector, PairSample, cross_pairs, \
    cross_pairs_at, enumerated_pairs, every_pair_counts, \
    fit_pair_model_from_pairs, label_sample, pattern_counts, \
    predict_pair_prob, sample_pairs
from sataudit.aggregate import Factor
from sataudit.audit import AuditConfig, run_audit
from sataudit.errors import ConfigError, DataError, InsufficientSignalError
from sataudit.logmodel import AgeGroup, Gender, LogCorpus
from sataudit.metrics import MetricKind, metric_table
from sataudit.pairwise import (DEFAULT_THRESHOLDS, GU_SPAN, QUERY_WEIGHT,
                               PairCounts, PairThresholds, count_pair_labels,
                               derive_thresholds_from_deltas,
                               eligible_queries, fit_pair_model,
                               label_batch_external, label_batch_internal,
                               probability_grid)

G1, G2, G3, G4 = AgeGroup
M, F = Gender
MB = 1 << 20


def traced_peak(fn, *args, **kwargs):
    """`fn`'s result and the peak bytes it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_query(ages) -> LogCorpus:
    """One query's impressions with these ages, ids in row order."""
    return corpus([imp(f"i{k:05d}", query="qa", age=a)
                   for k, a in enumerate(ages)])


def mv(gu: float = 0.0, reform: int = 0, pcc: int = 1, scc: int = 1
       ) -> MetricVector:
    return MetricVector(graded_utility=gu, reformulation=reform,
                        page_click_count=pcc, successful_click_count=scc)


class TestThresholdValidation:
    def test_strong_must_exceed_weak(self):
        with pytest.raises(ConfigError, match="gu_strong > gu_weak"):
            PairThresholds(gu_strong=0.2, gu_weak=0.2)
        with pytest.raises(ConfigError, match="scc_strong > scc_weak"):
            PairThresholds(scc_strong=1.0, scc_weak=1.0)

    def test_count_thresholds_have_floors(self):
        with pytest.raises(ConfigError, match="scc"):
            PairThresholds(scc_strong=1.0, scc_weak=0.5)
        with pytest.raises(ConfigError, match="pcc_external"):
            PairThresholds(pcc_external=0.0)

    def test_defaults_are_valid(self):
        t = DEFAULT_THRESHOLDS
        assert (t.gu_strong, t.scc_strong, t.gu_weak, t.scc_weak,
                t.pcc_external, t.k) == (0.4, 2.0, 0.2, 1.0, 2.0, 2.5)


class TestDeriveThresholds:
    def test_graded_utility_scales_linearly(self):
        t = derive_thresholds_from_deltas(
            {MetricKind.GRADED_UTILITY: 0.16}, k=2.5)
        assert t.gu_strong == 0.4
        assert t.gu_weak == 0.2

    @pytest.mark.parametrize("delta,expected_strong,expected_weak", [
        (0.2, 2, 1),    # k*delta = 0.5 rounds to 1, floored up to weak+1
        (0.6, 2, 1),    # 1.5 rounds half-up to 2
        (1.0, 3, 1),    # 2.5 rounds half-up to 3, weak 1.25 -> 1
        (2.0, 5, 3),    # 5.0 and 2.5 -> 3
    ])
    def test_click_count_thresholds_snap_to_integers(self, delta,
                                                     expected_strong,
                                                     expected_weak):
        t = derive_thresholds_from_deltas(
            {MetricKind.SUCCESSFUL_CLICK_COUNT: delta}, k=2.5)
        assert t.scc_strong == expected_strong
        assert t.scc_weak == expected_weak

    @pytest.mark.parametrize("delta", [0.1, 1.0, 3.0, math.nan])
    def test_a_page_click_delta_never_moves_the_external_threshold(
            self, delta):
        # the external labeller always runs at the defaults
        t = derive_thresholds_from_deltas(
            {MetricKind.PAGE_CLICK_COUNT: delta,
             MetricKind.GRADED_UTILITY: 0.16}, k=2.5)
        assert t.pcc_external == DEFAULT_THRESHOLDS.pcc_external
        assert t == derive_thresholds_from_deltas(
            {MetricKind.GRADED_UTILITY: 0.16}, k=2.5)

    def test_missing_deltas_fall_back_to_defaults(self):
        t = derive_thresholds_from_deltas({}, k=3.0)
        assert t.gu_strong == DEFAULT_THRESHOLDS.gu_strong
        assert t.scc_strong == DEFAULT_THRESHOLDS.scc_strong
        assert t.pcc_external == DEFAULT_THRESHOLDS.pcc_external
        assert t.k == 3.0

    def test_nan_and_nonpositive_deltas_fall_back_with_warnings(self,
                                                                 caplog):
        with caplog.at_level("WARNING", logger="sataudit.pairwise"):
            t = derive_thresholds_from_deltas(
                {MetricKind.GRADED_UTILITY: math.nan,
                 MetricKind.SUCCESSFUL_CLICK_COUNT: 0.0,
                 MetricKind.PAGE_CLICK_COUNT: -1.0}, k=1.7e308)
        assert t == PairThresholds(k=1.7e308)
        # one per derived metric; page clicks derive nothing
        assert len(caplog.records) == 2

    @pytest.mark.parametrize("kind", [MetricKind.GRADED_UTILITY,
                                      MetricKind.SUCCESSFUL_CLICK_COUNT])
    def test_k_times_delta_must_be_finite(self, kind):
        with pytest.raises(ConfigError) as err:
            derive_thresholds_from_deltas({kind: 1.5}, k=1.7e308)
        assert str(err.value) == (f"k = 1.7e+308 is too large for the "
                                  f"{kind.value} delta 1.5: k * delta is "
                                  f"not finite")
        # the largest finite product still derives
        t = derive_thresholds_from_deltas({kind: 1.0}, k=1.7e308)
        assert t.k == 1.7e308

    @pytest.mark.parametrize("delta,source", [
        (0.79, "derived"),      # k * delta = 1.975, below the span
        (0.8, "fallback"),      # 2.0, which no GU difference exceeds
        (1.4, "fallback")])
    def test_gu_threshold_at_or_beyond_its_span_falls_back(
            self, caplog, delta, source):
        assert GU_SPAN == 2.0
        sources = {}
        with caplog.at_level("WARNING", logger="sataudit.pairwise"):
            t = derive_thresholds_from_deltas(
                {MetricKind.GRADED_UTILITY: delta,
                 MetricKind.SUCCESSFUL_CLICK_COUNT: 1.0}, k=2.5,
                source=sources)
        assert sources == {"graded_utility": source,
                           "successful_click_count": "derived"}
        assert (t.scc_strong, t.scc_weak) == (3.0, 1.0)
        if source == "derived":
            assert (t.gu_strong, t.gu_weak) == (2.5 * delta,
                                                2.5 * delta / 2.0)
            assert caplog.records == []
        else:
            assert (t.gu_strong, t.gu_weak) == (
                DEFAULT_THRESHOLDS.gu_strong, DEFAULT_THRESHOLDS.gu_weak)
            [record] = caplog.records
            assert record.getMessage().startswith(
                "graded_utility strong threshold k * delta = ")
            assert "at or beyond its span 2.0" in record.getMessage()

    def test_source_names_each_fallback(self):
        sources = {}
        derive_thresholds_from_deltas({MetricKind.GRADED_UTILITY: 0.16},
                                      k=2.5, source=sources)
        assert sources == {"graded_utility": "derived",
                           "successful_click_count": "fallback"}

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ConfigError, match="k must be positive"):
            derive_thresholds_from_deltas({MetricKind.GRADED_UTILITY: 0.2},
                                          k=0.0)


def internal(pairs, thresholds=DEFAULT_THRESHOLDS) -> list[int]:
    """label_batch_internal over a list of (side i, side j) metric vectors."""
    i, j = zip(*pairs)
    sides = [[getattr(m, name) for m in side] for side in (i, j)
             for name in ("graded_utility", "reformulation",
                          "successful_click_count")]
    return label_batch_internal(*sides, thresholds).tolist()


def external(pairs, thresholds=DEFAULT_THRESHOLDS) -> list[int]:
    """label_batch_external over a list of (side i, side j) metric vectors."""
    i, j = zip(*pairs)
    return label_batch_external([m.page_click_count for m in i],
                                [m.page_click_count for m in j],
                                thresholds).tolist()


class TestLabelCascade:
    def test_reformulation_outranks_everything(self):
        # side j reformulated; i wins even with far worse utility
        assert internal([(mv(gu=-1.0, scc=0), mv(gu=1.0, reform=1, scc=4)),
                         (mv(reform=1), mv())]) == [1, -1]

    def test_strong_utility_difference(self):
        assert internal([(mv(gu=1.0), mv(gu=1.0 / 3.0)),
                         (mv(gu=-1.0), mv(gu=-1.0 / 3.0))]) == [1, -1]
        # utility decides before a strong click-count difference the
        # other way
        assert internal([(mv(gu=1.0, scc=1),
                          mv(gu=1.0 / 3.0, scc=4))]) == [1]

    def test_exact_strong_threshold_abstains(self):
        assert internal([(mv(gu=0.4), mv(gu=0.0))]) == [0]

    def test_strong_click_count_difference(self):
        assert internal([(mv(scc=4), mv(scc=1)),
                         (mv(scc=3), mv(scc=1)),     # exactly 2
                         (mv(scc=1), mv(scc=4))]) == [1, 0, -1]

    def test_weak_joint_condition(self):
        # GU difference 1/3 with SCC difference 2: both weak gates open
        assert internal([(mv(gu=1.0, scc=3), mv(gu=2.0 / 3.0, scc=1)),
                         (mv(gu=2.0 / 3.0, scc=1), mv(gu=1.0, scc=3))]) \
            == [1, -1]
        # GU alone or SCC alone is not enough
        assert internal([(mv(gu=1.0 / 3.0), mv(gu=0.0)),
                         (mv(scc=3), mv(scc=1, gu=0.0))]) == [0, 0]

    def test_label_is_antisymmetric(self):
        cases = [(mv(gu=1.0), mv(gu=-1.0)), (mv(reform=1), mv()),
                 (mv(scc=5), mv(scc=1)), (mv(), mv())]
        fwd = internal(cases)
        rev = internal([(b, a) for a, b in cases])
        assert fwd == [-v for v in rev]

    def test_custom_thresholds_respected(self):
        wide = PairThresholds(gu_strong=1.5, gu_weak=0.75, scc_strong=9.0,
                              scc_weak=4.0)
        assert internal([(mv(gu=1.0), mv(gu=-1.0 / 3.0))], wide) == [0]

    def test_external_label_uses_click_count_only(self):
        assert external([(mv(pcc=5), mv(pcc=2)),
                         (mv(pcc=4), mv(pcc=2)),     # exactly 2
                         (mv(pcc=0), mv(pcc=3))]) == [1, 0, -1]


class TestBatchLabelers:
    def test_batch_antisymmetry(self):
        rng = np.random.default_rng(23)
        n = 300
        args = [rng.uniform(-1, 1, n), rng.integers(0, 2, n),
                rng.integers(0, 5, n), rng.uniform(-1, 1, n),
                rng.integers(0, 2, n), rng.integers(0, 5, n)]
        fwd = label_batch_internal(*args)
        rev = label_batch_internal(args[3], args[4], args[5],
                                   args[0], args[1], args[2])
        np.testing.assert_array_equal(fwd, -rev)

    def test_batch_external_matches_scalar(self):
        rng = np.random.default_rng(29)
        p_i = rng.integers(0, 8, 200)
        p_j = rng.integers(0, 8, 200)
        batch = label_batch_external(p_i, p_j)
        diff = p_i - p_j
        np.testing.assert_array_equal(batch, np.sign(diff) * (abs(diff) > 2))


def spread_corpus():
    """One query across three age groups, another across two, one thin."""
    imps = []
    for age in (G1, G2, G3):
        for k in range(4):
            imps.append(imp(query="wide q", age=age))
    for age in (G1, G4):
        for k in range(6):
            imps.append(imp(query="two q", age=age))
    for age in (G1, G2, G3, G4):
        imps.append(imp(query="thin q", age=age))
    return corpus(imps)


class TestEligibility:
    def test_group_and_volume_floors(self):
        c = spread_corpus()
        assert eligible_queries(c) == ["wide q"]
        assert eligible_queries(c, min_groups=2) == ["two q", "wide q"]
        assert eligible_queries(c, min_groups=4, min_impressions=4) == \
            ["thin q"]

    def test_gender_factor(self):
        imps = [imp(query="qa", gender=g) for g in (M, F) for _ in range(5)]
        c = corpus(imps)
        assert eligible_queries(c, Factor.GENDER, min_groups=2) == ["qa"]
        # both genders: the default floor for a two-group factor is 2
        assert eligible_queries(c, Factor.GENDER) == ["qa"]
        one = corpus([imp(query="qa", gender=M) for _ in range(10)])
        assert eligible_queries(one, Factor.GENDER) == []
        assert eligible_queries(c, Factor.GENDER, min_groups=2,
                                min_impressions=11) == []

    @pytest.mark.parametrize("factor", list(Factor))
    @pytest.mark.parametrize("min_groups", [1, 0, -3])
    def test_a_pair_needs_two_groups(self, factor, min_groups):
        # a query one group issues is never eligible: it holds no pair
        c = corpus([imp(query="qa", gender=g) for g in (M, F)
                    for _ in range(5)])
        with pytest.raises(ConfigError) as err:
            eligible_queries(c, factor, min_groups=min_groups)
        assert str(err.value) == \
            f"min_groups must be at least 2, got {min_groups}"


class TestSamplePairs:
    """The whole-sample reference sampler that the pair stage's per-query
    counts are checked against."""

    def _small(self):
        imps = [imp(query="qa", age=G1) for _ in range(3)]
        imps += [imp(query="qa", age=G2) for _ in range(2)]
        return corpus(imps)

    def test_validation(self):
        c = self._small()
        for stage in (sample_pairs, count_pair_labels):
            with pytest.raises(ConfigError, match="fraction"):
                stage(c, ["qa"], seed=1, fraction=0.0)
            with pytest.raises(ConfigError, match="fraction"):
                stage(c, ["qa"], seed=1, fraction=1.5)
            with pytest.raises(DataError, match="no eligible queries"):
                stage(c, [], seed=1)
        # the pair stage draws no pair, so only the sampler has a quota
        with pytest.raises(ConfigError, match="pairs_per_query"):
            sample_pairs(c, ["qa"], seed=1, pairs_per_query=0)

    def test_full_enumeration_when_quota_matches(self):
        c = self._small()
        s = sample_pairs(c, ["qa"], seed=7, fraction=1.0, pairs_per_query=6)
        assert len(s) == 6
        ages = [i.demographics.age for i in records(c)]
        pairs = {frozenset((int(a), int(b)))
                 for a, b in zip(s.i_idx, s.j_idx)}
        assert len(pairs) == 6            # every cross pair exactly once
        for a, b in zip(s.i_idx, s.j_idx):
            assert ages[int(a)] != ages[int(b)]

    def test_small_queries_fill_quota_with_replacement(self):
        c = self._small()
        s = sample_pairs(c, ["qa"], seed=7, fraction=1.0, pairs_per_query=50)
        assert len(s) == 50
        ages = [i.demographics.age for i in records(c)]
        distinct = {frozenset((int(a), int(b)))
                    for a, b in zip(s.i_idx, s.j_idx)}
        assert len(distinct) <= 6
        for a, b in zip(s.i_idx, s.j_idx):
            assert ages[int(a)] != ages[int(b)]

    def test_subsampling_without_replacement(self):
        c = self._small()
        s = sample_pairs(c, ["qa"], seed=7, fraction=1.0, pairs_per_query=3)
        assert len(s) == 3
        distinct = {frozenset((int(a), int(b)))
                    for a, b in zip(s.i_idx, s.j_idx)}
        assert len(distinct) == 3

    def test_rejection_path_on_large_queries(self):
        imps = [imp(query="big q", age=G1) for _ in range(650)]
        imps += [imp(query="big q", age=G4) for _ in range(650)]
        c = corpus(imps)
        # 422500 distinct cross pairs exceed the enumeration cutoff
        s = sample_pairs(c, ["big q"], seed=13, fraction=1.0,
                         pairs_per_query=1000)
        assert len(s) == 1000
        ages = [i.demographics.age for i in records(c)]
        distinct = {frozenset((int(a), int(b)))
                    for a, b in zip(s.i_idx, s.j_idx)}
        assert len(distinct) == 1000      # deduplicated
        for a, b in zip(s.i_idx, s.j_idx):
            assert ages[int(a)] != ages[int(b)]
        again = sample_pairs(c, ["big q"], seed=13, fraction=1.0,
                             pairs_per_query=1000)
        np.testing.assert_array_equal(s.i_idx, again.i_idx)
        np.testing.assert_array_equal(s.j_idx, again.j_idx)

    def test_seed_determinism_and_query_slicing(self):
        imps = []
        for qn in range(10):
            for age in (G1, G3):
                imps += [imp(query=f"q {qn:02d}", age=age) for _ in range(3)]
        c = corpus(imps)
        queries = [f"q {qn:02d}" for qn in range(10)]
        s1 = sample_pairs(c, queries, seed=42, fraction=0.25,
                          pairs_per_query=5)
        s2 = sample_pairs(c, queries, seed=42, fraction=0.25,
                          pairs_per_query=5)
        assert s1.queries == s2.queries
        assert len(s1.queries) == 3       # ceil(0.25 * 10)
        assert set(s1.queries) <= set(queries)
        np.testing.assert_array_equal(s1.i_idx, s2.i_idx)
        np.testing.assert_array_equal(s1.j_idx, s2.j_idx)
        s3 = sample_pairs(c, queries, seed=43, fraction=0.25,
                          pairs_per_query=5)
        assert (s1.queries != s3.queries
                or not np.array_equal(s1.i_idx, s3.i_idx))

    def test_index_columns_are_int32(self):
        s = sample_pairs(self._small(), ["qa"], seed=7, fraction=1.0,
                         pairs_per_query=4)
        assert s.i_idx.dtype == np.int32
        assert s.j_idx.dtype == np.int32

    def test_pair_mapping_matches_the_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(2, 60))
            codes = rng.integers(0, rng.integers(2, 5), size=n).astype(np.int32)
            ia, ib = cross_pairs(codes)
            if len(ia) == 0:
                continue
            picks = rng.integers(0, len(ia), size=30)
            a, b = cross_pairs_at(codes, picks)
            np.testing.assert_array_equal(a, ia[picks])
            np.testing.assert_array_equal(b, ib[picks])

    @pytest.mark.parametrize("quota", ["above n_cross", "n_cross",
                                       "below n_cross"])
    def test_samples_equal_the_enumerating_reference(self, quota):
        rng = np.random.default_rng(5)
        for seed in range(5):
            ages = [list(AgeGroup)[k] for k in rng.integers(0, 4, size=40)]
            c = one_query(ages)
            codes = Factor.AGE.group_of(c.profile)
            n_cross = len(cross_pairs(codes)[0])
            ppq = {"above n_cross": n_cross + 7, "n_cross": n_cross,
                   "below n_cross": n_cross // 3}[quota]
            s = sample_pairs(c, ["qa"], seed=seed, fraction=1.0,
                             pairs_per_query=ppq)
            ref_rng = np.random.default_rng(seed)
            ref_rng.choice(1, size=1, replace=False)      # the query draw
            ia, ib = enumerated_pairs(codes, ppq, ref_rng)
            np.testing.assert_array_equal(s.i_idx, ia)
            np.testing.assert_array_equal(s.j_idx, ib)

    def test_dominant_group_query_samples_in_bounded_memory(self):
        # 193,644 cross pairs, within the enumeration limit, among 4.5M
        # position pairs, which as index arrays would take about 110 MB
        ages = [G2 if k % 45 == 0 else G1 for k in range(2_970)]
        c = one_query(ages)
        counts, peak = traced_peak(count_pair_labels, c, ["qa"], seed=3,
                                   fraction=1.0)
        assert counts.n_pairs == QUERY_WEIGHT
        assert peak < 4 * MB
        s = sample_pairs(c, ["qa"], seed=3, fraction=1.0)
        codes = Factor.AGE.group_of(c.profile)
        assert (codes[s.i_idx] != codes[s.j_idx]).all()
        assert (s.i_idx < s.j_idx).all()

    def test_single_group_queries_yield_no_pairs(self):
        c = corpus([imp(query="solo q", age=G2) for _ in range(8)])
        counts = count_pair_labels(c, ["solo q"], seed=3, fraction=1.0)
        assert counts.queries == ["solo q"] and counts.n_pairs == 0
        assert not counts.wins.any()


class TestLabelSample:
    def test_unknown_mode_rejected(self):
        c = self._two_group()
        with pytest.raises(ConfigError, match="labeling mode"):
            count_pair_labels(c, ["qa"], seed=1, mode="sideways",
                              fraction=1.0)

    def test_internal_needs_dwell_fidelity(self):
        imps = [imp(query="qa", age=G1,
                    clicks=[click(dwell=float("nan"))]) for _ in range(2)]
        imps += [imp(query="qa", age=G2,
                     clicks=[click(dwell=float("nan"))]) for _ in range(2)]
        c = corpus(imps)
        with pytest.raises(DataError, match="dwell"):
            count_pair_labels(c, ["qa"], seed=1, mode="internal",
                              fraction=1.0)
        counts = count_pair_labels(c, ["qa"], seed=1, mode="external",
                                   fraction=1.0)
        assert counts.n_pairs == QUERY_WEIGHT
        assert not counts.wins.any()

    def _two_group(self):
        imps = [imp(query="qa", age=G1, clicks=[click("r0", 1, 60.0)])
                for _ in range(3)]
        imps += [imp(query="qa", age=G4, clicks=()) for _ in range(3)]
        return corpus(imps)

    def test_internal_labels_follow_cascade(self):
        c = self._two_group()
        counts = count_pair_labels(c, ["qa"], seed=1, fraction=1.0)
        # satisfied G1 side vs no-click G4 side: GU gap 2.0 -> strong
        # label, a win for the (G1, M) profile (0) over (G4, M) (6) in
        # either slot, on all 9 cross pairs, each in both orders at half
        # weight; (G4, M) wins none, its losses being wins.T
        assert counts.n_pairs == QUERY_WEIGHT
        assert counts.wins[0, 6] == QUERY_WEIGHT / 2 and counts.wins[6, 0] == 0
        assert counts.wins.sum() == QUERY_WEIGHT / 2
        s = sample_pairs(c, ["qa"], seed=1, fraction=1.0, pairs_per_query=9)
        labels = label_sample(c, s, mode="internal")
        ages = [i.demographics.age for i in records(c)]
        for lab, a, b in zip(labels, s.i_idx, s.j_idx):
            want = 1 if ages[int(a)] is G1 else -1
            assert lab == want

    def test_fit_keeps_the_nonzero_labels(self):
        c = self._two_group()
        s = sample_pairs(c, ["qa"], seed=1, fraction=1.0, pairs_per_query=9)
        labels = np.array([1, -1, 0, 1, 0, 0, -1, 0, 1], dtype=np.int8)
        model = fit_pair_model(PairCounts(s.queries, len(s),
                                          pattern_counts(c, s, labels)))
        assert model.n_pairs == 5
        keep = labels != 0
        # the reference fit from pairs, zeros and all, zeros dropped, and
        # with the labels in a list
        kept = fit_pair_model_from_pairs(
            c, PairSample(s.i_idx[keep], s.j_idx[keep], s.queries),
            labels[keep])
        listed = fit_pair_model_from_pairs(c, s, labels.tolist())
        for other in (fit_pair_model_from_pairs(c, s, labels), kept, listed):
            assert other.n_pairs == 5
            for name in ("age", "gender", "interaction"):
                assert getattr(model, name).tobytes() == \
                    getattr(other, name).tobytes()
        # every pair is (G1, M) against (G4, M), in either slot
        observed = np.argwhere(~np.isnan(model.interaction)).tolist()
        assert observed == [[0, 0, 3, 0], [3, 0, 0, 0]]

    @pytest.mark.parametrize("mode", ["internal", "external"])
    def test_labels_a_large_sample_in_bounded_memory(self, mode):
        c = corpus([imp(age=list(AgeGroup)[k % 4], reformulated=k % 7 == 0,
                        results=[f"r{m}" for m in range(5)],
                        clicks=[click(f"r{m}", m + 1, 5.0 + 20.0 * (k % 3))
                                for m in range(k % 5)])
                    for k in range(40)])
        rng = np.random.default_rng(0)
        i, j = rng.integers(0, len(c), size=(2, 1_000_000), dtype=np.int32)
        assert len(i) > 15 * LABEL_BLOCK
        if mode == "internal":
            gu, reform, _, scc = metric_table(c).T
            want = label_batch_internal(gu[i], reform[i], scc[i],
                                        gu[j], reform[j], scc[j])
        else:
            want = label_batch_external(c.click_count[i], c.click_count[j])
        assert set(np.unique(want).tolist()) == {-1, 0, 1}
        labels, peak = traced_peak(label_sample, c,
                                   PairSample(i, j, ["news alpha"]),
                                   mode=mode)
        assert labels.dtype == np.int8
        np.testing.assert_array_equal(labels, want)
        # the 1 MB of labels plus one block's temporaries; labelling all
        # pairs at once would make several 8 MB float arrays
        assert peak < 8 * MB


def tied_log(rng, sizes: dict[str, int | list]) -> LogCorpus:
    """Queries of random impressions whose metrics take a few values, so
    that many pairs tie.  A size gives that many impressions of random
    profiles; a list gives one impression per listed age group."""
    imps = []
    for query, size in sizes.items():
        ages = (size if isinstance(size, list) else
                [list(AgeGroup)[k] for k in rng.integers(0, 4, size=size)])
        for age in ages:
            clicks = [click(f"r{m}", m + 1, float(rng.choice([5.0, 45.0])))
                      for m in range(int(rng.integers(0, 5)))]
            imps.append(imp(query=query, age=age,
                            gender=list(Gender)[int(rng.integers(0, 2))],
                            results=[f"r{m}" for m in range(4)],
                            clicks=clicks,
                            reformulated=bool(rng.random() < 0.2)))
    return corpus(imps)


def reference_counts(c: LogCorpus, queries, seed,
                     thresholds=DEFAULT_THRESHOLDS, mode="internal",
                     fraction=1.0, factor=Factor.AGE) -> PairCounts:
    """:func:`count_pair_labels` the brute-force way: the sampler's seeded
    query slice, then every cross-group pair of each query labelled and
    tallied one at a time."""
    chosen = sample_pairs(c, queries, seed, fraction=fraction,
                          pairs_per_query=1, factor=factor).queries
    n_pairs, wins = every_pair_counts(c, chosen, thresholds, mode, factor)
    return PairCounts(chosen, n_pairs, wins)


def assert_same_counts(got: PairCounts, want: PairCounts) -> None:
    assert got.queries == want.queries and got.n_pairs == want.n_pairs
    assert got.wins.dtype == np.float64
    np.testing.assert_array_equal(got.wins, want.wins)


class TestCountPairLabels:
    # one query of two groups, the others of random profiles, from 12 to
    # 300 impressions
    SIZES = {"q small": 12, "q two groups": [G1] * 10 + [G3] * 30,
             "q mid": 60, "q large": 300}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["internal", "external"])
    def test_counts_equal_the_whole_sample_reference(self, mode, seed):
        rng = np.random.default_rng(seed)
        c = tied_log(rng, self.SIZES)
        args = (c, list(self.SIZES), seed, DEFAULT_THRESHOLDS, mode)
        got = count_pair_labels(*args, fraction=1.0)
        assert_same_counts(got, reference_counts(*args))
        assert got.queries == sorted(self.SIZES)
        assert got.n_pairs == 4 * QUERY_WEIGHT
        assert got.wins.sum() > 0

    @pytest.mark.parametrize("factor", list(Factor))
    @pytest.mark.parametrize("mode", ["internal", "external"])
    def test_query_slices_equal_the_reference(self, mode, factor):
        rng = np.random.default_rng(17)
        queries = [f"q {n:02d}" for n in range(12)]
        c = tied_log(rng, {q: int(rng.integers(2, 30)) for q in queries})
        thresholds = PairThresholds(gu_strong=0.5, gu_weak=0.25,
                                    pcc_external=1.0)
        for seed in range(4):
            args = (c, queries, seed, thresholds, mode)
            kw = dict(fraction=0.4, factor=factor)
            got = count_pair_labels(*args, **kw)
            assert_same_counts(got, reference_counts(*args, **kw))
            assert len(got.queries) == 5

    @pytest.mark.parametrize("mode", ["internal", "external"])
    def test_counts_are_the_sampler_mean(self, mode):
        # the sampler at a quota of 300 draws with replacement from the
        # 12-impression query and without from the 40-impression one; its
        # symmetrized counts, averaged over 200 seeds and scaled to the
        # query weight, lie within 4 standard errors of the exact counts
        quota, seeds = 300, range(200)
        c = tied_log(np.random.default_rng(8), {"qa": 40, "qb": 12})
        codes = Factor.AGE.group_of(c.profile)
        n_cross = [len(cross_pairs(codes[c.query == k])[0]) for k in (0, 1)]
        assert n_cross[1] < quota < n_cross[0]
        exact = count_pair_labels(c, ["qa", "qb"], 0, mode=mode,
                                  fraction=1.0).wins
        draws = []
        for seed in seeds:
            s = sample_pairs(c, ["qa", "qb"], seed, fraction=1.0,
                             pairs_per_query=quota)
            draws.append(pattern_counts(c, s, label_sample(c, s, mode=mode))
                         * (QUERY_WEIGHT / quota))
        draws = np.array(draws)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        assert exact.sum() > 0
        assert (np.abs(mean - exact) <= 4 * se + 1e-9 * exact).all(), \
            np.abs(mean - exact).max()

    def test_errors_keep_their_order(self):
        # a clicks-only corpus, so that every check below could fire
        c = corpus([imp(query="qa", age=a, clicks=[click(dwell=math.nan)])
                    for a in (G1, G2)])
        stage = dict(queries=[], seed=0, fraction=0.0, mode="sideways")
        # every fault at once; each error names the first left, which is
        # then mended
        for error, message, mend in [
                (ConfigError, "query fraction", {"fraction": 1.0}),
                (DataError, "no eligible queries", {"queries": ["qa"]}),
                (ConfigError, "unknown labeling mode", {"mode": "internal"}),
                (DataError, "dwell fidelity", {"mode": "external"})]:
            with pytest.raises(error, match=message):
                count_pair_labels(c, **stage)
            stage.update(mend)
        assert count_pair_labels(c, **stage).n_pairs == QUERY_WEIGHT

    def test_pair_stage_holds_one_query_at_a_time(self):
        # 200 queries of 6 + 6 impressions: only the counts outlive a
        # query, so the stage peaks at one query's histogram and labels
        # with the 2,400-row metric table, far under 4 MB
        queries = [f"q {n:03d}" for n in range(200)]
        c = corpus([imp(query=q, age=(G1, G2)[k % 2],
                        clicks=[click(dwell=5.0 + 40.0 * (k % 3))] * (k % 3),
                        reformulated=k % 5 == 0)
                    for q in queries for k in range(12)])
        counts, peak = traced_peak(count_pair_labels, c, queries, seed=5,
                                   fraction=1.0)
        assert counts.n_pairs == 200 * QUERY_WEIGHT
        assert counts.wins.sum() > 0
        assert peak < 4 * MB

    def test_many_states_are_labelled_in_blocks(self):
        # 400 impressions, each with its own successful click count, so
        # 400 states and 160,000 state pairs: labelled at once they peak
        # at about 5 MB; in blocks the stage peaks near 1.2 MB
        c = corpus([imp(f"i{k:03d}", query="qa", age=(G1, G4)[k % 2],
                        results=["r0"],
                        clicks=[click("r0", 1, 60.0)] * k)
                    for k in range(400)])
        assert len(np.unique(metric_table(c)[:, 3])) == 400
        counts, peak = traced_peak(count_pair_labels, c, ["qa"], seed=0,
                                   fraction=1.0)
        assert_same_counts(counts, reference_counts(c, ["qa"], 0))
        assert peak < 4 * MB


def profile_corpus() -> LogCorpus:
    """One impression per (age, gender) profile; the row of the profile
    with codes (a, g) is ``a * 2 + g``."""
    return corpus([imp(query="qa", age=a, gender=g)
                   for a, g in itertools.product(AgeGroup, Gender)])


def fit_profiles(age_i, gender_i, age_j, gender_j, label, **kw):
    """The pair model of labelled pairs with these slot codes."""
    def rows(age, gender):
        return (np.asarray(age) * 2 + np.asarray(gender)).astype(np.int32)

    sample = PairSample(rows(age_i, gender_i), rows(age_j, gender_j), ["qa"])
    counts = PairCounts(["qa"], len(sample),
                        pattern_counts(profile_corpus(), sample, label))
    return fit_pair_model(counts, **kw)


def one_pattern_model(n_win: int, n_loss: int, **kw):
    """(G4, M) against (G1, M), slot i winning `n_win` times."""
    n = n_win + n_loss
    return fit_profiles(np.full(n, 3), np.zeros(n), np.zeros(n), np.zeros(n),
                        np.array([1] * n_win + [-1] * n_loss, dtype=np.int8),
                        **kw)


def mixed_model():
    rng = np.random.default_rng(31)
    n = 400
    age_i = rng.integers(0, 4, n).astype(np.intp)
    age_j = rng.integers(0, 4, n).astype(np.intp)
    gender_i = rng.integers(0, 2, n).astype(np.intp)
    gender_j = rng.integers(0, 2, n).astype(np.intp)
    logits = 0.8 * (age_i == 3) - 0.8 * (age_j == 3)
    label = np.where(rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits)),
                     1, -1).astype(np.int8)
    return fit_profiles(age_i, gender_i, age_j, gender_j, label)


class TestPairModel:
    def test_profile_corpus_rows_are_profile_codes(self):
        c = profile_corpus()
        np.testing.assert_array_equal(c.age * 2 + c.gender, np.arange(8))

    def test_validation(self):
        with pytest.raises(ConfigError, match="prior variance"):
            one_pattern_model(5, 5, prior_variance=0.0)
        with pytest.raises(InsufficientSignalError, match="abstained"):
            fit_profiles([], [], [], [], np.empty(0, dtype=np.int8))
        with pytest.raises(InsufficientSignalError, match="abstained"):
            fit_profiles([3, 2], [0, 1], [0, 0], [1, 0], [0, 0])

    def test_recovers_win_rate(self):
        model = one_pattern_model(70, 30, prior_variance=100.0)
        p = probability_grid(model)[3, 0, 0, 0]      # (G4, M) vs (G1, M)
        assert p == pytest.approx(0.7, abs=0.02)
        assert model.n_pairs == 100

    def test_stronger_signal_moves_probability_further(self):
        p70 = probability_grid(
            one_pattern_model(70, 30, prior_variance=100.0))[3, 0, 0, 0]
        p90 = probability_grid(
            one_pattern_model(90, 10, prior_variance=100.0))[3, 0, 0, 0]
        assert 0.5 < p70 < p90

    def test_stored_coefficients_are_antisymmetric(self):
        model = mixed_model()
        d = model.to_dict()
        for side in ("age", "gender"):
            assert d[f"{side}_j"] == {k: -v for k, v in d[f"{side}_i"].items()}
        inter = model.interaction
        assert inter.shape == (4, 2, 4, 2)
        # NaN (a pattern never observed) sits opposite NaN
        np.testing.assert_array_equal(inter, -inter.transpose(2, 3, 0, 1))
        assert not np.isnan(inter).any()      # 400 pairs cover all 64

    def test_unobserved_patterns_are_nan_and_the_diagonal_is_negative_zero(
            self):
        model = one_pattern_model(70, 30)
        observed = ~np.isnan(model.interaction)
        assert np.argwhere(observed).tolist() == [[0, 0, 3, 0], [3, 0, 0, 0]]
        d = fit_profiles([0] * 4, [0] * 4, [0] * 4, [0] * 4,
                         np.array([1, -1, 1, 1], dtype=np.int8)).to_dict()
        assert list(d["interaction"]) == ["G1|M|G1|M"]
        assert str(d["interaction"]["G1|M|G1|M"]) == "-0.0"

    def test_slot_profiles_key_the_interaction(self):
        # (G2, F) against (G3, M) and its mirror, nothing else
        model = fit_profiles([1, 1], [1, 1], [2, 2], [0, 0], [1, -1])
        observed = np.argwhere(~np.isnan(model.interaction)).tolist()
        assert observed == [[1, 1, 2, 0], [2, 0, 1, 1]]

    def test_probability_grid_equals_the_scalar_oracle(self, null_data):
        null_corpus, _ = null_data
        null_model = run_audit(null_corpus, AuditConfig(
            methods="pairwise", default_thresholds=True,
            seed=20240601)).models["pairwise"]
        for model in (mixed_model(), one_pattern_model(70, 30), null_model):
            grid = probability_grid(model)
            assert grid.shape == (4, 2, 4, 2) and grid.dtype == np.float64
            want = np.array([predict_pair_prob(model, a, g, b, h)
                             for a, g, b, h in itertools.product(
                                 AgeGroup, Gender, AgeGroup, Gender)])
            assert grid.tobytes() == want.tobytes()

    def test_complement_is_exact_for_all_slot_combinations(self):
        for model in (mixed_model(), one_pattern_model(70, 30)):
            p = probability_grid(model)
            assert (p + p.transpose(2, 3, 0, 1) == 1.0).all()
            assert ((0.0 < p) & (p < 1.0)).all()

    def test_same_slot_demographics_is_a_coin_flip(self):
        for model in (mixed_model(), one_pattern_model(70, 30)):
            p = probability_grid(model)
            same = p[np.arange(4)[:, None], np.arange(2),
                     np.arange(4)[:, None], np.arange(2)]
            assert same.shape == (4, 2)
            assert (same == 0.5).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_from_counts_is_the_fit_from_pairs(self, seed):
        rng = np.random.default_rng(seed)
        c = tied_log(rng, {"qa": 40, "qb": 25, "qc": 9})
        s = sample_pairs(c, ["qa", "qb", "qc"], seed, fraction=1.0,
                         pairs_per_query=150)
        labels = label_sample(c, s)
        samples = [(c, s, labels)]
        # random labels over every profile pattern, the diagonal included
        pc = profile_corpus()
        i, j = rng.integers(0, 8, size=(2, 500)).astype(np.int32)
        samples.append((pc, PairSample(i, j, ["qa"]),
                        rng.integers(-1, 2, size=500).astype(np.int8)))
        for c, s, labels in samples:
            counts = PairCounts(s.queries, len(s),
                                pattern_counts(c, s, labels))
            for prior_variance in (1.0, 0.25):
                got = fit_pair_model(counts, prior_variance)
                want = fit_pair_model_from_pairs(c, s, labels,
                                                 prior_variance)
                for name in ("age", "gender", "interaction"):
                    assert getattr(got, name).tobytes() == \
                        getattr(want, name).tobytes()
                assert got.convergence == want.convergence
                assert got.to_dict() == want.to_dict()

    def test_serialization_keys(self):
        model = mixed_model()
        d = model.to_dict()
        assert set(d) == {"age_i", "age_j", "gender_i", "gender_j",
                          "interaction", "prior_variance", "n_pairs"}
        assert set(d["age_i"]) == {"G1", "G2", "G3", "G4"}
        assert set(d["gender_i"]) == {"M", "F"}
        for key in d["interaction"]:
            parts = key.split("|")
            assert len(parts) == 4
            assert parts[0] in {"G1", "G2", "G3", "G4"}
            assert parts[1] in {"M", "F"}
