"""Pairwise labeling cascade, pair sampling, and the preference model."""

from __future__ import annotations

import numpy as np
import pytest

from corpus_builders import click, corpus, imp, records
from oracles import MetricVector
from sataudit.aggregate import Factor
from sataudit.errors import ConfigError, DataError, InsufficientSignalError
from sataudit.logmodel import AgeGroup, Gender
from sataudit.metrics import MetricKind
from sataudit.pairwise import (DEFAULT_THRESHOLDS, LabeledPairSet, PairThresholds,
                               build_labeled_pairs, derive_thresholds_from_deltas,
                               eligible_queries, fit_pair_model,
                               label_batch_external, label_batch_internal,
                               label_sample, predict_pair_prob,
                               probability_grid, sample_pairs)

G1, G2, G3, G4 = AgeGroup
M, F = Gender


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

    def test_external_threshold(self):
        t = derive_thresholds_from_deltas(
            {MetricKind.PAGE_CLICK_COUNT: 1.0}, k=2.5)
        assert t.pcc_external == 3

    def test_missing_deltas_fall_back_to_defaults(self):
        t = derive_thresholds_from_deltas({}, k=3.0)
        assert t.gu_strong == DEFAULT_THRESHOLDS.gu_strong
        assert t.scc_strong == DEFAULT_THRESHOLDS.scc_strong
        assert t.pcc_external == DEFAULT_THRESHOLDS.pcc_external
        assert t.k == 3.0

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
        assert eligible_queries(c, Factor.GENDER, min_groups=2,
                                min_impressions=11) == []


class TestSamplePairs:
    def _small(self):
        imps = [imp(query="qa", age=G1) for _ in range(3)]
        imps += [imp(query="qa", age=G2) for _ in range(2)]
        return corpus(imps)

    def test_validation(self):
        c = self._small()
        with pytest.raises(ConfigError, match="fraction"):
            sample_pairs(c, ["qa"], seed=1, fraction=0.0)
        with pytest.raises(ConfigError, match="fraction"):
            sample_pairs(c, ["qa"], seed=1, fraction=1.5)
        with pytest.raises(ConfigError, match="pairs_per_query"):
            sample_pairs(c, ["qa"], seed=1, pairs_per_query=0)
        with pytest.raises(DataError, match="no eligible queries"):
            sample_pairs(c, [], seed=1)

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

    def test_single_group_queries_yield_no_pairs(self):
        c = corpus([imp(query="solo q", age=G2) for _ in range(8)])
        s = sample_pairs(c, ["solo q"], seed=3, fraction=1.0)
        assert len(s) == 0


class TestLabelSample:
    def test_unknown_mode_rejected(self):
        c = self._two_group()
        s = sample_pairs(c, ["qa"], seed=1, fraction=1.0, pairs_per_query=4)
        with pytest.raises(ConfigError, match="labeling mode"):
            label_sample(c, s, mode="sideways")

    def test_internal_needs_dwell_fidelity(self):
        imps = [imp(query="qa", age=G1,
                    clicks=[click(dwell=float("nan"))]) for _ in range(2)]
        imps += [imp(query="qa", age=G2,
                     clicks=[click(dwell=float("nan"))]) for _ in range(2)]
        c = corpus(imps)
        s = sample_pairs(c, ["qa"], seed=1, fraction=1.0, pairs_per_query=4)
        with pytest.raises(DataError, match="dwell"):
            label_sample(c, s, mode="internal")
        assert label_sample(c, s, mode="external").tolist() == [0, 0, 0, 0]

    def _two_group(self):
        imps = [imp(query="qa", age=G1, clicks=[click("r0", 1, 60.0)])
                for _ in range(3)]
        imps += [imp(query="qa", age=G4, clicks=()) for _ in range(3)]
        return corpus(imps)

    def test_internal_labels_follow_cascade(self):
        c = self._two_group()
        s = sample_pairs(c, ["qa"], seed=1, fraction=1.0, pairs_per_query=9)
        labels = label_sample(c, s, mode="internal")
        ages = [i.demographics.age for i in records(c)]
        # satisfied G1 side vs no-click G4 side: GU gap 2.0 -> strong label
        for lab, a, b in zip(labels, s.i_idx, s.j_idx):
            want = 1 if ages[int(a)] is G1 else -1
            assert lab == want

    def test_build_labeled_pairs_keeps_nonzero(self):
        c = self._two_group()
        s = sample_pairs(c, ["qa"], seed=1, fraction=1.0, pairs_per_query=9)
        labels = np.array([1, -1, 0, 1, 0, 0, -1, 0, 1], dtype=np.int8)
        pairs = build_labeled_pairs(c, s, labels)
        assert len(pairs) == 5
        assert set(np.unique(pairs.label)) == {-1, 1}
        ages = np.array([int(i.demographics.age) - 1 for i in records(c)])
        keep = labels != 0
        np.testing.assert_array_equal(pairs.age_i, ages[s.i_idx[keep]])
        np.testing.assert_array_equal(pairs.age_j, ages[s.j_idx[keep]])


def one_pattern_pairs(n_win: int, n_loss: int) -> LabeledPairSet:
    n = n_win + n_loss
    return LabeledPairSet(
        age_i=np.full(n, 3, dtype=np.intp),
        gender_i=np.zeros(n, dtype=np.intp),
        age_j=np.zeros(n, dtype=np.intp),
        gender_j=np.zeros(n, dtype=np.intp),
        label=np.array([1] * n_win + [-1] * n_loss, dtype=np.int8))


class TestPairModel:
    def test_validation(self):
        with pytest.raises(ConfigError, match="prior variance"):
            fit_pair_model(one_pattern_pairs(5, 5), prior_variance=0.0)
        empty = LabeledPairSet(*(np.empty(0, dtype=np.intp),) * 4,
                               label=np.empty(0, dtype=np.int8))
        with pytest.raises(InsufficientSignalError, match="abstained"):
            fit_pair_model(empty)

    def test_recovers_win_rate(self):
        model = fit_pair_model(one_pattern_pairs(70, 30), prior_variance=100.0)
        p = predict_pair_prob(model, G4, M, G1, M)
        assert p == pytest.approx(0.7, abs=0.02)
        assert model.n_pairs == 100

    def test_stronger_signal_moves_probability_further(self):
        p70 = predict_pair_prob(
            fit_pair_model(one_pattern_pairs(70, 30), prior_variance=100.0),
            G4, M, G1, M)
        p90 = predict_pair_prob(
            fit_pair_model(one_pattern_pairs(90, 10), prior_variance=100.0),
            G4, M, G1, M)
        assert 0.5 < p70 < p90

    def _mixed_model(self):
        rng = np.random.default_rng(31)
        n = 400
        age_i = rng.integers(0, 4, n).astype(np.intp)
        age_j = rng.integers(0, 4, n).astype(np.intp)
        gender_i = rng.integers(0, 2, n).astype(np.intp)
        gender_j = rng.integers(0, 2, n).astype(np.intp)
        logits = 0.8 * (age_i == 3) - 0.8 * (age_j == 3)
        label = np.where(rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits)),
                         1, -1).astype(np.int8)
        return fit_pair_model(LabeledPairSet(age_i=age_i, gender_i=gender_i,
                                             age_j=age_j, gender_j=gender_j,
                                             label=label))

    def test_stored_coefficients_are_antisymmetric(self):
        model = self._mixed_model()
        assert model.mu0 == 0.0
        for a in AgeGroup:
            assert model.age_i[a] == -model.age_j[a]
        for g in Gender:
            assert model.gender_i[g] == -model.gender_j[g]
        for (a, g, b, h), v in model.interaction.items():
            assert model.interaction[(b, h, a, g)] == -v

    def test_complement_is_exact_for_all_slot_combinations(self):
        model = self._mixed_model()
        for a in AgeGroup:
            for g in Gender:
                for b in AgeGroup:
                    for h in Gender:
                        p = predict_pair_prob(model, a, g, b, h)
                        q = predict_pair_prob(model, b, h, a, g)
                        assert p + q == 1.0
                        assert 0.0 < p < 1.0

    def test_same_slot_demographics_is_a_coin_flip(self):
        model = self._mixed_model()
        for a in AgeGroup:
            for g in Gender:
                assert predict_pair_prob(model, a, g, a, g) == 0.5

    def test_probability_grid_matches_pointwise_predictions(self):
        model = self._mixed_model()
        grid = probability_grid(model)
        assert set(grid) == set(AgeGroup)
        for a in AgeGroup:
            assert set(grid[a]) == set(AgeGroup)
            for b in AgeGroup:
                assert grid[a][b] == predict_pair_prob(model, a, M, b, F)

    def test_serialization_keys(self):
        model = self._mixed_model()
        d = model.to_dict()
        assert set(d) == {"mu0", "age_i", "age_j", "gender_i", "gender_j",
                          "interaction", "prior_variance", "n_pairs"}
        assert set(d["age_i"]) == {"G1", "G2", "G3", "G4"}
        assert set(d["gender_i"]) == {"M", "F"}
        for key in d["interaction"]:
            parts = key.split("|")
            assert len(parts) == 4
            assert parts[0] in {"G1", "G2", "G3", "G4"}
            assert parts[1] in {"M", "F"}
