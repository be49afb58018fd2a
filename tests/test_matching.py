"""The five-stage context-matching funnel and its helpers."""

from __future__ import annotations

import numpy as np
import pytest

from corpus_builders import click, corpus, imp
from sataudit import matching
from sataudit.aggregate import Factor, normalize
from sataudit.errors import DataError
from sataudit.logmodel import Gender
from sataudit.matching import (MatchConfig, final_successful_click,
                               match_contexts, matched_raw_scores,
                               navigational_queries_proxy, serp_signature)
from sataudit.metrics import METRICS, MetricKind, metric_table

STAGES = ["input", "navigational", "min_impressions", "final_click", "serp",
          "min_impressions_recheck"]


class TestFinalSuccessfulClick:
    def test_last_long_dwell_click_wins(self):
        i = imp(clicks=[click("r0", 1, 60.0), click("r1", 2, 45.0),
                        click("r2", 3, 2.0)])
        assert final_successful_click(i) == "r1"

    def test_none_when_no_click_crosses_threshold(self):
        assert final_successful_click(imp(clicks=[click(dwell=5.0)])) is None
        assert final_successful_click(imp(clicks=[])) is None

    def test_nan_dwell_clicks_are_ignored(self):
        i = imp(clicks=[click("r0", 1, 60.0),
                        click("r1", 2, float("nan"))])
        assert final_successful_click(i) == "r0"


def test_dominant_result_counts_and_tie_break():
    # stage 3's dominant result: the most common final successful click
    def dominant_result(imps):
        finals = (final_successful_click(i) for i in imps)
        return matching._most_common(f for f in finals if f is not None)

    imps = [imp(clicks=[click("r0", 1, 60.0)]) for _ in range(2)]
    imps += [imp(clicks=[click("r1", 2, 60.0)]) for _ in range(2)]
    assert dominant_result(imps) == "r0"   # tie -> lexicographically first
    imps += [imp(clicks=[click("r1", 2, 60.0)])]
    assert dominant_result(imps) == "r1"
    assert dominant_result([imp(clicks=[])]) is None


class TestColumnForms:
    def _corpus(self):
        pages = [("r0", "r1", "r2"), ("r1", "r0", "r2"),
                 ("r0", "r1", "r2", "r3"), ("r2", "r1", "r0")]
        shapes = [[click("r0", 1, 60.0), click("r1", 2, 45.0),
                   click("r2", 3, 2.0)],
                  [click("r0", 1, 60.0), click("r1", 2, float("nan"))],
                  [], [click("r1", 2, 31.0)], [click("r0", 1, 30.0)]]
        return corpus(imp(results=pages[k % 4], clicks=[
            click(c.result_id, pages[k % 4].index(c.result_id) + 1,
                  c.dwell_seconds) for c in shapes[k % 5]])
            for k in range(20))

    @pytest.mark.parametrize("threshold", [30.0, 40.0, 50.0])
    def test_final_click_column_equals_the_scalar_oracle(self, threshold):
        c = self._corpus()
        final = matching._final_clicks(c, threshold)
        result_ids = c.columns.result_ids
        assert [None if f < 0 else result_ids[f] for f in final.tolist()] \
            == [final_successful_click(i, threshold) for i in c.impressions]
        assert matching._final_clicks(c, threshold) is final
        assert not final.flags.writeable

    @pytest.mark.parametrize("prefix_len", [8, 2, 0, -1])
    def test_page_signatures_equal_the_scalar_oracle(self, prefix_len,
                                                     monkeypatch):
        c = self._corpus()
        hashed = []

        def counting(results, n):
            hashed.append(tuple(results[:n]))
            return serp_signature(results, n)

        monkeypatch.setattr(matching, "serp_signature", counting)
        rows = [k for k in range(len(c)) if k % 3]
        got = matching._page_signatures(c.columns, rows, prefix_len)
        assert got == [serp_signature(c.impressions[k].results, prefix_len)
                       for k in rows]
        # one hash per distinct prefix
        assert len(hashed) == len(set(hashed))


class TestSerpSignature:
    def test_same_prefix_same_signature(self):
        a = [f"r{i}" for i in range(10)]
        b = a[:8] + ["x8", "x9"]
        assert serp_signature(a) == serp_signature(b)

    def test_order_matters(self):
        a = ["r0", "r1", "r2"]
        b = ["r1", "r0", "r2"]
        assert serp_signature(a) != serp_signature(b)

    def test_shorter_prefix_is_a_different_signature(self):
        a = [f"r{i}" for i in range(10)]
        assert serp_signature(a, 3) != serp_signature(a, 8)


def test_navigational_proxy_uses_final_click_concentration():
    imps = []
    # concentrated: 9 of 10 finals on r0
    for k in range(10):
        rid = "r0" if k < 9 else "r1"
        imps.append(imp(query="brand a", clicks=[click(rid, 1, 60.0)]))
    # split 50/50
    for k in range(10):
        rid = "r0" if k % 2 == 0 else "r1"
        imps.append(imp(query="torso q", clicks=[click(rid, 1, 60.0)]))
    # no successful clicks at all
    imps.append(imp(query="dead q", clicks=[click(dwell=2.0)]))
    nav = navigational_queries_proxy(corpus(imps), MatchConfig())
    assert nav == {"brand a"}


class TestMatchContexts:
    CFG = MatchConfig(min_impressions_per_group=2)

    def _pipeline_corpus(self):
        imps = []
        # "brand a": survives end to end, 3 per gender; one extra male
        # impression whose final click misses the dominant result
        for g in (Gender.MALE, Gender.FEMALE):
            for k in range(3):
                imps.append(imp(query="brand a", gender=g,
                                clicks=[click("r0", 1, 60.0)]))
        imps.append(imp(query="brand a", gender=Gender.MALE,
                        clicks=[click("r1", 2, 60.0)]))
        # "brand b": one gender only -> dies at the representation floor
        imps += [imp(query="brand b", gender=Gender.MALE,
                     clicks=[click("r0", 1, 60.0)]) for _ in range(3)]
        # "torso c": not navigational -> dies at stage one
        imps += [imp(query="torso c", gender=g, clicks=[click("r0", 1, 60.0)])
                 for g in (Gender.MALE, Gender.FEMALE)]
        # "brand d": the SERP filter drops one male, pushing males under
        # the floor, so the recheck removes the whole query
        for g in (Gender.MALE, Gender.FEMALE):
            for k in range(2):
                results = ("r0", "r1", "r2")
                if g is Gender.MALE and k == 1:
                    results = ("r1", "r0", "r2")
                imps.append(imp(query="brand d", gender=g, results=results,
                                clicks=[click("r0", results.index("r0") + 1,
                                              60.0)]))
        return corpus(imps), {"brand a", "brand b", "brand d"}

    def test_stage_names_and_attrition(self):
        c, nav = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, self.CFG, navigational=nav)
        assert [s.stage for s in cohort.attrition] == STAGES
        by_stage = {s.stage: s for s in cohort.attrition}
        assert by_stage["input"].impressions == 16
        assert by_stage["input"].queries == 4
        assert by_stage["navigational"].impressions == 14   # drops torso c
        assert by_stage["min_impressions"].impressions == 11  # drops brand b
        assert by_stage["final_click"].impressions == 10    # drops r1 clicker
        assert by_stage["serp"].impressions == 9            # drops odd serp
        assert by_stage["min_impressions_recheck"].impressions == 6
        assert set(cohort.by_query) == {"brand a"}
        counts = [s.impressions for s in cohort.attrition]
        assert counts == sorted(counts, reverse=True)

    def test_cohort_holds_rows_of_the_input_corpus(self):
        c, nav = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, self.CFG, navigational=nav)
        assert cohort.corpus is c
        # the six r0 clickers of "brand a", in corpus order
        assert cohort.by_query == {"brand a": [0, 1, 2, 3, 4, 5]}

    def test_matched_scores_read_the_parent_metric_table(self, monkeypatch):
        c, nav = self._pipeline_corpus()
        table = metric_table(c, 30.0)
        cohort = match_contexts(c, Factor.GENDER, self.CFG, navigational=nav)

        def no_rescoring(*args, **kwargs):
            raise AssertionError("the cohort was scored again")

        monkeypatch.setattr("sataudit.metrics._build_metric_table",
                            no_rescoring)
        raw = matched_raw_scores(cohort, 30.0)
        rows = cohort.by_query["brand a"]
        for k, kind in enumerate(METRICS):
            for g in (Gender.MALE, Gender.FEMALE):
                mine = [r for r in rows if c.impressions[r].demographics.gender
                        is g]
                assert raw.raw[kind][g] == np.mean(table[mine, k])

    def test_proxy_path_builds_the_final_click_column_once(self,
                                                             monkeypatch):
        c, _ = self._pipeline_corpus()
        builds = []
        build = matching._final_click_column

        def counting(cols, dwell_threshold_s):
            builds.append(dwell_threshold_s)
            return build(cols, dwell_threshold_s)

        monkeypatch.setattr(matching, "_final_click_column", counting)
        proxy = match_contexts(c, Factor.GENDER, self.CFG)
        assert builds == [30.0]
        nav = navigational_queries_proxy(c, self.CFG)
        explicit = match_contexts(c, Factor.GENDER, self.CFG,
                                  navigational=nav)
        assert builds == [30.0]
        assert explicit.attrition == proxy.attrition
        assert explicit.by_query == proxy.by_query

    def test_proxy_used_when_no_explicit_set(self):
        c, _ = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, self.CFG)
        # every query here concentrates final clicks on one result, so
        # the proxy admits all four; the floor then drops the thin ones
        assert cohort.attrition[1].stage == "navigational"
        assert cohort.attrition[1].queries == 4
        assert cohort.attrition[1].impressions == 16
        assert set(cohort.by_query) == {"brand a"}

    def test_matched_scores_on_the_surviving_cohort(self):
        c, nav = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, self.CFG, navigational=nav)
        norm = normalize(matched_raw_scores(cohort, 30.0))
        # survivors all have one successful click and no reformulation:
        # identical groups, so every metric is degenerate
        assert norm.degenerate == set(norm.scores)
        raw = {g: s.raw for g, s in
               norm.scores[MetricKind.GRADED_UTILITY].items()}
        assert raw == {Gender.MALE: 1.0, Gender.FEMALE: 1.0}

    def test_reference_bounds_flow_through(self):
        c, nav = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, self.CFG, navigational=nav)
        raw = matched_raw_scores(cohort, 30.0)
        ref = {m: (0.0, 2.0) for m in normalize(raw).scores}
        norm = normalize(raw, reference=ref)
        gu = norm.scores[MetricKind.GRADED_UTILITY]
        assert gu[Gender.MALE].normalized == 0.5   # raw 1.0 on a (0, 2) scale

    def test_empty_cohort_raises(self):
        c, _ = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, self.CFG,
                                navigational={"no such query"})
        with pytest.raises(DataError, match="matched cohort is empty"):
            matched_raw_scores(cohort, 30.0)

    def test_floor_below_one_rejected(self):
        c, _ = self._pipeline_corpus()
        with pytest.raises(DataError, match="min_impressions_per_group"):
            match_contexts(c, Factor.GENDER,
                           MatchConfig(min_impressions_per_group=0))
