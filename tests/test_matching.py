"""The five-stage context-matching funnel and its helpers."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from corpus_builders import click, corpus, imp, records
from oracles import final_successful_click
from sataudit import matching, synth
from sataudit.aggregate import Factor, group_spans, query_averaged_scores
from sataudit.audit import AuditConfig, run_audit
from sataudit.errors import DataError
from sataudit.logmodel import Gender
from sataudit.matching import (match_contexts, matched_raw_scores,
                               navigational_queries_proxy)
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
        c = corpus(imps)
        final = c.derived("final_click", matching._final_click_column, 30.0)
        dominant = {c.result_ids[f] for f in
                    final[matching._modal(final >= 0, c.query, final)]}
        assert len(dominant) <= 1
        return dominant.pop() if dominant else None

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
        final = c.derived("final_click", matching._final_click_column,
                          threshold)
        result_ids = c.result_ids
        assert [None if f < 0 else result_ids[f] for f in final.tolist()] \
            == [final_successful_click(i, threshold) for i in records(c)]
        assert c.derived("final_click", matching._final_click_column,
                         threshold) is final
        assert not final.flags.writeable

    @pytest.mark.parametrize("prefix_len", [8, 2, 1])
    def test_page_ranks_equal_the_tuple_oracle(self, prefix_len):
        c = self._corpus()
        rows = np.array([k for k in range(len(c)) if k % 3])
        got = matching._page_ranks(c, rows, prefix_len)
        pages = [tuple(i.results[:prefix_len]) for i in records(c)]
        want = [pages[k] for k in rows]
        assert got.tolist() == [sorted(set(want)).index(w) for w in want]

    def test_page_ranks_of_no_rows(self):
        got = matching._page_ranks(self._corpus(), np.array([], dtype=int), 8)
        assert got.tolist() == []

    @pytest.mark.parametrize("prefix_len", [0, -1])
    def test_prefix_below_one_rejected(self, prefix_len):
        with pytest.raises(DataError, match="serp_prefix must be >= 1"):
            match_contexts(self._corpus(), Factor.GENDER,
                           serp_prefix=prefix_len)


class TestPageRanks:
    @staticmethod
    def _ranks(pages, prefix_len=8):
        c = corpus(imp(results=page) for page in pages)
        return matching._page_ranks(c, np.arange(len(c)), prefix_len).tolist()

    def test_same_prefix_same_rank(self):
        a = [f"r{i}" for i in range(10)]
        b = a[:8] + ["x8", "x9"]
        assert self._ranks([a, b]) == [0, 0]

    def test_order_matters(self):
        assert self._ranks([["r1", "r0", "r2"], ["r0", "r1", "r2"]]) == [1, 0]

    def test_short_page_ranks_before_a_longer_page_it_begins(self):
        a = [f"r{i}" for i in range(10)]
        assert self._ranks([a, a[:3], a[:2] + ["r9"]]) == [1, 0, 2]
        assert self._ranks([a, a[:3]], prefix_len=3) == [0, 0]


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
    nav = navigational_queries_proxy(corpus(imps))
    assert nav == {"brand a"}


@pytest.mark.parametrize("seed", range(6))
def test_proxy_equals_the_pair_tally_on_tied_counts(seed):
    # few queries and results and many finals, so counts tie often; a
    # share of 0.5 admits a query whose two top results tie
    rng = np.random.default_rng(seed)
    imps = [imp(query=f"q{rng.integers(4)}", results=("r0", "r1", "r2"),
                clicks=[click(f"r{r}", r + 1, float(rng.choice([5.0, 60.0])))
                        for r in rng.integers(3, size=rng.integers(3))])
            for _ in range(60)]
    c = corpus(imps)
    for share in (0.25, 0.5, 0.6, 1.0):
        assert navigational_queries_proxy(c, share) == \
            oracles.navigational_queries_proxy(c, share)


class TestMatchContexts:
    FLOOR = 2

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
        cohort = match_contexts(c, Factor.GENDER, nav,
                                min_impressions=self.FLOOR)
        assert [s.stage for s in cohort.attrition] == STAGES
        by_stage = {s.stage: s for s in cohort.attrition}
        assert by_stage["input"].impressions == 16
        assert by_stage["input"].queries == 4
        assert by_stage["navigational"].impressions == 14   # drops torso c
        assert by_stage["min_impressions"].impressions == 11  # drops brand b
        assert by_stage["final_click"].impressions == 10    # drops r1 clicker
        assert by_stage["serp"].impressions == 9            # drops odd serp
        assert by_stage["min_impressions_recheck"].impressions == 6
        assert {c.queries[q] for q in c.query[cohort.rows]} == {"brand a"}
        counts = [s.impressions for s in cohort.attrition]
        assert counts == sorted(counts, reverse=True)

    def test_cohort_holds_rows_of_the_input_corpus(self):
        c, nav = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, nav,
                                min_impressions=self.FLOOR)
        assert cohort.corpus is c
        # the six r0 clickers of "brand a", in corpus order
        assert cohort.rows.tolist() == [0, 1, 2, 3, 4, 5]
        assert {c.queries[q] for q in c.query[cohort.rows]} == {"brand a"}

    def test_matched_scores_read_the_parent_metric_table(self, monkeypatch):
        c, nav = self._pipeline_corpus()
        table = metric_table(c, 30.0)
        cohort = match_contexts(c, Factor.GENDER, nav,
                                min_impressions=self.FLOOR)

        def no_rescoring(*args, **kwargs):
            raise AssertionError("the cohort was scored again")

        monkeypatch.setattr("sataudit.metrics._build_metric_table",
                            no_rescoring)
        raw = matched_raw_scores(cohort, 30.0)
        recs = records(c)
        for k in range(len(METRICS)):
            for g in (Gender.MALE, Gender.FEMALE):
                mine = [r for r in cohort.rows
                        if recs[r].demographics.gender is g]
                assert raw.raw[k, raw.groups.index(g)] == \
                    np.mean(table[mine, k])

    def test_proxy_path_builds_the_final_click_column_once(self,
                                                             monkeypatch):
        c, _ = self._pipeline_corpus()
        builds = []
        build = matching._final_click_column

        def counting(cols, dwell_threshold_s):
            builds.append(dwell_threshold_s)
            return build(cols, dwell_threshold_s)

        monkeypatch.setattr(matching, "_final_click_column", counting)
        proxy = match_contexts(c, Factor.GENDER,
                               min_impressions=self.FLOOR)
        assert builds == [30.0]
        nav = navigational_queries_proxy(c)
        explicit = match_contexts(c, Factor.GENDER, nav,
                                  min_impressions=self.FLOOR)
        assert builds == [30.0]
        assert explicit.attrition == proxy.attrition
        assert explicit.rows.tolist() == proxy.rows.tolist()

    def test_proxy_used_when_no_explicit_set(self):
        c, _ = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER,
                                min_impressions=self.FLOOR)
        # every query here concentrates final clicks on one result, so
        # the proxy admits all four; the floor then drops the thin ones
        assert cohort.attrition[1].stage == "navigational"
        assert cohort.attrition[1].queries == 4
        assert cohort.attrition[1].impressions == 16
        assert {c.queries[q] for q in c.query[cohort.rows]} == {"brand a"}

    def test_matched_scores_on_the_surviving_cohort(self):
        c, nav = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, nav,
                                min_impressions=self.FLOOR)
        scores = matched_raw_scores(cohort, 30.0)
        span, _, distinguishable = group_spans(scores)
        # survivors all have one successful click and no reformulation:
        # identical groups, so no metric spans anything
        assert span.tolist() == [0.0] * len(METRICS)
        assert not distinguishable.any()
        raw = dict(zip(scores.groups, scores.raw[METRICS.index(
            MetricKind.GRADED_UTILITY)].tolist()))
        assert raw == {Gender.MALE: 1.0, Gender.FEMALE: 1.0}

    def test_empty_cohort_raises(self):
        c, _ = self._pipeline_corpus()
        cohort = match_contexts(c, Factor.GENDER, {"no such query"},
                                min_impressions=self.FLOOR)
        with pytest.raises(DataError, match="matched cohort is empty"):
            matched_raw_scores(cohort, 30.0)

    def test_floor_below_one_rejected(self):
        c, _ = self._pipeline_corpus()
        with pytest.raises(DataError, match="min_impressions must be >= 1"):
            match_contexts(c, Factor.GENDER, min_impressions=0)


class TestTiesGoToTheSmallerText:
    """A tie goes to the smaller result id or result-id sequence, which
    need not be the one the log shows first."""

    def _check(self, imps, want):
        c = corpus(imps)
        cohort = match_contexts(c, Factor.GENDER, {"brand t"},
                                min_impressions=1)
        assert cohort.rows.tolist() == want
        by_query, attrition = oracles.match_contexts(
            c, Factor.GENDER, {"brand t"}, min_impressions=1)
        assert by_query == {"brand t": want}
        assert cohort.attrition == attrition

    def test_dominant_result(self):
        # "r9" takes the smaller code, but "r10" is the smaller text
        page = ("r9", "r10")
        self._check([imp(query="brand t", gender=g, results=page,
                         clicks=[click(r, page.index(r) + 1, 60.0)])
                     for r in page for g in Gender], [2, 3])

    def _pages(self, pages, want):
        self._check([imp(query="brand t", gender=g, results=page,
                         clicks=[click("r0", 1, 60.0)])
                     for page in pages for g in Gender], want)

    def test_modal_page(self):
        # the larger page comes first
        self._pages([["r0", "r2", "r1"], ["r0", "r1", "r2"]], [2, 3])

    def test_short_modal_page(self):
        # a short page is smaller than a longer page it begins
        self._pages([["r0", "r1", "r2"], ["r0", "r1"]], [2, 3])


@pytest.fixture(scope="module")
def presets():
    return {name: synth.generate(make(n_impressions=6000, seed=3))
            for name, make in synth.PRESETS.items()}


@pytest.mark.parametrize("preset", sorted(synth.PRESETS))
def test_proxy_equals_the_pair_tally_on_presets(presets, preset):
    c, _ = presets[preset]
    for share in (0.5, matching.DEFAULT_NAV_SHARE):
        assert navigational_queries_proxy(c, share) == \
            oracles.navigational_queries_proxy(c, share)


@pytest.mark.parametrize("listed", [False, True], ids=["proxy", "list"])
@pytest.mark.parametrize("factor", list(Factor), ids=lambda f: f.value)
@pytest.mark.parametrize("preset", sorted(synth.PRESETS))
def test_matched_comparison_equals_the_dict_reference(presets, preset,
                                                      factor, listed):
    c, truth = presets[preset]
    nav = truth.navigational if listed else None
    cohort = match_contexts(c, factor, nav)
    by_query, attrition = oracles.match_contexts(c, factor, nav)
    assert cohort.attrition == attrition
    assert cohort.rows.tolist() == sorted(k for rows in by_query.values()
                                          for k in rows)

    scored = [query_averaged_scores(c, factor)]
    if cohort.rows.size:
        matched = matched_raw_scores(cohort)
        recs = records(c)
        want = oracles.query_averaged_scores([recs[k] for k in cohort.rows],
                                             factor)
        assert matched.groups == [g for g in factor.groups() if g in want]
        assert repr(matched.raw.tolist()) == repr(
            [[want[g][2][kind][0] for g in matched.groups]
             for kind in METRICS])
        assert repr(matched.stderr.tolist()) == repr(
            [[want[g][2][kind][1] for g in matched.groups]
             for kind in METRICS])
        assert list(zip(matched.n_queries.tolist(),
                        matched.n_impressions.tolist())) == \
            [want[g][:2] for g in matched.groups]
        scored.append(matched)
    for scores in scored:
        want = oracles.group_spans(scores)
        assert repr([a.tolist() for a in group_spans(scores)]) == repr(
            [[want[kind][i] for kind in METRICS] for i in range(3)])


def test_no_divergence_where_raw_spans_are_noise(presets):
    # by gender every raw metric of the mixed log spans less than twice
    # its error, so no matched span can be said to lose a gap
    c, truth = presets["mixed"]
    result = run_audit(c, AuditConfig(factor="gender",
                                      methods="raw,matched"),
                       truth.navigational)
    assert not any(result.summary["raw"]["distinguishable"].values())
    assert not any(result.summary["divergence"]["metrics"].values())
