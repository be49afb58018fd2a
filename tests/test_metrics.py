"""Per-impression metric definitions and their edge cases."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from corpus_builders import click, corpus, imp, records
from oracles import MetricVector, page_click_count, reformulation, \
    successful_click_count, metric_vector as oracle_vector
from sataudit import metrics, synth
from sataudit.aggregate import Factor, query_averaged_scores
from sataudit.difficulty import estimate_difficulty
from sataudit.errors import DataError
from sataudit.logmodel import AgeGroup, Gender, \
    derive_reformulation_flags, emit, ingest
from sataudit.matching import match_contexts, matched_raw_scores
from sataudit.metrics import METRICS, MetricKind, metric_table
from sataudit.multilevel import build_observations
from sataudit.pairwise import (count_pair_labels, label_batch_external,
                               label_batch_internal)


def metric_vector(i, dwell_threshold_s=30.0):
    """The oracle's metric vector for `i`, after checking that the
    library's metric table of a corpus of `i` alone holds the same row."""
    want = oracle_vector(i, dwell_threshold_s)
    row = metric_table(corpus([i]), dwell_threshold_s)[0]
    assert row.tolist() == [want.value(kind) for kind in METRICS]
    return want


def test_no_clicks_scores_bottom_level():
    mv = metric_vector(imp(clicks=[]))
    assert mv.graded_utility == -1.0
    assert mv.page_click_count == 0
    assert mv.successful_click_count == 0


def test_only_short_clicks_score_minus_third():
    mv = metric_vector(imp(clicks=[click(dwell=5.0), click("r1", 2, 29.9)]))
    assert mv.graded_utility == -1.0 / 3.0
    assert mv.page_click_count == 2
    assert mv.successful_click_count == 0


def test_clean_success_scores_plus_one():
    mv = metric_vector(imp(clicks=[click(dwell=60.0)]))
    assert mv.graded_utility == 1.0
    assert mv.successful_click_count == 1


def test_success_with_effort_scores_plus_third():
    three = [click("r0", 1, 60.0), click("r1", 2, 3.0), click("r2", 3, 2.0)]
    assert metric_vector(imp(clicks=three)).graded_utility == 1.0 / 3.0


def test_success_after_reformulation_scores_plus_third():
    mv = metric_vector(imp(clicks=[click(dwell=60.0)], reformulated=True))
    assert mv.graded_utility == 1.0 / 3.0
    assert mv.reformulation == 1


def test_two_clicks_with_success_still_plus_one():
    two = [click("r0", 1, 60.0), click("r1", 2, 3.0)]
    assert metric_vector(imp(clicks=two)).graded_utility == 1.0


def test_dwell_threshold_is_strict():
    at = imp(clicks=[click(dwell=30.0)])
    above = imp(clicks=[click(dwell=30.0000001)])
    assert successful_click_count(at) == 0
    assert successful_click_count(above) == 1
    assert metric_vector(at).graded_utility == -1.0 / 3.0


def test_custom_dwell_threshold():
    i = imp(clicks=[click(dwell=12.0)])
    assert successful_click_count(i, dwell_threshold_s=10.0) == 1
    assert successful_click_count(i, dwell_threshold_s=20.0) == 0
    assert metric_vector(i, dwell_threshold_s=10.0).graded_utility == 1.0


def test_missing_dwell_raises():
    i = imp(clicks=[click(dwell=float("nan"))])
    with pytest.raises(DataError, match="dwell"):
        successful_click_count(i)
    with pytest.raises(DataError):
        metric_vector(i)
    assert page_click_count(i) == 1   # clicks-only metric still works


def test_unset_reformulated_flag_raises():
    i = imp(reformulated=None, clicks=[click()])
    with pytest.raises(DataError, match="reformulated"):
        reformulation(i)
    with pytest.raises(DataError):
        metric_vector(i)


def test_metric_vector_matches_individual_functions():
    cases = [
        imp(clicks=[]),
        imp(clicks=[click(dwell=2.0)]),
        imp(clicks=[click(dwell=60.0)], reformulated=True),
        imp(clicks=[click("r0", 1, 60.0), click("r1", 2, 40.0),
                    click("r2", 3, 1.0)]),
    ]
    gu_levels = [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]
    for i, gu in zip(cases, gu_levels):
        mv = metric_vector(i)
        assert mv.graded_utility == gu
        assert mv.reformulation == reformulation(i)
        assert mv.page_click_count == page_click_count(i)
        assert mv.successful_click_count == successful_click_count(i)


def test_value_accessor_covers_all_kinds():
    mv = MetricVector(graded_utility=1.0, reformulation=0,
                      page_click_count=2, successful_click_count=1)
    assert mv.value(MetricKind.GRADED_UTILITY) == 1.0
    assert mv.value(MetricKind.REFORMULATION) == 0
    assert mv.value(MetricKind.PAGE_CLICK_COUNT) == 2
    assert mv.value(MetricKind.SUCCESSFUL_CLICK_COUNT) == 1


def test_only_reformulation_is_lower_better():
    # the pair labellers read each metric's direction: raise one metric on
    # side i alone, from the bottom of its range, and see whether i wins
    low = {MetricKind.GRADED_UTILITY: -1.0, MetricKind.REFORMULATION: 0,
           MetricKind.PAGE_CLICK_COUNT: 0,
           MetricKind.SUCCESSFUL_CLICK_COUNT: 0}
    high = {MetricKind.GRADED_UTILITY: 1.0, MetricKind.REFORMULATION: 1,
            MetricKind.PAGE_CLICK_COUNT: 5,
            MetricKind.SUCCESSFUL_CLICK_COUNT: 5}
    internal = (MetricKind.GRADED_UTILITY, MetricKind.REFORMULATION,
                MetricKind.SUCCESSFUL_CLICK_COUNT)
    lower_better = []
    for kind in MetricKind:
        i = {k: [high[k] if k is kind else v] for k, v in low.items()}
        j = {k: [v] for k, v in low.items()}
        if kind is MetricKind.PAGE_CLICK_COUNT:
            label = label_batch_external(i[kind], j[kind])
        else:
            label = label_batch_internal(*(i[k] for k in internal),
                                         *(j[k] for k in internal))
        assert label[0] != 0, kind
        if label[0] < 0:
            lower_better.append(kind)
    assert lower_better == [MetricKind.REFORMULATION]


def _mixed_corpus():
    """Two queries across all age groups, with every GU level present."""
    shapes = [[], [click(dwell=5.0)], [click(dwell=60.0)],
              [click("r0", 1, 60.0), click("r1", 2, 40.0),
               click("r2", 3, 1.0)]]
    imps = []
    for k in range(32):
        age = list(AgeGroup)[k % 4]
        imps.append(imp(query="news alpha" if k % 3 else "sports beta",
                        topic="news" if k % 3 else "sports",
                        clicks=shapes[(k // 4) % 4], reformulated=k % 5 == 0,
                        age=age, gender=list(Gender)[k % 2]))
    return corpus(imps)


def test_metric_table_rows_are_metric_vectors():
    c = _mixed_corpus()
    for threshold in (10.0, 50.0):
        want = np.array([[oracle_vector(i, threshold).value(kind)
                          for kind in METRICS] for i in records(c)])
        got = metric_table(c, threshold)
        np.testing.assert_array_equal(got, want)
        assert metric_table(c, threshold) is got
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 5.0


def test_metric_table_is_built_once_per_corpus_and_threshold(monkeypatch):
    c = _mixed_corpus()
    builds = []
    build = metrics._build_metric_table

    def counting(cols, dwell_threshold_s):
        builds.append((len(cols), dwell_threshold_s))
        return build(cols, dwell_threshold_s)

    monkeypatch.setattr(metrics, "_build_metric_table", counting)
    query_averaged_scores(c, Factor.AGE)
    cohort = match_contexts(c, Factor.AGE, {"news alpha", "sports beta"},
                            min_impressions=1)
    assert cohort.attrition[-1].impressions > 0
    # matched scoring reads the audited corpus's table at the cohort rows
    matched_raw_scores(cohort)
    table = estimate_difficulty(c)
    for kind in METRICS:
        build_observations(c, table, kind)
    count_pair_labels(c, ["news alpha", "sports beta"], seed=0,
                      fraction=1.0)
    assert builds == [(len(c), 30.0)]
    metric_table(c, 10.0)
    assert builds == [(len(c), 30.0), (len(c), 10.0)]


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_table_derives_the_unset_flags_ingest_keeps(tmp_path, monkeypatch,
                                                     fmt):
    queries = ["cheap flights", "cheap flights june", "python dataclass"]
    imps = [imp(f"f{k}", query=q, reformulated=None, user_id="u1",
                timestamp=k, clicks=[click(dwell=40.0)])
            for k, q in enumerate(queries)]
    emit(corpus([*imps, imp("f3", reformulated=True, clicks=[click()])]),
         tmp_path / "c", fmt=fmt)
    c = ingest(tmp_path / "c", fmt=fmt)
    assert c.reformulated.tolist() == [-1, -1, -1, 1]
    want = derive_reformulation_flags(c)
    assert want.tolist() == [1, 0, 0, 1]
    calls = []

    def counting(corpus):
        calls.append(corpus)
        return derive_reformulation_flags(corpus)

    monkeypatch.setattr(metrics, "derive_reformulation_flags", counting)
    column = METRICS.index(MetricKind.REFORMULATION)
    for threshold in (30.0, 10.0):
        np.testing.assert_array_equal(metric_table(c, threshold)[:, column],
                                      want)
    assert calls == [c]


def _stacked_metric_vectors(impressions, threshold=30.0):
    return np.array([[oracle_vector(i, threshold).value(kind)
                      for kind in METRICS] for i in impressions],
                    dtype=float).reshape(-1, len(METRICS))


@pytest.mark.parametrize("preset", ["null", "query_mix_confound",
                                    "dwell_confound", "true_gap", "mixed"])
def test_metric_table_equals_metric_vectors_on_presets(preset):
    c, _ = synth.generate(getattr(synth, f"preset_{preset}")(
        n_impressions=1500, seed=11))
    for threshold in (30.0, 12.5):
        np.testing.assert_array_equal(
            metric_table(c, threshold),
            _stacked_metric_vectors(records(c), threshold))


def test_clicks_only_csv_has_page_click_counts_only(tmp_path):
    c, _ = synth.generate(synth.preset_dwell_confound(n_impressions=1500,
                                                      seed=11))
    emit(c, tmp_path / "full.csv", fmt="csv")
    # blank every dwell and reformulated flag, as a clicks-only log has
    with open(tmp_path / "full.csv", newline="", encoding="utf-8") as fin, \
            open(tmp_path / "blank.csv", "w", newline="",
                 encoding="utf-8") as fout:
        reader = csv.DictReader(fin)
        writer = csv.DictWriter(fout, reader.fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in reader:
            row["clicks"] = ";".join(
                f"{p}:{r}::{t}" for p, r, _, t in
                (part.split(":") for part in row["clicks"].split(";") if part))
            row["reformulated"] = ""
            writer.writerow(row)
    blank = ingest(tmp_path / "blank.csv", fmt="csv")
    assert not blank.has_dwell
    assert blank.click_count.tolist() == \
        [page_click_count(i) for i in records(blank)]
    first = next(i for i in records(blank) if i.clicks)
    with pytest.raises(DataError) as scalar:
        metric_vector(first)
    with pytest.raises(DataError) as column:
        metric_table(blank)
    assert str(column.value) == str(scalar.value)
    assert "dwell missing" in str(column.value)


@pytest.mark.parametrize("rows,want", [
    # (dwell missing?, flag unset?) per impression; the first row missing
    # a dwell names the error, since the table derives unset flags
    ([(False, False), (False, True), (True, False)], (2, "dwell missing")),
    ([(False, False), (True, False), (False, True)], (1, "dwell missing")),
    ([(True, True), (False, True)], (0, "dwell missing")),
    ([(False, True), (True, True)], (1, "dwell missing")),
])
def test_metric_table_errors_name_the_first_bad_impression(rows, want):
    imps = [imp(f"m{k}", clicks=[click(dwell=float("nan") if nan else 40.0)],
                reformulated=None if unset else False)
            for k, (nan, unset) in enumerate(rows)]
    with pytest.raises(DataError) as scalar:
        metric_vector(imps[want[0]])
    with pytest.raises(DataError) as column:
        metric_table(corpus(imps))
    assert str(column.value) == str(scalar.value)
    assert str(column.value).startswith(f"impression m{want[0]}: ")
    assert want[1] in str(column.value)
