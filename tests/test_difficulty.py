"""Rank-percentile difficulty estimation."""

from __future__ import annotations

import numpy as np
import pytest

from corpus_builders import corpus, dissatisfied, satisfied
from oracles import difficulty_from_group_scores, loop_midrank, score_cells
from sataudit import synth
from sataudit.aggregate import Factor, group_query_table
from sataudit.difficulty import estimate_difficulty, midrank, \
    rank_and_average
from sataudit.errors import DataError
from sataudit.logmodel import AgeGroup, Gender
from sataudit.metrics import METRICS, MetricKind


def ranked(group_scores: dict) -> dict[str, float]:
    """:func:`rank_and_average` of ``{group: {query: GU}}`` maps, keyed by
    query text."""
    group, query, gu, queries = score_cells(group_scores)
    return dict(zip(queries, rank_and_average(group, query, gu,
                                              len(queries)).tolist()))


def by_text(table) -> dict[str, float]:
    return dict(zip(table.queries, table.values.tolist()))


class TestMidrank:
    def test_matches_the_loop_on_random_tie_heavy_arrays(self):
        rng = np.random.default_rng(41)
        for trial in range(3000):
            n = int(rng.integers(0, 60))
            levels = rng.normal(size=int(rng.integers(1, 8)))
            values = rng.choice(levels, size=n)
            got, want = midrank(values), loop_midrank(values)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tolist() == want.tolist(), trial

    def test_empty(self):
        assert midrank(np.array([])).tolist() == []

    def test_ties_get_averaged_ranks(self):
        assert midrank(np.array([10.0, 20.0, 20.0, 30.0])).tolist() == \
            [1.0, 2.5, 2.5, 4.0]

    def test_distinct_values_get_permutation_ranks(self):
        out = midrank(np.array([3.0, 1.0, 2.0]))
        assert out.tolist() == [3.0, 1.0, 2.0]

    def test_all_tied(self):
        assert midrank(np.array([5.0, 5.0, 5.0])).tolist() == [2.0, 2.0, 2.0]

    def test_singleton(self):
        assert midrank(np.array([42.0])).tolist() == [1.0]


class TestDifficultyFromGroupScores:
    """:func:`rank_and_average` on per-group ``{query: GU}`` maps."""

    def test_percentile_formula_single_group(self):
        scores = {AgeGroup.G1: {"qa": 0.9, "qb": 0.5, "qc": 0.1, "qd": -0.8}}
        table = ranked(scores)
        # hardest (lowest GU) lands at 1 - 0.5/4, easiest at 1 - 3.5/4
        assert table["qd"] == pytest.approx(0.875)
        assert table["qc"] == pytest.approx(0.625)
        assert table["qb"] == pytest.approx(0.375)
        assert table["qa"] == pytest.approx(0.125)
        assert "qa" in table and "nope" not in table

    def test_averages_percentiles_over_groups(self):
        scores = {
            AgeGroup.G1: {"qa": 0.9, "qb": 0.1},
            AgeGroup.G2: {"qa": 0.1, "qb": 0.9},
        }
        table = ranked(scores)
        # qa is easy for G1 (0.25) and hard for G2 (0.75); mean 0.5
        assert table["qa"] == pytest.approx(0.5)
        assert table["qb"] == pytest.approx(0.5)
        # each group's percentiles are the table of that group alone
        assert ranked({AgeGroup.G1: scores[AgeGroup.G1]})["qa"] == \
            pytest.approx(0.25)
        assert ranked({AgeGroup.G2: scores[AgeGroup.G2]})["qa"] == \
            pytest.approx(0.75)

    def test_groups_can_cover_different_queries(self):
        scores = {
            AgeGroup.G1: {"qa": 0.9, "qb": 0.1},
            AgeGroup.G2: {"qc": 0.3},
        }
        table = ranked(scores)
        assert table["qc"] == pytest.approx(0.5)   # singleton midrank
        assert set(table) == {"qa", "qb", "qc"}

    def test_a_query_in_no_cell_is_nan(self):
        got = rank_and_average(np.array([0, 0]), np.array([2, 0]),
                               np.array([0.9, 0.1]), 4)
        assert got[[0, 2]].tolist() == [0.75, 0.25]
        assert np.isnan(got[[1, 3]]).all()

    def test_invariant_under_order_preserving_transforms(self):
        rng = np.random.default_rng(7)
        queries = [f"q{i:02d}" for i in range(30)]
        base = {g: {q: float(v) for q, v in
                    zip(queries, rng.normal(size=len(queries)))}
                for g in (AgeGroup.G1, AgeGroup.G2, AgeGroup.G3)}
        ref = ranked(base)
        warped = {
            AgeGroup.G1: {q: np.exp(3.0 * v) for q, v in base[AgeGroup.G1].items()},
            AgeGroup.G2: {q: v * 100.0 - 7.0 for q, v in base[AgeGroup.G2].items()},
            AgeGroup.G3: {q: np.arctan(v) for q, v in base[AgeGroup.G3].items()},
        }
        assert ranked(warped) == ref
        for g in base:
            assert ranked({g: warped[g]}) == ranked({g: base[g]})

    def test_empty_inputs_raise(self):
        with pytest.raises(DataError, match="no \\(group, query\\) cells"):
            ranked({})
        with pytest.raises(DataError, match="no \\(group, query\\) cells"):
            ranked({AgeGroup.G1: {}})

    def test_equals_the_loop_reference_on_tie_heavy_tables(self):
        rng = np.random.default_rng(43)
        for trial in range(200):
            queries = [f"q{i}" for i in range(int(rng.integers(1, 30)))]
            scores = {g: {q: float(rng.choice([-1.0, -1 / 3, 1 / 3, 1.0]))
                          for q in queries if rng.random() < 0.7}
                      for g in rng.permutation(4).tolist()}
            scores = {g: s for g, s in scores.items() if s}
            if scores:
                assert ranked(scores) == difficulty_from_group_scores(
                    scores), trial

    def test_percentiles_add_in_group_code_order(self):
        # cells interleave groups in a shuffled order; a query's
        # percentiles must still add group by group, in group-code order,
        # which rounds like the reference over the groups in that order
        rng = np.random.default_rng(44)
        for trial in range(300):
            n_queries = int(rng.integers(3, 40))
            cells = [(g, q, float(rng.normal()))
                     for g in range(int(rng.integers(3, 5)))
                     for q in range(n_queries) if rng.random() < 0.8]
            cells = [cells[k] for k in rng.permutation(len(cells))]
            group, query, gu = (np.array(col) for col in zip(*cells))
            scores: dict = {}
            for g, q, v in sorted(cells):
                scores.setdefault(g, {})[f"q{q:02d}"] = v
            want = difficulty_from_group_scores(scores)
            got = rank_and_average(group, query, gu, n_queries)
            assert {f"q{q:02d}": d for q, d in enumerate(got.tolist())
                    if not np.isnan(d)} == want, trial

    @pytest.mark.parametrize("factor", list(Factor))
    @pytest.mark.parametrize("preset", sorted(synth.PRESETS))
    def test_corpus_difficulty_equals_the_loop_reference_bit_for_bit(
            self, preset, factor):
        c, _ = synth.generate(synth.PRESETS[preset](n_impressions=4000,
                                                    seed=3))
        group, query, _, means = group_query_table(c, factor)
        gu = means[:, METRICS.index(MetricKind.GRADED_UTILITY)]
        # groups in code order, the order the cell table runs in
        scores: dict = {}
        for g, q, v in zip(group.tolist(), query.tolist(), gu.tolist()):
            scores.setdefault(g, {})[c.queries[q]] = v
        table = estimate_difficulty(c, factor)
        assert table.factor is factor and table.queries is c.queries
        assert by_text(table) == difficulty_from_group_scores(scores)


def test_estimate_difficulty_orders_queries_by_observed_utility():
    imps = []
    for k in range(4):
        for g in (Gender.MALE, Gender.FEMALE):
            imps.append(satisfied(query="easy q", gender=g))
            imps.append(dissatisfied(query="hard q", gender=g))
            # mixed query: satisfied for one gender only
            if g is Gender.MALE:
                imps.append(satisfied(query="mid q", gender=g))
            else:
                imps.append(dissatisfied(query="mid q", gender=g))
    table = estimate_difficulty(corpus(imps), Factor.GENDER)
    assert table.factor is Factor.GENDER
    table = by_text(table)
    assert table["hard q"] > table["mid q"] > table["easy q"]
    # "mid q" ties "easy q" for males and "hard q" for females, so the
    # averaged midrank percentiles come out 0.25 / 0.5 / 0.75
    assert table["easy q"] == pytest.approx(0.25)
    assert table["mid q"] == pytest.approx(0.5)
    assert table["hard q"] == pytest.approx(0.75)
