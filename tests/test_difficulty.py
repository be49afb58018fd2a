"""Rank-percentile difficulty estimation."""

from __future__ import annotations

import numpy as np
import pytest

from corpus_builders import corpus, dissatisfied, satisfied
from sataudit.aggregate import Factor
from sataudit.difficulty import (difficulty_from_group_scores,
                                 estimate_difficulty, midrank)
from sataudit.errors import DataError
from sataudit.logmodel import AgeGroup, Gender


def loop_midrank(values: np.ndarray) -> np.ndarray:
    """Reference midranks: walk the stably sorted values, giving each run
    of equal values the mean of its 1-based ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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
    def test_percentile_formula_single_group(self):
        scores = {AgeGroup.G1: {"qa": 0.9, "qb": 0.5, "qc": 0.1, "qd": -0.8}}
        table = difficulty_from_group_scores(scores)
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
        table = difficulty_from_group_scores(scores)
        # qa is easy for G1 (0.25) and hard for G2 (0.75); mean 0.5
        assert table["qa"] == pytest.approx(0.5)
        assert table["qb"] == pytest.approx(0.5)
        assert table.per_group[AgeGroup.G1]["qa"] == pytest.approx(0.25)
        assert table.per_group[AgeGroup.G2]["qa"] == pytest.approx(0.75)

    def test_groups_can_cover_different_queries(self):
        scores = {
            AgeGroup.G1: {"qa": 0.9, "qb": 0.1},
            AgeGroup.G2: {"qc": 0.3},
        }
        table = difficulty_from_group_scores(scores)
        assert table["qc"] == pytest.approx(0.5)   # singleton midrank
        assert set(table.difficulty) == {"qa", "qb", "qc"}

    def test_invariant_under_order_preserving_transforms(self):
        rng = np.random.default_rng(7)
        queries = [f"q{i:02d}" for i in range(30)]
        base = {g: {q: float(v) for q, v in
                    zip(queries, rng.normal(size=len(queries)))}
                for g in (AgeGroup.G1, AgeGroup.G2, AgeGroup.G3)}
        ref = difficulty_from_group_scores(base)
        warped = {
            AgeGroup.G1: {q: np.exp(3.0 * v) for q, v in base[AgeGroup.G1].items()},
            AgeGroup.G2: {q: v * 100.0 - 7.0 for q, v in base[AgeGroup.G2].items()},
            AgeGroup.G3: {q: np.arctan(v) for q, v in base[AgeGroup.G3].items()},
        }
        out = difficulty_from_group_scores(warped)
        assert out.difficulty == ref.difficulty
        assert out.per_group == ref.per_group

    def test_empty_inputs_raise(self):
        with pytest.raises(DataError, match="at least one group"):
            difficulty_from_group_scores({})
        with pytest.raises(DataError, match="no queries"):
            difficulty_from_group_scores({AgeGroup.G1: {}})


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
    assert table["hard q"] > table["mid q"] > table["easy q"]
    # "mid q" ties "easy q" for males and "hard q" for females, so the
    # averaged midrank percentiles come out 0.25 / 0.5 / 0.75
    assert table["easy q"] == pytest.approx(0.25)
    assert table["mid q"] == pytest.approx(0.5)
    assert table["hard q"] == pytest.approx(0.75)
