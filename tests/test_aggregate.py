"""Query-averaged scores, normalization, KL, and traffic classes."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import oracles
import sataudit
from corpus_builders import corpus, dissatisfied, imp, records, satisfied
from sataudit import aggregate, synth
from sataudit.aggregate import (METRICS, Factor, group_query_table,
                                head_tail_classify, normalize,
                                query_averaged_scores, query_kl, RawScores)
from sataudit.errors import DataError
from sataudit.difficulty import estimate_difficulty
from sataudit.logmodel import AgeGroup, Gender
from sataudit.metrics import MetricKind, metric_table

GU = MetricKind.GRADED_UTILITY


def _raw_scores(values: dict, stderr: float = 0.0,
                factor: Factor = Factor.AGE) -> RawScores:
    groups = list(values)
    shape = (len(METRICS), len(groups))
    return RawScores(
        factor=factor, groups=groups,
        raw=np.broadcast_to(list(values.values()), shape).astype(float),
        stderr=np.full(shape, stderr),
        n_queries=np.full(len(groups), 5),
        n_impressions=np.full(len(groups), 50))


def _at(values: np.ndarray, scores: RawScores, kind: MetricKind, group):
    """One (metric, group) entry of a ``(metrics, groups)`` array."""
    return values[METRICS.index(kind), scores.groups.index(group)]


class TestQueryAveragedScores:
    def test_queries_are_the_sampling_unit(self):
        # query a: 3 satisfied, query b: 1 dissatisfied; the group score
        # averages the two query means, not the four impressions
        imps = [satisfied(query="q a") for _ in range(3)]
        imps.append(dissatisfied(query="q b"))
        scores = query_averaged_scores(corpus(imps), Factor.GENDER)
        male = _at(scores.raw, scores, GU, Gender.MALE)
        assert male == pytest.approx((1.0 + (-1.0 / 3.0)) / 2.0)
        assert scores.groups == [Gender.MALE]
        assert scores.n_queries.tolist() == [2]
        assert scores.n_impressions.tolist() == [4]

    def test_stderr_over_two_query_means(self):
        imps = [satisfied(query="q a"), dissatisfied(query="q b")]
        scores = query_averaged_scores(corpus(imps), Factor.GENDER)
        vals = [1.0, -1.0 / 3.0]
        mean = sum(vals) / 2
        var = sum((v - mean) ** 2 for v in vals)   # ddof 1 with n=2
        assert _at(scores.stderr, scores, GU, Gender.MALE) == pytest.approx(
            math.sqrt(var / 2))

    def test_single_query_group_has_nan_stderr(self):
        scores = query_averaged_scores(corpus([satisfied()]), Factor.GENDER)
        assert math.isnan(_at(scores.stderr, scores, GU, Gender.MALE))

    def test_empty_corpus_raises(self):
        with pytest.raises(DataError, match="empty corpus"):
            query_averaged_scores(corpus([]), Factor.AGE)

    def test_absent_group_is_excluded_not_invented(self, caplog):
        scores = query_averaged_scores(corpus([satisfied()]), Factor.AGE)
        assert AgeGroup.G1 in scores.groups
        assert AgeGroup.G4 not in scores.groups
        assert "no impressions for groups ['G2', 'G3', 'G4']" in caplog.text

    def test_rows_score_like_a_corpus_of_those_rows(self, monkeypatch):
        # matched scoring passes the cohort's rows of the audited corpus;
        # that must equal scoring a corpus built from those impressions in
        # that order, bit for bit, from the audited corpus's metric table
        rng = np.random.default_rng(5)
        ages = list(AgeGroup)
        imps = [(satisfied if rng.random() < 0.6 else dissatisfied)(
                    query=f"q{rng.integers(0, 6)}",
                    age=ages[rng.integers(0, 4)])
                for _ in range(80)]
        c = corpus(imps)
        rows = rng.permutation(len(imps))[:50]
        alone = query_averaged_scores(corpus([imps[k] for k in rows]),
                                      Factor.AGE)
        metric_table(c)

        def no_rescoring(*args, **kwargs):
            raise AssertionError("the rows were scored again")

        monkeypatch.setattr("sataudit.metrics._build_metric_table",
                            no_rescoring)
        got = query_averaged_scores(c, Factor.AGE, rows=rows)
        assert got.groups == alone.groups
        for field in ("raw", "stderr", "n_queries", "n_impressions"):
            a, b = getattr(got, field), getattr(alone, field)
            assert (a.dtype, a.shape, a.tobytes()) == \
                (b.dtype, b.shape, b.tobytes()), field

    def test_cells_run_by_group_then_query_code(self):
        # group scores sum the per-query means in this order, so it fixes
        # the last bits of every reported float; the log's own order, in
        # which "q c" and G3 come first, does not enter
        imps = [satisfied(query="q c", age=AgeGroup.G3),
                dissatisfied(query="q b", age=AgeGroup.G1),
                satisfied(query="q a", age=AgeGroup.G3),
                satisfied(query="q c", age=AgeGroup.G1),
                dissatisfied(query="q c", age=AgeGroup.G3)]
        c = corpus(imps)
        group, query, n_impressions, means = group_query_table(c, Factor.AGE)
        ages = list(AgeGroup)
        assert [ages[g] for g in group.tolist()] == [
            AgeGroup.G1, AgeGroup.G1, AgeGroup.G3, AgeGroup.G3]
        assert [c.queries[q] for q in query.tolist()] == [
            "q b", "q c", "q a", "q c"]
        assert n_impressions.tolist() == [1, 1, 1, 2]
        assert means.shape == (4, len(METRICS))
        # the exact mean of +1 and -1/3, rounded once
        assert means[3, METRICS.index(GU)] == 1.0 / 3.0

    def test_cells_with_equal_gu_means_tie(self):
        # both cells average 0; added as floats in row order the first
        # would read 2.8e-17, and difficulty would rank the two apart
        imps = [satisfied(query="q a"), dissatisfied(query="q a"),
                dissatisfied(query="q a"), dissatisfied(query="q a"),
                satisfied(query="q b"), imp(query="q b"),
                satisfied(query="q b"), imp(query="q b")]
        c = corpus(imps)
        *_, means = group_query_table(c, Factor.AGE)
        assert means[:, METRICS.index(GU)].tolist() == [0.0, 0.0]
        assert estimate_difficulty(c).values.tolist() == [0.5, 0.5]

    def test_group_sums_add_cells_left_to_right(self):
        # ten one-query cells of mean 0.1 each: a plain float loop gives
        # 0.09999999999999999, where a compensated sum would give 0.1
        imps = [imp(query=f"q{k}", reformulated=r)
                for k in range(10) for r in [True] + [False] * 9]
        scores = query_averaged_scores(corpus(imps), Factor.AGE)
        total = 0.0
        for _ in range(10):
            total += 0.1
        assert total / 10 == 0.09999999999999999
        assert _at(scores.raw, scores, MetricKind.REFORMULATION,
                   AgeGroup.G1) == 0.09999999999999999

    @pytest.mark.parametrize("factor", list(Factor))
    def test_scores_equal_the_loop_reference_bit_for_bit(self, factor):
        c, _ = synth.generate(synth.preset_mixed(n_impressions=3000, seed=2))
        got = query_averaged_scores(c, factor)
        want = oracles.query_averaged_scores(records(c), factor)
        assert set(got.groups) == set(want)
        for j, g in enumerate(got.groups):
            n_q, n_imp, stats = want[g]
            assert (got.n_queries[j], got.n_impressions[j]) == (n_q, n_imp)
            for kind, (score, stderr) in stats.items():
                assert repr(_at(got.raw, got, kind, g).item()) == repr(score)
                assert repr(_at(got.stderr, got, kind, g).item()) == \
                    repr(stderr)

    def test_one_audit_builds_the_full_corpus_cell_table_once(
            self, monkeypatch):
        c, _ = synth.generate(synth.preset_mixed(n_impressions=3000, seed=1))
        sizes = []
        cell_table = aggregate._cell_table

        def counting(corpus, factor, dwell_threshold_s, rows=None):
            sizes.append(len(corpus if rows is None else rows))
            return cell_table(corpus, factor, dwell_threshold_s, rows)

        monkeypatch.setattr(aggregate, "_cell_table", counting)
        result = sataudit.run_audit(c, sataudit.AuditConfig(
            methods=("raw", "matched", "multilevel")))
        # the raw scores' table, which difficulty reuses, then the cohort's
        cohort = len(result.cohort.rows)
        assert sizes == [len(c), cohort]
        assert cohort < len(c)


class TestNormalize:
    def test_min_max_map_to_exact_unit_interval(self):
        raw = _raw_scores({AgeGroup.G1: 2.0, AgeGroup.G2: 4.0,
                           AgeGroup.G3: 6.0, AgeGroup.G4: 8.0})
        norm = normalize(raw)
        got = [_at(norm.normalized, norm, GU, g) for g in AgeGroup]
        assert got[0] == 0.0 and got[3] == 1.0
        assert got[1] == 1.0 / 3.0 and got[2] == 2.0 / 3.0
        assert norm.gaps[METRICS.index(GU)] == 1.0
        assert not norm.degenerate.any()

    def test_identical_groups_are_degenerate_zeros(self):
        norm = normalize(_raw_scores({Gender.MALE: 5.0, Gender.FEMALE: 5.0},
                                     factor=Factor.GENDER))
        assert norm.degenerate.all()
        assert (norm.normalized == 0.0).all()
        assert (norm.gaps == 0.0).all()

    def test_span_below_noise_floor_is_degenerate(self):
        # 0.01 apart but each mean is only known to +-0.05
        norm = normalize(_raw_scores({Gender.MALE: 0.50, Gender.FEMALE: 0.51},
                                     stderr=0.05, factor=Factor.GENDER))
        assert norm.degenerate.all()

    def test_span_above_noise_floor_is_kept(self):
        norm = normalize(_raw_scores({Gender.MALE: 0.2, Gender.FEMALE: 0.8},
                                     stderr=0.05, factor=Factor.GENDER))
        assert not norm.degenerate.any()
        assert norm.gaps[METRICS.index(GU)] == 1.0

    def test_reference_bounds_reuse_the_affine_map(self):
        raw = _raw_scores({Gender.MALE: 2.0, Gender.FEMALE: 12.0},
                          factor=Factor.GENDER)
        ref = np.array([(0.0, 10.0)] * len(METRICS))
        norm = normalize(raw, reference=ref)
        assert _at(norm.normalized, norm, GU, Gender.MALE) == 0.2
        assert _at(norm.normalized, norm, GU, Gender.FEMALE) == 1.2  # off
        assert norm.bounds[METRICS.index(GU)].tolist() == [0.0, 10.0]

    def test_reference_mode_ignores_the_noise_rule(self):
        raw = _raw_scores({Gender.MALE: 0.50, Gender.FEMALE: 0.51},
                          stderr=0.05, factor=Factor.GENDER)
        norm = normalize(raw, reference=np.array([(0.0, 1.0)] * len(METRICS)))
        assert not norm.degenerate.any()

    def test_zero_span_reference_is_degenerate(self):
        raw = _raw_scores({Gender.MALE: 1.0, Gender.FEMALE: 2.0},
                          factor=Factor.GENDER)
        norm = normalize(raw, reference=np.array([(3.0, 3.0)] * len(METRICS)))
        assert norm.degenerate.all()

    def test_single_group_raises(self):
        with pytest.raises(DataError, match="two non-empty groups"):
            normalize(_raw_scores({Gender.MALE: 1.0}, factor=Factor.GENDER))


class TestQueryKl:
    def _two_group_corpus(self, counts_m: dict, counts_f: dict):
        imps = []
        for q, n in counts_m.items():
            imps.extend(imp(query=q, gender=Gender.MALE) for _ in range(n))
        for q, n in counts_f.items():
            imps.extend(imp(query=q, gender=Gender.FEMALE) for _ in range(n))
        return corpus(imps)

    def test_identical_distributions_give_exactly_zero(self):
        c = self._two_group_corpus({"q a": 5, "q b": 3}, {"q a": 5, "q b": 3})
        assert query_kl(c, Gender.MALE, Gender.FEMALE, Factor.GENDER) == 0.0

    def test_scaled_identical_distributions_give_zero(self):
        c = self._two_group_corpus({"q a": 4, "q b": 2}, {"q a": 2, "q b": 1})
        # same shape, different totals; smoothing uses proportions with
        # matched support so the divergence stays at numerical zero
        kl = query_kl(c, Gender.MALE, Gender.FEMALE, Factor.GENDER, alpha=1e-9)
        assert abs(kl) < 1e-6

    def test_nonnegative_and_positive_when_different(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cm = {f"q {i}": int(rng.integers(1, 20)) for i in range(6)}
            cf = {f"q {i}": int(rng.integers(1, 20)) for i in range(3, 9)}
            c = self._two_group_corpus(cm, cf)
            kl = query_kl(c, Gender.MALE, Gender.FEMALE, Factor.GENDER)
            assert kl >= 0.0
        disjoint = self._two_group_corpus({"q a": 5}, {"q b": 5})
        assert query_kl(disjoint, Gender.MALE, Gender.FEMALE,
                        Factor.GENDER) > 0.1

    def test_missing_group_raises(self):
        c = self._two_group_corpus({"q a": 3}, {})
        with pytest.raises(DataError, match="both groups"):
            query_kl(c, Gender.MALE, Gender.FEMALE, Factor.GENDER)

    def test_bad_alpha_raises(self):
        c = self._two_group_corpus({"q a": 3}, {"q a": 3})
        with pytest.raises(DataError, match="alpha"):
            query_kl(c, Gender.MALE, Gender.FEMALE, Factor.GENDER, alpha=0.0)

    def test_value_does_not_depend_on_the_hash_seed(self):
        # 300 Zipf-distributed queries: summing the terms in string-hash
        # order gives a different last digit under hash seeds 0 and 1
        code = """
import numpy as np
from corpus_builders import from_records
from sataudit.aggregate import Factor, query_kl
from sataudit.logmodel import AgeGroup, DemographicProfile, Gender
rng = np.random.default_rng(7)
imps = [(str(k), "u", "s", 0, f"query {int(q)}", "t", ["r0"], [], False,
         DemographicProfile(AgeGroup(int(a)), Gender.MALE))
        for k, (q, a) in enumerate(zip(rng.zipf(1.5, 4000) % 300,
                                       rng.integers(1, 5, 4000)))]
print(repr(query_kl(from_records(imps), AgeGroup.G1, AgeGroup.G4,
                    Factor.AGE)))
"""
        src = str(pathlib.Path(sataudit.__file__).resolve().parents[1])
        tests = str(pathlib.Path(__file__).resolve().parent)
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, tests,
                                         os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120,
                                  encoding="utf-8")
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestHeadTailClassify:
    def test_equal_traffic_splits_two_three_five(self):
        imps = [imp(query=f"q {chr(ord('a') + i)}") for i in range(10)]
        classes = head_tail_classify(corpus(imps))
        assert sorted(classes.values()).count("head") == 2
        assert sorted(classes.values()).count("tail") == 3
        assert sorted(classes.values()).count("torso") == 5
        # ties break lexicographically, so the head is the alphabet start
        assert classes["q a"] == "head" and classes["q b"] == "head"
        assert classes["q j"] == "tail"

    def test_traffic_ordering_wins_over_name(self):
        imps = [imp(query="q z") for _ in range(10)]
        imps += [imp(query=f"q {c}") for c in "abcd"]
        classes = head_tail_classify(corpus(imps))
        assert classes["q z"] == "head"   # ceil(0.2 * 5) = 1 head slot

    def test_classes_partition_the_query_set(self):
        imps = [imp(query=f"q {i:02d}") for i in range(17) for _ in range(i + 1)]
        c = corpus(imps)
        classes = head_tail_classify(c)
        assert set(classes) == set(c.queries)
        assert set(classes.values()) <= {"head", "torso", "tail"}

    def test_empty_corpus_gives_empty_mapping(self):
        assert head_tail_classify(corpus([])) == {}
