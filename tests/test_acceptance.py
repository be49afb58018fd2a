"""Acceptance suite: one test per headline capability.

Each test exercises a full capability end to end at its stated tolerance
and prints a single summary line with the measured numbers (visible with
pytest -s, and in the failure report otherwise).  The pytest -v status
line per test is the pass/fail verdict.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from sataudit import aggregate, multilevel, pairwise, synth
from sataudit.aggregate import Factor, METRICS
from sataudit.audit import AuditConfig, run_audit
from sataudit.cli import main
from sataudit.difficulty import difficulty_from_group_scores
from sataudit.glmfit import Family
from sataudit.logmodel import AgeGroup, Gender
from sataudit.metrics import GU_LEVELS, MetricKind
from sataudit.multilevel import ObservationSet, PriorConfig

GU = MetricKind.GRADED_UTILITY


# ---------------------------------------------------------------------------
# 1. context matching neutralizes a query-mix confound

def test_criterion_1_confound_neutralization():
    t0 = time.perf_counter()
    corpus, truth = synth.generate(synth.preset_query_mix_confound())
    # the default audit: raw and matched scores by age
    result = run_audit(corpus, AuditConfig(),
                       navigational=truth.navigational)
    raw_norm, common = result.raw, result.matched_common
    elapsed = time.perf_counter() - t0

    raw_gaps = {k: raw_norm.gap(k) for k in METRICS}
    assert max(raw_gaps.values()) >= 0.15

    # the headline gap is real in metric units too, not a rescaling artifact
    gu_raw = [s.raw for s in raw_norm.scores[GU].values()]
    assert max(gu_raw) - min(gu_raw) >= 0.15

    gaps_common = {k: (0.0 if k in raw_norm.degenerate else common.gap(k))
                   for k in METRICS}
    assert all(v <= 0.05 for v in gaps_common.values()), gaps_common
    assert elapsed < 60.0
    print(f"CRITERION 1 (confound neutralization): PASS; "
          f"raw normalized gap {max(raw_gaps.values()):.3f}; "
          f"utility spread {max(gu_raw) - min(gu_raw):.3f}; "
          f"matched common-scale max {max(gaps_common.values()):.4f}; "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. multilevel model recovers injected coefficients

def test_criterion_2_multilevel_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240610)
    topics = ["t0", "t1", "t2"]
    a_grid = np.arange(4)[:, None, None]
    g_grid = np.arange(2)[None, :, None]
    t_grid = np.arange(3)[None, None, :]
    alpha = (0.4 + 0.12 * a_grid - 0.15 * g_grid + 0.06 * t_grid
             + rng.normal(0.0, 0.08, size=(4, 2, 3)))
    beta = (-0.7 + 0.1 * a_grid + 0.05 * g_grid
            + rng.normal(0.0, 0.08, size=(4, 2, 3)))

    n = 50_000
    age_idx = rng.integers(0, 4, n)
    gender_idx = rng.integers(0, 2, n)
    topic_idx = rng.integers(0, 3, n)
    x = rng.uniform(0.0, 1.0, n)
    y = (alpha[age_idx, gender_idx, topic_idx]
         + beta[age_idx, gender_idx, topic_idx] * x
         + rng.normal(0.0, 0.15, n))
    obs = ObservationSet(metric=GU, y=y, x=x,
                         age_idx=age_idx.astype(np.intp),
                         gender_idx=gender_idx.astype(np.intp),
                         topic_idx=topic_idx.astype(np.intp), topics=topics)
    fit = multilevel.fit_multilevel(obs)

    worst_a = worst_b = 0.0
    for a in range(4):
        for g, gender in enumerate((Gender.MALE, Gender.FEMALE)):
            for t, topic in enumerate(topics):
                a_hat, b_hat, seen = multilevel.cell_coefficients(
                    fit, AgeGroup(a + 1), gender, topic)
                assert seen
                worst_a = max(worst_a, abs(a_hat - alpha[a, g, t]))
                worst_b = max(worst_b, abs(b_hat - beta[a, g, t]))
    assert worst_a <= 0.05, worst_a
    assert worst_b <= 0.05, worst_b

    # a diffuse-prior single-cell fit is plain least squares
    rng2 = np.random.default_rng(20240611)
    n2 = 4000
    x2 = rng2.uniform(0.0, 1.0, n2)
    y2 = 0.3 - 0.8 * x2 + rng2.normal(0.0, 0.2, n2)
    zeros = np.zeros(n2, dtype=np.intp)
    obs2 = ObservationSet(metric=GU, y=y2, x=x2, age_idx=zeros,
                          gender_idx=zeros, topic_idx=zeros, topics=["t0"])
    fit2 = multilevel.fit_multilevel(obs2, priors=PriorConfig.diffuse())
    a_hat, b_hat, _ = multilevel.cell_coefficients(
        fit2, AgeGroup.G1, Gender.MALE, "t0")
    design = np.column_stack([np.ones(n2), x2])
    ols = np.linalg.solve(design.T @ design, design.T @ y2)
    ols_err = max(abs(a_hat - ols[0]), abs(b_hat - ols[1]))
    assert ols_err <= 1e-6, ols_err

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"CRITERION 2 (multilevel recovery): PASS; "
          f"max intercept error {worst_a:.4f}; max slope error {worst_b:.4f}; "
          f"diffuse-vs-OLS {ols_err:.2e}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. every metric is fitted under the right link family

def test_criterion_3_link_families():
    assert multilevel.family_for_metric(GU) is Family.GAUSSIAN_IDENTITY
    assert multilevel.family_for_metric(MetricKind.REFORMULATION) \
        is Family.BINOMIAL_LOGIT
    assert multilevel.family_for_metric(MetricKind.PAGE_CLICK_COUNT) \
        is Family.POISSON_LOG
    assert multilevel.family_for_metric(MetricKind.SUCCESSFUL_CLICK_COUNT) \
        is Family.POISSON_LOG

    rng = np.random.default_rng(20240612)
    eta = np.concatenate([rng.normal(0.0, 50.0, 10_000),
                          [-800.0, 0.0, 800.0]])
    mu_b = Family.BINOMIAL_LOGIT.linkinv(eta)
    assert np.all(mu_b > 0.0) and np.all(mu_b < 1.0)
    mu_p = Family.POISSON_LOG.linkinv(eta)
    assert np.all(mu_p > 0.0) and np.all(np.isfinite(mu_p))
    print(f"CRITERION 3 (link families): PASS; bindings correct; "
          f"binomial means in ({mu_b.min():.2e}, {1 - mu_b.max():.2e} "
          f"below 1); poisson means in ({mu_p.min():.2e}, {mu_p.max():.2e})")


# ---------------------------------------------------------------------------
# 4. difficulty estimation depends only on within-group orderings

def _order_isomorphism(rng, values: dict[str, float]) -> dict[str, float]:
    """Strictly increasing remap of a score table's distinct values."""
    distinct = sorted(set(values.values()))
    steps = np.cumsum(rng.uniform(0.05, 2.0, size=len(distinct)))
    shift = rng.uniform(-10.0, 10.0)
    table = {v: float(s + shift) for v, s in zip(distinct, steps)}
    return {q: table[v] for q, v in values.items()}


def test_criterion_4_difficulty_invariance():
    rng = np.random.default_rng(20240613)
    for trial in range(100):
        n_queries = int(rng.integers(5, 41))
        n_groups = int(rng.integers(2, 5))
        queries = [f"q{i:02d}" for i in range(n_queries)]
        base: dict[str, dict[str, float]] = {}
        for g in range(n_groups):
            mask = rng.random(n_queries) < 0.8
            if not mask.any():
                mask[int(rng.integers(0, n_queries))] = True
            covered = [q for q, m in zip(queries, mask) if m]
            # utility levels, so ties between queries are common
            vals = rng.choice(GU_LEVELS, size=len(covered))
            base[f"g{g}"] = {q: float(v) for q, v in zip(covered, vals)}
        warped = {g: _order_isomorphism(rng, tbl)
                  for g, tbl in base.items()}
        assert difficulty_from_group_scores(base) \
            == difficulty_from_group_scores(warped), trial
    print("CRITERION 4 (difficulty invariance): PASS; 100/100 randomized "
          "monotone remaps left every difficulty table bit-identical")


# ---------------------------------------------------------------------------
# 5. the pair labeler agrees with the latent ordering and is antisymmetric

def test_criterion_5_labeler_fidelity(truegap_data):
    corpus, truth = truegap_data
    eligible = pairwise.eligible_queries(corpus)
    sample = pairwise.sample_pairs(corpus, eligible, seed=20240604)
    labels = pairwise.label_sample(corpus, sample)

    latent = np.array([truth.latent[imp.impression_id]
                       for imp in corpus.impressions])
    li, lj = latent[sample.i_idx], latent[sample.j_idx]
    fired = labels != 0
    assert fired.sum() > 1000
    agree = ((labels == 1) & (li > lj)) | ((labels == -1) & (li < lj))
    rate = float(agree[fired].sum()) / float(fired.sum())
    assert rate >= 0.95, rate

    rng = np.random.default_rng(20240614)
    n = 100_000
    gu_i = rng.choice(GU_LEVELS, n)
    gu_j = rng.choice(GU_LEVELS, n)
    re_i = rng.integers(0, 2, n)
    re_j = rng.integers(0, 2, n)
    sc_i = rng.integers(0, 6, n)
    sc_j = rng.integers(0, 6, n)
    fwd = pairwise.label_batch_internal(gu_i, re_i, sc_i, gu_j, re_j, sc_j)
    rev = pairwise.label_batch_internal(gu_j, re_j, sc_j, gu_i, re_i, sc_i)
    violations = int((fwd != -rev).sum())
    assert violations == 0

    # differences landing exactly on a threshold abstain (GU 0.4, SCC 2,
    # page clicks 2)
    assert pairwise.label_batch_internal([0.4], [0], [1],
                                         [0.0], [0], [1]).tolist() == [0]
    assert pairwise.label_batch_internal([0.0], [0], [3],
                                         [0.0], [0], [1]).tolist() == [0]
    assert pairwise.label_batch_external([3], [1]).tolist() == [0]

    print(f"CRITERION 5 (labeler fidelity): PASS; "
          f"agreement {rate:.4f} on {int(fired.sum())} fired labels; "
          f"antisymmetry violations {violations}/{n}; "
          f"threshold-boundary pairs abstain")


# ---------------------------------------------------------------------------
# 6. pairwise estimation: flat under the null, monotone detection of an
#    injected gap, exact complements

def test_criterion_6_pairwise_null_and_detection(null_data, truegap_data):
    t0 = time.perf_counter()

    def pair_fit(corpus, fraction=None, pairs_per_query=None, seed=0):
        kw = {}
        if fraction is not None:
            kw["pair_fraction"] = fraction
        if pairs_per_query is not None:
            kw["pairs_per_query"] = pairs_per_query
        cfg = AuditConfig(methods="pairwise", default_thresholds=True,
                          seed=seed, **kw)
        return run_audit(corpus, cfg).models["pairwise"]

    null_corpus, _ = null_data
    null_model = pair_fit(null_corpus, fraction=1.0, pairs_per_query=25_000,
                          seed=20240601)
    null_grid = pairwise.probability_grid(null_model)
    flat = [null_grid[a][b] for a in AgeGroup for b in AgeGroup]
    assert min(flat) >= 0.48 and max(flat) <= 0.52, (min(flat), max(flat))

    probs: dict[float, dict[AgeGroup, float]] = {}
    gap_model = None
    for offset in (0.05, 0.10, 0.15, 0.20):
        if offset == 0.15:
            corpus, _ = truegap_data
        else:
            corpus, _ = synth.generate(synth.true_gap_scenario(offset))
        model = pair_fit(corpus, seed=20240604)
        grid = pairwise.probability_grid(model)
        probs[offset] = {a: grid[AgeGroup.G4][a]
                         for a in AgeGroup if a is not AgeGroup.G4}
        if offset == 0.15:
            gap_model = model

    assert all(p >= 0.55 for p in probs[0.15].values()), probs[0.15]
    for a in (AgeGroup.G1, AgeGroup.G2, AgeGroup.G3):
        seq = [probs[off][a] for off in (0.05, 0.10, 0.15, 0.20)]
        assert all(lo < hi for lo, hi in zip(seq, seq[1:])), (a, seq)

    worst = 0.0
    for a in AgeGroup:
        for b in AgeGroup:
            s = (pairwise.predict_pair_prob(gap_model, a, Gender.MALE,
                                            b, Gender.FEMALE)
                 + pairwise.predict_pair_prob(gap_model, b, Gender.FEMALE,
                                              a, Gender.MALE))
            worst = max(worst, abs(s - 1.0))
    assert worst == 0.0

    elapsed = time.perf_counter() - t0
    detect = min(probs[0.15].values())
    print(f"CRITERION 6 (pairwise null and detection): PASS; "
          f"null band [{min(flat):.4f}, {max(flat):.4f}]; "
          f"P(oldest wins) at offset 0.15 >= {detect:.3f}; "
          f"monotone in offset per pairing; "
          f"complement deviation {worst:.1e}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. labeling thresholds back-solve exactly from group gaps

def test_criterion_7_threshold_back_solve():
    thr = pairwise.derive_thresholds_from_deltas({GU: 0.16}, k=2.5)
    assert thr.gu_strong == 0.4
    assert thr.gu_weak == 0.2
    doubled = pairwise.derive_thresholds_from_deltas({GU: 0.16}, k=5.0)
    assert doubled.gu_strong == 0.8
    # metrics without a gap estimate keep their default thresholds
    assert thr.scc_strong == pairwise.DEFAULT_THRESHOLDS.scc_strong
    assert thr.pcc_external == pairwise.DEFAULT_THRESHOLDS.pcc_external
    assert thr.k == 2.5
    print("CRITERION 7 (threshold back-solve): PASS; "
          "gap 0.16 at k=2.5 gives strong threshold 0.4 exactly, "
          "weak 0.2, and k=5.0 doubles it to 0.8 exactly")


# ---------------------------------------------------------------------------
# 8. aggregate unit properties and end-to-end determinism

def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_8_units_and_determinism(qmix_small, tmp_path):
    corpus, _ = qmix_small

    norm = aggregate.normalize(
        aggregate.query_averaged_scores(corpus, Factor.AGE))
    assert GU not in norm.degenerate
    for kind in METRICS:
        if kind in norm.degenerate:
            continue
        vals = [s.normalized for s in norm.scores[kind].values()]
        assert min(vals) == 0.0
        assert max(vals) == 1.0

    assert aggregate.query_kl(corpus, AgeGroup.G1, AgeGroup.G1,
                              Factor.AGE) == 0.0
    cross = aggregate.query_kl(corpus, AgeGroup.G1, AgeGroup.G4, Factor.AGE)
    assert cross > 0.0

    classes = aggregate.head_tail_classify(corpus)
    all_queries = {imp.query_text for imp in corpus.impressions}
    assert set(classes) == all_queries
    n = len(all_queries)
    tiers = {t: sum(1 for v in classes.values() if v == t)
             for t in ("head", "torso", "tail")}
    assert tiers["head"] == -(-n // 5)          # ceil(20%)
    assert tiers["tail"] == (3 * n) // 10       # floor(30%)
    assert tiers["head"] + tiers["torso"] + tiers["tail"] == n

    # the full pipeline, run twice from scratch, writes identical bytes
    t0 = time.perf_counter()
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        gen, aud, rep = run_dir / "gen", run_dir / "audit", run_dir / "report"
        assert main(["generate", "--preset", "query_mix_confound",
                     "--impressions", "16000", "--out", str(gen)]) == 0
        assert main(["audit", "--input", str(gen / "corpus.ndjson"),
                     "--methods", "raw,matched,multilevel,pairwise",
                     "--navigational",
                     str(gen / "navigational_queries.txt"),
                     "--pair-fraction", "1.0", "--out", str(aud)]) == 0
        assert main(["report", "--audit-dir", str(aud),
                     "--out", str(rep)]) == 0
    elapsed = time.perf_counter() - t0

    first = _tree_bytes(tmp_path / "r1")
    second = _tree_bytes(tmp_path / "r2")
    assert first.keys() == second.keys()
    diffs = [name for name in first if first[name] != second[name]]
    assert diffs == []

    summary = json.loads((tmp_path / "r1" / "audit" / "summary.json")
                         .read_text())
    assert summary["divergence"]["raw_vs_matched"] is True

    print(f"CRITERION 8 (units and determinism): PASS; "
          f"normalized extremes exactly 0/1; self-divergence exactly 0, "
          f"cross {cross:.3f}; head/torso/tail {tiers['head']}/"
          f"{tiers['torso']}/{tiers['tail']} of {n}; "
          f"{len(first)} pipeline files byte-identical across reruns "
          f"({elapsed:.1f}s); divergence flagged")
