"""Acceptance suite: one test per headline capability.

Each test exercises a full capability end to end at its stated tolerance
and prints a single summary line with the measured numbers (visible with
pytest -s, and in the failure report otherwise).  The pytest -v status
line per test is the pass/fail verdict.
"""

import csv
import importlib
import json
import logging
import pkgutil
import random
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import cell_coefficients, label_sample, sample_pairs, \
    score_cells
import sataudit
from sataudit import aggregate, logmodel, multilevel, pairwise, synth
from sataudit.aggregate import Factor, METRICS
from sataudit.audit import AuditConfig, run_audit
from sataudit.cli import main
from sataudit.difficulty import rank_and_average
from sataudit.glmfit import Family
from sataudit.logmodel import AgeGroup, Gender
from sataudit.metrics import GU_LEVELS, MetricKind
from sataudit.multilevel import ObservationSet

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

    raw_gaps = dict(zip(METRICS, raw_norm.gaps.tolist()))
    assert max(raw_gaps.values()) >= 0.15

    # the headline gap is real in metric units too, not a rescaling artifact
    gu_raw = raw_norm.raw[METRICS.index(GU)].tolist()
    assert max(gu_raw) - min(gu_raw) >= 0.15

    gaps_common = dict(zip(METRICS, np.where(raw_norm.degenerate, 0.0,
                                             common.gaps).tolist()))
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
                a_hat, b_hat, seen = cell_coefficients(
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
    fit2 = multilevel.fit_multilevel(obs2, prior_variance=1e8)
    a_hat, b_hat, _ = cell_coefficients(
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
        # the averaged table, then each group's own percentiles
        for before, after in [(base, warped)] + [
                ({g: base[g]}, {g: warped[g]}) for g in base]:
            ref, out = (rank_and_average(*score_cells(tbl)[:3], n_queries)
                        for tbl in (before, after))
            assert ref.tobytes() == out.tobytes(), trial
    print("CRITERION 4 (difficulty invariance): PASS; 100/100 randomized "
          "monotone remaps left every difficulty table bit-identical")


# ---------------------------------------------------------------------------
# 5. the pair labeler agrees with the latent ordering and is antisymmetric

def test_criterion_5_labeler_fidelity(truegap_data):
    corpus, truth = truegap_data
    eligible = pairwise.eligible_queries(corpus)
    # the reference sampler, which keeps each pair's rows
    sample = sample_pairs(corpus, eligible, seed=20240604)
    labels = label_sample(corpus, sample)

    li, lj = truth.latent[sample.i_idx], truth.latent[sample.j_idx]
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
    male, female = 0, 1                 # gender codes, in Gender order
    null_grid = pairwise.probability_grid(null_model)[:, male, :, female]
    flat = null_grid.ravel().tolist()
    assert min(flat) >= 0.48 and max(flat) <= 0.52, (min(flat), max(flat))

    probs: dict[float, dict[AgeGroup, float]] = {}
    gap_model = None
    for offset in (0.05, 0.10, 0.15, 0.20):
        if offset == 0.15:
            corpus, _ = truegap_data
        else:
            corpus, _ = synth.generate(synth.preset_true_gap(offset=offset))
        model = pair_fit(corpus, seed=20240604)
        grid = pairwise.probability_grid(model)[:, male, :, female]
        probs[offset] = {a: grid[3, a - 1]
                         for a in AgeGroup if a is not AgeGroup.G4}
        if offset == 0.15:
            gap_model = model

    assert all(p >= 0.55 for p in probs[0.15].values()), probs[0.15]
    for a in (AgeGroup.G1, AgeGroup.G2, AgeGroup.G3):
        seq = [probs[off][a] for off in (0.05, 0.10, 0.15, 0.20)]
        assert all(lo < hi for lo, hi in zip(seq, seq[1:])), (a, seq)

    p = pairwise.probability_grid(gap_model)
    worst = float(np.abs(p + p.transpose(2, 3, 0, 1) - 1.0).max())
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
    assert not norm.degenerate[METRICS.index(GU)]
    for k in range(len(METRICS)):
        if norm.degenerate[k]:
            continue
        vals = norm.normalized[k].tolist()
        assert min(vals) == 0.0
        assert max(vals) == 1.0

    assert aggregate.query_kl(corpus, AgeGroup.G1, AgeGroup.G1,
                              Factor.AGE) == 0.0
    cross = aggregate.query_kl(corpus, AgeGroup.G1, AgeGroup.G4, Factor.AGE)
    assert cross > 0.0

    classes = aggregate.head_tail_classify(corpus)
    all_queries = set(corpus.queries)
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
                         .read_text(encoding="utf-8"))
    assert summary["divergence"]["raw_vs_matched"] is True

    print(f"CRITERION 8 (units and determinism): PASS; "
          f"normalized extremes exactly 0/1; self-divergence exactly 0, "
          f"cross {cross:.3f}; head/torso/tail {tiers['head']}/"
          f"{tiers['torso']}/{tiers['tail']} of {n}; "
          f"{len(first)} pipeline files byte-identical across reruns "
          f"({elapsed:.1f}s); divergence flagged")


# ---------------------------------------------------------------------------
# 9. the audit depends on a log's records, not on the order of its lines

def _shuffled(src: Path, dst: Path) -> None:
    """Copy a log with its record lines (a CSV keeps its header first) in
    a seeded random order."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    head = lines[:1] if src.suffix == ".csv" else []
    body = lines[len(head):]
    random.Random(9).shuffle(body)
    dst.parent.mkdir(parents=True)
    dst.write_text("".join(head + body), encoding="utf-8")


def _clicks_only(src: Path, dst: Path) -> None:
    """Copy a CSV log with every dwell time and reformulated flag blank."""
    dst.parent.mkdir(parents=True)
    with open(src, encoding="utf-8", newline="") as fin, \
            open(dst, "w", encoding="utf-8", newline="") as fout:
        reader = csv.DictReader(fin)
        writer = csv.DictWriter(fout, fieldnames=reader.fieldnames,
                                lineterminator="\n")
        writer.writeheader()
        for row in reader:
            clicks = [part.split(":") for part in row["clicks"].split(";")
                      if part]
            row["clicks"] = ";".join(f"{pos}:{rid}::{term}"
                                     for pos, rid, _, term in clicks)
            row["reformulated"] = ""
            writer.writerow(row)


def test_criterion_9_line_order_does_not_change_the_audit(tmp_path):
    t0 = time.perf_counter()
    gen = tmp_path / "gen"
    assert main(["generate", "--preset", "mixed", "--seed", "1",
                 "--impressions", "12000", "--out", str(gen / "mixed")]) == 0
    assert main(["generate", "--preset", "dwell_confound", "--seed", "1",
                 "--impressions", "12000", "--format", "csv",
                 "--out", str(gen / "dwell")]) == 0
    logs = tmp_path / "file"
    _clicks_only(gen / "dwell" / "corpus.csv", logs / "clicks" / "corpus.csv")
    (logs / "mixed").mkdir()
    (logs / "mixed" / "corpus.ndjson").write_bytes(
        (gen / "mixed" / "corpus.ndjson").read_bytes())
    for name in ("mixed/corpus.ndjson", "clicks/corpus.csv"):
        _shuffled(logs / name, tmp_path / "shuffled" / name)
    runs = {
        "audit": ["audit", "--input", "mixed/corpus.ndjson",
                  "--methods", "raw,matched,multilevel,pairwise",
                  "--navigational", str(gen / "mixed" /
                                        "navigational_queries.txt")],
        "external": ["audit", "--input", "clicks/corpus.csv",
                     "--methods", "external", "--default-thresholds",
                     "--pair-fraction", "1.0"],
        "metrics": ["metrics", "--input", "clicks/corpus.csv"],
    }
    trees = {}
    for order in ("file", "shuffled"):
        for name, argv in runs.items():
            argv = [str(tmp_path / order / a) if a.startswith(
                ("mixed/", "clicks/")) else a for a in argv]
            assert main([*argv, "--out", str(tmp_path / "out" / order /
                                              name)]) == 0, name
        trees[order] = _tree_bytes(tmp_path / "out" / order)
    elapsed = time.perf_counter() - t0

    assert trees["file"].keys() == trees["shuffled"].keys()
    diffs = [name for name in trees["file"]
             if trees["file"][name] != trees["shuffled"][name]]
    assert diffs == []
    print(f"CRITERION 9 (line order): PASS; {len(trees['file'])} files of "
          f"a mixed audit, an external audit and the metrics of a "
          f"clicks-only log byte-identical after a line shuffle "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# metamorphic relation M4: the audit reads time gaps, never a clock reading

M4_SHIFT = 86_400 * 3_653 + 17      # ten years and a few seconds


def _shifted(src: Path, dst: Path) -> None:
    """Copy a log with every timestamp moved M4_SHIFT seconds later."""
    dst.parent.mkdir(parents=True)
    with open(src, encoding="utf-8", newline="") as fin, \
            open(dst, "w", encoding="utf-8", newline="") as fout:
        if src.suffix == ".csv":
            reader = csv.DictReader(fin)
            writer = csv.DictWriter(fout, fieldnames=reader.fieldnames,
                                    lineterminator="\n")
            writer.writeheader()
            for row in reader:
                row["timestamp"] = int(row["timestamp"]) + M4_SHIFT
                writer.writerow(row)
        else:
            for line in fin:
                rec = json.loads(line)
                rec["timestamp"] += M4_SHIFT
                fout.write(json.dumps(rec) + "\n")


def test_m4_timestamp_shift_does_not_change_the_audit(tmp_path, capsys,
                                                       caplog):
    t0 = time.perf_counter()
    gen = tmp_path / "gen"
    # seeds at which both logs, this small, label some pairs
    assert main(["generate", "--preset", "dwell_confound", "--seed", "3",
                 "--impressions", "6000", "--format", "csv",
                 "--out", str(gen / "dwell")]) == 0
    assert main(["generate", "--preset", "mixed", "--seed", "1",
                 "--impressions", "8000", "--out", str(gen / "mixed")]) == 0
    logs = tmp_path / "file"
    # blanked flags, so the audit derives them from the timestamps
    _clicks_only(gen / "dwell" / "corpus.csv", logs / "clicks" / "corpus.csv")
    (logs / "mixed").mkdir()
    (logs / "mixed" / "corpus.ndjson").write_bytes(
        (gen / "mixed" / "corpus.ndjson").read_bytes())
    for name in ("mixed/corpus.ndjson", "clicks/corpus.csv"):
        _shifted(logs / name, tmp_path / "shifted" / name)
    runs = {
        "audit": ["audit", "--input", "mixed/corpus.ndjson",
                  "--methods", "raw,matched,multilevel,pairwise",
                  "--navigational", str(gen / "mixed" /
                                        "navigational_queries.txt")],
        "external": ["audit", "--input", "clicks/corpus.csv",
                     "--methods", "external", "--default-thresholds",
                     "--pair-fraction", "1.0"],
        # the external labeler reads click counts alone; metrics.csv shows
        # the derived flags
        "metrics": ["metrics", "--input", "clicks/corpus.csv"],
    }
    trees, stderr = {}, {}
    capsys.readouterr()
    caplog.set_level(logging.WARNING)
    for order in ("file", "shifted"):
        for name, argv in runs.items():
            argv = [str(tmp_path / order / a) if a.startswith(
                ("mixed/", "clicks/")) else a for a in argv]
            assert main([*argv, "--out", str(tmp_path / "out" / order /
                                              name)]) == 0, name
        trees[order] = _tree_bytes(tmp_path / "out" / order)
        # the warnings, which reach stderr outside pytest
        stderr[order] = [capsys.readouterr().err,
                         [r.getMessage() for r in caplog.records]]
        caplog.clear()
    elapsed = time.perf_counter() - t0

    assert trees["file"].keys() == trees["shifted"].keys()
    diffs = [name for name in trees["file"]
             if trees["file"][name] != trees["shifted"][name]]
    assert diffs == []
    assert stderr["file"] == stderr["shifted"] and stderr["file"][1]
    print(f"M4 (timestamp shift): PASS; {len(trees['file'])} files of a "
          f"mixed audit, an external audit and the metrics of a clicks-only "
          f"log byte-identical after a {M4_SHIFT} s shift ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# metamorphic relations M1 to M3 relabel the groups or rename the
# impressions, so each fit meets its design columns or its rows in another
# order, and its sums and Newton solves round another way.  A multilevel
# delta, a prediction-grid value or a pair-grid cell must agree to 40 of
# the 53 bits of the largest coefficient of the fit it comes from: 2**13
# units in its last place are left for the condition of the Newton
# systems, far below what a group fitted under the wrong label would move
FIT_BITS = 40


def _largest(tree) -> float:
    """The largest absolute number anywhere in a JSON value."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return max((_largest(v) for v in tree), default=0.0)
    return abs(tree)


def _within_fit_rounding(gaps: dict[str, float], out: Path
                         ) -> dict[str, float]:
    """Check each of `gaps` against FIT_BITS bits of the largest
    coefficient of its fit in the audit directory `out`, keyed by metric
    for a multilevel fit and "grid" for the pair model; returns each gap
    over that coefficient."""
    scales = {}
    for key in gaps:
        if key == "grid":
            model = json.loads((out / "pair_model.json").read_text(
                encoding="utf-8"))["model"]
            scales[key] = max(_largest(model[k]) for k in
                              ("age_i", "gender_i", "interaction"))
        else:
            scales[key] = _largest(json.loads((out / f"fit_{key}.json")
                                              .read_text(encoding="utf-8"))
                                   ["effects"])
        assert gaps[key] <= scales[key] * 2.0 ** -FIT_BITS, \
            (key, gaps[key], scales[key])
    return {key: gap / scales[key] for key, gap in gaps.items()}


def _data_rows(path: Path) -> list[dict]:
    """A CSV written by the audit, its '# ' metadata lines dropped."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("# ")))


# ---------------------------------------------------------------------------
# metamorphic relation M1: swapping every record's gender swaps the
# gender rows of the audit

# seeds whose logs, this small, label some pairs; each rounds the fits
# another way
M1_SEEDS = (1, 3, 4, 5, 6)


def _m1_gaps(tmp_path: Path, seed: int) -> dict[str, float]:
    """Run M1 on the `seed` mixed log; the largest delta and grid gaps
    over their fits' largest coefficients."""
    gen = tmp_path / "gen"
    assert main(["generate", "--preset", "mixed", "--seed", str(seed),
                 "--impressions", "8000", "--out", str(gen)]) == 0
    other = {"M": "F", "F": "M"}
    (tmp_path / "swapped").mkdir()
    with open(gen / "corpus.ndjson", encoding="utf-8") as fin, \
            open(tmp_path / "swapped" / "corpus.ndjson", "w",
                 encoding="utf-8", newline="\n") as fout:
        for line in fin:
            head, marker, tail = line.rpartition('"gender": "')
            fout.write(head + marker + other[tail[0]] + tail[1:])
    out = {}
    for name, log in (("file", gen / "corpus.ndjson"),
                      ("swapped", tmp_path / "swapped" / "corpus.ndjson")):
        out[name] = tmp_path / "out" / name
        assert main(["audit", "--input", str(log), "--factor", "gender",
                     "--methods", "raw,matched,multilevel,pairwise",
                     "--navigational", str(gen / "navigational_queries.txt"),
                     "--pair-fraction", "1.0", "--out", str(out[name])]) == 0

    # raw and matched rows: the M row of one audit is the F row of the
    # other, every value exact
    for scores in ("raw_scores.csv", "matched_scores.csv"):
        rows = {name: _data_rows(out[name] / scores) for name in out}
        assert len(rows["file"]) == 2 * len(METRICS)
        assert {(r["metric"], other[r["group"]]): r for r in rows["swapped"]
                } == {(r["metric"], r["group"]): {**r, "group": other[
                    r["group"]]} for r in rows["file"]}, (seed, scores)
    summary = {name: json.loads((out[name] / "summary.json").read_text(
        encoding="utf-8")) for name in out}
    file, swapped = summary["file"], summary["swapped"]
    assert swapped["raw"]["gaps"] == file["raw"]["gaps"]
    assert swapped["matched"]["attrition"] == file["matched"]["attrition"]
    # the same pairs are sampled and labelled: labels read behaviour only
    assert swapped["pairwise"]["labels"] == file["pairwise"]["labels"]
    assert file["pairwise"]["labels"]["positive"] > 0, seed
    # the deltas, and the grid, to rounding: a grid cell p[a][b] is P(an M
    # of age a beats an F of age b), so the swapped log reads 1 - p[b][a]
    gaps = {kind: abs(swapped["multilevel"]["deltas"][kind] - d)
            for kind, d in file["multilevel"]["deltas"].items()}
    grid, grid_swapped = file["pairwise"]["grid"], swapped["pairwise"]["grid"]
    gaps["grid"] = max(abs(grid_swapped[a][b] - (1.0 - grid[b][a]))
                       for a in grid for b in grid)
    return _within_fit_rounding(gaps, out["file"])


def test_m1_gender_swap_swaps_the_gender_rows(tmp_path):
    t0 = time.perf_counter()
    worst = {seed: max(_m1_gaps(tmp_path / str(seed), seed).values())
             for seed in M1_SEEDS}
    elapsed = time.perf_counter() - t0
    print(f"M1 (gender swap): PASS; raw and matched rows swapped exactly "
          f"and labels identical on seeds {list(M1_SEEDS)}, largest delta "
          f"or grid gap over its fit's largest coefficient "
          + ", ".join(f"{s}: {v:.2g}" for s, v in worst.items())
          + f" ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# metamorphic relation M2: relabelling the age groups by a permutation
# permutes the age rows of the audit

M2_CYCLE = {"G1": "G2", "G2": "G3", "G3": "G4", "G4": "G1"}


def test_m2_age_cycle_permutes_the_age_rows(tmp_path):
    t0 = time.perf_counter()
    gen = tmp_path / "gen"
    assert main(["generate", "--preset", "mixed", "--seed", "1",
                 "--impressions", "8000", "--out", str(gen)]) == 0
    (tmp_path / "cycled").mkdir()
    with open(gen / "corpus.ndjson", encoding="utf-8") as fin, \
            open(tmp_path / "cycled" / "corpus.ndjson", "w",
                 encoding="utf-8", newline="\n") as fout:
        for line in fin:
            head, marker, tail = line.rpartition('"age": "')
            fout.write(head + marker + M2_CYCLE[tail[:2]] + tail[2:])
    out = {}
    for name, log in (("file", gen / "corpus.ndjson"),
                      ("cycled", tmp_path / "cycled" / "corpus.ndjson")):
        out[name] = tmp_path / "out" / name
        assert main(["audit", "--input", str(log),
                     "--methods", "raw,matched,multilevel,pairwise",
                     "--navigational", str(gen / "navigational_queries.txt"),
                     "--pair-fraction", "1.0", "--out", str(out[name])]) == 0
    elapsed = time.perf_counter() - t0
    label = {a.name: a.label for a in AgeGroup}
    pi = {label[a]: label[b] for a, b in M2_CYCLE.items()}

    # raw and matched rows: the row of group g is the cycled audit's row
    # of pi(g), every value exact, except a metric's normalized column
    # when its smallest or largest score is tied: normalization reads
    # the standard error of the first extreme group in factor order
    exempt = 0
    for scores in ("raw_scores.csv", "matched_scores.csv"):
        rows = {name: _data_rows(out[name] / scores) for name in out}
        assert len(rows["file"]) == 4 * len(METRICS)
        cycled = {(r["metric"], r["group"]): r for r in rows["cycled"]}
        for r in rows["file"]:
            same = [v["raw"] for v in rows["file"]
                    if v["metric"] == r["metric"]]
            tied = max(same.count(min(same, key=float)),
                       same.count(max(same, key=float))) > 1
            want = {**r, "group": pi[r["group"]]}
            got = dict(cycled[r["metric"], pi[r["group"]]])
            if tied:
                exempt += 1
                del want["normalized"], got["normalized"]
            assert got == want, (scores, r["metric"], r["group"])
    summary = {name: json.loads((out[name] / "summary.json").read_text(
        encoding="utf-8")) for name in out}
    file, cycled = summary["file"], summary["cycled"]
    assert cycled["matched"]["attrition"] == file["matched"]["attrition"]
    # the same pairs are sampled and labelled: labels read behaviour only
    assert cycled["pairwise"]["labels"] == file["pairwise"]["labels"]
    assert file["pairwise"]["labels"]["positive"] > 0

    # the deltas, and the grid, to rounding: a grid cell p[a][b] is P(an M
    # of age a beats an F of age b), so the cycled log reads it at
    # p'[pi(a)][pi(b)]
    gaps = {kind: abs(cycled["multilevel"]["deltas"][kind] - d)
            for kind, d in file["multilevel"]["deltas"].items()}
    grid, grid_cycled = file["pairwise"]["grid"], cycled["pairwise"]["grid"]
    gaps["grid"] = max(abs(grid_cycled[pi[a]][pi[b]] - grid[a][b])
                       for a in grid for b in grid)
    worst = _within_fit_rounding(gaps, out["file"])
    print(f"M2 (age 4-cycle): PASS; raw and matched rows permuted exactly "
          f"({exempt} tied normalized cells exempt), attrition and labels "
          f"{file['pairwise']['labels']} identical, largest gaps over the "
          f"fit's largest coefficient "
          + ", ".join(f"{k} {v:.2g}" for k, v in worst.items())
          + f" ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# metamorphic relation M3: renaming the impressions by an order-reversing
# bijection leaves the audit unchanged.  The pair stage is left out: its
# sampler draws pairs by row position, so a rename draws other pairs

def test_m3_id_reversal_does_not_change_the_audit(tmp_path):
    t0 = time.perf_counter()
    gen = tmp_path / "gen"
    assert main(["generate", "--preset", "mixed", "--seed", "1",
                 "--impressions", "8000", "--out", str(gen)]) == 0
    with open(gen / "corpus.ndjson", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    ids = sorted(r["impression_id"] for r in records)
    reverse = dict(zip(ids, reversed(ids)))
    (tmp_path / "reversed").mkdir()
    with open(tmp_path / "reversed" / "corpus.ndjson", "w",
              encoding="utf-8", newline="\n") as fh:
        for r in records:
            r["impression_id"] = reverse[r["impression_id"]]
            fh.write(json.dumps(r) + "\n")
    out = {}
    for name, log in (("file", gen / "corpus.ndjson"),
                      ("reversed", tmp_path / "reversed" / "corpus.ndjson")):
        out[name] = tmp_path / "out" / name
        assert main(["audit", "--input", str(log),
                     "--methods", "raw,matched,multilevel",
                     "--navigational", str(gen / "navigational_queries.txt"),
                     "--out", str(out[name])]) == 0
    elapsed = time.perf_counter() - t0

    for table in ("raw_scores.csv", "matched_scores.csv", "attrition.csv",
                  "difficulty.csv"):
        assert (out["reversed"] / table).read_bytes() == \
            (out["file"] / table).read_bytes(), table
    # the fits, to rounding: the same deltas, and the same prediction
    # grid rows in the same order
    summary = {name: json.loads((out[name] / "summary.json").read_text(
        encoding="utf-8")) for name in out}
    deltas = summary["file"]["multilevel"]["deltas"]
    gaps = {kind: abs(summary["reversed"]["multilevel"]["deltas"][kind] - d)
            for kind, d in deltas.items()}
    grid = {name: _data_rows(out[name] / "prediction_grid.csv")
            for name in out}
    assert [{**r, "value": None} for r in grid["reversed"]] == \
        [{**r, "value": None} for r in grid["file"]]
    for a, b in zip(grid["file"], grid["reversed"]):
        gaps[a["metric"]] = max(gaps[a["metric"]],
                                abs(float(a["value"]) - float(b["value"])))
    worst = _within_fit_rounding(gaps, out["file"])
    print(f"M3 (impression-id reversal): PASS; raw, matched, attrition and "
          f"difficulty tables byte-identical, {len(grid['file'])} grid rows "
          f"in the same order, largest delta or grid gap over the fit's "
          f"largest coefficient "
          + ", ".join(f"{k} {v:.2g}" for k, v in worst.items())
          + f" ({elapsed:.1f}s)")


def test_external_audit_derives_no_reformulation_flag(tmp_path, monkeypatch):
    # the external labeler reads page click counts alone, so auditing the
    # blanked M4 log must never fill in its unset flags
    assert main(["generate", "--preset", "dwell_confound", "--seed", "3",
                 "--impressions", "6000", "--format", "csv",
                 "--out", str(tmp_path / "gen")]) == 0
    log = tmp_path / "clicks" / "corpus.csv"
    _clicks_only(tmp_path / "gen" / "corpus.csv", log)

    def forbidden(corpus):
        raise AssertionError("reformulation flags derived")

    derive = logmodel.derive_reformulation_flags
    modules = [sataudit, *(importlib.import_module(f"sataudit.{m.name}")
                           for m in pkgutil.iter_modules(sataudit.__path__))]
    bound = [m for m in modules
             if getattr(m, "derive_reformulation_flags", None) is derive]
    assert logmodel in bound
    for module in bound:
        monkeypatch.setattr(module, "derive_reformulation_flags", forbidden)
    assert main(["audit", "--input", str(log), "--methods", "external",
                 "--default-thresholds", "--pair-fraction", "1.0",
                 "--out", str(tmp_path / "external")]) == 0
    # the patch holds where the flags are read: the metrics command
    # derives them
    with pytest.raises(AssertionError, match="flags derived"):
        main(["metrics", "--input", str(log),
              "--out", str(tmp_path / "metrics")])
