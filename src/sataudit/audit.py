"""One audit: the selected methods run in a fixed order, then one writer.

:class:`AuditConfig` holds every settable value; the command line and its
config file set exactly these fields.  :func:`run_audit` returns what each
method produced with the run summary; :func:`write_audit` writes them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import aggregate, difficulty as difficulty_mod, matching, multilevel, \
    pairwise, reports
from .aggregate import Factor, METRICS, NormalizedScores
from .errors import ConfigError
from .logmodel import AgeGroup, Gender, LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S, MetricKind

METHODS = ("raw", "matched", "multilevel", "pairwise", "external")


@dataclass(frozen=True)
class AuditConfig:
    """Every settable value of an audit, kept exactly as given (a JSON
    ``3`` stays an int) since the metadata hash covers them.  ``methods``
    may be a comma list or a sequence; it is kept as a tuple in
    :data:`METHODS` order."""

    factor: str = Factor.AGE.value
    methods: tuple[str, ...] = ("raw", "matched")
    seed: int = 0
    dwell_threshold: float = DEFAULT_DWELL_THRESHOLD_S
    min_impressions: int = matching.MatchConfig.min_impressions_per_group
    min_groups: int | None = None       # None: 3 for age, 2 for gender
    serp_prefix: int = matching.MatchConfig.serp_prefix_len
    nav_share: float = matching.MatchConfig.navigational_share
    k: float = pairwise.DEFAULT_THRESHOLDS.k
    pair_fraction: float = pairwise.DEFAULT_QUERY_FRACTION
    pairs_per_query: int = pairwise.DEFAULT_PAIRS_PER_QUERY
    prior_variance: float = multilevel.PriorConfig.variance_age
    empirical_bayes: bool = multilevel.PriorConfig.empirical_bayes
    default_thresholds: bool = False

    def __post_init__(self):
        spec = self.methods
        chosen = {m.strip() for m in (spec.split(",") if isinstance(spec, str)
                                      else spec)} - {""}
        unknown = sorted(chosen - set(METHODS))
        if unknown:
            raise ConfigError(f"unknown methods: {', '.join(unknown)}; "
                              f"choose from {', '.join(METHODS)}")
        if not chosen:
            raise ConfigError("no audit methods selected")
        object.__setattr__(self, "methods",
                           tuple(m for m in METHODS if m in chosen))
        if self.factor not in [f.value for f in Factor]:
            raise ConfigError(f"unknown factor {self.factor!r}; choose "
                              f"from {', '.join(f.value for f in Factor)}")
        if (("pairwise" in chosen or "external" in chosen)
                and not self.default_thresholds
                and "multilevel" not in chosen):
            raise ConfigError(
                "pairwise labeling thresholds come from the multilevel fit "
                "deltas; add multilevel to --methods or pass "
                "--default-thresholds")


@dataclass
class AuditResult:
    """What each stage of :func:`run_audit` produced; None or empty where
    a method did not run (``raw`` also serves matching as its common
    scale).  ``samples``, ``labels`` and ``models`` are keyed by labeller
    method, "pairwise" or "external"; each model carries its thresholds."""

    config: AuditConfig
    summary: dict
    raw: NormalizedScores | None = None
    matched: NormalizedScores | None = None          # on its own scale
    matched_common: NormalizedScores | None = None   # on the raw scale
    cohort: matching.MatchedCohort | None = None
    difficulty: difficulty_mod.DifficultyTable | None = None
    fits: dict[MetricKind, multilevel.MultilevelFit] = field(
        default_factory=dict)
    deltas: dict[MetricKind, float] = field(default_factory=dict)
    samples: dict[str, pairwise.PairSample] = field(default_factory=dict)
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    models: dict[str, pairwise.PairModel] = field(default_factory=dict)


def _gaps(norm: NormalizedScores) -> dict[str, float]:
    return {kind.value: norm.gap(kind) for kind in METRICS}


def run_audit(corpus: LogCorpus, cfg: AuditConfig = AuditConfig(),
              navigational: set[str] | None = None) -> AuditResult:
    """Run the configured methods on `corpus` in :data:`METHODS` order.

    `navigational` is the matching stage's navigational query set; without
    it a click-concentration proxy picks the queries.  Pairwise thresholds
    derive from the multilevel deltas unless ``default_thresholds`` is set.
    """
    methods = cfg.methods
    if "external" in methods and corpus.has_dwell:
        raise ConfigError("the external method audits clicks-only logs; "
                          "this corpus has dwell fidelity, use pairwise")
    factor = Factor(cfg.factor)
    dwell = cfg.dwell_threshold
    res = AuditResult(cfg, {"factor": factor.value, "methods": list(methods),
                            "n_impressions": len(corpus),
                            "n_queries": len(corpus.columns.queries)})
    summary = res.summary

    if "raw" in methods or "matched" in methods:
        res.raw = raw = aggregate.normalize(
            aggregate.query_averaged_scores(corpus, factor, dwell))
    if "raw" in methods:
        summary["raw"] = {
            "gaps": _gaps(raw),
            "degenerate": sorted(k.value for k in raw.degenerate)}

    if "matched" in methods:
        res.cohort = matching.match_contexts(
            corpus, factor, matching.MatchConfig(
                min_impressions_per_group=cfg.min_impressions,
                serp_prefix_len=cfg.serp_prefix,
                navigational_share=cfg.nav_share, dwell_threshold_s=dwell),
            navigational=navigational)
        matched_raw = matching.matched_raw_scores(res.cohort, dwell)
        res.matched = aggregate.normalize(matched_raw)
        res.matched_common = aggregate.normalize(matched_raw,
                                                 reference=raw.bounds)
        gaps_common = {
            kind.value: (0.0 if kind in raw.degenerate
                         else res.matched_common.gap(kind))
            for kind in METRICS}
        divergent = {
            kind.value: bool(kind not in raw.degenerate
                             and raw.gap(kind) > 0
                             and gaps_common[kind.value]
                             <= raw.gap(kind) / 3.0)
            for kind in METRICS}
        summary["matched"] = {
            "gaps": _gaps(res.matched),
            "gaps_common_scale": gaps_common,
            "attrition": [dataclasses.asdict(s)
                          for s in res.cohort.attrition]}
        summary["divergence"] = {"metrics": divergent,
                                 "raw_vs_matched": any(divergent.values())}

    if "multilevel" in methods:
        res.difficulty = difficulty_mod.estimate_difficulty(
            corpus, factor=factor, dwell_threshold_s=dwell)
        var = cfg.prior_variance
        priors = multilevel.PriorConfig(
            variance_age=var, variance_gender=var, variance_topic=var,
            variance_interaction=var,
            empirical_bayes=bool(cfg.empirical_bayes))
        for kind in METRICS:
            obs = multilevel.build_observations(corpus, res.difficulty, kind,
                                                dwell)
            fit = res.fits[kind] = multilevel.fit_multilevel(obs,
                                                             priors=priors)
            res.deltas[kind] = multilevel.max_group_gap(fit)
        summary["multilevel"] = {
            "deltas": {kind.value: d for kind, d in res.deltas.items()},
            "convergence": {kind.value: fit.convergence.iterations
                            for kind, fit in res.fits.items()}}

    for method in ("pairwise", "external"):
        if method not in methods:
            continue
        thresholds = (
            dataclasses.replace(pairwise.DEFAULT_THRESHOLDS, k=cfg.k)
            if cfg.default_thresholds or not res.deltas
            else pairwise.derive_thresholds_from_deltas(res.deltas, k=cfg.k))
        eligible = pairwise.eligible_queries(
            corpus, factor, min_impressions=cfg.min_impressions,
            min_groups=((3 if factor is Factor.AGE else 2)
                        if cfg.min_groups is None else cfg.min_groups))
        sample = res.samples[method] = pairwise.sample_pairs(
            corpus, eligible, seed=cfg.seed, fraction=cfg.pair_fraction,
            pairs_per_query=cfg.pairs_per_query, factor=factor)
        labels = res.labels[method] = pairwise.label_sample(
            corpus, sample, thresholds,
            mode="internal" if method == "pairwise" else "external",
            dwell_threshold_s=dwell)
        model = res.models[method] = pairwise.fit_pair_model(
            pairwise.build_labeled_pairs(corpus, sample, labels),
            prior_variance=cfg.prior_variance)
        model.thresholds = thresholds
        grid = pairwise.probability_grid(model)
        summary[method] = {
            "grid": {a.label: {b.label: grid[a][b] for b in AgeGroup}
                     for a in AgeGroup},
            "labels": {"positive": int((labels == 1).sum()),
                       "negative": int((labels == -1).sum()),
                       "zero": int((labels == 0).sum()),
                       "total": int(labels.size)},
            "thresholds": dataclasses.asdict(thresholds),
            "n_eligible_queries": len(eligible)}
    return res


# ---------------------------------------------------------------------------
# writing

def audit_meta(cfg: AuditConfig, **context) -> dict:
    """The metadata block of an audit's files; its hash covers `context`
    (the CLI's command, input file name and format) and every field."""
    return reports.run_meta(cfg.seed, {
        **context, **{f.name: getattr(cfg, f.name)
                      for f in dataclasses.fields(cfg)}})


def _scores_rows(norm: NormalizedScores,
                 common: NormalizedScores | None = None) -> list[dict]:
    cell = reports.csv_value
    rows = []
    for kind in METRICS:
        for g in norm.factor.groups():
            if g not in norm.scores[kind]:
                continue
            s = norm.scores[kind][g]
            row = {"metric": kind.value,
                   "group": g.label if isinstance(g, AgeGroup) else g.code,
                   "raw": cell(s.raw), "normalized": cell(s.normalized),
                   "stderr": cell(s.stderr), "n_queries": s.n_queries,
                   "n_impressions": s.n_impressions}
            if common is not None:
                row["normalized_common"] = cell(
                    common.scores[kind][g].normalized)
            rows.append(row)
    return rows


def write_audit(result: AuditResult, out: Path, meta: dict) -> None:
    """Write the audit directory `out` (which must exist): one CSV or JSON
    file per output of each method that ran, then ``summary.json``."""
    out, cell = Path(out), reports.csv_value
    methods, summary = result.config.methods, result.summary
    if "raw" in methods:
        reports.write_csv(out / "raw_scores.csv",
                          ["metric", "group", "raw", "normalized", "stderr",
                           "n_queries", "n_impressions"],
                          _scores_rows(result.raw), meta)
    if "matched" in methods:
        reports.write_csv(out / "matched_scores.csv",
                          ["metric", "group", "raw", "normalized",
                           "normalized_common", "stderr", "n_queries",
                           "n_impressions"],
                          _scores_rows(result.matched, result.matched_common),
                          meta)
        reports.write_csv(out / "attrition.csv",
                          ["stage", "impressions", "queries"],
                          summary["matched"]["attrition"], meta)

    if "multilevel" in methods:
        reports.write_csv(out / "difficulty.csv",
                          ["query_text", "difficulty"],
                          [{"query_text": q, "difficulty": cell(d)}
                           for q, d in sorted(
                               result.difficulty.difficulty.items())],
                          meta)
        grid_rows = []
        for kind, fit in result.fits.items():
            reports.write_json(out / f"fit_{kind.value}.json", {
                "metric": kind.value, "family": fit.family.name.lower(),
                "effects": fit.effects.to_dict(),
                "convergence": {
                    k: getattr(fit.convergence, k)
                    for k in ("iterations", "objective", "gradient_norm")},
                "dispersion": fit.dispersion,
                "n_observations": fit.n_observations,
                # every impression is a row unless its query lacks a
                # difficulty value
                "n_skipped": summary["n_impressions"] - fit.n_observations},
                meta)
            for gender in (Gender.MALE, Gender.FEMALE):
                for p in multilevel.prediction_grid(fit, gender=gender):
                    grid_rows.append({
                        "metric": kind.value, "topic": p.topic,
                        "age": p.age.label, "gender": p.gender.code,
                        "difficulty": cell(p.difficulty),
                        "value": cell(p.value)})
        reports.write_csv(out / "prediction_grid.csv",
                          ["metric", "topic", "age", "gender", "difficulty",
                           "value"], grid_rows, meta)

    for method, model in result.models.items():
        prefix = "" if method == "pairwise" else "external_"
        stats = dict(summary[method])
        grid = stats.pop("grid")   # the rest is labels, thresholds, counts
        reports.write_json(out / f"{prefix}pair_model.json", {
            **stats, "model": model.to_dict(),
            "labeler": "internal" if method == "pairwise" else "external",
            "n_sampled_queries": len(result.samples[method].queries)}, meta)
        reports.write_json(out / f"{prefix}pair_grid.json", {
            "gender_i": Gender.MALE.code, "gender_j": Gender.FEMALE.code,
            "probabilities": grid}, meta)

    reports.write_json(out / "summary.json", summary, meta)
