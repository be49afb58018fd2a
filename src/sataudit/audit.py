"""One audit: the selected methods run in a fixed order, then one writer.

:class:`AuditConfig` holds every settable value; the command line and its
config file set exactly these fields.  :func:`run_audit` returns what each
method produced with the run summary; :func:`write_audit` writes them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import aggregate, difficulty as difficulty_mod, matching, multilevel, \
    pairwise, reports
from .aggregate import Factor, METRICS, RawScores
from .errors import ConfigError, DataError, check_fields
from .logmodel import AgeGroup, Gender, LogCorpus
from .metrics import DEFAULT_DWELL_THRESHOLD_S, MetricKind

METHODS = ("raw", "matched", "multilevel", "pairwise", "external")
# the metrics that carry a pair-labelling threshold
_THRESHOLD_METRICS = (MetricKind.GRADED_UTILITY,
                      MetricKind.SUCCESSFUL_CLICK_COUNT,
                      MetricKind.PAGE_CLICK_COUNT)

_GROUP_COUNTS = {f.value: len(f.groups()) for f in Factor}

# what each field may hold once its type is right: (rule, test) pairs,
# checked in order
_RANGE_RULES = {
    "factor": [(" or ".join(_GROUP_COUNTS), lambda v: v in _GROUP_COUNTS)],
    "methods": [],                      # checked against METHODS below
    "seed": [("at least 0", lambda v: v >= 0)],
    "dwell_threshold": [("at least 0", lambda v: v >= 0)],
    "min_impressions": [("at least 1", lambda v: v >= 1)],
    "min_groups": [],                   # the factor's: see __post_init__
    "serp_prefix": [("at least 1", lambda v: v >= 1)],
    "nav_share": [("in (0, 1]", lambda v: 0 < v <= 1)],
    "k": [("positive", lambda v: v > 0)],
    "pair_fraction": [("in (0, 1]", lambda v: 0 < v <= 1)],
    "prior_variance": [("a positive number", lambda v: v > 0)],
    "empirical_bayes": [],
    "default_thresholds": [],
}


@dataclass(frozen=True)
class AuditConfig:
    """Every settable value of an audit, kept exactly as given (a JSON
    ``3`` stays an int) since the metadata hash covers them.  A value of
    the wrong type or out of its range is a ConfigError, never coerced.
    ``methods`` may be a comma list or a sequence; it is kept as a tuple
    in :data:`METHODS` order.  ``min_impressions`` has two meanings:
    matching keeps a query with that many impressions from every group of
    the factor, pair sampling one with that many in total."""

    factor: str = Factor.AGE.value
    methods: tuple[str, ...] = ("raw", "matched")
    seed: int = 0
    dwell_threshold: float = DEFAULT_DWELL_THRESHOLD_S
    min_impressions: int = matching.DEFAULT_MIN_IMPRESSIONS
    min_groups: int | None = None       # None: 3 for age, 2 for gender
    serp_prefix: int = matching.DEFAULT_SERP_PREFIX
    nav_share: float = matching.DEFAULT_NAV_SHARE
    k: float = pairwise.DEFAULT_THRESHOLDS.k
    pair_fraction: float = pairwise.DEFAULT_QUERY_FRACTION
    prior_variance: float = 1.0
    empirical_bayes: bool = False
    default_thresholds: bool = False

    def __post_init__(self):
        # factor is checked first, so min_groups sees a known factor's count
        groups = (_GROUP_COUNTS.get(self.factor, 0)
                  if isinstance(self.factor, str) else 0)
        check_fields(self, {**_RANGE_RULES, "min_groups": [(
            f"null or from 2 to {groups}",
            lambda v: v is None or 2 <= v <= groups)]})
        spec = self.methods
        chosen = {m.strip() for m in (spec.split(",") if isinstance(spec, str)
                                      else spec)} - {""}
        unknown = sorted(chosen - set(METHODS))
        if unknown:
            raise ConfigError(f"unknown methods: {', '.join(unknown)}; "
                              f"choose from {', '.join(METHODS)}")
        if not chosen:
            raise ConfigError("no audit methods selected")
        if "external" in chosen and len(chosen) > 1:
            # every other method reads the metric table, which needs dwell
            # times; external refuses a log that has them
            raise ConfigError("external runs alone: it audits clicks-only "
                              "logs and every other method needs dwell "
                              "times; choose external or the others")
        object.__setattr__(self, "methods",
                           tuple(m for m in METHODS if m in chosen))
        if ("pairwise" in chosen and not self.default_thresholds
                and "multilevel" not in chosen):
            raise ConfigError(
                "pairwise labeling thresholds come from the multilevel fit "
                "deltas; add multilevel to --methods or pass "
                "--default-thresholds")


@dataclass
class AuditResult:
    """What each stage of :func:`run_audit` produced; None or empty where
    a method did not run (``raw`` also serves matching, whose divergence
    verdict reads the raw spans).  ``counts`` (the pair stage's
    :class:`pairwise.PairCounts`, which the model and the label counts
    read) and ``models`` are keyed by labeller method, "pairwise" or
    "external"; each model carries its thresholds."""

    config: AuditConfig
    summary: dict
    raw: RawScores | None = None
    matched: RawScores | None = None
    cohort: matching.MatchedCohort | None = None
    difficulty: difficulty_mod.DifficultyTable | None = None
    fits: dict[MetricKind, multilevel.MultilevelFit] = field(
        default_factory=dict)
    deltas: dict[MetricKind, float] = field(default_factory=dict)
    counts: dict[str, pairwise.PairCounts] = field(default_factory=dict)
    models: dict[str, pairwise.PairModel] = field(default_factory=dict)


def _by_metric(values: np.ndarray) -> dict:
    return {kind.value: v for kind, v in zip(METRICS, values.tolist())}


def _span_block(spans: tuple[np.ndarray, ...]) -> dict:
    """The summary block of :func:`aggregate.group_spans`' arrays."""
    return {key: _by_metric(values) for key, values in
            zip(("span", "span_stderr", "distinguishable"), spans)}


def run_audit(corpus: LogCorpus, cfg: AuditConfig = AuditConfig(),
              navigational: set[str] | None = None) -> AuditResult:
    """Run the configured methods on `corpus` in :data:`METHODS` order.

    `navigational` is the matching stage's navigational query set; without
    it a click-concentration proxy picks the queries.  Pairwise thresholds
    derive from the multilevel deltas unless ``default_thresholds`` is set;
    external labels at the defaults.
    A corpus without impressions is a DataError, whatever the methods.
    """
    methods = cfg.methods
    if not len(corpus):
        raise DataError("the corpus holds no impressions")
    if "external" in methods and corpus.has_dwell:
        raise ConfigError("the external method audits clicks-only logs; "
                          "this corpus has dwell fidelity, use pairwise")
    factor = Factor(cfg.factor)
    dwell = cfg.dwell_threshold
    res = AuditResult(cfg, {"factor": factor.value, "methods": list(methods),
                            "n_impressions": len(corpus),
                            "n_queries": len(corpus.queries)})
    summary = res.summary

    if "raw" in methods or "matched" in methods:
        res.raw = aggregate.query_averaged_scores(corpus, factor, dwell)
        raw_spans = aggregate.group_spans(res.raw)
    if "raw" in methods:
        summary["raw"] = _span_block(raw_spans)

    if "matched" in methods:
        res.cohort = matching.match_contexts(
            corpus, factor, navigational,
            min_impressions=cfg.min_impressions,
            serp_prefix=cfg.serp_prefix, nav_share=cfg.nav_share,
            dwell_threshold_s=dwell)
        res.matched = matching.matched_raw_scores(res.cohort, dwell)
        matched_spans = aggregate.group_spans(res.matched)
        raw_span, _, raw_distinguishable = raw_spans
        # a raw span within its noise has no gap to lose
        divergent = raw_distinguishable & (matched_spans[0] <= raw_span / 3.0)
        summary["matched"] = {
            **_span_block(matched_spans),
            "attrition": [dataclasses.asdict(s)
                          for s in res.cohort.attrition]}
        summary["divergence"] = {"metrics": _by_metric(divergent),
                                 "raw_vs_matched": bool(divergent.any())}

    if "multilevel" in methods:
        res.difficulty = difficulty_mod.estimate_difficulty(
            corpus, factor=factor, dwell_threshold_s=dwell)
        for kind in METRICS:
            obs = multilevel.build_observations(corpus, res.difficulty, kind,
                                                dwell)
            fit = res.fits[kind] = multilevel.fit_multilevel(
                obs, cfg.prior_variance, cfg.empirical_bayes)
            res.deltas[kind] = multilevel.max_group_gap(fit)
        summary["multilevel"] = {
            "deltas": {kind.value: d for kind, d in res.deltas.items()},
            "convergence": {kind.value: fit.convergence.iterations
                            for kind, fit in res.fits.items()}}

    for method in ("pairwise", "external"):
        if method not in methods:
            continue
        # "default" unless derived: requested, or the external labeller
        source = {kind.value: "default" for kind in _THRESHOLD_METRICS}
        thresholds = (
            dataclasses.replace(pairwise.DEFAULT_THRESHOLDS, k=cfg.k)
            if method == "external" or cfg.default_thresholds
            else pairwise.derive_thresholds_from_deltas(res.deltas, cfg.k,
                                                        source))
        eligible = pairwise.eligible_queries(
            corpus, factor, cfg.min_groups, cfg.min_impressions)
        counts = res.counts[method] = pairwise.count_pair_labels(
            corpus, eligible, cfg.seed, thresholds,
            mode="internal" if method == "pairwise" else "external",
            fraction=cfg.pair_fraction, factor=factor,
            dwell_threshold_s=dwell)
        model = res.models[method] = pairwise.fit_pair_model(
            counts, cfg.prior_variance)
        model.thresholds = thresholds
        # expected counts, summed exactly so that no order of the
        # profiles moves them; each loss is a win read the other way
        positive = negative = math.fsum(counts.wins.flat)
        probs = pairwise.probability_grid(model)
        ages = [a.label for a in AgeGroup]
        summary[method] = {
            # an age grid per gender, both sides of that gender, so that
            # every diagonal cell is exactly 0.5
            "grid": {g.code: {a: dict(zip(ages, row)) for a, row
                              in zip(ages, probs[:, i, :, i].tolist())}
                     for i, g in enumerate(Gender)},
            "labels": {"positive": positive, "negative": negative,
                       "zero": counts.n_pairs - (positive + negative),
                       "total": counts.n_pairs},
            "thresholds": dataclasses.asdict(thresholds),
            "threshold_source": source,
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


def _scores_columns(scores: RawScores) -> dict:
    """A scores file's columns, a row per (metric, group), row-major."""
    groups = [g.label if isinstance(g, AgeGroup) else g.code
              for g in scores.groups]
    return {"metric": [k.value for k in METRICS for _ in groups],
            "group": groups * len(METRICS), "raw": scores.raw.ravel(),
            "stderr": scores.stderr.ravel(),
            "n_queries": scores.n_queries.tolist() * len(METRICS),
            "n_impressions": scores.n_impressions.tolist() * len(METRICS)}


def write_audit(result: AuditResult, out: Path, meta: dict) -> None:
    """Write the audit directory `out` (which must exist): one CSV or JSON
    file per output of each method that ran, then ``summary.json``."""
    out = Path(out)
    methods, summary = result.config.methods, result.summary
    if "raw" in methods:
        reports.write_csv(out / "raw_scores.csv",
                          _scores_columns(result.raw), meta)
    if "matched" in methods:
        reports.write_csv(out / "matched_scores.csv",
                          _scores_columns(result.matched), meta)
        reports.write_csv(out / "attrition.csv", {
            name: [getattr(s, name) for s in result.cohort.attrition]
            for name in ("stage", "impressions", "queries")}, meta)

    if "multilevel" in methods:
        table = result.difficulty
        known = ~np.isnan(table.values)     # queries are in text order
        reports.write_csv(out / "difficulty.csv", {
            "query_text": np.array(table.queries, object)[known],
            "difficulty": table.values[known]}, meta)
        grid = {name: [] for name in ("metric", "topic", "age", "gender",
                                      "difficulty", "value")}
        for kind, fit in result.fits.items():
            reports.write_json(out / f"fit_{kind.value}.json", {
                "metric": kind.value, "family": fit.family.name.lower(),
                "effects": fit.effects.to_dict(fit.topics),
                "convergence": {
                    k: getattr(fit.convergence, k)
                    for k in ("iterations", "objective", "gradient_norm")},
                "dispersion": fit.dispersion,
                "n_observations": fit.n_observations,
                # every impression is a row unless its query lacks a
                # difficulty value
                "n_skipped": summary["n_impressions"] - fit.n_observations},
                meta)
            # rows by gender, topic, age, then difficulty
            values = multilevel.cell_curves(fit).transpose(2, 0, 1, 3)
            genders, topics, ages, ds = zip(*itertools.product(
                [g.code for g in Gender], fit.topics,
                [a.label for a in AgeGroup], multilevel.PREDICTION_GRID))
            for name, column in zip(grid, ([kind.value] * values.size,
                                           topics, ages, genders, ds,
                                           values.ravel())):
                grid[name].extend(column)
        reports.write_csv(out / "prediction_grid.csv", grid, meta)

    for method, model in result.models.items():
        prefix = "" if method == "pairwise" else "external_"
        stats = dict(summary[method])
        grid = stats.pop("grid")   # the rest is labels, thresholds, counts
        reports.write_json(out / f"{prefix}pair_model.json", {
            **stats, "model": model.to_dict(),
            "labeler": "internal" if method == "pairwise" else "external",
            "n_sampled_queries": len(result.counts[method].queries)}, meta)
        reports.write_json(out / f"{prefix}pair_grid.json",
                           {"probabilities": grid}, meta)

    reports.write_json(out / "summary.json", summary, meta)
