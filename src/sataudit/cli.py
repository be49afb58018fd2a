"""Command-line interface: generate, metrics, audit, report.

Orchestrates the full pipeline: synthesize a corpus, compute
per-impression metrics, run the selected audit methods, and render
summary tables.  All randomness flows from a single seed, outputs are
written in sorted order without timestamps, and every file carries a
version / seed / config-hash metadata block, so identical inputs produce
byte-identical outputs.

Exit codes: 0 success; 1 usage or configuration error; 2 data error
(schema violations, empty cohorts, missing fidelity); 3 numerical
failure (a model fit did not converge).  Each failure prints a one-line
diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import aggregate, difficulty as difficulty_mod, matching, multilevel, \
    pairwise, reports, synth
from .aggregate import Factor, METRICS
from .errors import ConfigError, ConvergenceError, DataError, SatauditError
from .logmodel import AgeGroup, Gender, all_profiles, emit, ingest, \
    normalize_query
from .metrics import MetricKind, metric_table

_METHODS = ("raw", "matched", "multilevel", "pairwise", "external")

_PRESET_FACTORIES = {
    "null": synth.preset_null,
    "query_mix_confound": synth.preset_query_mix_confound,
    "dwell_confound": synth.preset_dwell_confound,
    "true_gap": synth.preset_true_gap,
    "mixed": synth.preset_mixed,
}

_AUDIT_DEFAULTS = {
    "factor": "age",
    "methods": "raw,matched",
    "seed": 0,
    "dwell_threshold": 30.0,
    "min_impressions": 10,
    "min_groups": None,
    "serp_prefix": 8,
    "nav_share": 0.8,
    "k": 2.5,
    "pair_fraction": 0.1,
    "pairs_per_query": 10_000,
    "prior_variance": 1.0,
    "empirical_bayes": False,
    "default_thresholds": False,
}


def _group_label(g) -> str:
    return g.label if isinstance(g, AgeGroup) else g.code


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and v != v:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("SATAUDIT_OUTPUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix in (".ndjson", ".jsonl", ".json"):
        return "ndjson"
    if suffix == ".csv":
        return "csv"
    raise ConfigError(f"cannot infer corpus format from {path!r}; "
                      "pass --format ndjson|csv")


# ---------------------------------------------------------------------------
# generate

def _build_scenario(args) -> synth.ScenarioConfig:
    if bool(args.preset) == bool(args.scenario_config):
        raise ConfigError("exactly one of --preset / --scenario-config "
                          "is required")
    if args.scenario_config:
        with open(args.scenario_config, encoding="utf-8") as f:
            cfg = synth.ScenarioConfig.from_dict(json.load(f))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.impressions is not None or args.offset is not None:
            raise ConfigError("--impressions/--offset apply to presets only")
        return cfg
    if args.preset not in _PRESET_FACTORIES:
        raise ConfigError(f"unknown preset {args.preset!r}; choose from "
                          f"{', '.join(sorted(_PRESET_FACTORIES))}")
    kwargs = {}
    if args.impressions is not None:
        kwargs["n_impressions"] = args.impressions
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.offset is not None:
        if args.preset != "true_gap":
            raise ConfigError("--offset applies to the true_gap preset only")
        kwargs["offset"] = args.offset
    return _PRESET_FACTORIES[args.preset](**kwargs)


def cmd_generate(args) -> int:
    cfg = _build_scenario(args)
    out = _out_dir(args)
    corpus, truth = synth.generate(cfg)
    meta = reports.run_meta(cfg.seed, {"command": "generate",
                                       "format": args.format,
                                       "scenario": cfg.to_dict()})

    corpus_file = f"corpus.{'csv' if args.format == 'csv' else 'ndjson'}"
    n_written = emit(corpus, out / corpus_file, fmt=args.format)

    cols = corpus.columns
    offsets = [truth.offset_for(p) for p in all_profiles()]
    profile = (cols.age * 2 + cols.gender).tolist()
    reports.write_csv(
        out / "ground_truth.csv",
        ["impression_id", "latent_satisfaction", "group_offset"],
        [{"impression_id": cols.ids[k],
          "latent_satisfaction": _fmt(truth.latent[cols.ids[k]]),
          "group_offset": _fmt(offsets[profile[k]])}
         for k in cols.id_order.tolist()], meta)
    reports.write_csv(
        out / "query_truth.csv",
        ["query_text", "topic", "difficulty", "navigational"],
        [{"query_text": q.text, "topic": q.topic,
          "difficulty": _fmt(q.difficulty),
          "navigational": int(q.navigational)}
         for q in sorted(cfg.queries, key=lambda q: q.text)], meta)
    nav_file = None
    if truth.navigational:
        nav_file = "navigational_queries.txt"
        with open(out / nav_file, "w", encoding="utf-8") as f:
            for q in sorted(truth.navigational):
                f.write(q + "\n")

    reports.write_json(out / "manifest.json", {
        "preset": args.preset,
        "scenario": cfg.to_dict(),
        "counts": {"impressions": n_written,
                   "users": sum(cfg.users_per_profile.values()),
                   "queries": len(cfg.queries)},
        "files": {"corpus": corpus_file,
                  "ground_truth": "ground_truth.csv",
                  "query_truth": "query_truth.csv",
                  "navigational": nav_file},
        "provenance": {"generator": "sataudit.synth",
                       "corpus_format": args.format},
    }, meta)
    print(f"generated {n_written} impressions -> {out / corpus_file}")
    return 0


# ---------------------------------------------------------------------------
# metrics

def cmd_metrics(args) -> int:
    fmt = _infer_format(args.input, args.format)
    corpus = ingest(args.input, fmt=fmt)
    out = _out_dir(args)
    meta = reports.run_meta(0, {"command": "metrics",
                                "input": Path(args.input).name,
                                "format": fmt})
    cols = corpus.columns
    ages = [a.label for a in AgeGroup]
    genders = [g.code for g in Gender]
    if corpus.has_dwell:
        gu, reform, pcc, scc = metric_table(corpus, args.dwell_threshold).T
        gu = [_fmt(v) for v in gu.tolist()]
        scc = [str(int(v)) for v in scc.tolist()]
    else:
        reform, pcc = cols.reformulated, cols.click_count
        gu = scc = [""] * len(corpus)
    reform = ["" if v < 0 else str(int(v)) for v in reform.tolist()]
    age, gender = cols.age.tolist(), cols.gender.tolist()
    query, topic, pcc = cols.query.tolist(), cols.topic.tolist(), pcc.tolist()
    rows = [{"impression_id": cols.ids[k], "age": ages[age[k]],
             "gender": genders[gender[k]],
             "query_text": cols.queries[query[k]],
             "topic": cols.topics[topic[k]],
             "page_click_count": int(pcc[k]), "graded_utility": gu[k],
             "reformulation": reform[k], "successful_click_count": scc[k]}
            for k in cols.id_order.tolist()]
    reports.write_csv(out / "metrics.csv",
                      ["impression_id", "age", "gender", "query_text",
                       "topic", "graded_utility", "reformulation",
                       "page_click_count", "successful_click_count"],
                      rows, meta)
    print(f"wrote metrics for {len(rows)} impressions -> "
          f"{out / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# audit

def _resolve_audit_config(args) -> dict:
    cfg = dict(_AUDIT_DEFAULTS)
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            file_cfg = json.load(f)
        unknown = sorted(set(file_cfg) - set(_AUDIT_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(file_cfg)
    for key in _AUDIT_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _parse_methods(spec: str) -> list[str]:
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    unknown = sorted(set(methods) - set(_METHODS))
    if unknown:
        raise ConfigError(f"unknown methods: {', '.join(unknown)}; "
                          f"choose from {', '.join(_METHODS)}")
    if not methods:
        raise ConfigError("no audit methods selected")
    return [m for m in _METHODS if m in methods]


def _load_navigational(path: str | None) -> set[str] | None:
    if path is None:
        return None
    out: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                out.add(normalize_query(line))
    if not out:
        raise DataError(f"navigational query list {path!r} is empty")
    return out


def _scores_rows(norm: aggregate.NormalizedScores,
                 common: aggregate.NormalizedScores | None = None
                 ) -> list[dict]:
    rows = []
    for kind in METRICS:
        for g in norm.factor.groups():
            if g not in norm.scores[kind]:
                continue
            s = norm.scores[kind][g]
            row = {"metric": kind.value, "group": _group_label(g),
                   "raw": _fmt(s.raw), "normalized": _fmt(s.normalized),
                   "stderr": _fmt(s.stderr), "n_queries": s.n_queries,
                   "n_impressions": s.n_impressions}
            if common is not None:
                row["normalized_common"] = _fmt(
                    common.scores[kind][g].normalized)
            rows.append(row)
    return rows


def _gap_dict(norm: aggregate.NormalizedScores) -> dict[str, float]:
    return {kind.value: norm.gap(kind) for kind in METRICS}


def cmd_audit(args) -> int:
    cfg = _resolve_audit_config(args)
    methods = _parse_methods(cfg["methods"])
    factor = Factor(cfg["factor"])
    if (("pairwise" in methods or "external" in methods)
            and not cfg["default_thresholds"]
            and "multilevel" not in methods):
        raise ConfigError(
            "pairwise labeling thresholds come from the multilevel fit "
            "deltas; add multilevel to --methods or pass "
            "--default-thresholds")

    fmt = _infer_format(args.input, args.format)
    corpus = ingest(args.input, fmt=fmt)
    if "external" in methods and corpus.has_dwell:
        raise ConfigError("the external method audits clicks-only logs; "
                          "this corpus has dwell fidelity, use pairwise")
    out = _out_dir(args)
    hashed = {"command": "audit", "input": Path(args.input).name,
              "format": fmt, "methods": methods, **{
                  k: cfg[k] for k in sorted(_AUDIT_DEFAULTS) if k != "methods"}}
    meta = reports.run_meta(cfg["seed"], hashed)
    dwell = cfg["dwell_threshold"]
    summary: dict = {"factor": factor.value, "methods": methods,
                     "input": Path(args.input).name,
                     "n_impressions": len(corpus),
                     "n_queries": len(corpus.columns.queries)}

    raw_norm = None
    if "raw" in methods or "matched" in methods:
        raw_scores = aggregate.query_averaged_scores(corpus, factor, dwell)
        raw_norm = aggregate.normalize(raw_scores)
    if "raw" in methods:
        reports.write_csv(out / "raw_scores.csv",
                          ["metric", "group", "raw", "normalized", "stderr",
                           "n_queries", "n_impressions"],
                          _scores_rows(raw_norm), meta)
        summary["raw"] = {
            "gaps": _gap_dict(raw_norm),
            "degenerate": sorted(k.value for k in raw_norm.degenerate)}

    if "matched" in methods:
        match_cfg = matching.MatchConfig(
            min_impressions_per_group=cfg["min_impressions"],
            serp_prefix_len=cfg["serp_prefix"],
            navigational_share=cfg["nav_share"], dwell_threshold_s=dwell)
        cohort = matching.match_contexts(
            corpus, factor, match_cfg,
            navigational=_load_navigational(args.navigational))
        matched_raw = matching.matched_raw_scores(cohort, dwell)
        matched_own = aggregate.normalize(matched_raw)
        matched_common = aggregate.normalize(matched_raw,
                                             reference=raw_norm.bounds)
        reports.write_csv(out / "matched_scores.csv",
                          ["metric", "group", "raw", "normalized",
                           "normalized_common", "stderr", "n_queries",
                           "n_impressions"],
                          _scores_rows(matched_own, matched_common), meta)
        attrition = [dataclasses.asdict(s) for s in cohort.attrition]
        reports.write_csv(out / "attrition.csv",
                          ["stage", "impressions", "queries"], attrition, meta)
        gaps_common = {
            kind.value: (0.0 if kind in raw_norm.degenerate
                         else matched_common.gap(kind)) for kind in METRICS}
        divergent = {
            kind.value: bool(kind not in raw_norm.degenerate
                             and raw_norm.gap(kind) > 0
                             and gaps_common[kind.value]
                             <= raw_norm.gap(kind) / 3.0)
            for kind in METRICS}
        summary["matched"] = {
            "gaps": _gap_dict(matched_own),
            "gaps_common_scale": gaps_common,
            "attrition": attrition}
        summary["divergence"] = {"metrics": divergent,
                                 "raw_vs_matched": any(divergent.values())}

    deltas: dict[MetricKind, float] = {}
    if "multilevel" in methods:
        table = difficulty_mod.estimate_difficulty(corpus, factor=factor,
                                                   dwell_threshold_s=dwell)
        reports.write_csv(out / "difficulty.csv",
                          ["query_text", "difficulty"],
                          [{"query_text": q, "difficulty": _fmt(d)}
                           for q, d in sorted(table.difficulty.items())],
                          meta)
        priors = multilevel.PriorConfig(
            variance_age=cfg["prior_variance"],
            variance_gender=cfg["prior_variance"],
            variance_topic=cfg["prior_variance"],
            variance_interaction=cfg["prior_variance"],
            empirical_bayes=bool(cfg["empirical_bayes"]))
        grid_rows = []
        convergence = {}
        for kind in METRICS:
            obs = multilevel.build_observations(corpus, table, kind, dwell)
            fit = multilevel.fit_multilevel(obs, priors=priors)
            reports.write_json(out / f"fit_{kind.value}.json", {
                "metric": kind.value, "family": fit.family.name.lower(),
                "effects": fit.effects.to_dict(),
                "convergence": {
                    "iterations": fit.convergence.iterations,
                    "objective": fit.convergence.objective,
                    "gradient_norm": fit.convergence.gradient_norm},
                "dispersion": fit.dispersion,
                "n_observations": fit.n_observations,
                "n_skipped": obs.skipped}, meta)
            for gender in (Gender.MALE, Gender.FEMALE):
                for p in multilevel.prediction_grid(fit, gender=gender):
                    grid_rows.append({
                        "metric": kind.value, "topic": p.topic,
                        "age": p.age.label, "gender": p.gender.code,
                        "difficulty": _fmt(p.difficulty),
                        "value": _fmt(p.value)})
            deltas[kind] = multilevel.max_group_gap(fit)
            convergence[kind.value] = fit.convergence.iterations
        reports.write_csv(out / "prediction_grid.csv",
                          ["metric", "topic", "age", "gender", "difficulty",
                           "value"], grid_rows, meta)
        summary["multilevel"] = {
            "deltas": {kind.value: d for kind, d in deltas.items()},
            "convergence": convergence}

    for method in ("pairwise", "external"):
        if method not in methods:
            continue
        if cfg["default_thresholds"] or not deltas:
            thresholds = dataclasses.replace(pairwise.DEFAULT_THRESHOLDS,
                                             k=cfg["k"])
        else:
            thresholds = pairwise.derive_thresholds_from_deltas(
                deltas, k=cfg["k"])
        min_groups = cfg["min_groups"]
        if min_groups is None:
            min_groups = 3 if factor is Factor.AGE else 2
        eligible = pairwise.eligible_queries(
            corpus, factor, min_groups=min_groups,
            min_impressions=cfg["min_impressions"])
        sample = pairwise.sample_pairs(
            corpus, eligible, seed=cfg["seed"],
            fraction=cfg["pair_fraction"],
            pairs_per_query=cfg["pairs_per_query"], factor=factor)
        labels = pairwise.label_sample(
            corpus, sample, thresholds,
            mode="internal" if method == "pairwise" else "external",
            dwell_threshold_s=dwell)
        pairs = pairwise.build_labeled_pairs(corpus, sample, labels)
        model = pairwise.fit_pair_model(
            pairs, prior_variance=cfg["prior_variance"])
        model.thresholds = thresholds
        grid = pairwise.probability_grid(model)
        grid_json = {a.label: {b.label: grid[a][b] for b in AgeGroup}
                     for a in AgeGroup}
        counts = {"positive": int((labels == 1).sum()),
                  "negative": int((labels == -1).sum()),
                  "zero": int((labels == 0).sum()),
                  "total": int(labels.size)}
        prefix = "" if method == "pairwise" else "external_"
        reports.write_json(out / f"{prefix}pair_model.json", {
            "labeler": "internal" if method == "pairwise" else "external",
            "thresholds": dataclasses.asdict(thresholds),
            "model": model.to_dict(),
            "labels": counts,
            "n_eligible_queries": len(eligible),
            "n_sampled_queries": len(sample.queries)}, meta)
        reports.write_json(out / f"{prefix}pair_grid.json", {
            "gender_i": Gender.MALE.code, "gender_j": Gender.FEMALE.code,
            "probabilities": grid_json}, meta)
        summary[method] = {"grid": grid_json, "labels": counts,
                           "thresholds": dataclasses.asdict(thresholds),
                           "n_eligible_queries": len(eligible)}

    reports.write_json(out / "summary.json", summary, meta)
    print(f"audit complete ({', '.join(methods)}) -> {out / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# report

def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     .rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def cmd_report(args) -> int:
    audit_dir = Path(args.audit_dir)
    summary_path = audit_dir / "summary.json"
    if not summary_path.exists():
        raise DataError(f"no summary.json under {audit_dir}; run audit first")
    with open(summary_path, encoding="utf-8") as f:
        summary = json.load(f)
    meta = summary.get("meta", {})
    out = _out_dir(args)

    sections = [f"differential satisfaction audit "
                f"(factor: {summary.get('factor')})",
                f"impressions: {summary.get('n_impressions')}  "
                f"queries: {summary.get('n_queries')}"]
    gap_rows = None
    if "raw" in summary or "matched" in summary:
        rows = [["metric", "raw_gap", "matched_gap_common"]]
        for kind in METRICS:
            raw_gap = summary.get("raw", {}).get("gaps", {}).get(kind.value)
            matched_gap = summary.get("matched", {}) \
                .get("gaps_common_scale", {}).get(kind.value)
            rows.append([kind.value,
                         "" if raw_gap is None else f"{raw_gap:.4f}",
                         "" if matched_gap is None else f"{matched_gap:.4f}"])
        gap_rows = rows
        sections.append("\nnormalized group gaps (raw scale vs matched on "
                        "the raw scale):\n" + _table(rows))
        if "divergence" in summary:
            flag = summary["divergence"]["raw_vs_matched"]
            sections.append(
                "raw-vs-matched divergence: "
                + ("FLAGGED (raw gaps largely vanish after context "
                   "matching)" if flag else "not flagged"))
    if "matched" in summary:
        rows = [["stage", "impressions", "queries"]]
        for s in summary["matched"]["attrition"]:
            rows.append([s["stage"], str(s["impressions"]),
                         str(s["queries"])])
        sections.append("\nmatching attrition funnel:\n" + _table(rows))
    if "multilevel" in summary:
        rows = [["metric", "max_group_gap", "iterations"]]
        for kind in METRICS:
            rows.append([kind.value,
                         f"{summary['multilevel']['deltas'][kind.value]:.5f}",
                         str(summary['multilevel']['convergence']
                             [kind.value])])
        sections.append("\nmultilevel model group gaps (delta):\n"
                        + _table(rows))
    for key, title in (("pairwise", "pairwise P(row beats column)"),
                       ("external", "external P(row beats column)")):
        if key in summary:
            grid = summary[key]["grid"]
            ages = [a.label for a in AgeGroup]
            rows = [["age"] + ages]
            for a in ages:
                rows.append([a] + [f"{grid[a][b]:.4f}" for b in ages])
            sections.append(f"\n{title} (M vs F):\n" + _table(rows))

    report_text = "\n".join(sections) + "\n"
    (out / "report.txt").write_text(report_text, encoding="utf-8")

    if gap_rows is not None:
        reports.write_csv(out / "plot_gaps.csv",
                          ["metric", "raw_gap", "matched_gap_common"],
                          [{"metric": r[0], "raw_gap": r[1],
                            "matched_gap_common": r[2]}
                           for r in gap_rows[1:]], meta)
    for key, name in (("pairwise", "plot_pair_probs.csv"),
                      ("external", "plot_external_pair_probs.csv")):
        if key in summary:
            grid = summary[key]["grid"]
            rows = [{"age_i": a, "age_j": b,
                     "probability": _fmt(grid[a][b])}
                    for a in sorted(grid) for b in sorted(grid[a])]
            reports.write_csv(out / name, ["age_i", "age_j", "probability"],
                              rows, meta)
    print(f"report -> {out / 'report.txt'}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sataudit",
        description="Audit search logs for differential satisfaction "
                    "across demographic groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate",
                           help="synthesize a corpus with ground truth")
    p_gen.add_argument("--preset", choices=sorted(_PRESET_FACTORIES))
    p_gen.add_argument("--scenario-config",
                       help="full scenario config JSON file")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--impressions", type=int,
                       help="approximate corpus size (presets only)")
    p_gen.add_argument("--offset", type=float,
                       help="injected G4 offset (true_gap preset only)")
    p_gen.add_argument("--format", choices=("ndjson", "csv"),
                       default="ndjson")
    p_gen.add_argument("--out", help="output directory "
                       "(default: $SATAUDIT_OUTPUT_DIR or .)")
    p_gen.set_defaults(func=cmd_generate)

    p_met = sub.add_parser("metrics",
                           help="per-impression satisfaction metrics CSV")
    p_met.add_argument("--input", required=True)
    p_met.add_argument("--format", choices=("ndjson", "csv"))
    p_met.add_argument("--dwell-threshold", type=float, default=30.0)
    p_met.add_argument("--out")
    p_met.set_defaults(func=cmd_metrics)

    p_aud = sub.add_parser("audit", help="run audit methods on a corpus")
    p_aud.add_argument("--input", required=True)
    p_aud.add_argument("--format", choices=("ndjson", "csv"))
    p_aud.add_argument("--config", help="JSON config file; flags win")
    p_aud.add_argument("--factor", choices=("age", "gender"), default=None)
    p_aud.add_argument("--methods", default=None,
                       help="comma list from: " + ", ".join(_METHODS))
    p_aud.add_argument("--seed", type=int, default=None)
    p_aud.add_argument("--dwell-threshold", type=float, default=None,
                       dest="dwell_threshold")
    p_aud.add_argument("--min-impressions", type=int, default=None)
    p_aud.add_argument("--min-groups", type=int, default=None)
    p_aud.add_argument("--serp-prefix", type=int, default=None)
    p_aud.add_argument("--nav-share", type=float, default=None)
    p_aud.add_argument("--navigational",
                       help="file listing navigational queries, one per "
                       "line (default: concentration proxy)")
    p_aud.add_argument("--k", type=float, default=None)
    p_aud.add_argument("--pair-fraction", type=float, default=None)
    p_aud.add_argument("--pairs-per-query", type=int, default=None)
    p_aud.add_argument("--prior-variance", type=float, default=None)
    p_aud.add_argument("--empirical-bayes",
                       action=argparse.BooleanOptionalAction, default=None)
    p_aud.add_argument("--default-thresholds",
                       action=argparse.BooleanOptionalAction, default=None)
    p_aud.add_argument("--out")
    p_aud.set_defaults(func=cmd_audit)

    p_rep = sub.add_parser("report",
                           help="render tables and plot data from an audit")
    p_rep.add_argument("--audit-dir", required=True)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SatauditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
