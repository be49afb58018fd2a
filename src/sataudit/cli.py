"""Command-line interface: generate, metrics, audit, report.

Each command parses its arguments, reads its input, runs and writes:
synthesize a corpus, compute per-impression metrics, run the selected
audit methods (through :func:`sataudit.audit.run_audit`), and render
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

from . import audit, reports, synth
from .aggregate import METRICS
from .audit import METHODS, AuditConfig
from .errors import ConfigError, ConvergenceError, DataError, SatauditError
from .logmodel import AgeGroup, Gender, all_profiles, emit, ingest, \
    normalize_query
from .metrics import DEFAULT_DWELL_THRESHOLD_S, metric_table

_PRESET_FACTORIES = {
    "null": synth.preset_null,
    "query_mix_confound": synth.preset_query_mix_confound,
    "dwell_confound": synth.preset_dwell_confound,
    "true_gap": synth.preset_true_gap,
    "mixed": synth.preset_mixed,
}

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
          "latent_satisfaction": reports.csv_value(
              truth.latent[cols.ids[k]]),
          "group_offset": reports.csv_value(offsets[profile[k]])}
         for k in cols.id_order.tolist()], meta)
    reports.write_csv(
        out / "query_truth.csv",
        ["query_text", "topic", "difficulty", "navigational"],
        [{"query_text": q.text, "topic": q.topic,
          "difficulty": reports.csv_value(q.difficulty),
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
        gu = [reports.csv_value(v) for v in gu.tolist()]
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

def _audit_config(args) -> AuditConfig:
    """Config-file values, overridden by the flags that were given."""
    names = [f.name for f in dataclasses.fields(AuditConfig)]
    values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            values = json.load(f)
        unknown = sorted(set(values) - set(names))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for name in names:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return AuditConfig(**values)


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


def cmd_audit(args) -> int:
    cfg = _audit_config(args)
    fmt = _infer_format(args.input, args.format)
    corpus = ingest(args.input, fmt=fmt)
    # the list is read only when matching runs
    navigational = (_load_navigational(args.navigational)
                    if "matched" in cfg.methods else None)
    result = audit.run_audit(corpus, cfg, navigational)
    out, name = _out_dir(args), Path(args.input).name
    result.summary["input"] = name
    audit.write_audit(result, out, audit.audit_meta(
        cfg, command="audit", input=name, format=fmt))
    print(f"audit complete ({', '.join(cfg.methods)}) -> "
          f"{out / 'summary.json'}")
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
    if "raw" in summary or "matched" in summary:
        rows = [["metric", "raw_gap", "matched_gap_common"]]
        for kind in METRICS:
            raw_gap = summary.get("raw", {}).get("gaps", {}).get(kind.value)
            matched_gap = summary.get("matched", {}) \
                .get("gaps_common_scale", {}).get(kind.value)
            rows.append([kind.value,
                         "" if raw_gap is None else f"{raw_gap:.4f}",
                         "" if matched_gap is None else f"{matched_gap:.4f}"])
        sections.append("\nnormalized group gaps (raw scale vs matched on "
                        "the raw scale):\n" + _table(rows))
        reports.write_csv(out / "plot_gaps.csv", rows[0],
                          [dict(zip(rows[0], r)) for r in rows[1:]], meta)
        if "divergence" in summary:
            flag = summary["divergence"]["raw_vs_matched"]
            sections.append(
                "raw-vs-matched divergence: "
                + ("FLAGGED (raw gaps largely vanish after context "
                   "matching)" if flag else "not flagged"))
    if "matched" in summary:
        rows = [["stage", "impressions", "queries"]] + [
            [s["stage"], str(s["impressions"]), str(s["queries"])]
            for s in summary["matched"]["attrition"]]
        sections.append("\nmatching attrition funnel:\n" + _table(rows))
    if "multilevel" in summary:
        fits = summary["multilevel"]
        rows = [["metric", "max_group_gap", "iterations"]] + [
            [k.value, f"{fits['deltas'][k.value]:.5f}",
             str(fits["convergence"][k.value])] for k in METRICS]
        sections.append("\nmultilevel model group gaps (delta):\n"
                        + _table(rows))
    ages = [a.label for a in AgeGroup]
    for key, plot in (("pairwise", "plot_pair_probs.csv"),
                      ("external", "plot_external_pair_probs.csv")):
        if key not in summary:
            continue
        grid = summary[key]["grid"]
        rows = [["age"] + ages] + [[a] + [f"{grid[a][b]:.4f}" for b in ages]
                                   for a in ages]
        sections.append(f"\n{key} P(row beats column) (M vs F):\n"
                        + _table(rows))
        reports.write_csv(out / plot, ["age_i", "age_j", "probability"],
                          [{"age_i": a, "age_j": b,
                            "probability": reports.csv_value(grid[a][b])}
                           for a in sorted(grid) for b in sorted(grid[a])],
                          meta)

    report_text = "\n".join(sections) + "\n"
    (out / "report.txt").write_text(report_text, encoding="utf-8")

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
    p_met.add_argument("--dwell-threshold", type=float,
                       default=DEFAULT_DWELL_THRESHOLD_S)
    p_met.add_argument("--out")
    p_met.set_defaults(func=cmd_metrics)

    p_aud = sub.add_parser("audit", help="run audit methods on a corpus")
    p_aud.add_argument("--input", required=True)
    p_aud.add_argument("--format", choices=("ndjson", "csv"))
    p_aud.add_argument("--config", help="JSON config file; flags win")
    # the AuditConfig fields; an unset flag (None) keeps the config value
    p_aud.add_argument("--factor", choices=("age", "gender"))
    p_aud.add_argument("--methods",
                       help="comma list from: " + ", ".join(METHODS))
    p_aud.add_argument("--seed", type=int)
    p_aud.add_argument("--dwell-threshold", type=float)
    p_aud.add_argument("--min-impressions", type=int)
    p_aud.add_argument("--min-groups", type=int)
    p_aud.add_argument("--serp-prefix", type=int)
    p_aud.add_argument("--nav-share", type=float)
    p_aud.add_argument("--navigational",
                       help="file listing navigational queries, one per "
                       "line (default: concentration proxy)")
    p_aud.add_argument("--k", type=float)
    p_aud.add_argument("--pair-fraction", type=float)
    p_aud.add_argument("--pairs-per-query", type=int)
    p_aud.add_argument("--prior-variance", type=float)
    for flag in ("--empirical-bayes", "--default-thresholds"):
        p_aud.add_argument(flag, action=argparse.BooleanOptionalAction)
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
