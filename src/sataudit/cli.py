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

import numpy as np

from . import audit, reports, synth
from .aggregate import METRICS
from .audit import METHODS, AuditConfig
from .errors import ConfigError, ConvergenceError, DataError, \
    SatauditError, check_keys, reading
from .logmodel import AgeGroup, Gender, all_profiles, \
    derive_reformulation_flags, emit, ingest, normalize_query
from .metrics import DEFAULT_DWELL_THRESHOLD_S, metric_table


def _out_path(args) -> Path:
    return Path(args.out or os.environ.get("SATAUDIT_OUTPUT_DIR") or ".")


def _out_dir(args) -> Path:
    path = _out_path(args)
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


def _read_json_object(path, error: type[SatauditError] = ConfigError) -> dict:
    """The JSON object a file holds; anything else raises `error`."""
    with reading(path, error) as f:
        text = f.read()
    try:
        values = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # not JSON, or nested too deep to decode
        raise error(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise error(f"{path} must hold a JSON object")
    return values


# ---------------------------------------------------------------------------
# generate

def _build_scenario(args) -> synth.ScenarioConfig:
    if bool(args.preset) == bool(args.scenario_config):
        raise ConfigError("exactly one of --preset / --scenario-config "
                          "is required")
    if args.scenario_config:
        cfg = synth.ScenarioConfig.from_dict(
            _read_json_object(args.scenario_config))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.impressions is not None or args.offset is not None:
            raise ConfigError("--impressions/--offset apply to presets only")
        return cfg
    kwargs = {}
    if args.impressions is not None:
        if args.impressions < 1:
            raise ConfigError(f"impressions must be at least 1, "
                              f"got {args.impressions!r}")
        kwargs["n_impressions"] = args.impressions
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.offset is not None:
        if args.preset != "true_gap":
            raise ConfigError("--offset applies to the true_gap preset only")
        kwargs["offset"] = args.offset
    return synth.PRESETS[args.preset](**kwargs)


def cmd_generate(args) -> int:
    cfg = _build_scenario(args)
    corpus, truth = synth.generate(cfg)
    out = _out_path(args)       # emit makes it once the log passes its checks
    meta = reports.run_meta(cfg.seed, {"command": "generate",
                                       "format": args.format,
                                       "scenario": cfg.to_dict()})

    corpus_file = f"corpus.{'csv' if args.format == 'csv' else 'ndjson'}"
    n_written = emit(corpus, out / corpus_file, fmt=args.format)

    offsets = [cfg.offset_for(p) for p in all_profiles()]
    reports.write_csv(out / "ground_truth.csv", {
        "impression_id": corpus.ids, "latent_satisfaction": truth.latent,
        "group_offset": [offsets[p] for p in corpus.profile.tolist()]}, meta)
    # keyed by the query text as the corpus holds it
    queries = sorted(cfg.queries, key=lambda q: normalize_query(q.text))
    reports.write_csv(out / "query_truth.csv", {
        "query_text": [normalize_query(q.text) for q in queries],
        "topic": [q.topic for q in queries],
        "difficulty": [q.difficulty for q in queries],
        "navigational": [int(q.navigational) for q in queries]}, meta)
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
    # the audit's rule for the same setting
    AuditConfig(dwell_threshold=args.dwell_threshold)
    fmt = _infer_format(args.input, args.format)
    corpus = ingest(args.input, fmt=fmt)
    out = _out_dir(args)
    meta = reports.run_meta(0, {"command": "metrics",
                                "input": Path(args.input).name,
                                "format": fmt})
    if corpus.has_dwell:
        gu, _, _, scc = metric_table(corpus, args.dwell_threshold).T
        scc = scc.astype(int)
    else:
        gu = scc = [None] * len(corpus)
    reports.write_csv(out / "metrics.csv", {
        "impression_id": corpus.ids,
        "age": np.array([a.label for a in AgeGroup], object)[corpus.age],
        "gender": np.array([g.code for g in Gender], object)[corpus.gender],
        "query_text": np.array(corpus.queries, object)[corpus.query],
        "topic": np.array(corpus.topics, object)[corpus.topic],
        "graded_utility": gu,
        "reformulation": corpus.derived("reformulation",
                                        derive_reformulation_flags),
        "page_click_count": corpus.click_count,
        "successful_click_count": scc}, meta)
    print(f"wrote metrics for {len(corpus)} impressions -> "
          f"{out / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# audit

def _audit_config(args) -> AuditConfig:
    """Config-file values, overridden by the flags that were given."""
    names = [f.name for f in dataclasses.fields(AuditConfig)]
    values = {}
    if args.config:
        values = _read_json_object(args.config)
        check_keys(values, names, "config")
    for name in names:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    return AuditConfig(**values)


def _load_navigational(path: str | None) -> set[str] | None:
    if path is None:
        return None
    out: set[str] = set()
    with reading(path, DataError) as f:
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
    summary = _read_json_object(summary_path, DataError)
    # everything is built before the first file is written
    try:
        sections, plots = _report_sections(summary)
        meta = {key: summary["meta"][key] for key in reports.META_KEYS}
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{summary_path} is malformed: "
                        f"{type(exc).__name__}: {exc}") from None
    out = _out_dir(args)
    for name, columns in plots.items():
        reports.write_csv(out / name, columns, meta)
    (out / "report.txt").write_text("\n".join(sections) + "\n",
                                    encoding="utf-8")
    print(f"report -> {out / 'report.txt'}")
    return 0


def _report_sections(summary: dict) -> tuple[list[str], dict]:
    """The report's text sections, and each plot data file's columns (as
    :func:`reports.write_csv` takes them) by file name."""
    sections = [f"differential satisfaction audit "
                f"(factor: {summary.get('factor')})",
                f"impressions: {summary.get('n_impressions')}  "
                f"queries: {summary.get('n_queries')}"]
    plots = {}
    if "raw" in summary or "matched" in summary:
        # a block that is present must hold every metric's span
        rows = [["metric", "raw_span", "matched_span"]] + [
            [kind.value] + [f"{summary[block]['span'][kind.value]:.4f}"
                            if block in summary else ""
                            for block in ("raw", "matched")]
            for kind in METRICS]
        sections.append("\ngroup spans, each on its metric's own scale "
                        "(raw vs matched):\n" + _table(rows))
        plots["plot_gaps.csv"] = dict(zip(rows[0], zip(*rows[1:])))
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
    ages, genders = [a.label for a in AgeGroup], [g.code for g in Gender]
    for key, plot in (("pairwise", "plot_pair_probs.csv"),
                      ("external", "plot_external_pair_probs.csv")):
        if key not in summary:
            continue
        grids = summary[key]["grid"]
        for g in genders:
            rows = [["age"] + ages] + [
                [a] + [f"{grids[g][a][b]:.4f}" for b in ages] for a in ages]
            sections.append(f"\n{key} P(row beats column) ({g} vs {g}):\n"
                            + _table(rows))
        plots[plot] = dict(zip(
            ("gender", "age_i", "age_j", "probability"),
            zip(*((g, a, b, grids[g][a][b]) for g in genders
                  for a in sorted(grids[g]) for b in sorted(grids[g][a])))))
    return sections, plots


# ---------------------------------------------------------------------------
# parser

# how an audit flag parses its text, by the field's annotation (else str)
_FLAG_TYPES = {"int": int, "int | None": int, "float": float}
# the help of the audit flags whose rules their names do not say
_FLAG_HELP = {
    "methods": "comma list from: " + ", ".join(METHODS) + "; external, "
               "the clicks-only labeller, runs alone and always at the "
               "default thresholds",
    "default_thresholds": "label pairwise at the default thresholds "
                          "instead of deriving them from the multilevel "
                          "deltas; pairwise without multilevel needs it",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sataudit",
        description="Audit search logs for differential satisfaction "
                    "across demographic groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate",
                           help="synthesize a corpus with ground truth")
    p_gen.add_argument("--preset", choices=sorted(synth.PRESETS))
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
    p_aud.add_argument("--navigational",
                       help="file listing navigational queries, one per "
                       "line (default: concentration proxy)")
    # a flag per AuditConfig field, which checks every value; an unset
    # flag (None) keeps the config value
    for f in dataclasses.fields(AuditConfig):
        parse = ({"action": argparse.BooleanOptionalAction}
                 if f.type == "bool"
                 else {"type": _FLAG_TYPES.get(f.type, str)})
        p_aud.add_argument("--" + f.name.replace("_", "-"),
                           help=_FLAG_HELP.get(f.name), **parse)
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
