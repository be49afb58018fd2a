"""End-to-end and per-module benchmark for ``sataudit generate`` and ``audit``.

    python3 perfbench/run.py --workload mixed_full --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
The checkout's ``src`` is put on PYTHONPATH; nothing needs installing.

``--trace 0`` runs the real CLI as child processes, one at a time:
``generate`` three times (every output directory must be byte-identical
to the first), then ``audit`` at least three times and until
``--seconds`` of audit time have been measured.  Each child's wall time
and peak RSS are recorded, and the audit output is checked against
recomputations made here from the corpus file (see checks.py).  The
end-to-end metrics are the medians.

``--trace 1`` runs ``generate`` and one ``audit`` under trace_cli.py,
which calls ``sataudit.cli.main`` in-process with every module's public
functions wrapped in spans (see spans.py), next to at least three
untraced audits.  All audit directories must be byte-identical.  It
reports the per-module metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one CLI child process.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
CLI = "import sys; from sataudit.cli import main; sys.exit(main())"
SETUPS = 3
MIN_AUDITS = 3
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    preset: str
    impressions: int
    fmt: str
    methods: str
    extra_audit_args: tuple[str, ...] = ()
    # share of eligible queries paired; 1.0 where the default 0.1 leaves
    # so few fired labels that some seeds fire none and the audit exits 2
    pair_fraction: float = 0.1
    clicks_only: bool = False      # blank dwell and flags before the audit
    difficulty_floor: float | None = None


WORKLOADS = {
    "mixed_full": Workload(
        preset="mixed", impressions=120_000, fmt="ndjson",
        methods="raw,matched,multilevel,pairwise",
        extra_audit_args=("--navigational", "{gen}/navigational_queries.txt"),
        pair_fraction=1.0, difficulty_floor=0.5),
    "clicks_only": Workload(
        preset="dwell_confound", impressions=60_000, fmt="csv",
        methods="external", extra_audit_args=("--default-thresholds",),
        pair_fraction=1.0, clicks_only=True),
}


# ---------------------------------------------------------------------------
# child processes

@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_child(argv: list[str], env: dict, log: Path, tally: Tally) -> Child:
    """Run one child to completion; wall time includes interpreter start.

    Its standard error goes to `log`, whose tail is kept on failure.
    """
    tally.attempted += 1
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            deadline = start + CHILD_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024.0
    print(f"{log.stem}: {wall:.3f} s, peak RSS {peak:.1f} MB, exit {code}",
          file=sys.stderr)
    if code != 0:
        tally.failed += 1
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        tally.errors.append(f"{log.stem} exited {code}: " + " | ".join(tail))
    return Child(wall, peak, code)


def timed_rounds(step, min_rounds: int, seconds: float = 0.0
                 ) -> list[Child]:
    """Call step(0), step(1), ... until at least `min_rounds` have run and
    their wall times add up to `seconds`; stop early at a failure."""
    done: list[Child] = []
    while len(done) < min_rounds or sum(c.wall_s for c in done) < seconds:
        done.append(step(len(done)))
        if done[-1].returncode != 0:
            break
    return done


def generate_args(wl: Workload, seed: int, out: Path,
                  impressions: int | None = None) -> list[str]:
    return ["generate", "--preset", wl.preset, "--seed", str(seed),
            "--format", wl.fmt, "--out", str(out),
            "--impressions", str(impressions or wl.impressions)]


def audit_args(wl: Workload, seed: int, corpus: Path, gen: Path,
               out: Path) -> list[str]:
    extra = [a.replace("{gen}", str(gen)) for a in wl.extra_audit_args]
    return ["audit", "--input", str(corpus), "--methods", wl.methods,
            "--seed", str(seed), "--pair-fraction", str(wl.pair_fraction),
            *extra, "--out", str(out)]


def write_clicks_only(src: Path, dst: Path) -> None:
    """Copy a CSV corpus with every dwell and reformulated flag blanked."""
    with open(src, encoding="utf-8", newline="") as fin, \
            open(dst, "w", encoding="utf-8", newline="") as fout:
        reader = csv.DictReader(fin)
        writer = csv.DictWriter(fout, fieldnames=reader.fieldnames,
                                lineterminator="\n")
        writer.writeheader()
        for row in reader:
            clicks = []
            for part in filter(None, row["clicks"].split(";")):
                pos, rid, _dwell, term = part.split(":")
                clicks.append(f"{pos}:{rid}::{term}")
            row["clicks"] = ";".join(clicks)
            row["reformulated"] = ""
            writer.writerow(row)


# ---------------------------------------------------------------------------
# checks

def check_audit(wl: Workload, corpus: Path, gen: Path, audit: Path
                ) -> list[str]:
    ref = checks.read_corpus(corpus)
    summary = json.loads((audit / "summary.json").read_text(encoding="utf-8"))
    errs = checks.check_counts(ref, summary)
    methods = wl.methods.split(",")
    if wl.clicks_only and ref.has_dwell:
        errs.append("the clicks-only rewrite left dwell or flags behind")
    if "raw" in methods:
        errs += checks.check_raw_scores(ref, audit)
    if "matched" in methods:
        errs += checks.check_matching(ref, audit)
    if "multilevel" in methods:
        errs += checks.check_difficulty(audit, gen / "query_truth.csv",
                                        wl.difficulty_floor)
    for method, prefix in (("pairwise", ""), ("external", "external_")):
        if method in methods:
            errs += checks.check_pair_model(
                ref, audit / f"{prefix}pair_model.json", wl.pair_fraction)
    return errs


# ---------------------------------------------------------------------------
# per-module metrics from the traced children

def _total(summary: dict, *names: str) -> float:
    return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)


def layer_metrics(gen_trace: dict, audit_trace: dict,
                  untraced_audit_s: float, traced_audit_s: float) -> dict:
    g = spans.summarize(gen_trace["spans"])
    a = spans.summarize(audit_trace["spans"])
    gc, ac = gen_trace["counts"], audit_trace["counts"]
    a_mod = spans.module_self_times(audit_trace["spans"])
    g_mod = spans.module_self_times(gen_trace["spans"])
    accepted = ac.get("logmodel.records_accepted", 0)
    mv_calls = ac.get("metrics.metric_vector.calls", 0)
    sampled = ac.get("pairwise.pairs_sampled", 0)
    fired = ac.get("pairwise.labels_fired", 0)
    match_in = ac.get("matching.input_impressions", 0)
    writes = ("reports.write_json", "reports.write_csv")
    s, mb, n, r = "s", "MB", "count", "ratio"
    m = {
        "synth.generate_s": (_total(g, "synth.generate"), s),
        "synth.generate_peak_rss_mb":
            (gen_trace["peak_rss_mb"].get("synth.generate", 0.0), mb),
        "logmodel.emit_s": (_total(g, "logmodel.emit"), s),
        "logmodel.ingest_s":
            (a.get("logmodel.ingest", {}).get("self_s", 0.0), s),
        "logmodel.ingest_peak_rss_mb":
            (audit_trace["peak_rss_mb"].get("logmodel.ingest", 0.0), mb),
        "logmodel.derive_reformulation_s":
            (_total(a, "logmodel.derive_reformulation_flags"), s),
        "logmodel.records_accepted": (accepted, n),
        "logmodel.records_skipped":
            (ac.get("logmodel.records_skipped", 0), n),
        "metrics.metric_vector_calls": (mv_calls, n),
        "metrics.metric_vector_calls_per_record":
            (mv_calls / accepted if accepted else 0.0, r),
        "aggregate.query_averaged_scores_s":
            (_total(a, "aggregate.query_averaged_scores"), s),
        "aggregate.query_averaged_scores_calls":
            (a.get("aggregate.query_averaged_scores", {}).get("calls", 0), n),
        "matching.match_contexts_s": (_total(a, "matching.match_contexts"), s),
        "matching.matched_scores_s": (_total(a, "matching.matched_scores"), s),
        "matching.cohort_share":
            (ac.get("matching.cohort_impressions", 0) / match_in
             if match_in else 0.0, r),
        "difficulty.estimate_difficulty_s":
            (_total(a, "difficulty.estimate_difficulty"), s),
        "multilevel.build_observations_s":
            (_total(a, "multilevel.build_observations"), s),
        "multilevel.fit_self_s":
            (a.get("multilevel.fit_multilevel", {}).get("self_s", 0.0), s),
        "multilevel.grid_s":
            (_total(a, "multilevel.prediction_grid",
                    "multilevel.max_group_gap"), s),
        "glmfit.fit_s": (_total(a, "glmfit.fit_penalized_glm"), s),
        "glmfit.calls":
            (a.get("glmfit.fit_penalized_glm", {}).get("calls", 0), n),
        "glmfit.iterations": (ac.get("glmfit.iterations", 0), n),
        "pairwise.eligible_queries_s":
            (_total(a, "pairwise.eligible_queries"), s),
        "pairwise.sample_pairs_s": (_total(a, "pairwise.sample_pairs"), s),
        "pairwise.pairs_sampled": (sampled, n),
        "pairwise.label_s":
            (_total(a, "pairwise.label_sample",
                    "pairwise.build_labeled_pairs"), s),
        "pairwise.labels_fired": (fired, n),
        "pairwise.label_yield": (fired / sampled if sampled else 0.0, r),
        "pairwise.fit_s": (_total(a, "pairwise.fit_pair_model"), s),
        "reports.write_s": (_total(g, *writes) + _total(a, *writes), s),
        "reports.bytes_written":
            (gc.get("reports.bytes_written", 0)
             + ac.get("reports.bytes_written", 0), "bytes"),
        "cli.audit_self_s": (a_mod.get("cli", 0.0), s),
        "cli.generate_self_s": (g_mod.get("cli", 0.0), s),
        "trace.audit_inprocess_s": (_total(a, "cli.main"), s),
        "trace.audit_overhead_s": (traced_audit_s - untraced_audit_s, s),
    }
    for mod in ("logmodel", "aggregate", "matching", "difficulty",
                "multilevel", "glmfit", "pairwise", "reports"):
        m[f"{mod}.audit_self_s"] = (a_mod.get(mod, 0.0), s)
    return m


def check_trace(trace: dict, src: Path) -> list[str]:
    """The trace ran the checkout's code and its self times add up."""
    errs = []
    if not Path(trace["sataudit_file"]).resolve().is_relative_to(
            src.resolve()):
        errs.append(f"traced run imported {trace['sataudit_file']}, "
                    f"not the checkout's src")
    roots = [sp for sp in trace["spans"] if sp[3] < 0]
    wall = sum(end - start for _, start, end, _ in roots)
    accounted = sum(spans.module_self_times(trace["spans"]).values())
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        errs.append(f"module self times {accounted:.6f} s do not add up to "
                    f"the traced wall time {wall:.6f} s")
    return errs


# ---------------------------------------------------------------------------
# one run

def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path,
        work: Path) -> dict:
    src = root / "src"
    env = child_env(src)
    py = sys.executable
    tally = Tally()

    # import the checkout's package once before timing anything, which
    # also compiles its bytecode; refuse to measure an installed copy
    probe = subprocess.run(
        [py, "-c", "import sataudit, sataudit.cli; print(sataudit.__file__)"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    origin = Path(probe.stdout.strip() or "?").resolve()
    if probe.returncode != 0 or not origin.is_relative_to(src.resolve()):
        raise SystemExit(f"cannot import sataudit from {src}: "
                         f"{probe.stderr.strip() or origin}")

    def cli_child(args: list[str], name: str) -> Child:
        return run_child([py, "-c", CLI, *args], env, work / f"{name}.log",
                         tally)

    def traced_child(args: list[str], name: str) -> Child:
        return run_child([py, str(HERE / "trace_cli.py"),
                          str(work / f"{name}.spans.json"), "--", *args],
                         env, work / f"{name}.log", tally)

    gen = work / "gen0"
    if trace:
        setups = [traced_child(generate_args(wl, seed, gen), "gen0")]
    else:
        def setup(k: int) -> Child:
            out = work / f"gen{k}"
            child = cli_child(generate_args(wl, seed, out), f"gen{k}")
            if k and child.returncode == 0:
                tally.errors += checks.compare_dirs(gen, out)
                shutil.rmtree(out)
            return child
        setups = timed_rounds(setup, SETUPS)
    if tally.failed:
        return {"correct": False, "attempted": tally.attempted,
                "failed": tally.failed, "errors": tally.errors}

    corpus = gen / f"corpus.{wl.fmt}"
    if wl.clicks_only:
        clicks = work / "clicks_only.csv"
        write_clicks_only(corpus, clicks)
        corpus = clicks

    def audit(k: int) -> Child:
        return cli_child(audit_args(wl, seed, corpus, gen, work / f"audit{k}"),
                         f"audit{k}")
    audits = timed_rounds(audit, MIN_AUDITS, seconds)
    outs = [work / f"audit{k}" for k, c in enumerate(audits)
            if c.returncode == 0]
    untraced_s = statistics.median(c.wall_s for c in audits)
    metrics = {
        "setup_s": (statistics.median(c.wall_s for c in setups), "s"),
        "setup_peak_rss_mb":
            (statistics.median(c.peak_rss_mb for c in setups), "MB"),
        "audit_s": (untraced_s, "s"),
        "audit_peak_rss_mb":
            (statistics.median(c.peak_rss_mb for c in audits), "MB"),
    }

    if trace:
        traced = traced_child(
            audit_args(wl, seed, corpus, gen, work / "audit_traced"),
            "audit_traced")
        if traced.returncode == 0:
            outs.append(work / "audit_traced")
            gen_trace = json.loads((work / "gen0.spans.json").read_text())
            audit_trace = json.loads(
                (work / "audit_traced.spans.json").read_text())
            tally.errors += check_trace(gen_trace, src)
            tally.errors += check_trace(audit_trace, src)
            metrics = layer_metrics(gen_trace, audit_trace, untraced_s,
                                    traced.wall_s)

    if outs:
        for out in outs[1:]:
            tally.errors += checks.compare_dirs(outs[0], out)
        tally.errors += check_audit(wl, corpus, gen, outs[0])
    else:
        tally.errors.append("no audit succeeded")
    return {"correct": not tally.errors, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "errors": tally.errors}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sataudit" / "cli.py").is_file():
        print(f"no sataudit source under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another run's work directory is still there
    for err in result.pop("errors"):
        print(f"check failed: {err}", file=sys.stderr)
    result.setdefault("metrics", {})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
