"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It shows that

* self-time arithmetic is right on a hand-built span tree;
* the clicks-only rewrite blanks every dwell and reformulated flag and
  nothing else;
* the checks pass on a small real audit (``mixed`` at 20k impressions)
  and reject copies of it with one corruption each.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import spans

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def test_span_arithmetic() -> None:
    tree = [
        ["cli.main", 0.0, 10.0, -1],
        ["logmodel.ingest", 1.0, 4.0, 0],
        ["aggregate.f", 5.0, 9.0, 0],
        ["aggregate.g", 6.0, 7.0, 2],
        ["glmfit.fit", 7.5, 8.5, 2],
    ]
    selfs = spans.self_times(tree)
    expect(selfs == [3.0, 3.0, 2.0, 1.0, 1.0],
           f"self times of a hand-built tree: {selfs}")
    summary = spans.summarize(tree)
    expect(summary["aggregate.f"] == {"calls": 1, "total_s": 4.0,
                                      "self_s": 2.0},
           f"total and self time of one name: {summary['aggregate.f']}")
    mods = spans.module_self_times(tree)
    expect(mods == {"cli": 3.0, "logmodel": 3.0, "aggregate": 3.0,
                    "glmfit": 1.0} and sum(mods.values()) == 10.0,
           f"module self times add up to the root's wall time: {mods}")


def test_clicks_only_rewrite(work: Path) -> None:
    src, dst = work / "tiny.csv", work / "tiny_clicks.csv"
    fields = ["impression_id", "clicks", "reformulated", "age"]
    rows = [{"impression_id": "a", "clicks": "1:r1:12.5:0;3:r3:40.0:1",
             "reformulated": "1", "age": "G1"},
            {"impression_id": "b", "clicks": "", "reformulated": "0",
             "age": "G2"}]
    with open(src, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    run.write_clicks_only(src, dst)
    with open(dst, encoding="utf-8", newline="") as f:
        out = list(csv.DictReader(f))
    expect(out == [{"impression_id": "a", "clicks": "1:r1::0;3:r3::1",
                    "reformulated": "", "age": "G1"},
                   {"impression_id": "b", "clicks": "", "reformulated": "",
                    "age": "G2"}],
           f"clicks-only rewrite blanks dwell and flags only: {out}")


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    meta = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(meta)
        w = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def test_checks(work: Path) -> None:
    root = Path.cwd()
    env = run.child_env(root / "src")
    wl = run.WORKLOADS["mixed_full"]
    gen, audit = work / "gen", work / "audit"
    for argv in (run.generate_args(wl, 1, gen, impressions=20_000),
                 run.audit_args(wl, 1, gen / "corpus.ndjson", gen, audit)):
        proc = subprocess.run([sys.executable, "-c", run.CLI, *argv],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            expect(False, f"{argv[0]} exited {proc.returncode}: "
                   f"{proc.stderr.strip()[-200:]}")
            return
    corpus = gen / "corpus.ndjson"
    clean = run.check_audit(wl, corpus, gen, audit)
    expect(clean == [], f"checks pass on a clean audit: {clean}")

    def corrupted(name: str, edit, check) -> None:
        bad = work / f"bad_{name}"
        shutil.copytree(audit, bad)
        edit(bad)
        errs = check(bad)
        expect(bool(errs), f"{name} is rejected: {errs[:1]}")

    ref = checks.read_corpus(corpus)

    def perturb_raw(rows):
        rows[0]["raw"] = repr(float(rows[0]["raw"]) * (1 + 1e-6))

    corrupted("perturbed raw score",
              lambda d: _rewrite_csv(d / "raw_scores.csv", perturb_raw),
              lambda d: checks.check_raw_scores(ref, d))

    def break_age(doc):
        doc["model"]["age_j"]["G2"] += 1e-12

    corrupted("broken age antisymmetry",
              lambda d: _rewrite_json(d / "pair_model.json", break_age),
              lambda d: checks.check_pair_model(ref, d / "pair_model.json",
                                                wl.pair_fraction))

    def break_interaction(doc):
        key = sorted(doc["model"]["interaction"])[0]
        doc["model"]["interaction"][key] += 1e-3

    corrupted("broken interaction antisymmetry",
              lambda d: _rewrite_json(d / "pair_model.json",
                                      break_interaction),
              lambda d: checks.check_pair_model(ref, d / "pair_model.json",
                                                wl.pair_fraction))

    def drop_label(doc):
        doc["labels"]["zero"] -= 1
        doc["labels"]["total"] -= 1

    corrupted("short label count",
              lambda d: _rewrite_json(d / "pair_model.json", drop_label),
              lambda d: checks.check_pair_model(ref, d / "pair_model.json",
                                                wl.pair_fraction))

    def grow_funnel(rows):
        rows[-1]["impressions"] = str(int(rows[-2]["impressions"]) + 1)

    corrupted("growing funnel",
              lambda d: _rewrite_csv(d / "attrition.csv", grow_funnel),
              lambda d: checks.check_matching(ref, d))

    def thin_group(rows):
        # move impressions between two groups, so only the floor breaks
        a, b = [r for r in rows if r["metric"] == checks.METRIC_NAMES[0]][:2]
        thin = int(a["n_queries"]) * (checks.MIN_IMPRESSIONS - 1)
        b["n_impressions"] = str(int(b["n_impressions"])
                                 + int(a["n_impressions"]) - thin)
        a["n_impressions"] = str(thin)

    corrupted("matched group under the floor",
              lambda d: _rewrite_csv(d / "matched_scores.csv", thin_group),
              lambda d: [e for e in checks.check_matching(ref, d)
                         if "under the floor" in e])

    def one_more(doc):
        doc["n_impressions"] += 1

    corrupted("wrong record count",
              lambda d: _rewrite_json(d / "summary.json", one_more),
              lambda d: checks.check_counts(
                  ref, json.loads((d / "summary.json").read_text())))

    def invert(rows):
        for r in rows:
            r["difficulty"] = repr(1.0 - float(r["difficulty"]))

    corrupted("inverted difficulty",
              lambda d: _rewrite_csv(d / "difficulty.csv", invert),
              lambda d: checks.check_difficulty(
                  d, gen / "query_truth.csv", wl.difficulty_floor))

    def flip_byte(d):
        p = d / "prediction_grid.csv"
        data = bytearray(p.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        p.write_bytes(bytes(data))

    corrupted("one changed byte", flip_byte,
              lambda d: checks.compare_dirs(audit, d))



def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "sataudit" / "cli.py").is_file():
        print(f"no sataudit source under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        test_span_arithmetic()
        test_clicks_only_rewrite(work)
        test_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
