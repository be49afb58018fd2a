"""Checks on an audit directory, made apart from the program.

Reference checks recompute what the audit reports from the corpus file
itself, parsed here with ``json`` or ``csv`` and scored by the metrics'
documented rules.  Property checks test what must hold for any correct
version of the method.  Every check returns a list of failure messages;
an empty list means it passed.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from pathlib import Path

AGE_LABELS = {"G1": "<18", "G2": "18-34", "G3": "35-54", "G4": "55-74"}
METRIC_NAMES = ("graded_utility", "reformulation", "page_click_count",
                "successful_click_count")
DWELL_THRESHOLD_S = 30.0
PAIRS_PER_QUERY = 10_000        # audit --pairs-per-query default
MIN_IMPRESSIONS = 10            # audit --min-impressions default
MIN_AGE_GROUPS = 3              # eligible-query floor for the age factor
REL_TOL = 1e-9


def _norm_query(text: str) -> str:
    return " ".join(text.split()).lower()


def graded_utility(pcc: int, scc: int, reform: int) -> float:
    if pcc == 0:
        return -1.0
    if scc == 0:
        return -1.0 / 3.0
    if pcc <= 2 and reform == 0:
        return 1.0
    return 1.0 / 3.0


class CorpusReference:
    """Counts and per-(age group, query) metric sums from a corpus file."""

    def __init__(self):
        self.n_records = 0
        self.has_dwell = True
        self.cells: dict[tuple[str, str], list[float]] = {}
        self.query_groups: dict[str, set[str]] = {}
        self.query_count: dict[str, int] = {}

    def add(self, age: str, query: str, dwells: list[float | None],
            reformulated) -> None:
        self.n_records += 1
        query = _norm_query(query)
        self.query_groups.setdefault(query, set()).add(age)
        self.query_count[query] = self.query_count.get(query, 0) + 1
        if any(d is None for d in dwells) or reformulated is None:
            self.has_dwell = False
            return
        pcc = len(dwells)
        scc = sum(1 for d in dwells if d > DWELL_THRESHOLD_S)
        reform = int(reformulated)
        row = self.cells.setdefault((AGE_LABELS[age], query), [0.0] * 5)
        row[0] += graded_utility(pcc, scc, reform)
        row[1] += reform
        row[2] += pcc
        row[3] += scc
        row[4] += 1

    def group_means(self) -> dict[tuple[str, str], tuple[float, int, int]]:
        """{(metric, group label): (query-averaged mean, queries, records)}."""
        by_group: dict[str, list[list[float]]] = {}
        for (group, _), row in self.cells.items():
            by_group.setdefault(group, []).append(row)
        out = {}
        for group, rows in by_group.items():
            n_imp = int(sum(r[4] for r in rows))
            for k, metric in enumerate(METRIC_NAMES):
                mean = sum(r[k] / r[4] for r in rows) / len(rows)
                out[(metric, group)] = (mean, len(rows), n_imp)
        return out

    def eligible_queries(self) -> int:
        return sum(1 for q, n in self.query_count.items()
                   if n >= MIN_IMPRESSIONS
                   and len(self.query_groups[q]) >= MIN_AGE_GROUPS)


def read_corpus(path: Path) -> CorpusReference:
    ref = CorpusReference()
    if path.suffix == ".ndjson":
        with open(path, encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                ref.add(rec["demographics"]["age"], rec["query_text"],
                        [c["dwell_seconds"] for c in rec["clicks"]],
                        rec.get("reformulated"))
    else:
        with open(path, encoding="utf-8", newline="") as f:
            for row in csv.DictReader(f):
                dwells = []
                for part in filter(None, row["clicks"].split(";")):
                    dwell = part.split(":")[2]
                    dwells.append(float(dwell) if dwell else None)
                flag = row["reformulated"]
                ref.add(row["age"], row["query_text"], dwells,
                        None if flag == "" else int(flag))
    return ref


def read_report_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(line for line in f
                                   if not line.startswith("#")))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# reference checks

def check_counts(ref: CorpusReference, summary: dict) -> list[str]:
    errs = []
    if summary.get("n_impressions") != ref.n_records:
        errs.append(f"summary n_impressions {summary.get('n_impressions')} "
                    f"!= {ref.n_records} records in the corpus")
    if summary.get("n_queries") != len(ref.query_count):
        errs.append(f"summary n_queries {summary.get('n_queries')} "
                    f"!= {len(ref.query_count)} distinct queries")
    return errs


def check_raw_scores(ref: CorpusReference, audit_dir: Path) -> list[str]:
    if not ref.has_dwell:
        return ["raw scores need dwell and reformulation flags in the corpus"]
    expected = ref.group_means()
    rows = read_report_csv(audit_dir / "raw_scores.csv")
    errs = []
    seen = set()
    for row in rows:
        key = (row["metric"], row["group"])
        seen.add(key)
        if key not in expected:
            errs.append(f"raw_scores.csv has unexpected row {key}")
            continue
        mean, n_q, n_imp = expected[key]
        if not _close(float(row["raw"]), mean):
            errs.append(f"raw_scores.csv {key}: raw {row['raw']} != "
                        f"reference {mean!r}")
        if int(row["n_queries"]) != n_q or int(row["n_impressions"]) != n_imp:
            errs.append(f"raw_scores.csv {key}: counts {row['n_queries']}/"
                        f"{row['n_impressions']} != {n_q}/{n_imp}")
    for key in sorted(set(expected) - seen):
        errs.append(f"raw_scores.csv lacks row {key}")
    return errs


def _ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(a: list[float], b: list[float]) -> float:
    ra, rb = _ranks(a), _ranks(b)
    ma, mb = sum(ra) / len(ra), sum(rb) / len(rb)
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def check_difficulty(audit_dir: Path, query_truth: Path,
                     floor: float) -> list[str]:
    """Estimated difficulty must rank queries like the generator's truth."""
    est = {r["query_text"]: float(r["difficulty"])
           for r in read_report_csv(audit_dir / "difficulty.csv")}
    truth = {_norm_query(r["query_text"]): float(r["difficulty"])
             for r in read_report_csv(query_truth)}
    common = sorted(set(est) & set(truth))
    rho = (spearman([est[q] for q in common], [truth[q] for q in common])
           if len(common) >= 3 else float("nan"))
    if not rho >= floor:
        return [f"difficulty rank correlation with the generator's truth "
                f"{rho:.4f} < {floor} over {len(common)} queries"]
    return []


# ---------------------------------------------------------------------------
# property checks

def _swap(key: str) -> str:
    a, g, b, h = key.split("|")
    return f"{b}|{h}|{a}|{g}"


def check_pair_model(ref: CorpusReference, path: Path,
                     pair_fraction: float) -> list[str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    model, labels = doc["model"], doc["labels"]
    errs = []
    for slot in ("age", "gender"):
        left, right = model[f"{slot}_i"], model[f"{slot}_j"]
        for k, v in left.items():
            if right.get(k) != -v:
                errs.append(f"{path.name}: {slot}_i[{k}] = {v!r} but "
                            f"{slot}_j[{k}] = {right.get(k)!r}")
    inter = model["interaction"]
    for k, v in inter.items():
        if inter.get(_swap(k)) != -v:
            errs.append(f"{path.name}: interaction[{k}] = {v!r} but "
                        f"interaction[{_swap(k)}] = {inter.get(_swap(k))!r}")
    n_sampled = doc["n_sampled_queries"]
    if labels["positive"] + labels["negative"] + labels["zero"] \
            != labels["total"]:
        errs.append(f"{path.name}: label counts do not sum to the total")
    if labels["total"] != PAIRS_PER_QUERY * n_sampled:
        errs.append(f"{path.name}: {labels['total']} labels != "
                    f"{PAIRS_PER_QUERY} x {n_sampled} sampled queries")
    n_eligible = ref.eligible_queries()
    if doc["n_eligible_queries"] != n_eligible:
        errs.append(f"{path.name}: {doc['n_eligible_queries']} eligible "
                    f"queries != {n_eligible} recounted")
    if n_sampled != math.ceil(pair_fraction * n_eligible):
        errs.append(f"{path.name}: {n_sampled} sampled queries != "
                    f"ceil({pair_fraction} x {n_eligible})")
    return errs


def check_matching(ref: CorpusReference, audit_dir: Path) -> list[str]:
    """The funnel never grows and every matched group meets the floor."""
    stages = read_report_csv(audit_dir / "attrition.csv")
    errs = []
    if int(stages[0]["impressions"]) != ref.n_records:
        errs.append(f"funnel input {stages[0]['impressions']} != "
                    f"{ref.n_records} records")
    for prev, cur in zip(stages, stages[1:]):
        for col in ("impressions", "queries"):
            if int(cur[col]) > int(prev[col]):
                errs.append(f"funnel grows at {cur['stage']}: {col} "
                            f"{prev[col]} -> {cur[col]}")
    final_imp = int(stages[-1]["impressions"])
    final_q = int(stages[-1]["queries"])
    rows = [r for r in read_report_csv(audit_dir / "matched_scores.csv")
            if r["metric"] == METRIC_NAMES[0]]
    if sum(int(r["n_impressions"]) for r in rows) != final_imp:
        errs.append("matched group impressions do not sum to the funnel's "
                    "final stage")
    for r in rows:
        n_q, n_imp = int(r["n_queries"]), int(r["n_impressions"])
        if n_q != final_q:
            errs.append(f"matched group {r['group']} covers {n_q} of "
                        f"{final_q} matched queries")
        if n_imp < MIN_IMPRESSIONS * n_q:
            errs.append(f"matched group {r['group']}: {n_imp} impressions "
                        f"over {n_q} queries is under the floor of "
                        f"{MIN_IMPRESSIONS} per query")
    return errs


def compare_dirs(a: Path, b: Path) -> list[str]:
    """Byte-for-byte comparison of two flat output directories."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"{a.name} and {b.name} hold different files: "
                f"{names_a} vs {names_b}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return [f"{name} differs between {a.name} and {b.name}"
            for name in mismatch + errors]
