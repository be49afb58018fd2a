"""Golden outputs: the SHA-256 of what the five preset audits write.

Each preset is generated at seed 3 with 5,000 impressions and audited by
age and by gender with ``raw,multilevel,pairwise --pair-fraction 1.0``;
``query_mix_confound`` and ``mixed`` add ``matched`` on the generator's
navigational list.  The manifest pins each generated corpus, the score,
attrition and difficulty files, and the canonical JSON of the summary's
raw, matched and divergence blocks.  None of these passes through a
linear solve, so every platform writes the same bytes.  Each audit's
four multilevel deltas are pinned as numbers, which a check takes to
agree within :data:`FIT_BITS` of the largest coefficient of their fit,
as another build of numpy may round a solve another way.  The three
presets without a navigational list pin the exit code and the one line
that ``--methods matched`` ends with: their matched cohort is empty.

The pair stage is pinned by the canonical JSON of each audit's pairwise
``labels`` and ``n_eligible_queries``, kept as text.  Its thresholds
move with the multilevel deltas, but a label reads them only through
strict comparisons with differences that lie on a grid: graded utility
differences are multiples of 1/3, and the successful-click thresholds
are k * delta rounded half up.  So the labels change only when k * delta
crosses a 1/3 step of graded utility or a half-integer of the click
rounding, which no rounding of a solve comes near.  One clicks-only
audit is pinned as well: the seed 3 ``dwell_confound`` log at 20,000
impressions as CSV, its dwell times and reformulation flags blanked
(:func:`clicks_only`), audited with ``external --default-thresholds
--pair-fraction 1.0``; the manifest holds the blanked log's SHA-256 and
the canonical JSON of the summary's ``external`` block without its
``grid``.

Run ``PYTHONPATH=src python tests/golden.py`` to rewrite the manifest
after an intended output change.  It prints each entry it changes, adds
or drops, one a line, for the change's CHANGES.md entry; a delta within
:data:`FIT_BITS` of its pinned value keeps that value.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

from sataudit import synth
from sataudit.cli import main
from sataudit.reports import canonical_json

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SEED, IMPRESSIONS = 3, 5000
METHODS = "raw,multilevel,pairwise"
MATCHED_PRESETS = ("mixed", "query_mix_confound")
FILES = ("raw_scores.csv", "matched_scores.csv", "attrition.csv",
         "difficulty.csv")
BLOCKS = ("raw", "matched", "divergence")
# the clicks-only audit's log: dwell_confound as CSV, at this size
CLICKS_ONLY_IMPRESSIONS = 20_000
# a multilevel delta agrees to 40 of the 53 bits of the largest
# coefficient of the fit it comes from: 2**13 units in its last place are
# left for the condition of the Newton systems, which another summation
# order or another build of numpy rounds another way, far below what a
# group fitted under the wrong label would move
FIT_BITS = 40


def largest(tree) -> float:
    """The largest absolute number anywhere in a JSON value."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return max((largest(v) for v in tree), default=0.0)
    return abs(tree)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def clicks_only(src: Path, dst: Path) -> None:
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


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _clicks_only_audit(root: Path) -> dict:
    """The clicks-only external audit's entries (``dwell_confound/
    clicks_only/...``): the blanked log's SHA-256 and the summary's
    ``external`` block without its grid, as canonical JSON."""
    gen, log = root / "gen", root / "log" / "corpus.csv"
    if main(["generate", "--preset", "dwell_confound", "--seed", str(SEED),
             "--impressions", str(CLICKS_ONLY_IMPRESSIONS), "--format",
             "csv", "--out", str(gen)]):
        raise RuntimeError("generate the clicks-only log failed")
    clicks_only(gen / "corpus.csv", log)
    if main(["audit", "--input", str(log), "--methods", "external",
             "--default-thresholds", "--pair-fraction", "1.0",
             "--out", str(root / "audit")]):
        raise RuntimeError("the clicks-only audit failed")
    block = _summary(root / "audit")["external"]
    del block["grid"]
    key = "dwell_confound/clicks_only"
    return {f"{key}/corpus": _sha256(log.read_bytes()),
            f"{key}/summary.external": canonical_json(block)}


def build(root: Path) -> tuple[dict, dict[str, float]]:
    """Generate and audit every preset under `root`.

    Returns the manifest and the scale of each number in it.  The
    manifest holds a SHA-256 per corpus (``<preset>/corpus``), per pinned
    file and per summary block (``<preset>/<factor>/<name>``) that the
    audit wrote, each delta (``<preset>/<factor>/delta.<metric>``), the
    canonical JSON of the pair stage's labels and eligible queries
    (``<preset>/<factor>/summary.pairwise``), the exit code and stderr
    line of a matched audit that fails (``<preset>/<factor>/matched``),
    and the clicks-only audit's entries.  A delta's scale is the largest
    coefficient of its fit.
    """
    digests, scales = {}, {}
    for preset in sorted(synth.PRESETS):
        gen = root / preset / "gen"
        if main(["generate", "--preset", preset, "--seed", str(SEED),
                 "--impressions", str(IMPRESSIONS), "--out", str(gen)]):
            raise RuntimeError(f"generate {preset} failed")
        digests[f"{preset}/corpus"] = _sha256(
            (gen / "corpus.ndjson").read_bytes())
        methods, extra = METHODS, []
        if preset in MATCHED_PRESETS:
            methods = "raw,matched,multilevel,pairwise"
            extra = ["--navigational", str(gen / "navigational_queries.txt")]
        for factor in ("age", "gender"):
            out = root / preset / factor
            if main(["audit", "--input", str(gen / "corpus.ndjson"),
                     "--factor", factor, "--methods", methods,
                     "--pair-fraction", "1.0", *extra,
                     "--out", str(out)]):
                raise RuntimeError(f"audit {preset} {factor} failed")
            key = f"{preset}/{factor}"
            for name in FILES:
                if (out / name).exists():
                    digests[f"{key}/{name}"] = _sha256(
                        (out / name).read_bytes())
            summary = _summary(out)
            for block in BLOCKS:
                if block in summary:
                    digests[f"{key}/summary.{block}"] = _sha256(
                        canonical_json(summary[block]).encode("utf-8"))
            digests[f"{key}/summary.pairwise"] = canonical_json({
                name: summary["pairwise"][name]
                for name in ("labels", "n_eligible_queries")})
            for metric, delta in summary["multilevel"]["deltas"].items():
                digests[f"{key}/delta.{metric}"] = delta
                scales[f"{key}/delta.{metric}"] = largest(json.loads(
                    (out / f"fit_{metric}.json").read_text(
                        encoding="utf-8"))["effects"])
            if preset not in MATCHED_PRESETS:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(["audit", "--input",
                                 str(gen / "corpus.ndjson"), "--factor",
                                 factor, "--methods", "matched", "--out",
                                 str(root / preset / "matched")])
                digests[f"{key}/matched"] = [code, err.getvalue()]
    digests.update(_clicks_only_audit(root / "clicks_only"))
    return digests, scales


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def write(digests: dict) -> None:
    # one entry a line, so that a diff of the manifest names each change
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


def changes(old: dict, new: dict) -> list[str]:
    """One line per entry that `new` changes, adds or drops against
    `old`, in key order."""
    def show(value) -> str:
        return value if isinstance(value, str) else json.dumps(value)

    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"dropped {key}: {show(old[key])}")
        elif key not in old:
            lines.append(f"added {key}: {show(new[key])}")
        elif old[key] != new[key]:
            lines.append(f"changed {key}: {show(old[key])} -> "
                         f"{show(new[key])}")
    return lines


if __name__ == "__main__":
    import tempfile

    old = load() if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new, scales = build(Path(tmp))
    # a delta that the check would pass keeps its pinned value
    for key, scale in scales.items():
        if key in old and abs(new[key] - old[key]) <= scale * 2.0 ** -FIT_BITS:
            new[key] = old[key]
    write(new)
    for line in changes(old, new):
        print(line)
    print(f"wrote {MANIFEST}", file=sys.stderr)
