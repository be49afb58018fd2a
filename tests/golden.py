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

Run ``PYTHONPATH=src python tests/golden.py`` to rewrite the manifest
after an intended output change, and list each changed entry in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
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


def build(root: Path) -> tuple[dict, dict[str, float]]:
    """Generate and audit every preset under `root`.

    Returns the manifest and the scale of each number in it.  The
    manifest holds a SHA-256 per corpus (``<preset>/corpus``), per pinned
    file and per summary block (``<preset>/<factor>/<name>``) that the
    audit wrote, each delta (``<preset>/<factor>/delta.<metric>``), and
    the exit code and stderr line of a matched audit that fails
    (``<preset>/<factor>/matched``).  A delta's scale is the largest
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
            summary = json.loads((out / "summary.json").read_text(
                encoding="utf-8"))
            for block in BLOCKS:
                if block in summary:
                    digests[f"{key}/summary.{block}"] = _sha256(
                        canonical_json(summary[block]).encode("utf-8"))
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
    return digests, scales


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def write(digests: dict) -> None:
    # one entry a line, so that a diff of the manifest names each change
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write(build(Path(tmp))[0])
    print(f"wrote {MANIFEST}", file=sys.stderr)
