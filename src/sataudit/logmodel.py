"""Search interaction log schema and serialization.

An interaction log is a sequence of impressions: one query issued by one
user, the result page shown, and the clicks that followed.  Each user
carries a demographic profile (an age group crossed with a binary gender
marker).  Two interchange formats are supported:

* NDJSON -- one JSON object per line, nested clicks.
* CSV -- one row per impression with clicks packed into a single column
  as ``position:result_id:dwell_seconds:terminated`` entries joined by
  ``;`` (result ids must therefore avoid ``:`` and ``;``).

Query text is normalized at ingest (lowercased, internal whitespace
collapsed, trimmed).  Records that violate the impression invariants are
counted and skipped; if more than half of a file is malformed the ingest
fails outright.
"""

from __future__ import annotations

import enum
import json
import math
import csv as _csv
import logging
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError

logger = logging.getLogger(__name__)

_WS = re.compile(r"\s+")


class AgeGroup(enum.IntEnum):
    """Age bins; G1 is the youngest group."""

    G1 = 1  # under 18
    G2 = 2  # 18-34
    G3 = 3  # 35-54
    G4 = 4  # 55-74

    @property
    def label(self) -> str:
        return {1: "<18", 2: "18-34", 3: "35-54", 4: "55-74"}[int(self)]


class Gender(enum.Enum):
    MALE = "M"
    FEMALE = "F"

    @property
    def code(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class DemographicProfile:
    age: AgeGroup
    gender: Gender

    @property
    def key(self) -> str:
        return f"{self.age.name}-{self.gender.code}"


def all_profiles() -> list[DemographicProfile]:
    """The eight age-by-gender profiles in canonical order."""
    return [DemographicProfile(a, g) for a in AgeGroup for g in Gender]


# Parsed records share one profile object per (age name, gender code).
_PROFILES = {(p.age.name, p.gender.code): p for p in all_profiles()}


def _profile(age: str, gender: str) -> DemographicProfile:
    shared = _PROFILES.get((age, gender))
    if shared is not None:
        return shared
    # unknown codes raise the same KeyError / ValueError as direct lookup
    return DemographicProfile(AgeGroup[age], Gender(gender))


@dataclass(slots=True)
class Click:
    result_id: str
    position: int            # 1-based rank on the result page
    dwell_seconds: float     # NaN when the source log lacks dwell fidelity
    terminated_query: bool   # user left the query on this click


@dataclass(slots=True)
class Impression:
    impression_id: str
    user_id: str
    session_id: str
    timestamp: int
    query_text: str
    topic: str
    results: list[str]
    clicks: list[Click]
    reformulated: bool | None
    demographics: DemographicProfile


@dataclass
class CorpusMetadata:
    accepted: int = 0
    skipped: int = 0


@dataclass
class LogCorpus:
    """A validated list of impressions.

    Metric tables computed from the corpus are cached on it, so a corpus
    must not change once it has been scored.
    """

    impressions: list[Impression]
    metadata: CorpusMetadata = field(default_factory=CorpusMetadata)
    _metric_tables: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.impressions)

    @property
    def has_dwell(self) -> bool:
        """False when any click lacks a dwell time (clicks-only fidelity)."""
        return not any(
            math.isnan(c.dwell_seconds)
            for imp in self.impressions for c in imp.clicks
        )


def normalize_query(text: str) -> str:
    """Lowercase, collapse internal whitespace, trim."""
    return _WS.sub(" ", text.strip()).lower()


def validate_impression(imp: Impression) -> str | None:
    """Return a reason string if `imp` violates an invariant, else None."""
    if not imp.impression_id:
        return "empty impression_id"
    if not imp.results:
        return "empty results list"
    if len(set(imp.results)) != len(imp.results):
        return "duplicate result_id in results"
    if not imp.query_text:
        return "empty query_text"
    shown = set(imp.results)
    terminating = 0
    for c in imp.clicks:
        if c.result_id not in shown:
            return f"click on result {c.result_id!r} absent from results"
        if c.position < 1 or c.position > len(imp.results):
            return f"click position {c.position} out of range"
        if not math.isnan(c.dwell_seconds) and c.dwell_seconds < 0:
            return "negative dwell"
        terminating += int(c.terminated_query)
    if terminating > 1:
        return "more than one terminating click"
    return None


# ---------------------------------------------------------------------------
# reformulation flag derivation
#
# When a record does not carry the reformulated flag it is derived from
# session context: the flag is set when a later query in the same session
# differs from this one but either shares at least half of its tokens or
# sits within 0.5 normalized edit distance.

def _edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, bit-parallel over the DP columns (Hyyro 2001).

    The shorter string is the pattern: bit i of ``pv``/``mv`` holds the
    +1/-1 vertical delta at pattern row i, so each character of the
    longer string advances a whole DP column in a few integer operations.
    Python ints are unbounded, so any pattern length works; ``mask``
    drops the bits that ``~`` and the shifts set above the last row.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = (ph << 1) | 1          # row 0 of column j holds j
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def _queries_similar(orig: str, nxt: str, overlap_threshold: float,
                     edit_threshold: float) -> bool:
    orig_tokens = set(orig.split())
    if orig_tokens:
        shared = len(orig_tokens & set(nxt.split())) / len(orig_tokens)
        if shared >= overlap_threshold:
            return True
    longest = max(len(orig), len(nxt))
    return longest > 0 and _edit_distance(orig, nxt) / longest <= edit_threshold


def derive_reformulation_flags(impressions: list[Impression],
                               overlap_threshold: float = 0.5,
                               edit_threshold: float = 0.5) -> None:
    """Fill in missing reformulated flags from in-session successors.

    Only impressions whose flag is None are touched.  The last query of a
    session can never be a reformulation source, so it gets False.
    """
    similar: dict[tuple[str, str], bool] = {}
    sessions: dict[str, list[Impression]] = {}
    for imp in impressions:
        sessions.setdefault(imp.session_id, []).append(imp)
    for sess in sessions.values():
        sess.sort(key=lambda i: (i.timestamp, i.impression_id))
        for k, imp in enumerate(sess):
            if imp.reformulated is not None:
                continue
            flag = False
            for later in sess[k + 1:]:
                if later.query_text == imp.query_text:
                    continue
                pair = (imp.query_text, later.query_text)
                verdict = similar.get(pair)
                if verdict is None:
                    verdict = similar[pair] = _queries_similar(
                        *pair, overlap_threshold, edit_threshold)
                if verdict:
                    flag = True
                    break
            imp.reformulated = flag


# ---------------------------------------------------------------------------
# NDJSON

def _click_to_dict(c: Click) -> dict:
    return {
        "result_id": c.result_id,
        "position": c.position,
        "dwell_seconds": c.dwell_seconds,
        "terminated_query": c.terminated_query,
    }


def impression_to_dict(imp: Impression) -> dict:
    return {
        "impression_id": imp.impression_id,
        "user_id": imp.user_id,
        "session_id": imp.session_id,
        "timestamp": imp.timestamp,
        "query_text": imp.query_text,
        "topic": imp.topic,
        "results": list(imp.results),
        "clicks": [_click_to_dict(c) for c in imp.clicks],
        "reformulated": imp.reformulated,
        "demographics": {"age": imp.demographics.age.name,
                         "gender": imp.demographics.gender.code},
    }


def _parse_bool(v) -> bool | None:
    if v is None or v == "":
        return None
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return bool(v)
    s = str(v).strip().lower()
    if s in ("1", "true", "t", "yes"):
        return True
    if s in ("0", "false", "f", "no"):
        return False
    raise ValueError(f"bad boolean {v!r}")


def impression_from_dict(rec: dict) -> Impression:
    demo = rec["demographics"]
    clicks = [
        Click(
            result_id=str(c["result_id"]),
            position=int(c["position"]),
            dwell_seconds=(float("nan") if c.get("dwell_seconds") is None
                           else float(c["dwell_seconds"])),
            terminated_query=bool(_parse_bool(c.get("terminated_query")) or False),
        )
        for c in rec["clicks"]
    ]
    return Impression(
        impression_id=str(rec["impression_id"]),
        user_id=str(rec["user_id"]),
        session_id=str(rec["session_id"]),
        timestamp=int(rec["timestamp"]),
        query_text=normalize_query(str(rec["query_text"])),
        topic=str(rec["topic"]),
        results=[str(r) for r in rec["results"]],
        clicks=clicks,
        reformulated=_parse_bool(rec.get("reformulated")),
        demographics=_profile(str(demo["age"]), str(demo["gender"])),
    )


# ---------------------------------------------------------------------------
# CSV

CSV_FIELDS = ["impression_id", "user_id", "session_id", "timestamp",
              "query_text", "topic", "results", "clicks", "reformulated",
              "age", "gender"]

_RESERVED = (":", ";")


def _pack_clicks(clicks: Sequence[Click]) -> str:
    parts = []
    for c in clicks:
        if any(ch in c.result_id for ch in _RESERVED):
            raise DataError(
                f"result id {c.result_id!r} contains a reserved character; "
                "CSV packing requires ids without ':' or ';'")
        dwell = "" if math.isnan(c.dwell_seconds) else repr(c.dwell_seconds)
        parts.append(f"{c.position}:{c.result_id}:{dwell}:{int(c.terminated_query)}")
    return ";".join(parts)


def _unpack_clicks(packed: str) -> list[Click]:
    clicks = []
    if not packed:
        return clicks
    for part in packed.split(";"):
        pos, rid, dwell, term = part.split(":")
        clicks.append(Click(
            result_id=rid,
            position=int(pos),
            dwell_seconds=float(dwell) if dwell else float("nan"),
            terminated_query=bool(int(term)),
        ))
    return clicks


def _impression_to_row(imp: Impression) -> dict:
    for rid in imp.results:
        if any(ch in rid for ch in _RESERVED):
            raise DataError(
                f"result id {rid!r} contains a reserved character; "
                "CSV packing requires ids without ':' or ';'")
    return {
        "impression_id": imp.impression_id,
        "user_id": imp.user_id,
        "session_id": imp.session_id,
        "timestamp": imp.timestamp,
        "query_text": imp.query_text,
        "topic": imp.topic,
        "results": ";".join(imp.results),
        "clicks": _pack_clicks(imp.clicks),
        "reformulated": "" if imp.reformulated is None else int(imp.reformulated),
        "age": imp.demographics.age.name,
        "gender": imp.demographics.gender.code,
    }


def _impression_from_row(row: dict) -> Impression:
    return Impression(
        impression_id=row["impression_id"],
        user_id=row["user_id"],
        session_id=row["session_id"],
        timestamp=int(row["timestamp"]),
        query_text=normalize_query(row["query_text"]),
        topic=row["topic"],
        results=row["results"].split(";") if row["results"] else [],
        clicks=_unpack_clicks(row["clicks"]),
        reformulated=_parse_bool(row["reformulated"]),
        demographics=_profile(row["age"], row["gender"]),
    )


# ---------------------------------------------------------------------------
# ingest / emit

def ingest(path: str | Path, fmt: str = "ndjson", *,
           overlap_threshold: float = 0.5,
           edit_threshold: float = 0.5) -> LogCorpus:
    """Load a log file into a validated corpus.

    Invalid records are skipped (counted in metadata); more than 50%
    malformed is fatal.  Missing reformulated flags are derived from
    session context after the full file is read.
    """
    path = Path(path)
    if fmt not in ("ndjson", "csv"):
        raise DataError(f"unknown log format {fmt!r}")

    impressions: list[Impression] = []
    skipped = 0
    first_errors: list[str] = []

    def consider(build):
        nonlocal skipped
        try:
            imp = build()
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            skipped += 1
            if len(first_errors) < 5:
                first_errors.append(str(exc))
            return
        reason = validate_impression(imp)
        if reason is not None:
            skipped += 1
            if len(first_errors) < 5:
                first_errors.append(reason)
            return
        impressions.append(imp)

    # One streaming pass: records are parsed as lines are read, so the raw
    # text is never held whole.  newline="" lets the csv module see quoted
    # line breaks; json.loads ignores a line's trailing "\r\n".
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            if fmt == "ndjson":
                for line in fh:
                    if not line.strip():
                        continue
                    consider(lambda line=line: impression_from_dict(json.loads(line)))
            else:
                reader = _csv.DictReader(fh)
                if reader.fieldnames is not None and set(CSV_FIELDS) - set(reader.fieldnames):
                    missing = sorted(set(CSV_FIELDS) - set(reader.fieldnames))
                    raise DataError(f"CSV header missing columns: {', '.join(missing)}")
                for row in reader:
                    consider(lambda row=row: _impression_from_row(row))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    total = len(impressions) + skipped
    if total > 0 and skipped * 2 > total:
        raise DataError(
            f"{skipped}/{total} records malformed in {path}; "
            f"first errors: {first_errors}")
    if skipped:
        logger.warning("ingest %s: skipped %d/%d records (first errors: %s)",
                       path, skipped, total, first_errors)

    derive_reformulation_flags(impressions, overlap_threshold, edit_threshold)
    return LogCorpus(impressions,
                     CorpusMetadata(accepted=len(impressions), skipped=skipped))


def emit(corpus: LogCorpus, path: str | Path, fmt: str = "ndjson") -> int:
    """Write a corpus in stable impression_id order; returns record count."""
    path = Path(path)
    ordered = sorted(corpus.impressions, key=lambda i: i.impression_id)
    if fmt == "ndjson":
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for imp in ordered:
                fh.write(json.dumps(impression_to_dict(imp)) + "\n")
    elif fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
            writer.writeheader()
            for imp in ordered:
                writer.writerow(_impression_to_row(imp))
    else:
        raise DataError(f"unknown log format {fmt!r}")
    return len(ordered)
