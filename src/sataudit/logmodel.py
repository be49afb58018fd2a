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

A corpus is held as read-only columns (:class:`ImpressionColumns`):
ingest parses each record into flat lists and freezes them into numpy
arrays, so no per-record object outlives its line.  :class:`Impression`
and :class:`Click` are the record form, used where records are
generated, written or built by hand.
"""

from __future__ import annotations

import enum
import json
import math
import csv as _csv
import logging
import re
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

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


# Columns code a profile as its index here, (age - 1) * 2 + gender, and
# records parsed or rebuilt from columns share these objects.
_PROFILES = all_profiles()
_PROFILE_CODES = {p: k for k, p in enumerate(_PROFILES)}
_BY_NAMES = {(p.age.name, p.gender.code): p for p in _PROFILES}


def _profile(age: str, gender: str) -> DemographicProfile:
    shared = _BY_NAMES.get((age, gender))
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


def first_appearance_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of `keys` in order of first appearance;
    returns ``(distinct, codes)`` with ``distinct[codes] == keys``."""
    distinct, first, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ImpressionColumns:
    """The read-only columns of a corpus, one row per impression.

    ``ids`` holds the impression ids (an object array of str).  ``user``,
    ``session``, ``query`` and ``topic`` are int32 codes into ``users``,
    ``sessions``, ``queries`` and ``topics``, each listed in order of first
    appearance; ``age`` and ``gender`` index ``AgeGroup`` and ``Gender``
    order.  ``reformulated`` is int8: 1, 0, or -1 when the flag is unset.

    Result pages and clicks are CSR: row k's results are
    ``result[result_offsets[k]:result_offsets[k + 1]]``, codes into
    ``result_ids``, and its clicks, in log order, are entries
    ``click_offsets[k]:click_offsets[k + 1]`` of the ``click_*`` arrays
    (``click_dwell`` is NaN where the log has no dwell time).
    """

    ids: np.ndarray
    user: np.ndarray
    users: list[str]
    session: np.ndarray
    sessions: list[str]
    timestamp: np.ndarray          # int64
    age: np.ndarray
    gender: np.ndarray
    query: np.ndarray
    queries: list[str]
    topic: np.ndarray
    topics: list[str]
    reformulated: np.ndarray
    result_offsets: np.ndarray
    result: np.ndarray
    result_ids: list[str]
    click_offsets: np.ndarray
    click_result: np.ndarray
    click_position: np.ndarray
    click_dwell: np.ndarray
    click_terminated: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                _frozen(value)

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def id_order(self) -> np.ndarray:
        """Rows in impression-id order; equal ids keep row order."""
        return _frozen(np.argsort(self.ids, kind="stable"))

    @cached_property
    def click_count(self) -> np.ndarray:
        """Clicks per impression (the page click count)."""
        return _frozen(np.diff(self.click_offsets))

    @cached_property
    def click_row(self) -> np.ndarray:
        """The row of each click."""
        return _frozen(np.repeat(np.arange(len(self)), self.click_count))


class _ColumnBuilder:
    """Flat lists that validated records are appended to, frozen at the
    end into :class:`ImpressionColumns`.

    A record is a tuple of the :class:`Impression` fields in order, with
    each click a ``(result_id, position, dwell_seconds,
    terminated_query)`` tuple.
    """

    def __init__(self):
        self.ids: list[str] = []
        self.user, self.session, self.timestamp = [], [], []
        self.query, self.topic, self.profile, self.reformulated = \
            [], [], [], []
        self.result, self.result_end = [], [0]
        self.click_result, self.click_position = [], []
        self.click_dwell, self.click_terminated, self.click_end = [], [], [0]
        self.users: dict[str, int] = {}
        self.sessions: dict[str, int] = {}
        self.queries: dict[str, int] = {}
        self.topics: dict[str, int] = {}
        self.result_ids: dict[str, int] = {}

    def add(self, impression_id, user_id, session_id, timestamp, query_text,
            topic, results, clicks, reformulated, demographics) -> str | None:
        """Append one record; returns the reason instead when it violates
        an invariant."""
        reason = _invalid(impression_id, timestamp, query_text, results,
                          clicks)
        if reason is not None:
            return reason
        self.ids.append(impression_id)
        users, sessions = self.users, self.sessions
        queries, topics = self.queries, self.topics
        self.user.append(users.setdefault(user_id, len(users)))
        self.session.append(sessions.setdefault(session_id, len(sessions)))
        self.timestamp.append(timestamp)
        self.query.append(queries.setdefault(query_text, len(queries)))
        self.topic.append(topics.setdefault(topic, len(topics)))
        self.profile.append(_PROFILE_CODES[demographics])
        self.reformulated.append(-1 if reformulated is None
                                 else int(reformulated))
        vocab = self.result_ids
        codes = list(map(vocab.get, results))
        if None in codes:           # a result id not seen before
            codes = [vocab.setdefault(r, len(vocab)) for r in results]
        self.result.extend(codes)
        self.result_end.append(len(self.result))
        for result_id, position, dwell, terminated in clicks:
            self.click_result.append(vocab[result_id])
            self.click_position.append(position)
            self.click_dwell.append(dwell)
            self.click_terminated.append(terminated)
        self.click_end.append(len(self.click_result))
        return None

    def freeze(self) -> ImpressionColumns:
        profile = np.array(self.profile, dtype=np.int32)
        return ImpressionColumns(
            ids=np.array(self.ids, dtype=object),
            user=np.array(self.user, dtype=np.int32), users=list(self.users),
            session=np.array(self.session, dtype=np.int32),
            sessions=list(self.sessions),
            timestamp=np.array(self.timestamp, dtype=np.int64),
            age=profile >> 1, gender=profile & 1,
            query=np.array(self.query, dtype=np.int32),
            queries=list(self.queries),
            topic=np.array(self.topic, dtype=np.int32),
            topics=list(self.topics),
            reformulated=np.array(self.reformulated, dtype=np.int8),
            result_offsets=np.array(self.result_end, dtype=np.int64),
            result=np.array(self.result, dtype=np.int32),
            result_ids=list(self.result_ids),
            click_offsets=np.array(self.click_end, dtype=np.int64),
            click_result=np.array(self.click_result, dtype=np.int32),
            click_position=np.array(self.click_position, dtype=np.int32),
            click_dwell=np.array(self.click_dwell, dtype=float),
            click_terminated=np.array(self.click_terminated, dtype=bool))


def _fields_of(imp: Impression) -> tuple:
    return (imp.impression_id, imp.user_id, imp.session_id, imp.timestamp,
            imp.query_text, imp.topic, imp.results,
            [(c.result_id, c.position, c.dwell_seconds, c.terminated_query)
             for c in imp.clicks],
            imp.reformulated, imp.demographics)


def _records(cols: ImpressionColumns, rows, click, text=str):
    """The Impression fields of each row, rebuilt from the columns.

    Each click is ``click(text(result_id), position, dwell_seconds,
    terminated_query)``, vocabulary strings (not ids) go through `text`
    once per entry, and `reformulated` stays coded as 1, 0 or -1.
    """
    users, sessions, queries, topics, rid = (
        [text(v) for v in vocab] for vocab in (
            cols.users, cols.sessions, cols.queries, cols.topics,
            cols.result_ids))
    res = [rid[c] for c in cols.result.tolist()]
    clicks = [click(rid[r], p, d, t) for r, p, d, t in zip(
        cols.click_result.tolist(), cols.click_position.tolist(),
        cols.click_dwell.tolist(), cols.click_terminated.tolist())]
    ids, ts = cols.ids.tolist(), cols.timestamp.tolist()
    user, session = cols.user.tolist(), cols.session.tolist()
    query, topic = cols.query.tolist(), cols.topic.tolist()
    flags = cols.reformulated.tolist()
    profile = (cols.age * 2 + cols.gender).tolist()
    ro, co = cols.result_offsets.tolist(), cols.click_offsets.tolist()
    for k in rows:
        yield (ids[k], users[user[k]], sessions[session[k]], ts[k],
               queries[query[k]], topics[topic[k]], res[ro[k]:ro[k + 1]],
               clicks[co[k]:co[k + 1]], flags[k], _PROFILES[profile[k]])


@dataclass(eq=False)
class LogCorpus:
    """A validated interaction log, held as read-only columns.

    Metric tables and other per-impression columns computed from the
    corpus are cached on it, keyed by what they depend on.
    """

    columns: ImpressionColumns
    metadata: CorpusMetadata = field(default_factory=CorpusMetadata)
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_records(cls, records) -> "LogCorpus":
        """A corpus of records, read one at a time.  A record is a tuple
        of the :class:`Impression` fields in order, with each click a
        ``(result_id, position, dwell_seconds, terminated_query)`` tuple.
        An invalid record raises DataError."""
        builder = _ColumnBuilder()
        for record in records:
            reason = builder.add(*record)
            if reason is not None:
                raise DataError(f"impression {record[0]!r}: {reason}")
        return cls(builder.freeze(),
                   CorpusMetadata(accepted=len(builder.ids)))

    @classmethod
    def from_impressions(cls, impressions) -> "LogCorpus":
        return cls.from_records(map(_fields_of, impressions))

    def __len__(self) -> int:
        return len(self.columns)

    @cached_property
    def impressions(self) -> list[Impression]:
        """The records as Impression objects, rebuilt from the columns for
        record-level callers; no estimator reads them."""
        return [Impression(*f[:7], f[7], None if f[8] < 0 else f[8] == 1,
                           f[9])
                for f in _records(self.columns, range(len(self)), Click)]

    @property
    def has_dwell(self) -> bool:
        """False when any click lacks a dwell time (clicks-only fidelity)."""
        return not np.isnan(self.columns.click_dwell).any()


def normalize_query(text: str) -> str:
    """Lowercase, collapse internal whitespace, trim."""
    return _WS.sub(" ", text.strip()).lower()


def _invalid(impression_id, timestamp, query_text, results,
             clicks) -> str | None:
    """The first invariant a record's fields violate, else None."""
    if not impression_id:
        return "empty impression_id"
    if not results:
        return "empty results list"
    shown = set(results)
    if len(shown) != len(results):
        return "duplicate result_id in results"
    if not query_text:
        return "empty query_text"
    terminating = 0
    for result_id, position, dwell, terminated in clicks:
        if result_id not in shown:
            return f"click on result {result_id!r} absent from results"
        if position < 1 or position > len(results):
            return f"click position {position} out of range"
        if dwell < 0:              # False for NaN, which means no dwell
            return "negative dwell"
        terminating += terminated
    if terminating > 1:
        return "more than one terminating click"
    if not -(1 << 63) <= timestamp < 1 << 63:
        return f"timestamp {timestamp} out of range"
    return None


def validate_impression(imp: Impression) -> str | None:
    """Return a reason string if `imp` violates an invariant, else None."""
    f = _fields_of(imp)
    return _invalid(f[0], f[3], f[4], f[6], f[7])


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


def derive_reformulation_flags(columns: ImpressionColumns,
                               overlap_threshold: float = 0.5,
                               edit_threshold: float = 0.5) -> np.ndarray:
    """The reformulated column with unset flags filled from in-session
    successors.

    Each session is scanned in (timestamp, impression_id) order, and an
    unset flag becomes 1 at the first later, different query that is
    similar; set flags are kept.  The last query of a session can never
    be a reformulation source, so it gets 0.  Each (query, later query)
    pair is judged once per call.
    """
    flags = columns.reformulated
    if not (flags < 0).any():
        return flags
    n = len(columns)
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[columns.id_order] = np.arange(n)
    order = np.lexsort((id_rank, columns.timestamp, columns.session))
    session = columns.session[order].tolist()
    query = columns.query[order].tolist()
    flag = flags[order].tolist()
    texts = columns.queries
    similar: dict[tuple[int, int], bool] = {}
    for k in range(n):
        if flag[k] >= 0:
            continue
        s, q = session[k], query[k]
        found = 0
        j = k + 1
        while j < n and session[j] == s:
            later = query[j]
            if later != q:
                verdict = similar.get((q, later))
                if verdict is None:
                    verdict = similar[q, later] = _queries_similar(
                        texts[q], texts[later], overlap_threshold,
                        edit_threshold)
                if verdict:
                    found = 1
                    break
            j += 1
        flag[k] = found
    out = np.empty(n, dtype=np.int8)
    out[order] = flag
    return out


# ---------------------------------------------------------------------------
# NDJSON

def impression_to_dict(imp: Impression) -> dict:
    return {
        "impression_id": imp.impression_id,
        "user_id": imp.user_id,
        "session_id": imp.session_id,
        "timestamp": imp.timestamp,
        "query_text": imp.query_text,
        "topic": imp.topic,
        "results": list(imp.results),
        "clicks": [{"result_id": c.result_id, "position": c.position,
                    "dwell_seconds": c.dwell_seconds,
                    "terminated_query": c.terminated_query}
                   for c in imp.clicks],
        "reformulated": imp.reformulated,
        "demographics": {"age": imp.demographics.age.name,
                         "gender": imp.demographics.gender.code},
    }


def _json_click(result_id: str, position: int, dwell: float,
                terminated: bool) -> str:
    dwell = repr(dwell) if math.isfinite(dwell) else json.dumps(dwell)
    return (f'{{"result_id": {result_id}, "position": {position}, '
            f'"dwell_seconds": {dwell}, '
            f'"terminated_query": {"true" if terminated else "false"}}}')


def _ndjson_lines(cols: ImpressionColumns, rows):
    """The NDJSON line of each row, byte for byte ``json.dumps`` of its
    :func:`impression_to_dict`, from strings encoded once per vocabulary
    entry and per click."""
    enc = json.encoder.encode_basestring_ascii
    flag = ("false", "true", "null")        # indexed by 0, 1 and -1
    demographics = {p: json.dumps({"age": p.age.name,
                                   "gender": p.gender.code})
                    for p in _PROFILES}
    for f in _records(cols, rows, _json_click, enc):
        yield (f'{{"impression_id": {enc(f[0])}, "user_id": {f[1]}, '
               f'"session_id": {f[2]}, "timestamp": {f[3]}, '
               f'"query_text": {f[4]}, "topic": {f[5]}, '
               f'"results": [{", ".join(f[6])}], '
               f'"clicks": [{", ".join(f[7])}], '
               f'"reformulated": {flag[f[8]]}, '
               f'"demographics": {demographics[f[9]]}}}\n')


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


def _fields_from_line(line: str) -> tuple:
    rec = json.loads(line)
    demo = rec["demographics"]
    clicks = [
        (str(c["result_id"]), int(c["position"]),
         (float("nan") if c.get("dwell_seconds") is None
          else float(c["dwell_seconds"])),
         bool(_parse_bool(c.get("terminated_query")) or False))
        for c in rec["clicks"]
    ]
    return (str(rec["impression_id"]), str(rec["user_id"]),
            str(rec["session_id"]), int(rec["timestamp"]),
            normalize_query(str(rec["query_text"])), str(rec["topic"]),
            [str(r) for r in rec["results"]], clicks,
            _parse_bool(rec.get("reformulated")),
            _profile(str(demo["age"]), str(demo["gender"])))


# ---------------------------------------------------------------------------
# CSV

CSV_FIELDS = ["impression_id", "user_id", "session_id", "timestamp",
              "query_text", "topic", "results", "clicks", "reformulated",
              "age", "gender"]

_RESERVED = (":", ";")


def _csv_click(result_id: str, position: int, dwell: float,
               terminated: bool) -> str:
    return f"{position}:{result_id}:{'' if math.isnan(dwell) else repr(dwell)}" \
        f":{int(terminated)}"


def _csv_rows(cols: ImpressionColumns, rows):
    """The CSV row of each row, as a list in ``CSV_FIELDS`` order."""
    reserved = {r for r in cols.result_ids
                if any(ch in r for ch in _RESERVED)}
    flag = (0, 1, "")                       # indexed by 0, 1 and -1
    for f in _records(cols, rows, _csv_click):
        if reserved and not reserved.isdisjoint(f[6]):
            bad = next(r for r in f[6] if r in reserved)
            raise DataError(
                f"result id {bad!r} contains a reserved character; "
                "CSV packing requires ids without ':' or ';'")
        yield [*f[:6], ";".join(f[6]), ";".join(f[7]), flag[f[8]],
               f[9].age.name, f[9].gender.code]


def _unpack_clicks(packed: str) -> list[tuple]:
    clicks = []
    if not packed:
        return clicks
    for part in packed.split(";"):
        pos, rid, dwell, term = part.split(":")
        clicks.append((rid, int(pos),
                       float(dwell) if dwell else float("nan"),
                       bool(int(term))))
    return clicks


def _fields_from_row(row: dict) -> tuple:
    if None in row.values():            # a short row; the reader fills None
        missing = [f for f in CSV_FIELDS if row[f] is None]
        if missing:
            raise ValueError(f"missing fields: {', '.join(missing)}")
    return (row["impression_id"], row["user_id"], row["session_id"],
            int(row["timestamp"]), normalize_query(row["query_text"]),
            row["topic"],
            row["results"].split(";") if row["results"] else [],
            _unpack_clicks(row["clicks"]), _parse_bool(row["reformulated"]),
            _profile(row["age"], row["gender"]))


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

    builder = _ColumnBuilder()
    skipped = 0
    first_errors: list[str] = []
    # One streaming pass: records are parsed as lines are read, so the raw
    # text is never held whole.  newline="" lets the csv module see quoted
    # line breaks; json.loads ignores a line's trailing "\r\n".
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            if fmt == "ndjson":
                parse = _fields_from_line
                records = (line for line in fh if not line.isspace())
            else:
                parse = _fields_from_row
                records = reader = _csv.DictReader(fh)
                if reader.fieldnames is not None and set(CSV_FIELDS) - set(reader.fieldnames):
                    missing = sorted(set(CSV_FIELDS) - set(reader.fieldnames))
                    raise DataError(f"CSV header missing columns: {', '.join(missing)}")
            for record in records:
                try:
                    parsed = parse(record)
                except (KeyError, ValueError, TypeError, IndexError,
                        AttributeError) as exc:
                    reason = str(exc)
                else:
                    reason = builder.add(*parsed)
                if reason is not None:
                    skipped += 1
                    if len(first_errors) < 5:
                        first_errors.append(reason)
    except (OSError, UnicodeDecodeError, _csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    accepted = len(builder.ids)
    total = accepted + skipped
    if total > 0 and skipped * 2 > total:
        raise DataError(
            f"{skipped}/{total} records malformed in {path}; "
            f"first errors: {first_errors}")
    if skipped:
        logger.warning("ingest %s: skipped %d/%d records (first errors: %s)",
                       path, skipped, total, first_errors)

    columns = builder.freeze()
    del builder
    columns = replace(columns, reformulated=derive_reformulation_flags(
        columns, overlap_threshold, edit_threshold))
    return LogCorpus(columns, CorpusMetadata(accepted=accepted,
                                             skipped=skipped))


def emit(corpus: LogCorpus, path: str | Path, fmt: str = "ndjson") -> int:
    """Write a corpus in stable impression_id order; returns record count."""
    path = Path(path)
    cols = corpus.columns
    rows = cols.id_order.tolist()
    if fmt == "ndjson":
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_ndjson_lines(cols, rows))
    elif fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_FIELDS)
            writer.writerows(_csv_rows(cols, rows))
    else:
        raise DataError(f"unknown log format {fmt!r}")
    return len(corpus)
